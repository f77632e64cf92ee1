"""Command-line front end: tabulates dimensions and Kostka numbers, emits
the Schur and Clebsch-Gordan matrices as JSON documents, and drives the
verification and application routines.

Output is deterministic for identical argv (and --seed); every JSON document
conforms to schemas/document.schema.json shipped with the package.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .channels import channel_normal_form, kronecker
from .combinatorics import (
    _kostka_rows,
    count_partitions,
    dim_p,
    dim_q,
    enumerate_partitions,
    parse_partition,
    partition_str,
    weights_of_size,
)
from .duality_checks import verify_block_diagonal
from .operators import dense_cap, max_or_nan, require_dense
from .qtypes import (
    compress_rate,
    sector_distribution,
    spectrum_estimate,
    concentrate,
    trace_bound_checks,
    typical_mass,
)
from .schur_transform import schur
from .sn_fourier import gpe_measure, sn_qft_from_schur
from .wigner import cg_block

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BOUND = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


def _positive_float(text: str) -> float:
    """The argparse type of every float flag: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# documents


def _num(x) -> str:
    """Deterministic decimal form (repr round-trips floats exactly)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def matrix_document(read, row_labels, col_labels) -> dict:
    """A matrix document with one row and one column per label.  Its data
    are the reader read: read(a, b) gives rows a..b - 1 of the matrix, real
    or complex, which _emit spells a block of rows at a time."""
    return {
        "kind": "matrix",
        "rows": len(row_labels),
        "cols": len(col_labels),
        "data": read,
        "row_labels": [str(l) for l in row_labels],
        "col_labels": [str(l) for l in col_labels],
    }


def table_document(columns, rows, scalars=None) -> dict:
    return {
        "kind": "table",
        "columns": list(columns),
        "rows": [[cell for cell in row] for row in rows],
        "scalars": dict(scalars or {}),
    }


# entries per written piece of a matrix document: each piece is whole rows,
# so the document's text is never held whole
_BLOCK = 1 << 18


def _matrix_pieces(doc: dict, head: str, tail: str, block_text):
    """Yield a matrix document's text one block of whole rows (about _BLOCK
    entries) at a time.  block_text(rows, pairs) gives the strings that spell
    one block, rows its range of row indices and pairs its (m, 2) float64
    [re, im] pairs.  head is glued onto the first piece and tail onto the
    last, so a document of one block is one string."""
    rows, cols = doc["rows"], doc["cols"]
    step = max(1, _BLOCK // max(cols, 1))
    parts = [head]
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        block = np.array(doc["data"](start, stop), dtype=complex, order="C")
        parts += block_text(range(start, stop), block.view(np.float64).reshape(-1, 2))
        if stop < rows:
            # hold no reference to a piece once yielded, nor to its parts
            parts = ["".join(parts)]
            yield parts.pop()
    parts.append(tail)
    yield "".join(parts)


def _distinct_pairs(pairs: np.ndarray):
    """(live, which, distinct) for an (m, 2) float64 block of [re, im] pairs:
    live indexes the entries with a bit set (-0.0 has one), distinct is a
    (k + 1, 2) float64 array of [0.0, 0.0] and their k distinct bit
    patterns, and entry live[i] is distinct[which[i]]."""
    bits = pairs.view(np.int64)
    live = ((bits[:, 0] | bits[:, 1]) != 0).nonzero()[0]
    re, which = np.unique(bits[live, 0], return_inverse=True)
    im = np.zeros_like(re)
    if bits[live, 1].any():  # pair the two indices; a real block skips these sorts
        im, im_which = np.unique(bits[live, 1], return_inverse=True)
        keys, which = np.unique(which * len(im) + im_which, return_inverse=True)
        re, im = re[keys // len(im)], im[keys % len(im)]
    distinct = np.stack([np.append(0, re), np.append(0, im)], axis=1)
    return live, which.ravel() + 1, distinct.view(np.float64)


def _spelled_entries(pairs: np.ndarray, spell) -> np.ndarray:
    """The (m,) object array of one block's spelled entries: spell maps the
    distinct [re, im] pairs (a (k, 2) float64 array, [0.0, 0.0] first) to
    their k spellings."""
    live, which, distinct = _distinct_pairs(pairs)
    codes = np.zeros(len(pairs), np.intp)
    codes[live] = which
    return np.array(spell(distinct), dtype=object)[codes]


_PAIR = "    [\n      %s,\n      %s\n    ],\n"


def _json_pairs(pairs: np.ndarray) -> list:
    """The pairs as the C encoder spells them (-0.0, NaN and Infinity as
    json does), each in its indent=2 list form followed by ",\n"; each
    distinct float is spelled once."""
    words, which = np.unique(pairs.view(np.int64).ravel(), return_inverse=True)
    words = json.dumps(words.view(np.float64).tolist())[1:-1].split(", ")
    return [_PAIR % (words[a], words[b]) for a, b in which.reshape(-1, 2).tolist()]


# the longest run of zero entries spelled as one string
_RUN = 64


def _json_entries(pairs: np.ndarray, last: bool) -> list:
    """The indent=2 spellings of one block's entries, each followed by
    ",\n" but the document's last (if last): one string per nonzero entry,
    and a run of k zero entries as k // _RUN strings of _RUN of them and one
    of k % _RUN, so the block holds at most _RUN distinct runs."""
    live, which, distinct = _distinct_pairs(pairs)
    spelled = np.array(_json_pairs(distinct), dtype=object)
    zero = spelled[0]
    full, rest = np.divmod(np.diff(live, prepend=-1, append=len(pairs)) - 1, _RUN)
    # per gap: its full runs, the rest of it and the nonzero entry after it
    cells = np.empty((len(full), 3), dtype=object)
    cells[:, 0] = zero * _RUN
    cells[:, 1] = np.array([zero * k for k in range(_RUN)], dtype=object)[rest]
    cells[:-1, 2], cells[-1, 2] = spelled[which], ""
    counts = np.ones_like(cells, dtype=np.intp)
    counts[:, 0] = full
    parts = np.repeat(cells.reshape(-1), counts.reshape(-1)).tolist()
    if last:
        while not parts[-1]:
            parts.pop()
        parts[-1] = parts[-1][:-2]
    return parts


def _matrix_json(doc: dict):
    """json.dumps(doc, indent=2) + "\n" for a matrix document, a block of
    rows at a time, without the pure-Python encoder that indent selects:
    each block spells its distinct [re, im] pairs once."""
    # "data" follows kind, rows and cols, so its null is the first one
    head, tail = json.dumps({**doc, "data": None}, indent=2).split('"data": null', 1)
    if not doc["rows"] * doc["cols"]:
        yield head + '"data": []' + tail + "\n"
        return
    yield from _matrix_pieces(
        doc,
        head + '"data": [\n',
        "\n  ]" + tail + "\n",
        lambda rows, pairs: _json_entries(pairs, rows.stop == doc["rows"]),
    )


def _emit(doc: dict, fmt: str, out) -> None:
    """Write the document in fmt to the file out (atomically: a temporary
    file beside it, renamed over it once whole) or to stdout."""
    if fmt == "json" and doc["kind"] == "matrix":
        pieces = _matrix_json(doc)
    elif fmt == "json":
        pieces = [json.dumps(doc, indent=2) + "\n"]
    elif fmt == "csv":
        pieces = _to_csv(doc)
    else:
        pieces = _to_text(doc)
    if not out:
        sys.stdout.writelines(pieces)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".schurkit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _cell(v) -> str:
    if isinstance(v, (bool, int, float)):
        return _num(v)
    return str(v)


def _to_csv(doc: dict):
    if doc["kind"] == "matrix":
        # one "row,col,re,im" line per entry, the pair spelled with repr (as
        # _num) where json says NaN
        cols = doc["cols"]
        col_cells = np.array([f"{j}," for j in range(cols)], dtype=object)

        def block_text(rows, pairs):
            cells = np.empty((len(rows), cols, 3), dtype=object)
            cells[..., 0] = np.array([f"{i}," for i in rows], dtype=object)[:, None]
            cells[..., 1] = col_cells
            cells[..., 2] = _spelled_entries(
                pairs, lambda pairs: [f"{re!r},{im!r}\n" for re, im in pairs.tolist()]
            ).reshape(len(rows), cols)
            return cells.ravel().tolist()

        yield from _matrix_pieces(doc, "row,col,re,im\n", "", block_text)
        return
    lines = [f"# {name}={_cell(value)}" for name, value in doc["scalars"].items()]
    lines.append(",".join(doc["columns"]))
    for row in doc["rows"]:
        lines.append(",".join(_cell(v) for v in row))
    yield "\n".join(lines) + "\n"


def _to_text(doc: dict):
    if doc["kind"] == "matrix":
        labels, cols = doc["row_labels"], doc["cols"]

        def block_text(rows, pairs):
            entries = _spelled_entries(pairs, lambda pairs: [
                f"{re:+.6f}{im:+.6f}j" if im else f"{re:+.6f}" for re, im in pairs.tolist()
            ])
            return [
                f"{labels[i]:>24} | {' '.join(cells)}\n"
                for i, cells in zip(rows, entries.reshape(len(rows), cols).tolist())
            ]

        yield from _matrix_pieces(doc, f"matrix {doc['rows']} x {cols}\n", "", block_text)
        return
    widths = [len(c) for c in doc["columns"]]
    rows = [[_cell(v) for v in row] for row in doc["rows"]]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(doc["columns"], widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    for name, value in doc["scalars"].items():
        lines.append(f"{name} = {_cell(value)}")
    yield "\n".join(lines) + "\n"


def _read_matrix(path: str) -> np.ndarray:
    """The complex matrix of a JSON matrix document; ValueError if the file
    does not hold rows * cols numeric [re, im] pairs."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        rows, cols = doc["rows"], doc["cols"]
        pairs = np.asarray(doc["data"], dtype=float)
        ok = type(rows) is type(cols) is int and min(rows, cols) >= 0
        ok = ok and pairs.shape == (rows * cols, 2) and np.isfinite(pairs).all()
    except (KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{path}: not a matrix document of finite [re, im] pairs")
    return pairs.view(complex).reshape(rows, cols)


def _read_state(path: str) -> np.ndarray:
    """Column vector from a JSON matrix document."""
    matrix = _read_matrix(path)
    if matrix.shape[1] != 1:
        raise ValueError("state file must be a matrix document with cols = 1")
    return matrix.reshape(-1)


def _parse_probs(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse probability vector: {text!r}")


# ---------------------------------------------------------------------------
# subcommands (each returns (document, exit code))


def _require_shapes(d: int, n: int) -> None:
    """The dense guard for the partitions of n into at most d parts, counted up to the cap."""
    count = count_partitions(d, n, stop=dense_cap())
    require_dense(count, what="partitions of {} into at most {} parts", of=(n, d))


def _cmd_dims(args):
    _require_shapes(args.d, args.n)
    rows = []
    total = 0
    for lam in enumerate_partitions(args.d, args.n):
        nq, np_ = dim_q(lam, args.d), dim_p(lam)
        total += nq * np_
        rows.append([partition_str(lam), nq, np_, nq * np_])
    doc = table_document(
        ["lambda", "dim_q", "dim_p", "dim_q*dim_p"],
        rows,
        {"total": total, "d^n": args.d**args.n},
    )
    return doc, EXIT_OK


def _cmd_kostka(args):
    lams = [parse_partition(args.lam)] if args.lam else None
    # one row per shape and one column per weight, both counted before any is listed
    if not lams:
        _require_shapes(args.d, args.n)
    count = math.comb(args.n + args.d - 1, args.n)
    require_dense(count, what="{}-letter weights of {}", of=(args.d, args.n))
    lams = lams or enumerate_partitions(args.d, args.n)
    weights = weights_of_size(args.d, args.n)
    rows = [[partition_str(lam)] + row for lam, row in zip(lams, _kostka_rows(lams, weights))]
    columns = ["lambda"] + [",".join(str(x) for x in mu) for mu in weights]
    return table_document(columns, rows), EXIT_OK


def _cmd_schur(args):
    t = schur(args.d, args.n)
    digits = [str(x) for x in range(args.d)]
    col_labels = [
        "|" + "".join(word) + ">" for word in itertools.product(digits, repeat=args.n)
    ]
    return matrix_document(t.rows, t.codec.row_strings(), col_labels), EXIT_OK


def _cmd_cg(args):
    lam = parse_partition(args.lam) if args.lam else ()
    block = cg_block(lam, args.d)
    # a label spells a whole GZ pattern; csv prints none, so it gets blank ones
    spell = args.format != "csv"
    rows = [f"lam'={partition_str(lp)} q={g}" if spell else "" for lp, g in block.row_labels]
    cols = [f"q={g} i={i}" if spell else "" for g, i in block.col_labels]
    return matrix_document(lambda a, b: block.matrix[a:b], rows, cols), EXIT_OK


def _haar(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _cmd_verify(args):
    if args.trials < 1:
        raise ValueError("verify needs trials >= 1")
    rng = np.random.default_rng(args.seed)
    rows = []
    for t in range(args.trials):
        u = _haar(rng, args.d)
        s = tuple(int(x) + 1 for x in rng.permutation(args.n))
        report = verify_block_diagonal(u, s, args.d, args.n, tol=args.tol)
        rows.append([t, report.leakage, report.worst_factor_residual])
    worst_leak = max_or_nan(row[1] for row in rows)
    worst_res = max_or_nan(row[2] for row in rows)
    ok = worst_leak < args.tol and worst_res < 10 * args.tol
    doc = table_document(
        ["trial", "leakage", "factor_residual"],
        rows,
        {
            "max_leakage": worst_leak,
            "max_factor_residual": worst_res,
            "tolerance": args.tol,
            "passed": ok,
        },
    )
    return doc, EXIT_OK if ok else EXIT_BOUND


def _cmd_rho(args):
    r = _parse_probs(args.r)
    _require_shapes(len(r), args.n)
    dist = sector_distribution(r, args.n)
    rows = [
        [partition_str(lam), dim_q(lam, len(r)), dim_p(lam), w]
        for lam, w in dist.items()
    ]
    doc = table_document(
        ["lambda", "dim_q", "dim_p", "probability"],
        rows,
        {"total": math.fsum(w for _, _, _, w in rows)},
    )
    return doc, EXIT_OK


def _cmd_spectrum(args):
    r = _parse_probs(args.r)
    _require_shapes(len(r), args.n)
    report = spectrum_estimate(r, args.n, args.trials, seed=args.seed)
    rows = [[delta, rate] for delta, rate in report.failure_rates.items()]
    doc = table_document(
        ["delta", "failure_rate"],
        rows,
        {"n": args.n, "trials": args.trials, "seed": args.seed},
    )
    return doc, EXIT_OK


def _cmd_concentrate(args):
    psi = _read_state(args.state)
    report = concentrate(psi, args.n)
    rows = []
    for lam, w in report.outcome_weights.items():
        sv = report.schmidt_values[lam]
        spread = float(sv.max() - sv.min()) if len(sv) else 0.0
        rows.append([partition_str(lam), dim_p(lam), w, spread])
    doc = table_document(
        ["lambda", "dim_p", "probability", "schmidt_spread"],
        rows,
        {
            "off_diagonal_mass": report.off_diagonal_mass,
            "distortion_free_residual": report.distortion_free_residual,
        },
    )
    ok = report.distortion_free_residual < args.tol and report.off_diagonal_mass < args.tol
    return doc, EXIT_OK if ok else EXIT_BOUND


def _cmd_compress(args):
    r = _parse_probs(args.r)
    _require_shapes(len(r), args.n)
    record = compress_rate(r, args.n, args.rate)
    rows = [[partition_str(lam)] for lam in record.kept]
    doc = table_document(
        ["kept_lambda"],
        rows,
        {
            "rate": record.rate,
            "effective_rate": record.effective_rate,
            "kept_mass": record.kept_mass,
            "error_mass": record.error_mass,
            "kept_dimension": record.kept_dimension,
            "dimension_ok": record.dimension_ok,
            "error_exponent_bound": record.error_exponent_bound,
        },
    )
    return doc, EXIT_OK if record.dimension_ok else EXIT_BOUND


def _cmd_typebounds(args):
    r = _parse_probs(args.r)
    _require_shapes(len(r), args.n)
    rows = []
    ok = True
    for rec in trace_bound_checks(r, args.n):
        ok = ok and rec.bounds_hold
        rows.append(
            [partition_str(rec.lam), rec.value, rec.lower, rec.upper, rec.bounds_hold]
        )
    mass = typical_mass(r, args.n, args.delta)
    ok = ok and mass.bound_holds
    doc = table_document(
        ["lambda", "mass", "lower", "upper", "holds"],
        rows,
        {
            "delta": args.delta,
            "typical_mass": mass.mass,
            "typical_lower_bound": mass.lower_bound,
            "trivially_satisfied": mass.trivially_satisfied,
            "all_bounds_hold": ok,
        },
    )
    return doc, EXIT_OK if ok else EXIT_BOUND


def _cmd_qft(args):
    f, layout = sn_qft_from_schur(args.n)
    rows = [
        f"lam={partition_str(lam)} a={a} b={b}"
        for lam, _ in layout.blocks
        for a in range(1, dim_p(lam) + 1)
        for b in range(1, dim_p(lam) + 1)
    ]
    cols = ["|" + "".join(str(v) for v in s) + ">" for s in f.col_labels]
    doc = matrix_document(lambda a, b: f.matrix[a:b], rows, cols)
    residual = f.unitarity_residual()
    return doc, EXIT_OK if residual < args.tol else EXIT_BOUND


def _cmd_gpe(args):
    state = _read_state(args.state)
    result = gpe_measure(state, args.d, args.n)
    rows = [
        [partition_str(lam), p, result.ancilla_fidelity.get(lam, "")]
        for lam, p in result.distribution.items()
    ]
    doc = table_document(["lambda", "probability", "ancilla_fidelity"], rows)
    return doc, EXIT_OK


_BUILTIN_CHANNELS = {
    # isometric extensions |i> -> |i>_B |e(i)>_E for two-dimensional input
    "identity": [[1, 0], [0, 0], [0, 1], [0, 0]],
    "dephasing": [[1, 0], [0, 0], [0, 0], [0, 1]],
}


def _read_channel(path: str) -> np.ndarray:
    if path in _BUILTIN_CHANNELS:
        return np.array(_BUILTIN_CHANNELS[path], dtype=complex)
    return _read_matrix(path)


def _cmd_channel(args):
    u_n = _read_channel(args.spec)
    nf = channel_normal_form(u_n, args.n)
    rows = []
    for key in sorted(nf.coefficients, key=str):
        lam_a, qa, lam_b, lam_e, qb, qe, alpha = key
        c = nf.coefficients[key]
        rows.append(
            [
                partition_str(lam_a),
                qa,
                partition_str(lam_b),
                partition_str(lam_e),
                qb,
                qe,
                alpha,
                kronecker(lam_a, lam_b, lam_e),
                c.real,
                c.imag,
            ]
        )
    doc = table_document(
        ["lamA", "qA", "lamB", "lamE", "qB", "qE", "alpha", "g", "re", "im"],
        rows,
        {
            "reconstruction_residual": nf.reconstruction_residual,
            "isometry_residual": nf.isometry_residual,
        },
    )
    ok = nf.reconstruction_residual < args.tol and nf.isometry_residual < args.tol
    return doc, EXIT_OK if ok else EXIT_BOUND


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> _Parser:
    # built on the first main() call, not at import, and kept for the process
    parser = _Parser(prog="schurkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if flags.pop("d", False):
            p.add_argument("--d", type=int, required=True, help="local dimension")
        if flags.pop("n", False):
            p.add_argument("--n", type=int, required=True, help="number of systems")
        if flags.pop("lam", False):
            p.add_argument("--lambda", dest="lam", default=None, help="partition, comma syntax")
        if flags.pop("r", False):
            p.add_argument("--r", required=True, help="probabilities, comma syntax")
        if flags.pop("state", False):
            p.add_argument("--state", required=True, help="JSON matrix document, column vector")
        for flag, (kind, default, help_text2) in flags.items():
            p.add_argument(f"--{flag}", type=kind, default=default, help=help_text2)
        formats = ("table", "json", "csv")
        p.add_argument("--format", choices=formats, default="table", help="output format")
        p.add_argument("--out", default=None, help="write output to a file atomically")
        return p

    tol = (_positive_float, 1e-10, "numerical tolerance")
    seed = (int, 0, "RNG seed")
    add("dims", _cmd_dims, "sector dimension table", d=True, n=True)
    add("kostka", _cmd_kostka, "Kostka numbers by weight", d=True, n=True, lam=True)
    add("schur", _cmd_schur, "the Schur transform matrix", d=True, n=True)
    add("cg", _cmd_cg, "one Clebsch-Gordan coupling block", d=True, lam=True)
    add("verify", _cmd_verify, "randomized duality verification", d=True, n=True,
        seed=seed, trials=(int, 20, "random (U, s) pairs"), tol=tol)
    add("rho", _cmd_rho, "sector distribution of a product state", n=True, r=True)
    add("spectrum", _cmd_spectrum, "Monte Carlo spectrum estimation", n=True, r=True,
        seed=seed, trials=(int, 10000, "samples"))
    add("concentrate", _cmd_concentrate, "entanglement concentration report", n=True,
        state=True, tol=tol)
    add("compress", _cmd_compress, "universal compression at a fixed rate", n=True, r=True,
        rate=(_positive_float, 1.0, "qubits per symbol"))
    add("typebounds", _cmd_typebounds, "sector-mass sandwich and typicality bounds", n=True,
        r=True, delta=(_positive_float, 0.1, "typicality radius"))
    add("qft", _cmd_qft, "symmetric-group Fourier transform", n=True, tol=tol)
    add("gpe", _cmd_gpe, "generalized phase estimation marginals", d=True, n=True, state=True)
    add("channel", _cmd_channel, "normal form of n channel copies", n=True,
        spec=(str, "dephasing", "isometry file or builtin name"), tol=tol)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return EXIT_USAGE
    try:
        doc, code = args.func(args)
        _emit(doc, args.format, args.out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
