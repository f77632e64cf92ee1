import contextlib
import hashlib
import io
import json
import os
import re
import time
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import cli
from schurkit.cli import _build_parser, _emit, _num, main, matrix_document
from schurkit.combinatorics import (
    _branching_plan,
    count_partitions,
    enumerate_gz,
    enumerate_partitions,
    gz_weight,
    kostka,
    partition_str,
    weights_of_size,
)
from schurkit.qtypes import trace_bound_check

SCHEMA = json.loads(
    resources.files("schurkit").joinpath("schemas/document.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def state_file(tmp_path, vector):
    vector = np.asarray(vector, dtype=complex)
    doc = {
        "kind": "matrix",
        "rows": len(vector),
        "cols": 1,
        "data": [[float(x.real), float(x.imag)] for x in vector],
        "row_labels": [str(i) for i in range(len(vector))],
        "col_labels": ["0"],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_dims_table(capsys):
    code, out, _ = run(capsys, "dims", "--d", "2", "--n", "3")
    assert code == 0
    assert "3" in out and "2,1" in out
    lines = {tuple(l.split()[:4]) for l in out.splitlines()[1:3]}
    assert ("3", "4", "1", "4") in lines
    assert ("2,1", "2", "2", "4") in lines


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--d", "3", "--n", "4"),
        ("kostka", "--d", "2", "--n", "3"),
        ("schur", "--d", "2", "--n", "2"),
        ("cg", "--d", "2", "--lambda", "2,1"),
        ("rho", "--r", "0.6,0.4", "--n", "3"),
        ("spectrum", "--r", "0.7,0.3", "--n", "6", "--trials", "200"),
        ("compress", "--r", "0.9,0.1", "--n", "16", "--rate", "0.8"),
        ("typebounds", "--r", "0.8,0.2", "--n", "8"),
        ("qft", "--n", "3"),
        ("channel", "--spec", "dephasing", "--n", "2"),
    ],
)
def test_json_documents_validate_against_schema(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["kind"] in ("matrix", "table")


def test_schur_d2_n1_is_identity_document(capsys):
    code, doc = run_json(capsys, "schur", "--d", "2", "--n", "1")
    assert code == 0
    assert doc["rows"] == doc["cols"] == 2
    assert doc["data"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_verify_passes_and_is_deterministic(capsys):
    args = ("verify", "--d", "2", "--n", "4", "--trials", "20", "--seed", "7")
    code, out1, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    doc = json.loads(out1)
    jsonschema.validate(doc, SCHEMA)
    assert doc["scalars"]["max_leakage"] < 1e-10
    code, out2, _ = run(capsys, *args, "--format", "json")
    assert out1 == out2  # byte-identical for identical argv + seed


def test_out_flag_writes_atomically(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out, _ = run(
        capsys, "dims", "--d", "2", "--n", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    jsonschema.validate(json.loads(target.read_text()), SCHEMA)


def test_out_into_a_missing_directory_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "doc.json"
    code, out, err = run(
        capsys, "schur", "--d", "2", "--n", "2", "--format", "json", "--out", str(target)
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not target.parent.exists()


def test_a_write_failing_part_way_leaves_the_target_untouched(tmp_path, capsys, monkeypatch):
    target = tmp_path / "doc.json"
    target.write_text("kept\n")
    real_fdopen = os.fdopen

    class FullDisk:
        """The file mkstemp opened, refusing every piece after the first."""

        def __init__(self, fd, mode):
            self.fh = real_fdopen(fd, mode)
            self.pieces = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, pieces):
            for piece in pieces:
                if self.pieces:
                    raise OSError(28, "No space left on device")
                self.fh.write(piece)
                self.pieces += 1

    monkeypatch.setattr(cli, "_BLOCK", 4)
    monkeypatch.setattr(cli.os, "fdopen", FullDisk)
    code, out, err = run(
        capsys, "schur", "--d", "2", "--n", "3", "--format", "json", "--out", str(target)
    )
    assert code == 1 and out == ""
    assert err == "error: [Errno 28] No space left on device\n"
    assert target.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_out_writes_the_bytes_of_stdout(tmp_path, capsys, monkeypatch, fmt):
    argv = ("schur", "--d", "3", "--n", "4", "--format", fmt)
    whole = run(capsys, *argv)[1]
    # 81 x 81 entries in blocks of 12 rows: seven pieces
    monkeypatch.setattr(cli, "_BLOCK", 1000)
    target = tmp_path / "doc"
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == whole
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == whole.encode()


class _Sink:
    """A stdout that counts what is written and keeps none of it."""

    def writelines(self, pieces):
        self.size = sum(map(len, pieces))


def test_emit_holds_one_block_of_text_at_a_time():
    # the (2,10) JSON document is 35.9 MB, a block of 2^18 entries 9.4 MB
    args = _build_parser().parse_args(["schur", "--d", "2", "--n", "10"])
    doc, _ = args.func(args)
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            _emit(doc, "json", None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sink.size > 35e6 and peak < 16e6, (sink.size, peak)


def test_csv_output(capsys):
    code, out, _ = run(capsys, "rho", "--r", "0.5,0.5", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[-3] == "lambda,dim_q,dim_p,probability"
    assert len(lines[-1].split(",")) >= 4


def test_gpe_and_concentrate_read_state_files(tmp_path, capsys):
    psi = np.array([0.6, 0.0, 0.0, 0.8])
    code, doc = run_json(
        capsys, "concentrate", "--state", state_file(tmp_path, psi), "--n", "2"
    )
    assert code == 0
    assert doc["scalars"]["off_diagonal_mass"] < 1e-12
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    code, doc = run_json(
        capsys, "gpe", "--state", state_file(tmp_path, ghz), "--d", "2", "--n", "3"
    )
    assert code == 0
    probs = {row[0]: row[1] for row in doc["rows"]}
    assert abs(probs["3"] - 1.0) < 1e-10


def test_gpe_rejects_oversized_group_algebra(tmp_path, capsys):
    # d^n = 64 fits the cap but the n^n = 46656 group-algebra embedding does not
    psi = np.zeros(64)
    psi[0] = 1.0
    code, _, err = run(
        capsys, "gpe", "--state", state_file(tmp_path, psi), "--d", "2", "--n", "6"
    )
    assert code == 1
    assert "error:" in err


def test_channel_rejects_oversized_output_space(capsys):
    code, _, err = run(capsys, "channel", "--spec", "dephasing", "--n", "7")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("spectrum", "--n", "5", "--r", "0.5,0.5", "--trials", "0"), "trials >= 1"),
        (("spectrum", "--n", "5", "--r", "0.5,0.5", "--trials", "-3"), "trials >= 1"),
        (("compress", "--n", "0", "--r", "0.5,0.5"), "n must be >= 1"),
        (("typebounds", "--n", "0", "--r", "0.5,0.5"), "n must be >= 1"),
        (("cg", "--d", "0"), "d must be >= 1"),
        (("verify", "--d", "2", "--n", "3", "--trials", "0"), "trials >= 1"),
        (("verify", "--d", "2", "--n", "3", "--trials", "-3"), "trials >= 1"),
    ],
)
def test_invalid_sizes_exit_1(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and message in err


def test_cg_over_the_dense_cap_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("SCHURKIT_DENSE_CAP", "8")
    code, out, err = run(capsys, "cg", "--d", "3", "--lambda", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "exceeds cap" in err


def test_dims_past_the_cap_exits_1_at_once(capsys):
    # p(40) = 37338 rows, counted before any is listed
    t = time.perf_counter()
    code, out, err = run(capsys, "dims", "--d", "40", "--n", "40")
    assert time.perf_counter() - t < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "SCHURKIT_DENSE_CAP" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--d", "100", "--n", "100000"),
        ("rho", "--r", "0.5,0.3,0.2", "--n", "100000"),
        ("typebounds", "--r", "0.5,0.3,0.2", "--n", "100000"),
    ],
    ids=["dims", "rho", "typebounds"],
)
def test_oversized_row_counts_are_refused_before_they_are_counted(capsys, argv):
    # p(100000) has 108 digits; the count stops once it passes the cap
    t = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t < 0.1
    assert code == 1 and out == ""
    assert err.startswith("error: more than 4096 partitions") and len(err) < 150, err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--d", "2", "--n", "20000"),
        ("schur", "--d", "10", "--n", "5000"),
        ("channel", "--n", "300"),
        ("channel", "--n", "10000"),
        ("cg", "--d", "200", "--lambda", "50,50,50"),
        ("dims", "--d", "100", "--n", "100000"),
        ("kostka", "--d", "1000", "--n", "3"),
    ],
    ids=["verify", "schur", "channel300", "channel10000", "cg", "dims", "kostka"],
)
def test_every_refusal_past_the_cap_is_worded_by_the_cap(capsys, monkeypatch, argv):
    # some of these sizes run to thousands of digits; the one error line names none
    monkeypatch.delenv("SCHURKIT_DENSE_CAP", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 150, err
    assert err.startswith("error: more than 4096 ") and "exceeds cap 4096" in err
    assert "SCHURKIT_DENSE_CAP" in err and not re.search(r"\d{10}", err), err


def test_count_partitions_stops_once_past_the_bound():
    # partitions of 10**5 into at most 2 parts already number 50001
    assert count_partitions(100, 10**5, stop=4096) == 50001
    for d, n in [(3, 10), (5, 20), (40, 40)]:
        exact = count_partitions(d, n)
        assert count_partitions(d, n, stop=exact) == exact
        for stop in range(0, exact, max(1, exact // 50)):
            assert stop < count_partitions(d, n, stop=stop) <= exact


# sha256 of schur's stdout from when the CLI read S from the dense matrix
_SCHUR_SHA256 = {
    (2, 3, "json"): "34e2e42331390e79befa29f2e1eb5d905d1af65bca9691e8a2cb5a5a6fc3e808",
    (2, 3, "csv"): "b24ab822605212021882cdc8a44b0cb93c510e846fc7765f457e8d43234d9ce0",
    (2, 3, "table"): "a844f295956c5d26c1e628983f1744c6ad83bbaf989a5776909ee3c23fd7d6a1",
    (3, 3, "json"): "52702a39053f76a7badb82482d86c7c583e023886623a2fcdf94655ff771655c",
    (3, 3, "csv"): "64b55aa7baf41b4ac46a528adde28326ff5e2e90d62fdcf0d55be8f28e91abb9",
    (3, 3, "table"): "b2b3ca9248cda7853e9cabcbbc8f114d1b1add11f9c79ed84ef868f4f6b8c57e",
    (4, 3, "json"): "5d1ad0e02210bac694df3cdaa30b257a1801441e6b72545c473da511bb1c926b",
    (4, 3, "csv"): "aa9c5dbdaa477f39d419bcadaca09bbc1055ba84d2c0b509c79b6523fa1e5581",
    (4, 3, "table"): "42cec325e5615e08d44e64820a3dc158605729035c2b47820b50e92f2646514a",
    # every zero entry of S spelled 0.0, none -0.0
    (2, 8, "json"): "fa51aaa913efb05e0912d5df11452fb594b9fe0bfe490e727d3bcd6aa933528d",
}


@pytest.mark.parametrize("d,n,fmt", sorted(_SCHUR_SHA256))
def test_schur_documents_keep_their_bytes(capsys, monkeypatch, d, n, fmt):
    argv = ("schur", "--d", str(d), "--n", str(n), "--format", fmt)
    for block in (cli._BLOCK, 7):  # one block of rows, and one row per block
        monkeypatch.setattr(cli, "_BLOCK", block)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == _SCHUR_SHA256[d, n, fmt]


@pytest.mark.parametrize(
    "d,n,lam",
    [(1, 4, None), (2, 5, None), (3, 5, None), (4, 4, None), (2, 5, "3,1,1"), (3, 4, "2,1,1")],
)
def test_kostka_table_counts_the_patterns_of_each_weight(capsys, d, n, lam):
    argv = ("kostka", "--d", str(d), "--n", str(n)) + (("--lambda", lam) if lam else ())
    code, doc = run_json(capsys, *argv)
    weights = weights_of_size(d, n)
    assert code == 0 and doc["columns"][1:] == [",".join(map(str, mu)) for mu in weights]
    shapes = [tuple(map(int, lam.split(",")))] if lam else enumerate_partitions(d, n)
    assert [row[0] for row in doc["rows"]] == [partition_str(s) for s in shapes]
    for shape, row in zip(shapes, doc["rows"]):
        # a shape of more than d rows has no pattern
        found = [gz_weight(g) for g in enumerate_gz(shape, d)] if len(shape) <= d else []
        assert row[1:] == [found.count(mu) for mu in weights]
    # a weight with a negative entry has no pattern either
    assert kostka((2, 1), (4, -1)) == kostka((1,), (0, 2, -1)) == 0


def test_kostka_past_the_cap_exits_1_at_once(capsys):
    # p(50) = 204226 shapes, counted only until they pass the cap
    t = time.perf_counter()
    code, out, err = run(capsys, "kostka", "--d", "60", "--n", "50")
    assert time.perf_counter() - t < 0.5
    assert code == 1 and out == ""
    assert err.startswith("error: more than 4096 partitions of 50 into at most 60 parts")
    assert len(err.splitlines()) == 1


def test_concentrate_over_the_dense_cap_exits_1_at_once(tmp_path, capsys):
    # the (6, 4) pair state at n = 10 would be 8100 x 8100, past the cap
    bell = state_file(tmp_path, np.array([1, 0, 0, 1]) / np.sqrt(2))
    t = time.perf_counter()
    code, out, err = run(capsys, "concentrate", "--n", "10", "--state", bell)
    assert time.perf_counter() - t < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "SCHURKIT_DENSE_CAP" in err
    assert len(err.splitlines()) == 1


def test_usage_error_exits_64(capsys):
    assert run(capsys, "bogus")[0] == 64
    assert run(capsys, "dims", "--d", "2")[0] == 64  # missing --n
    assert run(capsys, "dims", "--d", "2", "--n", "3", "--wat")[0] == 64


def test_validation_error_exits_1(capsys):
    code, _, err = run(capsys, "rho", "--r", "0.7,0.4", "--n", "2")
    assert code == 1
    assert "error" in err
    assert run(capsys, "gpe", "--state", "/nonexistent", "--d", "2", "--n", "2")[0] == 1


def test_bound_violation_exits_2(capsys, monkeypatch):
    # an impossible tolerance turns a healthy run into a reported violation
    code, _, _ = run(
        capsys, "verify", "--d", "2", "--n", "3", "--trials", "2", "--tol", "1e-30"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--d", "2", "--n", "3", "--tol", "nan"),
        ("verify", "--d", "2", "--n", "3", "--tol", "-1"),
        ("concentrate", "--n", "2", "--state", "unread.json", "--tol", "0"),
        ("qft", "--n", "3", "--tol", "nan"),
        ("channel", "--n", "2", "--tol", "inf"),
        ("compress", "--n", "4", "--r", "0.5,0.5", "--rate", "nan"),
        ("compress", "--n", "4", "--r", "0.5,0.5", "--rate", "inf"),
        ("typebounds", "--n", "4", "--r", "0.5,0.5", "--delta", "nan"),
        ("typebounds", "--n", "4", "--r", "0.5,0.5", "--delta", "-0.5"),
        ("typebounds", "--n", "4", "--r", "0.5,0.5", "--delta", "0.1x"),
    ],
)
def test_float_flags_must_be_finite_and_positive(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert f"argument {argv[-2]}: expected a finite number > 0" in err


def test_commands_run_past_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "schur", "--d", "500", "--n", "1", "--format", "csv")
    assert code == 0 and out.count("\n") == 1 + 500 * 500
    code, out, _ = run(capsys, "verify", "--d", "1100", "--n", "1", "--trials", "1")
    assert code == 0 and "passed = true" in out
    # a Kostka table with C(1002, 3) columns is refused before any is listed
    code, out, err = run(capsys, "kostka", "--d", "1000", "--n", "3")
    assert code == 1 and out == "" and "exceeds cap" in err


def test_typebounds_reads_one_branching_plan(capsys):
    argv = ("typebounds", "--r", "0.5,0.3,0.2", "--n", "12", "--format", "json")
    _branching_plan.cache_clear()
    code, doc = run_json(capsys, *argv)
    assert code == 0 and _branching_plan.cache_info().currsize == 1
    r = (0.5, 0.3, 0.2)
    expected = []
    for lam in enumerate_partitions(3, 12):
        rec = trace_bound_check(lam, r, 12)
        expected.append([partition_str(lam), rec.value, rec.lower, rec.upper, rec.bounds_hold])
    assert doc["rows"] == expected


_SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf, np.nan]


@st.composite
def _matrices(draw):
    edge = st.sampled_from([(0, 0), (1, 1), (0, 3), (2, 0)])
    rows, cols = draw(edge | st.tuples(st.integers(1, 4), st.integers(1, 4)))
    entry = st.sampled_from(_SPECIAL) | st.floats(allow_nan=True, allow_subnormal=True)
    entries = st.lists(entry, min_size=rows * cols, max_size=rows * cols)
    parts = [draw(entries), draw(entries)] if draw(st.booleans()) else [draw(entries)]
    matrix = np.zeros((rows, cols), dtype=complex)
    for k, part in enumerate(parts):  # set the halves, so -0.0 and NaN survive
        matrix.view(np.float64)[:, k::2] = np.reshape(part, (rows, cols))
    labels = st.lists(st.text() | st.just('"data": null'), min_size=rows, max_size=rows)
    return matrix if len(parts) == 2 else matrix.real, draw(labels), list(range(cols))


# entries per written piece: one, a size that splits rows of 2 to 4 entries
# into blocks of fewer whole rows, and the default (one piece per document)
_BLOCKS = st.sampled_from([1, 7, cli._BLOCK])


def _pairs(matrix):
    """The [re, im] pairs of the entries in row-major order, as floats."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(matrix, complex).reshape(-1)]


def _emitted(doc, fmt, block=cli._BLOCK):
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(buf):
        mp.setattr(cli, "_BLOCK", block)
        _emit(doc, fmt, None)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(_matrices(), _BLOCKS)
def test_matrix_json_is_the_indented_dump(case, block):
    matrix, row_labels, col_labels = case
    doc = matrix_document(lambda a, b: matrix[a:b], row_labels, col_labels)
    assert (doc["rows"], doc["cols"]) == matrix.shape
    text = _emitted(doc, "json", block)
    # the data are the [re, im] pairs of the entries, bit for bit
    doc["data"] = _pairs(matrix)
    assert text == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_matrices(), _BLOCKS)
def test_matrix_csv_and_table_are_the_per_entry_loops(case, block):
    matrix, row_labels, col_labels = case
    doc = matrix_document(lambda a, b: matrix[a:b], row_labels, col_labels)
    assert (doc["rows"], doc["cols"]) == matrix.shape
    cols, data = doc["cols"], _pairs(matrix)
    lines = ["row,col,re,im"]
    for k, (re, im) in enumerate(data):
        lines.append(f"{k // cols},{k % cols},{_num(re)},{_num(im)}")
    assert _emitted(doc, "csv", block) == "\n".join(lines) + "\n"
    lines = [f"matrix {doc['rows']} x {cols}"]
    for i in range(doc["rows"]):
        cells = []
        for re, im in data[i * cols : (i + 1) * cols]:
            cells.append(f"{re:+.6f}{im:+.6f}j" if im else f"{re:+.6f}")
        lines.append(f"{doc['row_labels'][i]:>24} | " + " ".join(cells))
    assert _emitted(doc, "table", block) == "\n".join(lines) + "\n"


def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (3, 2), (11, 2)])
def test_schur_column_labels_are_the_computational_basis(d, n):
    args = _build_parser().parse_args(["schur", "--d", str(d), "--n", str(n)])
    doc, _ = args.func(args)
    digits = [np.unravel_index(k, (d,) * n) for k in range(d**n)]
    assert doc["col_labels"] == ["|" + "".join(map(str, w)) + ">" for w in digits]


@pytest.mark.parametrize(
    "argv",
    [
        ("schur", "--d", "2", "--n", "4"),
        ("cg", "--d", "3", "--lambda", "2,1"),
        ("qft", "--n", "3"),
        ("channel", "--n", "2"),
    ],
)
def test_json_output_is_the_indented_dump_of_the_document(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    args = _build_parser().parse_args(list(argv))
    doc, _ = args.func(args)
    if doc["kind"] == "matrix":
        doc["data"] = _pairs(doc["data"](0, doc["rows"]))
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("command", ["gpe", "channel"])
@pytest.mark.parametrize(
    "content",
    [
        {"kind": "matrix", "rows": 2, "cols": 1, "data": [["a", "b"], [0.0, 0.0]]},
        {"kind": "matrix", "rows": 2, "cols": 1, "data": [[1.0], [0.0, 0.0]]},
        {"kind": "matrix", "rows": 2, "cols": 1, "data": [[1.0], [0.0]]},
        [[1.0, 0.0], [0.0, 0.0]],
        {"kind": "matrix", "rows": 2, "cols": 1, "data": [[np.nan, 0.0], [0.0, 0.0]]},
        {"kind": "matrix", "rows": 2, "cols": 1, "data": [[1.0, 0.0], [np.inf, 0.0]]},
    ],
    ids=[
        "string-entry",
        "ragged-entry",
        "one-element-entries",
        "top-level-list",
        "nan-entry",
        "infinite-entry",
    ],
)
def test_malformed_matrix_files_exit_1(tmp_path, capsys, command, content):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(content))
    argv = {
        "gpe": ("gpe", "--state", str(path), "--d", "2", "--n", "1"),
        "channel": ("channel", "--spec", str(path), "--n", "1"),
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not a matrix document" in err


@pytest.mark.parametrize("command", ["rho", "typebounds", "spectrum", "compress"])
def test_sector_masses_past_float64_exit_1(capsys, command):
    # dim_p((1000, 1000)) passes float64: one error line, no traceback
    code, out, err = run(capsys, command, "--r", "0.5,0.5", "--n", "2000")
    assert code == 1 and out == ""
    assert err == "error: the sector masses at n = 2000 leave float64's range\n"


def test_channel_takes_its_dimensions_from_the_isometry(tmp_path, capsys):
    # a 4 x 3 isometry maps C^3 into C^2 tensor C^2
    u, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 3)))
    path = tmp_path / "iso.json"
    path.write_text(json.dumps({"rows": 4, "cols": 3, "data": [[x, 0.0] for x in u.ravel()]}))
    code, doc = run_json(capsys, "channel", "--spec", str(path), "--n", "2")
    assert code == 0 and doc["rows"]
    assert doc["scalars"]["reconstruction_residual"] < 1e-10
    assert doc["scalars"]["isometry_residual"] < 1e-10
    assert {row[0] for row in doc["rows"]} == {"2", "1,1"}
