"""The Schur transform on n qudits, built by cascading Clebsch-Gordan
blocks one torus-weight block at a time, with an explicit label codec,
Schur-basis measurement, an independent character-theoretic projector
oracle, and encode/decode into the permutation-module (decoherence-free)
sectors.  Every product with S and every dense read of its rows goes
through its weight blocks.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np

from .characters import character
from .combinatorics import (
    _gz_weights,
    _weight_classes,
    add_box,
    dim_p,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    normalize,
    partition_str,
    sibling_offset,
)
from .operators import (
    DenseOperator,
    _image_indices,
    real_complex_matmul,
    require_dense,
)
from .permutations import all_permutations, cycle_type
from .wigner import cg_triplets


class SchurLabelCodec:
    """Deterministic ordering of (lam, q, p) triples onto output row indices.

    Rows are ordered by lam in enumerate_partitions(d, n) order, then by the
    GZ-pattern index q in [1, dim_q] (enumerate_gz order), then by the path
    index p in [1, dim_p] (the Young-Yamanouchi rank that yy_unindex
    inverts).  There are exactly d^n rows and every one carries support of
    the Schur unitary.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        # sectors: lam -> (its row range, dim_q, dim_p), in codec order
        self.triples, self.sectors = [], {}
        for lam in enumerate_partitions(d, n):
            start = len(self.triples)
            qs, ps = range(1, dim_q(lam, d) + 1), range(1, dim_p(lam) + 1)
            self.triples += [(lam, qi, pi) for qi in qs for pi in ps]
            self.sectors[lam] = (slice(start, len(self.triples)), len(qs), len(ps))

    def __len__(self):
        return len(self.triples)

    def sector(self, lam) -> tuple:
        """(row range, dim_q, dim_p) of the lam sector; ValueError unless lam
        is a partition of n with at most d rows."""
        lam = normalize(lam)
        if lam not in self.sectors:
            raise ValueError(
                f"{lam} is not a partition of {self.n} with at most {self.d} rows"
            )
        return self.sectors[lam]

    def index(self, lam, qi: int, pi: int) -> int:
        """Row of (lam, qi, pi); ValueError unless 1 <= qi <= dim_q and
        1 <= pi <= dim_p."""
        rows, nq, np_ = self.sector(lam)
        if not (1 <= qi <= nq and 1 <= pi <= np_):
            raise ValueError(f"(q, p) must lie in 1..{nq} x 1..{np_} for {lam}, got {qi, pi}")
        return rows.start + (qi - 1) * np_ + (pi - 1)

    def label(self, row: int) -> tuple:
        """(lam, qi, pi) of a row; ValueError unless 0 <= row < d^n."""
        if not 0 <= row < len(self.triples):
            raise ValueError(f"row must lie in 0..{len(self.triples) - 1}, got {row}")
        return self.triples[row]

    def block_slice(self, lam) -> slice:
        """Row range of the lam sector (size dim_q * dim_p)."""
        return self.sector(lam)[0]

    def row_strings(self) -> list:
        names = {lam: partition_str(lam) for lam in self.sectors}
        return [f"lam={names[lam]} q={qi} p={pi}" for lam, qi, pi in self.triples]

    def gz_pattern(self, lam, qi: int):
        return enumerate_gz(normalize(lam), self.d)[qi - 1]


@lru_cache(maxsize=None)
def _pattern_codes(lam, d: int) -> tuple:
    """The number of the weight of each GZ pattern of lam among the weights
    of lam (_weight_classes order) and its place among the patterns of that
    weight, in enumerate_gz order."""
    codes = np.empty(dim_q(lam, d), dtype=np.intp)
    places = np.empty_like(codes)
    for c, ks in enumerate(_weight_classes(lam, d).values()):
        codes[ks] = c
        places[ks] = np.arange(len(ks))
    codes.flags.writeable = places.flags.writeable = False
    return codes, places


def _pattern_rows(shapes, code: dict, d: int) -> dict:
    """shape -> (the number in code of the weight of each of its GZ patterns,
    the row of the pattern's first path in the block of that weight), in
    enumerate_gz order, for blocks with rows in codec order (shape, GZ
    pattern, path rank) over the given shapes in codec order."""
    tops, out = np.zeros(len(code), dtype=np.intp), {}
    for lam in shapes:
        p, classes = dim_p(lam), _weight_classes(lam, d)
        ws = np.array([code[w] for w in classes])
        codes, places = _pattern_codes(lam, d)
        out[lam] = ws[codes], tops[ws[codes]] + places * p
        tops[ws] += [len(ks) * p for ks in classes.values()]
    return out


# entries that a cascade step gathers, scales and scatters at a time, which
# bounds the transient of the build
_PIECE = 1 << 12


def _couple(sources: list, grown: np.ndarray, stack, reads, writes: tuple, x, p: int) -> None:
    """Write into grown the runs that the triplets of one shape couple.
    Triplet t reads the p rows reads[t] + j of sources[stack[t]], a stack of
    blocks of size m as a (rows, m) array, and writes x[t] times row j to
    the m entries of grown from writes[0][t] + j * writes[1][t], for j < p.
    The triplets go by stack, then target, ties in the given order, so that
    those with one target (several terms of one CG row) are summed in that
    order.  They are taken a piece at a time, each piece the whole runs of
    some targets of one stack: about _PIECE entries, or the runs of one
    target where those alone are more."""
    order = np.lexsort((writes[0], stack))
    stack, reads, x = stack[order], reads[order], x[order, None]
    starts, steps = writes[0][order], writes[1][order]
    # the first triplet of each target, and the first target of each piece:
    # the piece number and the stack never fall, so their sum rises with either
    heads = np.flatnonzero(np.diff(starts, prepend=-1))
    widths = np.array([s.shape[1] for s in sources])[stack]
    tags = ((np.cumsum(widths) - widths) * p // _PIECE + stack)[heads]
    cuts = np.flatnonzero(np.diff(tags, prepend=-1))
    bounds, j = heads.tolist() + [len(reads)], np.arange(p)
    pieces = zip(cuts.tolist(), cuts[1:].tolist() + [len(heads)], stack[heads[cuts]].tolist())
    for lo, hi, s in pieces:
        a, b = bounds[lo], bounds[hi]
        m = sources[s].shape[1]
        vals = sources[s].take((reads[a:b, None] + j).reshape(-1), axis=0).reshape(b - a, -1)
        vals *= x[a:b]
        if hi - lo < b - a:
            vals = np.add.reduceat(vals, heads[lo:hi] - a, axis=0)
        # every run of m consecutive entries of grown, as the rows of a view
        runs = np.ndarray((len(grown) - m + 1, m), grown.dtype, grown, 0, grown.strides * 2)
        h = heads[lo:hi]
        runs[(starts[h, None] + j * steps[h, None]).reshape(-1)] = vals.reshape(-1, m)


def _cascade_step(stacks: list, words: dict, d: int, k: int, triplets: dict) -> tuple:
    """The weight-block stacks and words of S(d, k) = CG_k (S(d, k - 1)
    tensor I) from those of S(d, k - 1), popping the triplets of each shape
    of size k - 1 (see SchurTransform)."""
    # the grown words of each content, those of content v followed by letter
    # i for each i in turn, and where each (content, letter) segment lands
    parts, width, land = {}, {}, {}
    for i in range(d):
        for v, vs in words.items():
            w = v[:i] + (v[i] + 1,) + v[i + 1 :]
            land[v, i] = w, width.get(w, 0)
            width[w] = land[v, i][1] + len(vs)
            parts.setdefault(w, []).append(vs * d + i)
    # a block has one row per word of its content; blocks by size, ties in
    # descending order of the letter counts, one after another in one buffer
    order = sorted(sorted(width, reverse=True), key=width.get)
    code = {w: c for c, w in enumerate(order)}
    sizes = np.array([width[w] for w in order])
    starts = np.cumsum(sizes * sizes) - sizes * sizes
    grown = np.zeros(starts[-1] + sizes[-1] ** 2)
    # (input weight, letter) -> the output weight and the first column of
    # the letter's span in its block
    grow = np.array([[code[land[v, i][0]] for i in range(d)] for v in words])
    span = np.array([[land[v, i][1] for i in range(d)] for v in words])
    # each input block's stack and its first row in the stack's rows
    sources = [s.reshape(-1, s.shape[-1]) for s in stacks]
    in_stack = np.repeat(np.arange(len(stacks)), [len(s) for s in stacks])
    leads = np.concatenate([np.arange(len(s)) * s.shape[-1] for s in stacks])
    shapes, grown_shapes = enumerate_partitions(d, k - 1), enumerate_partitions(d, k)
    ins = _pattern_rows(shapes, dict(zip(words, range(len(words)))), d)
    outs = _pattern_rows(grown_shapes, code, d)
    filled = {}
    for mu in shapes:
        p, weights, bases = dim_p(mu), [], []
        for lp in add_box(mu, d):
            # in codec order the paths of each mu follow on from those of the
            # mu before it; by the branching rule they then tile 0..dim_p(lp)
            top = sibling_offset(mu, lp)
            if top != filled.get(lp, 0):
                raise ValueError(f"paths of {lp} at d={d} are not stacked in rank order")
            filled[lp] = top + p
            ws, row = outs[lp]
            weights.append(ws)
            bases.append(starts[ws] + (row + top) * sizes[ws])
        rows, cols, x = triplets.pop(mu)
        q, i = np.divmod(cols, d)
        vs, row = ins[mu]
        v = vs[q]
        w = grow[v, i]
        if not np.array_equal(w, np.concatenate(weights)[rows]):
            raise ValueError(f"CG block of {mu} at d={d} breaks torus weight")
        writes = np.concatenate(bases)[rows] + span[v, i], sizes[w]
        _couple(sources, grown, in_stack[v], leads[v] + row[q], writes, x, p)
    # the blocks of each size m, one after another, are a (count, m, m) stack
    grown_stacks, top = [], 0
    for m, count in Counter(sizes.tolist()).items():
        grown_stacks.append(grown[top : top + count * m * m].reshape(count, m, m))
        top += count * m * m
    return grown_stacks, {w: np.concatenate(parts[w]) for w in order}


# rows of the left product that conjugate gathers and transposes at a time
_BAND = 64


class SchurTransform:
    """The Schur transform S(d, n), built as the cascade S(d, k) =
    CG_k (S(d, k - 1) tensor I); get one through schur(d, n).

    The state after step k is S(d, k) itself, as its torus-weight blocks:
    one per letter content w, its rows in codec order (shape, GZ pattern,
    path rank), so the rows of a shape form one (patterns, paths) range,
    and its columns the words of content w, those of content w - e_i
    followed by letter i for each i in turn.  Step k allocates one
    zero-filled buffer and lays its blocks out in it one after another, in
    order of size, ties in descending order of the letter counts, so that
    the blocks of each size m form one (count, m, m) stack.  A coupling
    triplet (r, (q, i), x) of a shape mu reads the dim_p(mu) rows of
    pattern q in its input block of weight v, runs of m_v entries, and
    writes x times each to the row of pattern r, a pattern of some lam' in
    add_box(mu), at path offset sibling_offset(mu, lam'), in the output
    block of weight v + e_i (row stride m_w) from the first column of
    letter i.  The triplets of each shape go by run width: one gather of
    their source runs, one scale and one scatter of their target runs, a
    bounded piece at a time, those with one target (several terms of one
    CG row, at d >= 3) summed in order after a sort.  No dense CG block is
    formed: the coupling triplets of every shape the cascade couples are
    built once, in one rank-by-rank pass.
    Raises ValueError unless the sibling offsets of the mu of every lam',
    in codec order, tile 0..dim_p(lam') (the path order of the codec), and
    if a triplet couples (q, i) to a pattern of weight other than
    weight(q) + e_i.

    S is kept in the last step's buffer.  by_weight maps a weight (the
    letter counts) to the block's codec rows (ascending), its computational
    columns (cascade order) and its matrix, a view into its stack; stacks
    holds the stacks by size, cols the columns in block order and pos[r]
    the block-order position of codec row r.  All arrays are read-only.
    """

    def __init__(self, d: int, n: int):
        self.codec = codec = SchurLabelCodec(d, n)
        # S(d, 1) = I: letter i is the pattern of (1,) with weight e_i; the
        # e_i, in descending order, are the blocks of one (d, 1, 1) stack
        seed = sorted(_weight_classes((1,), d), reverse=True)
        words, stacks = {w: np.array([w.index(1)]) for w in seed}, [np.ones((d, 1, 1))]
        # the triplets of every shape that some step couples, each built once
        coupled = (mu for size in range(1, n) for mu in enumerate_partitions(d, size))
        triplets = cg_triplets(coupled, d)
        for k in range(2, n + 1):
            stacks, words = _cascade_step(stacks, words, d, k, triplets)
        # the codec rows of each block, ascending: shapes in codec order, then
        # patterns in enumerate_gz order, then paths by rank
        rows_of = {}
        for lam in enumerate_partitions(d, n):
            top, p = codec.index(lam, 1, 1), dim_p(lam)
            for w, ks in _weight_classes(lam, d).items():
                r = top + ks[:, None] * p + np.arange(p)
                rows_of.setdefault(w, []).append(r.reshape(-1))
        rows = [np.concatenate(rows_of[w]) for w in words]
        cols = list(words.values())
        for a in rows + cols + stacks:
            a.flags.writeable = False
        views = [block for stack in stacks for block in stack]
        self.by_weight = dict(zip(words, zip(rows, cols, views)))
        # the gathers in conjugate skip bounds checks: prove them here
        # (pos is a permutation exactly when the rows are)
        all_rows, all_cols = np.concatenate(rows), np.concatenate(cols)
        for what, perm in (("rows", all_rows), ("columns", all_cols)):
            if not np.array_equal(np.sort(perm), np.arange(d**n)):
                raise ValueError(f"weight blocks of S({d}, {n}) miss or repeat {what}")
        self.stacks, self.cols, self.pos = stacks, all_cols, np.argsort(all_rows)

    def sector_rows(self, lam, qi: int) -> tuple:
        """The dim_p rows (lam, qi, 1..dim_p) of S, consecutive rows of the
        block of their weight, restricted to that block's columns, and those
        columns; ValueError unless qi is an index in [1, dim_q(lam)], which
        the codec checks before a weight is picked."""
        first, np_ = self.codec.index(lam, qi, 1), self.codec.sector(lam)[2]
        rows, cols, block = self.by_weight[_gz_weights(normalize(lam), self.codec.d)[qi - 1]]
        top = np.searchsorted(rows, first)
        return block[top : top + np_], cols

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Codec rows start..stop - 1 of S as a new dense real array, the
        share of each weight block written through one flat-index scatter;
        ValueError unless 0 <= start <= stop <= d^n."""
        dim = len(self.codec)
        if not 0 <= start <= stop <= dim:
            raise ValueError(f"rows must lie in 0..{dim}, got {start}..{stop}")
        out = np.zeros((stop - start, dim))
        flat, bounds, shift = out.reshape(-1), np.array([start, stop]), start * dim
        for rows, cols, block in self.by_weight.values():
            lo, hi = np.searchsorted(rows, bounds).tolist()
            flat[(rows[lo:hi, None] * dim + (cols - shift)).reshape(-1)] = block[lo:hi].reshape(-1)
        return out

    @property
    def dense(self) -> DenseOperator:
        """S as a new (d^n x d^n) DenseOperator, rows(0, d^n), assembled on
        each request; the caller owns it and nothing keeps it."""
        dim = len(self.codec)
        return DenseOperator(self.rows(0, dim), self.codec.triples, range(dim))

    def _blockdiag_matmul(self, y: np.ndarray, out=None) -> np.ndarray:
        """blockdiag(S) @ y for y in block order (rows) and any columns,
        into out if given: one real_complex_matmul per stack, so every
        product is a real GEMM."""
        y = np.ascontiguousarray(y)
        out = np.empty_like(y) if out is None else out
        start = 0
        for blocks in self.stacks:
            k, m, _ = blocks.shape
            stop = start + k * m
            part, into = (z[start:stop].reshape(k, m, -1) for z in (y, out))
            real_complex_matmul(blocks, part, out=into)
            start = stop
        return out

    def apply(self, x) -> np.ndarray:
        """S x in codec order for a real or complex x with d^n rows."""
        x = np.asarray(x)
        x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)
        if len(x) != len(self.codec):
            raise ValueError(f"expected {len(self.codec)} rows, got {len(x)}")
        return self._blockdiag_matmul(x[self.cols])[self.pos]

    def conjugate(self, x, perm=None) -> np.ndarray:
        """S x[:, perm] S^T in codec order (S real), for a pair (a, b) of
        real or complex matrices standing for the (d^n x d^n) x = kron(a, b),
        which is never formed; an array x is the pair (x, [[1]]).  perm
        (default: none) is an index array of length d^n.

        Works on the weight blocks of S: one batched product per block size
        on each side, O(D * sum_w D_w^2) work for D = d^n and block sizes
        D_w, instead of the D^3 of a dense product, in two D x D arrays.
        """
        dim = len(self.codec)
        cols, pos = self.cols, self.pos
        a, b = (np.asarray(f) for f in (x if isinstance(x, tuple) else (x, np.ones((1, 1)))))
        both = a.ndim == b.ndim == 2
        if not both or (len(a) * len(b), a.shape[1] * b.shape[1]) != (dim, dim):
            raise ValueError(
                f"expected factors of a ({dim} x {dim}) matrix, got {a.shape}, {b.shape}"
            )
        # the rows of kron(a, b) in block order, written by one product
        work = np.empty((dim, dim), np.result_type(a, b, np.float64))
        np.multiply(
            a[cols // len(b)][:, :, None],
            b[cols % len(b)][:, None, :],
            out=work.reshape(dim, a.shape[1], b.shape[1]),
        )
        idx = cols
        if perm is not None:
            perm = np.asarray(perm)
            if perm.shape != (dim,):
                raise ValueError(f"expected {dim} column indices, got shape {perm.shape}")
            idx = perm[cols]
        # B = blockdiag(S) in block order acts on rows only: with half = B x[cols],
        # S x[:, perm] S^T in codec order is (B y)[pos].T for y[i, j] =
        # half[pos[j], idx[i]], the transposed left product with perm and the
        # codec order of the columns folded in; y is gathered a band of rows of
        # half at a time, each read along its rows (the walk down the columns
        # of half aliases in the cache at D = 1024)
        half = self._blockdiag_matmul(work)
        for j in range(0, dim, _BAND):
            rows = np.take(half, pos[j : j + _BAND], axis=0)
            work[:, j : j + _BAND] = np.take(rows, idx, axis=1).T
        full_t = self._blockdiag_matmul(work, out=half)
        # mode="clip" spares the buffered copy that out= costs under "raise";
        # __init__ has checked that pos is a permutation of range(D)
        return np.take(full_t, pos, axis=0, out=work, mode="clip").T


_transforms = lru_cache(maxsize=None)(SchurTransform)


def schur(d: int, n: int) -> SchurTransform:
    """The cached Schur transform S(d, n).  The dense guard on d^n runs on
    every call, so a lowered cap also rejects a transform built earlier."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    require_dense(d**n)
    return _transforms(d, n)


def schur_unitary(d: int, n: int):
    """The Schur transform as a (d^n x d^n) DenseOperator mapping the
    computational basis onto labeled (lam, q, p) rows, plus its codec.

    The multiplicity record of the cascade (which row received a box at each
    step) is a Young-Yamanouchi path and is always compressed to its rank,
    the path index p; yy_unindex recovers the raw record.
    """
    t = schur(d, n)
    return t.dense, t.codec


def measure_schur(state, d: int, n: int, granularity: str = "lambda") -> dict:
    """Probability table of a Schur-basis measurement of a pure state.

    granularity: "lambda" keys by partition, "lambda_q" by (lam, q-index),
    "full" by (lam, q-index, p-index).  Probabilities sum to 1.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(state) - 1.0) <= 1e-8:
        raise ValueError("state must be normalized")
    if granularity not in ("lambda", "lambda_q", "full"):
        raise ValueError(f"unknown granularity: {granularity}")
    t = schur(d, n)
    probs = np.abs(t.apply(state)) ** 2
    if granularity == "full":
        return dict(zip(t.codec.triples, probs.tolist()))
    sectors = t.codec.sectors.items()
    if granularity == "lambda":
        return {lam: float(probs[rows].sum()) for lam, (rows, _, _) in sectors}
    return {
        (lam, qi): x
        for lam, (rows, nq, np_) in sectors
        for qi, x in enumerate(probs[rows].reshape(nq, np_).sum(axis=1).tolist(), 1)
    }


# index-map entries that central_projector_oracle computes at a time
_ORACLE_ENTRIES = 1 << 20


def central_projector_oracle(lam, d: int, n: int) -> DenseOperator:
    """Isotypic projector onto the lam sector of (C^d)^n, built purely from
    symmetric-group characters and qudit-permutation index maps:

        (dim_p(lam) / n!) * sum_s chi_lam(cycle_type(s)) P(s)

    Independent of all Clebsch-Gordan machinery, so it serves as the
    verification oracle for the cascade.
    """
    lam = normalize(lam)
    dim = d**n
    require_dense(dim)
    perms = all_permutations(n)
    types = [cycle_type(s) for s in perms]
    chis = {mu: character(lam, mu) for mu in set(types)}
    chi = np.array([chis[mu] for mu in types], dtype=float)
    # the s with chi(s) != 0, a batch of _ORACLE_ENTRIES index-map entries at
    # a time: P(s) has its one 1 of column i in row _image_indices(s, d)[i]
    keep = np.flatnonzero(chi)
    perms, batch = np.array(perms)[keep], max(1, _ORACLE_ENTRIES // dim)
    acc = np.zeros((dim, dim))
    for a in range(0, len(keep), batch):
        rows = _image_indices(perms[a : a + batch], d)
        np.add.at(acc, (rows, np.arange(dim)), chi[keep[a : a + batch], None])
    acc *= dim_p(lam) / math.factorial(n)
    return DenseOperator(acc, row_labels=list(range(dim)), col_labels=list(range(dim)))


def _dfs_sector(lam, q, vec, encode: bool, d: int, n: int):
    """The Schur rows of sector (lam, q), restricted to the columns of its
    weight block, those columns, and vec as a complex vector.

    Raises ValueError unless lam is a partition of n with at most d rows,
    q is an index in [1, dim_q(lam)] or one of lam's GZ patterns, and vec
    has length dim_p(lam) (encode) or d^n (decode).
    """
    t = schur(d, n)
    lam = normalize(lam)
    _, nq, np_ = t.codec.sector(lam)
    patterns = enumerate_gz(lam, d)
    qi = q if isinstance(q, (int, np.integer)) else patterns.index(tuple(q)) + 1
    if not 1 <= qi <= nq:
        raise ValueError(f"q must lie in 1..{nq} for {lam}, got {qi}")
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    length = np_ if encode else d**n
    if vec.shape[0] != length:
        raise ValueError(f"vector length must be {length}")
    return (*t.sector_rows(lam, qi), vec)


def dfs_encode(lam, q, p_state, d: int, n: int) -> np.ndarray:
    """Embed a state over the permutation module P_lam into (C^d)^n at a
    fixed unitary-register basis vector (GZ pattern q).

    q may be a GZ pattern (chain) or a 1-based index into enumerate_gz.
    """
    rows, cols, p_state = _dfs_sector(lam, q, p_state, True, d, n)
    out = np.zeros(d**n, dtype=complex)
    # S is real, so rows^dagger p_state is rows^T p_state
    out[cols] = real_complex_matmul(rows.T, p_state)
    return out


def dfs_decode(lam, q, state, d: int, n: int) -> np.ndarray:
    """Inverse of dfs_encode: project onto the (lam, q) rows and return the
    P_lam-register amplitudes."""
    rows, cols, state = _dfs_sector(lam, q, state, False, d, n)
    return real_complex_matmul(rows, state[cols])
