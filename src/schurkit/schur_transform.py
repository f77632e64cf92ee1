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
from functools import cached_property, lru_cache

import numpy as np

from .characters import character
from .combinatorics import (
    _gz_numbers,
    _weight_numbers,
    add_box,
    dim_p,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    normalize,
    partition_str,
    sibling_offset,
)
from .operators import DenseOperator, _image_indices, dense_cap, real_complex_matmul, require_dense
from .permutations import all_permutations, count_permutations, cycle_type
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
        self.sectors, start = {}, 0
        for lam in enumerate_partitions(d, n):
            nq, np_ = dim_q(lam, d), dim_p(lam)
            self.sectors[lam] = (slice(start, start + nq * np_), nq, np_)
            start += nq * np_

    def __len__(self):
        return self.d**self.n

    @cached_property
    def triples(self) -> list:
        """(lam, qi, pi) of every row, in row order, listed on first read."""
        return [(lam, qi, pi) for lam, (_, nq, np_) in self.sectors.items()
                for qi in range(1, nq + 1) for pi in range(1, np_ + 1)]

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
        # read once: Python 3.11 does not specialize an attribute a descriptor shadows
        triples = self.triples
        if not 0 <= row < len(triples):
            raise ValueError(f"row must lie in 0..{len(triples) - 1}, got {row}")
        return triples[row]

    def block_slice(self, lam) -> slice:
        """Row range of the lam sector (size dim_q * dim_p)."""
        return self.sector(lam)[0]

    def row_strings(self) -> list:
        names = {lam: partition_str(lam) for lam in self.sectors}
        return [f"lam={names[lam]} q={qi} p={pi}" for lam, qi, pi in self.triples]

    def gz_pattern(self, lam, qi: int):
        """GZ pattern qi of lam (enumerate_gz order); ValueError unless qi is
        an index in [1, dim_q(lam)]."""
        self.index(lam, qi, 1)
        return enumerate_gz(normalize(lam), self.d)[qi - 1]


def _pattern_rows(shapes, block: np.ndarray, d: int) -> dict:
    """shape -> (the block of each of its GZ patterns, the row of the
    pattern's first path in that block), in enumerate_gz order, for blocks
    with rows in codec order (shape, GZ pattern, path rank) over the given
    shapes in codec order; block[c] is the block of the weight numbered c
    (_weight_numbers).  One stable sort of all the patterns by block lays
    out the rows of every block."""
    blocks = [block[_gz_numbers(lam, d)] for lam in shapes]
    of = np.concatenate(blocks)
    paths = np.repeat([dim_p(lam) for lam in shapes], [len(b) for b in blocks])
    order = np.argsort(of, kind="stable")
    # the first row of each pattern in the rows of all blocks, block after
    # block, less that of the first pattern of its block
    tops = np.cumsum(paths[order]) - paths[order]
    rows = np.empty_like(tops)
    rows[order] = tops - tops[np.searchsorted(of[order], of[order])]
    ends = np.cumsum([len(b) for b in blocks]).tolist()
    return {lam: (b, rows[end - len(b) : end]) for lam, b, end in zip(shapes, blocks, ends)}


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


def _cascade_step(stacks: list, contents, cols, ins: dict, d: int, k: int, triplets: dict) -> tuple:
    """The weight-block stacks, contents, columns and pattern rows
    (_pattern_rows) of S(d, k) = CG_k (S(d, k - 1) tensor I) from those of
    S(d, k - 1), popping the triplets of each shape of size k - 1 (see
    SchurTransform), and the block of each weight number."""
    heights = np.repeat([s.shape[1] for s in stacks], [len(s) for s in stacks])
    # segment f = i * len(contents) + v holds the words of input block v
    # followed by letter i; they land in the block of content v + e_i, the
    # segments of a block in order of f.  Every weight of size k is some
    # v + e_i, so the grown contents take every number below count
    table = (contents + np.eye(d, dtype=np.intp)[:, None]).reshape(-1, d)
    nums, count = _weight_numbers(table), math.comb(k + d - 1, k)
    widths = np.bincount(nums, np.tile(heights, d), count).astype(np.intp)
    # a segment of each number (those of one number share its content)
    of = np.empty(count, dtype=np.intp)
    of[nums] = np.arange(len(nums))
    # a block has one row per word of its content; blocks by size, ties in
    # descending order of the letter counts, one after another in one buffer
    order = np.lexsort(np.vstack([-table[of, ::-1].T, widths]))
    block = np.empty(count, dtype=np.intp)
    block[order] = np.arange(count)
    sizes = widths[order]
    starts = np.cumsum(sizes * sizes) - sizes * sizes
    grown = np.zeros(starts[-1] + sizes[-1] ** 2)
    # (input weight, letter) -> the output weight and the first column of
    # the letter's span in its block
    grow = block[nums]
    segs = np.argsort(grow, kind="stable")
    runs = np.tile(heights, d)[segs]
    tops = np.cumsum(runs) - runs
    span = np.empty_like(grow)
    span[segs] = tops - (np.cumsum(sizes) - sizes)[grow[segs]]
    grow, span = grow.reshape(d, -1).T, span.reshape(d, -1).T
    # the columns of each segment: those of its input block, times d, plus i
    letter, v = np.divmod(segs, len(contents))
    src = np.arange(len(cols) * d) + np.repeat(np.cumsum(heights)[v] - heights[v] - tops, runs)
    grown_cols = cols[src] * d + np.repeat(letter, runs)
    # each input block's stack and its first row in the stack's rows
    sources = [s.reshape(-1, s.shape[-1]) for s in stacks]
    in_stack = np.repeat(np.arange(len(stacks)), [len(s) for s in stacks])
    leads = np.concatenate([np.arange(len(s)) * s.shape[-1] for s in stacks])
    outs = _pattern_rows(enumerate_partitions(d, k), block, d)
    filled = {}
    for mu in enumerate_partitions(d, k - 1):
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
        rows, cols_in, x = triplets.pop(mu)
        q, i = np.divmod(cols_in, d)
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
    return grown_stacks, table[of[order]], grown_cols, outs, block


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
    formed: the coupling triplets come from cg_triplets, which builds each
    (shape, rank) once per process, and the weight of each GZ pattern from
    _gz_numbers, likewise.  A step's bookkeeping (the contents v + e_i,
    their blocks, the column offset of each letter and the columns of
    every block) is array operations on one (contents x d) table.
    Raises ValueError unless the sibling offsets of the mu of every lam',
    in codec order, tile 0..dim_p(lam') (the path order of the codec), and
    if a triplet couples (q, i) to a pattern of weight other than
    weight(q) + e_i.

    S is kept in the last step's buffer, with +0.0 for every zero entry.
    by_weight[c] is the block of the weight numbered c (_weight_numbers),
    for c = 0..C(n + d - 1, n) - 1: its codec rows (ascending), its
    computational columns (cascade order) and its matrix, a view into its
    stack; stacks holds the stacks by size, cols the columns in block order,
    tops[lam] the row of each GZ pattern's first path in its block (the
    pattern table of the last step, _pattern_rows) and pos[r] the
    block-order position of codec row r, read from that table.  All arrays
    are read-only.
    """

    def __init__(self, d: int, n: int):
        self.codec = SchurLabelCodec(d, n)
        # S(d, 1) = I: letter i is the pattern of (1,) with weight e_i, the
        # weight numbered i; the e_i, in descending order, are the blocks of
        # one (d, 1, 1) stack (the table of their contents is d x d, so it
        # takes the narrowest type)
        contents, cols, stacks = np.eye(d, dtype=np.int8), np.arange(d), [np.ones((d, 1, 1))]
        block = np.arange(d)
        patterns = _pattern_rows([(1,)], block, d)
        # the triplets of every shape that some step couples, each built once
        coupled = (mu for size in range(1, n) for mu in enumerate_partitions(d, size))
        triplets = cg_triplets(coupled, d)
        for k in range(2, n + 1):
            stacks, contents, cols, patterns, block = _cascade_step(
                stacks, contents, cols, patterns, d, k, triplets
            )
        # a negative CG coefficient scales a zero entry to -0.0; + 0.0 makes
        # it 0.0 and leaves every other entry as it is
        for stack in stacks:
            stack += 0.0
        # codec row (lam, q, p) is row top + p - 1 of block b, for (b, top)
        # the block and first-path row of pattern q in patterns[lam]
        sizes = np.repeat([s.shape[1] for s in stacks], [len(s) for s in stacks])
        starts = np.cumsum(sizes) - sizes
        self.pos = np.concatenate([
            ((starts[b] + top)[:, None] + np.arange(dim_p(lam))).reshape(-1)
            for lam, (b, top) in patterns.items()
        ])
        # the gathers in conjugate skip bounds checks: prove here that pos
        # and cols are permutations of range(d^n)
        if not np.array_equal(np.bincount(self.pos, minlength=d**n), np.ones(d**n)):
            raise ValueError(f"weight blocks of S({d}, {n}) miss or repeat rows")
        if not np.array_equal(np.sort(cols), np.arange(d**n)):
            raise ValueError(f"weight blocks of S({d}, {n}) miss or repeat columns")
        all_rows = np.empty_like(self.pos)
        all_rows[self.pos] = np.arange(d**n)
        self.tops = {lam: top for lam, (_, top) in patterns.items()}
        for a in (all_rows, cols, self.pos, *stacks, *self.tops.values()):
            a.flags.writeable = False
        spans = [slice(a, a + m) for a, m in zip(starts.tolist(), sizes.tolist())]
        views = [view for stack in stacks for view in stack]
        blocks = [(all_rows[s], cols[s], view) for s, view in zip(spans, views)]
        self.by_weight = tuple(blocks[b] for b in block.tolist())
        self.stacks, self.cols = stacks, cols

    def sector_rows(self, lam, qi: int) -> tuple:
        """The dim_p rows (lam, qi, 1..dim_p) of S, consecutive rows of the
        block of their weight, restricted to that block's columns, and those
        columns; ValueError unless qi is an index in [1, dim_q(lam)], which
        the codec checks before a weight is picked."""
        self.codec.index(lam, qi, 1)
        lam = normalize(lam)
        top, np_ = self.tops[lam][qi - 1], self.codec.sectors[lam][2]
        _, cols, block = self.by_weight[_gz_numbers(lam, self.codec.d)[qi - 1]]
        return block[top : top + np_], cols

    def rows(self, start: int, stop: int, step: int = 1) -> np.ndarray:
        """Codec rows start, start + step, ... below stop of S as a new dense
        real array, the share of each weight block written by one scatter: a
        block that lies wholly in a range of step 1 whole, any other cut by a
        mask; ValueError unless 0 <= start <= stop <= d^n and step >= 1."""
        dim = len(self.codec)
        if not 0 <= start <= stop <= dim or step < 1:
            raise ValueError(f"rows must lie in 0..{dim}, step >= 1, got {start}..{stop} by {step}")
        out = np.zeros((len(range(start, stop, step)), dim))
        for rows, cols, block in self.by_weight:
            at = rows - start
            if step > 1 or at[0] < 0 or rows[-1] >= stop:
                keep = (at >= 0) & (rows < stop) & (at % step == 0)
                at, block = at[keep] // step, block[keep]
            out[at[:, None], cols] = block
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
    require_dense(d**n, what="rows of S({}, {})", of=(d, n))
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


@lru_cache(maxsize=None)
def _cycle_types(n: int) -> tuple:
    """S_n as an (n!, n) array in all_permutations order, the distinct cycle
    types, and the index of each permutation's type among them."""
    types = [cycle_type(s) for s in all_permutations(n)]
    distinct = tuple(dict.fromkeys(types))
    index = {mu: k for k, mu in enumerate(distinct)}
    perms, of = np.array(all_permutations(n)), np.array([index[mu] for mu in types])
    perms.flags.writeable = of.flags.writeable = False
    return perms, distinct, of


def central_projector_oracle(lam, d: int, n: int) -> DenseOperator:
    """Isotypic projector onto the lam sector of (C^d)^n, built purely from
    symmetric-group characters and qudit-permutation index maps:

        (dim_p(lam) / n!) * sum_s chi_lam(cycle_type(s)) P(s)

    Independent of all Clebsch-Gordan machinery, so it serves as the
    verification oracle for the cascade.
    """
    lam = normalize(lam)
    dim = d**n
    require_dense(dim, what="rows of the projector oracle on (C^{})^{}", of=(d, n))
    # its (n!, n) table of S_n: at d = 1, d^n bounds no n
    require_dense(count_permutations(n, dense_cap()), what="permutations of {}", of=(n,))
    perms, types, of = _cycle_types(n)
    chi = np.array([character(lam, mu) for mu in types], dtype=float)[of]
    # the s with chi(s) != 0, a batch of _ORACLE_ENTRIES index-map entries at
    # a time: P(s) has its one 1 of column i in row _image_indices(s, d)[i]
    keep = np.flatnonzero(chi)
    perms, batch = perms[keep], max(1, _ORACLE_ENTRIES // dim)
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
    np_ = t.codec.sector(lam)[2]
    if isinstance(q, (int, np.integer)):
        qi = q
    elif tuple(q) in enumerate_gz(lam, d):
        qi = enumerate_gz(lam, d).index(tuple(q)) + 1
    else:
        raise ValueError(f"{tuple(q)} is not a GZ pattern of {lam} at d={d}")
    rows, cols = t.sector_rows(lam, qi)
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    length = np_ if encode else d**n
    if vec.shape[0] != length:
        raise ValueError(f"vector length must be {length}")
    return rows, cols, vec


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
