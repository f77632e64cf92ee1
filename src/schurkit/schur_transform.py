"""The Schur transform on n qudits, built by cascading Clebsch-Gordan
blocks one torus-weight block at a time, with an explicit label codec,
Schur-basis measurement, an independent character-theoretic projector
oracle, and encode/decode into the permutation-module (decoherence-free)
sectors.  Every product with S goes through its weight blocks; only
schur_unitary assembles the dense matrix.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate, groupby

import numpy as np

from .characters import character
from .combinatorics import (
    add_box,
    dim_p,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    gz_weight,
    normalize,
    partition_str,
    sibling_offset,
)
from .operators import (
    DenseOperator,
    permutation_action,
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
        rows, _, np_ = self.sector(lam)
        return rows.start + (qi - 1) * np_ + (pi - 1)

    def label(self, row: int) -> tuple:
        return self.triples[row]

    def block_slice(self, lam) -> slice:
        """Row range of the lam sector (size dim_q * dim_p)."""
        return self.sector(lam)[0]

    def row_strings(self) -> list:
        return [
            f"lam={partition_str(lam)} q={qi} p={pi}" for lam, qi, pi in self.triples
        ]

    def gz_pattern(self, lam, qi: int):
        return enumerate_gz(normalize(lam), self.d)[qi - 1]


@lru_cache(maxsize=None)
def _weight_classes(lam, d: int) -> dict:
    """GZ weight -> indices of the patterns of lam with that weight, in
    enumerate_gz order."""
    out = {}
    for k, pattern in enumerate(enumerate_gz(lam, d)):
        out.setdefault(gz_weight(pattern), []).append(k)
    return {w: np.array(ks) for w, ks in out.items()}


def _pattern_codes(lam, d: int, code: dict) -> tuple:
    """code[weight] of each GZ pattern of lam and its place among the
    patterns of that weight, in enumerate_gz order."""
    codes = np.empty(dim_q(lam, d), dtype=np.intp)
    places = np.empty_like(codes)
    for w, ks in _weight_classes(lam, d).items():
        codes[ks] = code[w]
        places[ks] = np.arange(len(ks))
    return codes, places


def _cg_sub_blocks(mu, d: int, triplets, code: dict, grown_code: dict, plus) -> dict:
    """The coupling triplets of mu at rank d, grouped by sub-block.

    Keys are (t * len(grown_code) + grown_code[w]) * d + i for output shape
    add_box(mu, d)[t], output weight w and letter index i; values are the
    (row, column, value) arrays of the entries in the dense sub-block
    (patterns of that shape of weight w, patterns of mu of weight w - e_i).
    plus[code[v], i] is grown_code[v + e_i].  Raises ValueError if a triplet
    couples (q, i) to a pattern of weight other than weight(q) + e_i.
    """
    rows, cols, vals = triplets
    q, i = np.divmod(cols, d)
    in_codes, q_places = _pattern_codes(mu, d, code)
    outs = [_pattern_codes(lp, d, grown_code) for lp in add_box(mu, d)]
    out_codes = np.concatenate([c for c, _ in outs])[rows]
    if np.any(out_codes != plus[in_codes[q], i]):
        raise ValueError(f"CG block of {mu} at d={d} breaks torus weight")
    shape_of = np.repeat(np.arange(len(outs)), [len(c) for c, _ in outs])[rows]
    key = (shape_of * len(grown_code) + out_codes) * d + i
    order = np.argsort(key, kind="stable")
    key, places = key[order], np.concatenate([p for _, p in outs])[rows[order]]
    q_places, vals = q_places[q[order]], vals[order]
    cuts = np.flatnonzero(np.diff(key)) + 1
    starts, stops = np.r_[0, cuts], np.r_[cuts, len(key)]
    return {
        k: (places[a:b], q_places[a:b], vals[a:b])
        for k, a, b in zip(key[starts].tolist(), starts.tolist(), stops.tolist())
    }


class SchurTransform:
    """The Schur transform S(d, n), built by cascading Clebsch-Gordan blocks
    one torus weight at a time; get one through schur(d, n).

    A CG step maps weight w tensor e_i to w + e_i.  The Young-Yamanouchi
    paths are stacked per top shape, with their amplitudes kept per letter
    content w as a (GZ patterns of weight w, paths, words of content w)
    array; the words of content w are those of content w - e_i followed by
    letter i, for each i in turn.  Each step allocates these arrays once,
    zero-filled, and writes every CG product straight into its (paths of
    the input shape, words ending in letter i) slice; no amplitude is
    concatenated.  No dense CG block is formed: the coupling triplets of
    every shape the cascade couples are built once, in one rank-by-rank
    pass, and each step scatters those of its top shapes into the (output
    shape, output weight, letter) sub-blocks it multiplies by.
    Raises ValueError if a triplet couples (q, i) to a pattern of weight
    other than weight(q) + e_i.  Each path carries its rank, grown by
    sibling_offset at every step; the build raises unless the ranks of every
    top shape come out as 0..dim_p - 1 in stacking order, which is the path
    order of the codec.

    S is kept as its torus-weight blocks, ordered by size.  by_weight maps
    a weight (the letter counts) to the block's codec rows and computational
    columns, both ascending, and its matrix; classes holds (start, (k, m, m)
    stack) per block size, cols the columns in block order and pos[r] the
    block-order position of codec row r.  Each stack is allocated once and
    filled from the amplitude arrays, each dropped once its rows are in
    place.  All arrays are read-only.
    """

    def __init__(self, d: int, n: int):
        self.codec = codec = SchurLabelCodec(d, n)
        # one qudit: letter i is the pattern of (1,) with weight e_i
        words = {w: np.array([w.index(1)]) for w in _weight_classes((1,), d)}
        # top shape -> (rank of each path, amplitudes per content)
        tops = {(1,): (np.zeros(1, dtype=np.intp), {w: np.ones((1, 1, 1)) for w in words})}
        # the triplets of every shape that some step couples, each built once
        shapes = (mu for size in range(1, n) for mu in enumerate_partitions(d, size))
        triplets = cg_triplets(shapes, d)
        for _ in range(1, n):
            # grown content -> its (letter, content) segments in letter order
            segments = {}
            for i in range(d):
                for w in words:
                    segments.setdefault(w[:i] + (w[i] + 1,) + w[i + 1 :], []).append((i, w))
            code = {w: c for c, w in enumerate(words)}
            grown_code = {w: c for c, w in enumerate(segments)}
            plus = np.empty((len(words), d), dtype=np.intp)
            for w, seg in segments.items():
                for i, v in seg:
                    plus[code[v], i] = grown_code[w]
            # the grown words, and the slice of each (content, letter) segment
            # among them
            grown_words, span = {}, {}
            for w, seg in segments.items():
                grown_words[w] = np.concatenate([words[v] * d + i for i, v in seg])
                stops = accumulate(len(words[v]) for _, v in seg)
                for (i, v), stop in zip(seg, stops):
                    span[w, i] = slice(stop - len(words[v]), stop)
            # the slice of the paths of mu among those of each grown shape
            paths, at = {}, {}
            for mu, (ranks, _) in tops.items():
                for lp in add_box(mu, d):
                    top = paths.get(lp, 0)
                    at[mu, lp] = slice(top, top + len(ranks))
                    paths[lp] = top + len(ranks)
            # -1 is no rank, so a path left unwritten fails the rank-order check
            grown = {
                lp: (
                    np.full(p, -1, dtype=np.intp),
                    {
                        w: np.zeros((len(ks), p, len(grown_words[w])))
                        for w, ks in _weight_classes(lp, d).items()
                    },
                )
                for lp, p in paths.items()
            }
            for mu, (ranks, amps) in tops.items():
                subs = _cg_sub_blocks(mu, d, triplets.pop(mu), code, grown_code, plus)
                q_of = _weight_classes(mu, d)
                for t, lp in enumerate(add_box(mu, d)):
                    new_ranks, new_amps = grown[lp]
                    sl = at[mu, lp]
                    new_ranks[sl] = ranks + sibling_offset(mu, lp)
                    for w, a in new_amps.items():
                        # segments of a content no pattern of mu has stay zero
                        for i, v in segments[w]:
                            if v not in q_of:
                                continue
                            cg = np.zeros((len(a), len(q_of[v])))
                            key = (t * len(segments) + grown_code[w]) * d + i
                            if key in subs:
                                r, c, x = subs[key]
                                cg[r, c] = x
                            prod = cg @ amps[v].reshape(len(q_of[v]), -1)
                            a[:, sl, span[w, i]] = prod.reshape(len(a), len(ranks), -1)
            words, tops = grown_words, grown
        # the finished rows per weight, ascending: shapes in codec order, then
        # patterns in enumerate_gz order, then paths by rank
        pieces = {}
        for lam in enumerate_partitions(d, n):
            ranks, amps = tops.pop(lam)
            if not np.array_equal(ranks, np.arange(dim_p(lam))):
                raise ValueError(f"paths of {lam} at d={d} are not stacked in rank order")
            for w, a in amps.items():
                qs = _weight_classes(lam, d)[w][:, None]
                r = codec.index(lam, 1, 1) + qs * len(ranks) + np.arange(len(ranks))
                pieces.setdefault(w, []).append((r.reshape(-1), a.reshape(r.size, -1)))
        # blocks by size, ties in descending order of the letter counts, one
        # (k, m, m) stack per size m; the amplitudes of a block are dropped
        # once they are in place
        order = sorted(sorted(words, reverse=True), key=lambda w: len(words[w]))
        rows, classes, start = [], [], 0
        for m, group in groupby(order, key=lambda w: len(words[w])):
            group = list(group)
            stack = np.zeros((len(group), m, m))
            for block, w in zip(stack, group):
                block_rows, block_amps = zip(*pieces.pop(w))
                rows.append(np.concatenate(block_rows))
                # perm is a permutation of range(m), so "clip" clips nothing
                # and spares the buffered copy that out= costs under "raise"
                perm, top = np.argsort(words[w]), 0
                for a in block_amps:
                    a.take(perm, axis=1, out=block[top : top + len(a)], mode="clip")
                    top += len(a)
            classes.append((start, stack))
            start += len(group) * m
        cols = [np.sort(words[w]) for w in order]
        views = [block for _, stack in classes for block in stack]
        for a in rows + cols + [stack for _, stack in classes]:
            a.flags.writeable = False
        self.by_weight = dict(zip(order, zip(rows, cols, views)))
        # the gathers in conjugate skip bounds checks: prove them here
        # (pos is a permutation exactly when the rows are)
        all_rows, all_cols = np.concatenate(rows), np.concatenate(cols)
        for what, perm in (("rows", all_rows), ("columns", all_cols)):
            if not np.array_equal(np.sort(perm), np.arange(d**n)):
                raise ValueError(f"weight blocks of S({d}, {n}) miss or repeat {what}")
        self.classes, self.cols, self.pos = classes, all_cols, np.argsort(all_rows)

    def sector_rows(self, lam, qi: int) -> tuple:
        """The dim_p rows (lam, qi, 1..dim_p) of S, consecutive rows of the
        block of their weight, restricted to that block's columns, and those
        columns; qi is an index in [1, dim_q(lam)]."""
        _, _, np_ = self.codec.sector(lam)
        rows, cols, block = self.by_weight[gz_weight(self.codec.gz_pattern(lam, qi))]
        top = np.searchsorted(rows, self.codec.index(lam, qi, 1))
        return block[top : top + np_], cols

    @cached_property
    def dense(self) -> DenseOperator:
        """S as a (d^n x d^n) DenseOperator, assembled from the blocks on
        first request, each written through one flat-index scatter."""
        dim = len(self.codec)
        u = np.zeros((dim, dim))
        for rows, cols, block in self.by_weight.values():
            u.reshape(-1)[(rows[:, None] * dim + cols).reshape(-1)] = block.reshape(-1)
        return DenseOperator(u, row_labels=self.codec.triples, col_labels=range(dim))

    def _blockdiag_matmul(self, y: np.ndarray, out=None) -> np.ndarray:
        """blockdiag(S) @ y for y in block order (rows) and any columns,
        into out if given; a complex y is multiplied through its float64
        view, so every product is a real GEMM."""
        y = np.ascontiguousarray(y)
        out = np.empty_like(y) if out is None else out
        flat, flat_out = (a.view(np.float64).reshape(len(y), -1) for a in (y, out))
        for start, blocks in self.classes:
            k, m, _ = blocks.shape
            stop = start + k * m
            np.matmul(
                blocks,
                flat[start:stop].reshape(k, m, -1),
                out=flat_out[start:stop].reshape(k, m, -1),
            )
        return out

    def apply(self, x) -> np.ndarray:
        """S x in codec order for a real or complex x with d^n rows."""
        x = np.asarray(x)
        x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)
        if len(x) != len(self.codec):
            raise ValueError(f"expected {len(self.codec)} rows, got {len(x)}")
        return self._blockdiag_matmul(x[self.cols])[self.pos]

    def conjugate(self, x) -> np.ndarray:
        """S x S^T in codec order (S real) for a real or complex (d^n x d^n) x.

        Works on the weight blocks of S: one batched product per block size
        on each side, O(D * sum_w D_w^2) work for D = d^n and block sizes
        D_w, instead of the D^3 of a dense product.
        """
        x = np.asarray(x)
        x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)
        dim = len(self.codec)
        if x.shape != (dim, dim):
            raise ValueError(f"expected a ({dim} x {dim}) matrix, got {x.shape}")
        cols, pos = self.cols, self.pos
        # with x_w = x[cols][:, cols] and B = blockdiag(S) in block order, each
        # product acts on rows only: B (B x_w)^T = (B x_w B^T)^T; the gathers put
        # rows and columns in place in two D x D buffers (the result is a .T view)
        half = self._blockdiag_matmul(x[cols])
        y = half.T[cols]
        full_t = self._blockdiag_matmul(y, out=half)
        # mode="clip" spares the buffered copy that out= costs under "raise";
        # __init__ has checked that cols and pos are permutations of range(D)
        np.take(full_t, pos, axis=0, out=y, mode="clip")
        return np.take(y, pos, axis=1, out=full_t, mode="clip").T


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
    width = {"lambda": 1, "lambda_q": 2, "full": 3}.get(granularity)
    if width is None:
        raise ValueError(f"unknown granularity: {granularity}")
    t = schur(d, n)
    table = {}
    for label, p in zip(t.codec.triples, np.abs(t.apply(state)) ** 2):
        key = label[0] if width == 1 else label[:width]
        table[key] = table.get(key, 0.0) + float(p)
    return table


def central_projector_oracle(lam, d: int, n: int) -> DenseOperator:
    """Isotypic projector onto the lam sector of (C^d)^n, built purely from
    symmetric-group characters and qudit-permutation matrices:

        (dim_p(lam) / n!) * sum_s chi_lam(cycle_type(s)) P(s)

    Independent of all Clebsch-Gordan machinery, so it serves as the
    verification oracle for the cascade.
    """
    lam = normalize(lam)
    dim = d**n
    require_dense(dim)
    acc = np.zeros((dim, dim))
    for s in all_permutations(n):
        chi = character(lam, cycle_type(s))
        if chi:
            acc += chi * permutation_action(s, d)
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
