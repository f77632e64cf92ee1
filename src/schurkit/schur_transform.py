"""The Schur transform on n qudits, built by cascading Clebsch-Gordan
blocks, with an explicit label codec, Schur-basis measurement, an
independent character-theoretic projector oracle, and encode/decode into
the permutation-module (decoherence-free) sectors.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

from .characters import character
from .combinatorics import (
    dim_p,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    gz_weight,
    normalize,
    partition_str,
    yy_index,
    yy_unindex,
)
from .operators import DenseOperator, permutation_action
from .permutations import all_permutations, cycle_type
from .wigner import cg_block, cg_output_blocks

DEFAULT_DENSE_CAP = 4096


def dense_cap() -> int:
    """The largest dimension of any dense array the package will
    materialize; overridable through the SCHURKIT_DENSE_CAP environment
    variable."""
    return int(os.environ.get("SCHURKIT_DENSE_CAP", DEFAULT_DENSE_CAP))


def require_dense(*shape: int) -> None:
    """Raise ValueError unless every dimension of a dense array of this
    shape is at most dense_cap(); read on every call, so a lowered cap also
    holds for transforms that are already cached."""
    cap = dense_cap()
    if max(shape) > cap:
        raise ValueError(
            f"dense shape {shape} exceeds cap {cap}; "
            "raise SCHURKIT_DENSE_CAP to override"
        )


class SchurLabelCodec:
    """Deterministic ordering of (lam, q, p) triples onto output row indices.

    Rows are ordered by lam in enumerate_partitions(d, n) order, then by the
    GZ-pattern index q in [1, dim_q] (enumerate_gz order), then by the path
    index p in [1, dim_p] (yy_index order).  There are exactly d^n rows and
    every one carries support of the Schur unitary.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        self.triples = []
        self._offset = {}
        row = 0
        for lam in enumerate_partitions(d, n):
            self._offset[lam] = row
            nq, np_ = dim_q(lam, d), dim_p(lam)
            for qi in range(1, nq + 1):
                for pi in range(1, np_ + 1):
                    self.triples.append((lam, qi, pi))
            row += nq * np_

    def __len__(self):
        return len(self.triples)

    def index(self, lam, qi: int, pi: int) -> int:
        lam = normalize(lam)
        return self._offset[lam] + (qi - 1) * dim_p(lam) + (pi - 1)

    def label(self, row: int) -> tuple:
        return self.triples[row]

    def block_slice(self, lam) -> slice:
        """Row range of the lam sector (size dim_q * dim_p)."""
        lam = normalize(lam)
        start = self._offset[lam]
        return slice(start, start + dim_q(lam, self.d) * dim_p(lam))

    def row_strings(self) -> list:
        return [
            f"lam={partition_str(lam)} q={qi} p={pi}" for lam, qi, pi in self.triples
        ]

    def gz_pattern(self, lam, qi: int):
        return enumerate_gz(normalize(lam), self.d)[qi - 1]

    def yy_path(self, lam, pi: int):
        return yy_unindex(normalize(lam), pi)


@lru_cache(maxsize=None)
def _schur_pair(d: int, n: int):
    codec = SchurLabelCodec(d, n)
    # per growing Young-Yamanouchi path, the map from the computational
    # basis of the first k qudits into the GZ basis of the path's top shape
    sectors = {((1,),): np.eye(d)}
    for k in range(1, n):
        grown = {}
        for path, amp in sectors.items():
            top = path[-1]
            block = cg_block(top, d)
            nq = dim_q(top, d)
            # multiply block @ kron(amp, I_d) without forming the kron:
            # column (x, i) of the product sums amp[q, x] over input (q, i)
            m3 = block.matrix.reshape(block.matrix.shape[0], nq, d)
            out = np.einsum("rqi,qx->rxi", m3, amp).reshape(
                block.matrix.shape[0], amp.shape[1] * d
            )
            for lp, rows in cg_output_blocks(top, d):
                grown[path + (lp,)] = out[rows, :]
        sectors = grown
    u = np.zeros((len(codec), d**n))
    for path, amp in sectors.items():
        lam = path[-1]
        pi = yy_index(path)
        for qi in range(1, dim_q(lam, d) + 1):
            u[codec.index(lam, qi, pi), :] = amp[qi - 1, :]
    op = DenseOperator(u, row_labels=codec.triples, col_labels=list(range(d**n)))
    return op, codec


def schur_unitary(d: int, n: int):
    """The Schur transform as a (d^n x d^n) DenseOperator mapping the
    computational basis onto labeled (lam, q, p) rows, plus its codec.

    The multiplicity record of the cascade (which row received a box at each
    step) is a Young-Yamanouchi path and is always compressed to the path
    index p via yy_index; yy_unindex recovers the raw record.

    The dense guard runs on every call, before the cache is consulted.
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    require_dense(d**n)
    return _schur_pair(d, n)


@lru_cache(maxsize=None)
def _weight_layout(d: int, n: int):
    """Block structure of S under the diagonal torus of U(d).

    Every row of S is a weight vector: it is supported on the computational
    indices whose letter content equals the GZ weight of its pattern.  Rows
    are grouped by that weight and columns by their letter content (both
    keyed by the sorted letters, an n-vector), and S is checked to be exactly
    zero outside the weight blocks.  Weights are ordered by block size, so
    each size class is one contiguous run of equal square blocks.

    Returns (cols, pos, classes): the computational columns in block order,
    pos[r] the block-order position of codec row r, and (start, blocks) per
    size class with blocks a (k, m, m) stack; all arrays are read-only.
    """
    su, codec = schur_unitary(d, n)
    s = su.matrix
    row_keys = np.zeros((len(codec), n), dtype=np.intp)
    r = 0
    for lam in enumerate_partitions(d, n):
        for pattern in enumerate_gz(lam, d):
            row_keys[r : r + dim_p(lam)] = np.repeat(np.arange(d), gz_weight(pattern))
            r += dim_p(lam)
    digits = np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1) % d
    col_keys = np.sort(digits, axis=1)
    keys, row_w, sizes = np.unique(
        row_keys, axis=0, return_inverse=True, return_counts=True
    )
    col_keys, col_w, col_sizes = np.unique(
        col_keys, axis=0, return_inverse=True, return_counts=True
    )
    if not (np.array_equal(keys, col_keys) and np.array_equal(sizes, col_sizes)):
        raise ValueError(f"row and column weight classes of S({d},{n}) differ")
    row_w, col_w = row_w.reshape(-1), col_w.reshape(-1)
    nz_rows, nz_cols = np.nonzero(s)
    if np.any(row_w[nz_rows] != col_w[nz_cols]):
        raise ValueError(f"S({d},{n}) is nonzero outside its weight blocks")
    by_size = np.argsort(sizes, kind="stable")
    rank = np.argsort(by_size)
    rows = np.argsort(rank[row_w], kind="stable")
    cols = np.argsort(rank[col_w], kind="stable")
    classes = []
    start = 0
    for m, k in zip(*np.unique(sizes[by_size], return_counts=True)):
        stop = start + k * m
        rr = rows[start:stop].reshape(k, m)
        cc = cols[start:stop].reshape(k, m)
        classes.append((start, s[rr[:, :, None], cc[:, None, :]]))
        start = stop
    pos = np.argsort(rows)
    for a in [cols, pos] + [blocks for _, blocks in classes]:
        a.flags.writeable = False
    return cols, pos, classes


def _apply_blocks(classes, y: np.ndarray) -> np.ndarray:
    """blockdiag(S) @ y for y in block order (rows) and any columns; a
    complex y is multiplied through its float64 view, so every product is
    a real GEMM."""
    y = np.ascontiguousarray(y)
    flat = y.view(np.float64)
    flat = flat.reshape(flat.shape[0], -1)
    out = np.empty_like(flat)
    for start, blocks in classes:
        k, m, _ = blocks.shape
        stop = start + k * m
        np.matmul(
            blocks,
            flat[start:stop].reshape(k, m, -1),
            out=out[start:stop].reshape(k, m, -1),
        )
    return out.view(y.dtype)


def schur_conjugate(x, d: int, n: int) -> np.ndarray:
    """S x S^T in codec order (S real) for a real or complex (d^n x d^n) x.

    Works on the weight blocks of S: one batched product per block size on
    each side, O(D * sum_w D_w^2) work for D = d^n and block sizes D_w,
    instead of the D^3 of a dense product.
    """
    x = np.asarray(x)
    x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)
    dim = d**n
    if x.shape != (dim, dim):
        raise ValueError(f"expected a ({dim} x {dim}) matrix, got {x.shape}")
    cols, pos, classes = _weight_layout(d, n)
    # with x_w = x[cols][:, cols] and B = blockdiag(S) in block order, each
    # product acts on rows only: B (B x_w)^T = (B x_w B^T)^T, and the row
    # gathers and transposed row gathers below put rows and columns in place
    half = _apply_blocks(classes, x[cols])
    full_t = _apply_blocks(classes, half.T[cols])
    return full_t[pos].T[pos]


def measure_schur(state, d: int, n: int, granularity: str = "lambda") -> dict:
    """Probability table of a Schur-basis measurement of a pure state.

    granularity: "lambda" keys by partition, "lambda_q" by (lam, q-index),
    "full" by (lam, q-index, p-index).  Probabilities sum to 1.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != d**n:
        raise ValueError("state length must be d^n")
    if abs(np.linalg.norm(state) - 1.0) > 1e-8:
        raise ValueError("state must be normalized")
    if granularity not in ("lambda", "lambda_q", "full"):
        raise ValueError(f"unknown granularity: {granularity}")
    u, codec = schur_unitary(d, n)
    amps = u.matrix @ state
    table = {}
    for row, p in enumerate(np.abs(amps) ** 2):
        lam, qi, pi = codec.label(row)
        if granularity == "lambda":
            key = lam
        elif granularity == "lambda_q":
            key = (lam, qi)
        else:
            key = (lam, qi, pi)
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


def _dfs_sector(lam, q, vec, axis: int, d: int, n: int):
    """The dim_p(lam) x d^n Schur rows of sector (lam, q) and vec as a
    complex vector of length rows.shape[axis].

    Raises ValueError unless lam is a partition of n with at most d rows,
    q is an index in [1, dim_q(lam)] or one of lam's GZ patterns, and vec
    has that length.
    """
    lam = normalize(lam)
    if lam not in enumerate_partitions(d, n):
        raise ValueError(f"{lam} is not a partition of {n} with at most {d} rows")
    patterns = enumerate_gz(lam, d)
    qi = q if isinstance(q, (int, np.integer)) else patterns.index(tuple(q)) + 1
    if not 1 <= qi <= len(patterns):
        raise ValueError(f"q must lie in 1..{len(patterns)} for {lam}, got {qi}")
    u, codec = schur_unitary(d, n)
    start = codec.index(lam, qi, 1)
    rows = u.matrix[start : start + dim_p(lam)]
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.shape[0] != rows.shape[axis]:
        raise ValueError(f"vector length must be {rows.shape[axis]}")
    return rows, vec


def dfs_encode(lam, q, p_state, d: int, n: int) -> np.ndarray:
    """Embed a state over the permutation module P_lam into (C^d)^n at a
    fixed unitary-register basis vector (GZ pattern q).

    q may be a GZ pattern (chain) or a 1-based index into enumerate_gz.
    """
    rows, p_state = _dfs_sector(lam, q, p_state, 0, d, n)
    # S is real, so rows^dagger p_state is p_state @ rows
    return p_state @ rows


def dfs_decode(lam, q, state, d: int, n: int) -> np.ndarray:
    """Inverse of dfs_encode: project onto the (lam, q) rows and return the
    P_lam-register amplitudes."""
    rows, state = _dfs_sector(lam, q, state, 1, d, n)
    return rows @ state
