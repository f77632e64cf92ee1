"""Dense operators with labeled bases, plus the basic collective actions on
(C^d)^n: qudit-permutation matrices and n-fold tensor powers, and the one
guard on the size of every dense array the package materializes."""

from __future__ import annotations

import os

import numpy as np

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


class DenseOperator:
    """A dense matrix together with row/column basis labels.

    Labels are arbitrary hashable objects (partitions, GZ patterns, index
    tuples); ``row_index``/``col_index`` give O(1) lookup.  The matrix is a
    plain ndarray and is not copied.
    """

    def __init__(self, matrix, row_labels=None, col_labels=None):
        self.matrix = np.asarray(matrix)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        r, c = self.matrix.shape
        self.row_labels = list(row_labels) if row_labels is not None else list(range(r))
        self.col_labels = list(col_labels) if col_labels is not None else list(range(c))
        if len(self.row_labels) != r or len(self.col_labels) != c:
            raise ValueError("label lengths must match matrix shape")
        self.row_index = {lab: i for i, lab in enumerate(self.row_labels)}
        self.col_index = {lab: i for i, lab in enumerate(self.col_labels)}

    @property
    def shape(self):
        return self.matrix.shape

    def __getitem__(self, key):
        row, col = key
        return self.matrix[self.row_index[row], self.col_index[col]]

    def dagger(self) -> "DenseOperator":
        return DenseOperator(self.matrix.conj().T, self.col_labels, self.row_labels)

    def unitarity_residual(self) -> float:
        """max |A†A - I|; 0 for an exact isometry (columns orthonormal)."""
        m = self.matrix
        g = m.conj().T @ m
        return float(np.abs(g - np.eye(g.shape[0])).max())

    def __repr__(self):
        return f"DenseOperator(shape={self.matrix.shape})"


def permutation_action(s, d: int) -> np.ndarray:
    """Matrix of the qudit-permutation P(s) on (C^d)^n, n = len(s).

    Convention: P(s)|i_1 ... i_n> = |i_{s^-1(1)} ... i_{s^-1(n)}>, i.e. the
    qudit at position k moves to position s(k).
    """
    dest = _image_indices(s, d)
    dim = d ** len(s)
    m = np.zeros((dim, dim))
    m[dest, np.arange(dim)] = 1.0
    return m


def _image_indices(s, d: int) -> np.ndarray:
    """dest[i] = index of P(s)|i> for every computational index i."""
    powers = d ** np.arange(len(s) - 1, -1, -1)
    digits = np.arange(d ** len(s)) // powers[:, None] % d
    # output digit at position s(k) is the input digit at position k
    return powers @ digits[np.argsort(s)]


def permute_columns_like(matrix: np.ndarray, s, d: int) -> np.ndarray:
    """matrix @ permutation_action(s, d) without forming the permutation."""
    dim = d ** len(s)
    if matrix.shape[1] != dim:
        raise ValueError("column count must be d^n")
    return np.take(matrix, _image_indices(s, d), axis=1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) for two matrices, as one broadcast product."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def collective_unitary(u: np.ndarray, n: int) -> np.ndarray:
    """U^{tensor n} acting identically on every qudit (u may be rectangular),
    by squaring along the bits of n: U^{tensor 2m} = kron(U^{tensor m},
    U^{tensor m}), times one more U on each set bit."""
    u = np.asarray(u)
    out = np.ones((1, 1))
    for bit in f"{n:b}":
        out = _kron(out, out)
        if bit == "1":
            out = _kron(out, u)
    return out


def collective_split(u: np.ndarray, n: int, da: int) -> np.ndarray:
    """u^{tensor n} for u mapping into C^da tensor C^db, as a
    (da^n, db^n, columns) array: the output factors are regrouped from
    (a1 b1 ... an bn) to (a1..an b1..bn)."""
    rows, cols = u.shape
    db = rows // da
    big = collective_unitary(u, n).reshape((da, db) * n + (cols**n,))
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)) + [2 * n]
    return np.transpose(big, order).reshape(da**n, db**n, cols**n)


def right_multiply_collective(matrix: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """matrix @ u^{tensor n} by contracting one tensor factor at a time:
    n * dim^2 * d work instead of the dim^3 of a dense product."""
    d = u.shape[0]
    dim = d**n
    if matrix.shape[1] != dim:
        raise ValueError("column count must be d^n")
    rows = matrix.shape[0]
    t = matrix.reshape((rows,) + (d,) * n)
    for _ in range(n):
        # contract the current leading site; after n rounds the site axes
        # return to their original order
        t = np.tensordot(t, u, axes=([1], [0]))
    return t.reshape(rows, dim)


def real_complex_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, splitting complex factors into real GEMMs when one side is
    real (roughly 2x faster than promoting the real side to complex)."""
    a_real = not np.iscomplexobj(a)
    b_real = not np.iscomplexobj(b)
    if a_real and b_real:
        return a @ b
    # .real/.imag of a complex array are strided views; copy to keep the
    # products on the contiguous GEMM fast path
    if a_real:
        return (a @ np.ascontiguousarray(b.real)) + 1j * (
            a @ np.ascontiguousarray(b.imag)
        )
    if b_real:
        return (np.ascontiguousarray(a.real) @ b) + 1j * (
            np.ascontiguousarray(a.imag) @ b
        )
    return a @ b
