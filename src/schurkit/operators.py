"""Dense operators with labeled bases, plus the basic collective actions on
(C^d)^n: qudit-permutation matrices and n-fold tensor powers, the one guard
on the size of every dense array the package materializes, and the
NaN-keeping maximum every report's residuals are taken with."""

from __future__ import annotations

import os

import numpy as np

DEFAULT_DENSE_CAP = 4096


def dense_cap() -> int:
    """The largest dimension of any dense array the package will
    materialize; overridable through the SCHURKIT_DENSE_CAP environment
    variable."""
    return int(os.environ.get("SCHURKIT_DENSE_CAP", DEFAULT_DENSE_CAP))


def require_dense(*shape: int, what: str, of: tuple = ()) -> None:
    """Raise ValueError, worded by the cap and what.format(*of), never by the
    size, unless every dimension of this shape is at most dense_cap(), read
    on every call so a lowered cap also holds for cached transforms."""
    cap = dense_cap()
    if max(shape) > cap:
        raise ValueError(
            f"more than {cap} {what.format(*of)}: the request exceeds cap {cap}; "
            "raise SCHURKIT_DENSE_CAP to override"
        )


def max_or_nan(values) -> float:
    """The largest of some non-negative floats (0.0 if there are none), or
    NaN if any of them is NaN.  Python's max drops a NaN that does not come
    first, since every comparison with NaN is false."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


class DenseOperator:
    """A dense matrix together with row/column basis labels.

    Labels are arbitrary objects (partitions, GZ patterns, index tuples); a
    (row, col) label pair is looked up with list.index, ValueError if absent.
    The matrix is a plain ndarray and is not copied.
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

    @property
    def shape(self):
        return self.matrix.shape

    def __getitem__(self, key):
        row, col = key
        return self.matrix[self.row_labels.index(row), self.col_labels.index(col)]

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
    """dest[i] = index of P(s)|i> for every computational index i; for a
    (k, n) stack of permutations, one such row per permutation."""
    s = np.asarray(s)
    powers = d ** np.arange(s.shape[-1] - 1, -1, -1)
    digits = np.arange(d ** len(powers)) // powers[:, None] % d
    # the input digit at position k is the output digit at position s(k), so
    # it carries the place value of that position: one integer product
    return powers[np.argsort(np.argsort(s, axis=-1), axis=-1)] @ digits


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


def _collective_factors(x, n: int) -> tuple:
    """(x^{tensor n//2}, x^{tensor n - n//2}), whose kron is x^{tensor n}."""
    return collective_unitary(x, n // 2), collective_unitary(x, n - n // 2)


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


def real_complex_matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """np.matmul(a, b, out=out) for matrices, vectors or stacks of blocks.
    Real a times complex b is one real GEMM on b's float64 view, so the real
    factor is never promoted; every other pair goes to np.matmul.  A caller
    with complex a and real b takes the transpose, (b^T a^T)^T."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "c" or b.dtype.kind != "c":
        return np.matmul(a, b, out=out)
    # the float64 views of b and out hold the real and imaginary part of each
    # column (a vector is one column) as two adjacent real columns
    vec = b.ndim == 1
    flat = np.ascontiguousarray(b[:, None] if vec else b).view(b.real.dtype)
    if out is not None:
        np.matmul(a, flat, out=(out[..., None] if vec else out).view(out.real.dtype))
        return out
    res = np.matmul(a, flat)
    res = res.view(np.promote_types(res.dtype, np.complex64))
    return res[..., 0] if vec else res
