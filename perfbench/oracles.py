"""Independent checks of schurkit results, written with numpy and the
standard library only.  None of them calls the code it checks, except that
the Schur-matrix check takes Young's orthogonal form from
``schurkit.characters``, the route the package documents as its
verification oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_isometry(rng, rows: int, cols: int) -> np.ndarray:
    z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return np.linalg.qr(z)[0]


def content(lam) -> int:
    """Sum of (column - row) over the boxes of lam: the scalar by which the
    sum of all transpositions acts on the lam isotypic component."""
    return sum(p * (p - 1) // 2 - i * p for i, p in enumerate(lam))


def transposition_sum(x: np.ndarray, d: int, n: int) -> np.ndarray:
    """T x with T = sum_{i<j} P_(ij), on a vector of (C^d)^n."""
    t = x.reshape((d,) * n)
    out = np.zeros_like(t)
    for i, j in combinations(range(n), 2):
        out += np.swapaxes(t, i, j)
    return out.reshape(-1)


def lambda_moments_ok(dist: dict, x: np.ndarray, d: int, n: int, tol: float = 1e-9) -> bool:
    """A lam distribution of a normalized state x must reproduce <x|T^k|x>
    for k = 0, 1, 2 as sum_lam p_lam content(lam)^k."""
    tx = transposition_sum(x, d, n)
    want = (1.0, float(np.vdot(x, tx).real), float(np.vdot(tx, tx).real))
    got = [sum(p * content(lam) ** k for lam, p in dist.items()) for k in range(3)]
    scale = max(1.0, n * (n - 1) / 2) ** 2
    return all(abs(g - w) <= tol * max(1.0, abs(w), scale if k == 2 else 1.0) for k, (g, w) in enumerate(zip(got, want)))


def hook_dim(lam) -> int:
    """Number of standard tableaux of shape lam (hook length formula)."""
    n = sum(lam)
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(n) // hooks


def partitions(n: int, rows: int, largest: int = None):
    """Partitions of n with at most `rows` parts, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, rows - 1, first):
            yield (first,) + rest


def _det(m):
    m = [row[:] for row in m]
    size, det = len(m), Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            for k in range(c, size):
                m[r][k] -= f * m[c][k]
    return det


def sector_masses(spectrum, n: int) -> dict:
    """lam -> dim_p(lam) * s_lam(spectrum) for rho^{tensor n}, with the Schur
    polynomial from the bialternant formula in exact rational arithmetic.
    The spectrum entries must be distinct."""
    r = [Fraction(float(x)) for x in spectrum]
    d = len(r)
    den = _det([[x ** (d - 1 - j) for j in range(d)] for x in r])
    out = {}
    for lam in partitions(n, d):
        lp = list(lam) + [0] * (d - len(lam))
        num = _det([[x ** (lp[j] + d - 1 - j) for j in range(d)] for x in r])
        out[lam] = float(hook_dim(lam) * num / den)
    return out


def distributions_match(got: dict, want: dict, tol: float) -> bool:
    keys = set(got) | set(want)
    return all(abs(got.get(k, 0.0) - want.get(k, 0.0)) <= tol for k in keys)


def collective_trace(u: np.ndarray, s) -> complex:
    """tr(u^{tensor n} P(s)) = prod over cycles c of s of tr(u^|c|)."""
    seen, out = set(), 1.0 + 0j
    for start in range(1, len(s) + 1):
        if start in seen:
            continue
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = s[k - 1]
            length += 1
        out *= np.trace(np.linalg.matrix_power(u, length))
    return out


def _occupations(d: int, n: int) -> np.ndarray:
    """(d, d^n) array: how many qudits of each basis state hold value v."""
    digits = np.indices((d,) * n).reshape(n, -1)
    return np.stack([(digits == v).sum(axis=0) for v in range(d)])


def schur_matrix_failures(s_mat, codec, d: int, n: int, young_orthogonal, rng) -> list:
    """Reasons the real matrix s_mat fails to be a Schur transform with the
    codec's (lam, q, p) row layout; empty when every check passes.  Each
    relation is tested on random probe vectors x, so it costs O(d^2n):

    - orthogonal: S^T S x = x;
    - torus: S diag(t^w(c)) x = diag(t^w(q)) S x for random phases t, where
      w(c) counts the qudit values of basis state c and w(q) is the weight
      of the row's GZ pattern;
    - permutations: S P(s) x = (+)_lam (I_q tensor Y_lam(s)) S x for every
      adjacent transposition s, with Y from Young's orthogonal form.
    """
    dim = d**n
    if s_mat.shape != (dim, dim) or np.iscomplexobj(s_mat):
        return [f"shape/dtype {s_mat.shape} {s_mat.dtype}"]
    out = []
    x = rng.normal(size=(dim, 2))
    sx = s_mat @ x
    if np.abs(s_mat.T @ sx - x).max() > 1e-10:
        out.append("not orthogonal")
    theta = rng.uniform(0, 2 * np.pi, size=d)
    row_weight = np.empty((dim, d))
    chains = {}
    for row, (lam, qi, _pi) in enumerate(codec.triples):
        if (lam, qi) not in chains:
            sizes = [sum(level) for level in codec.gz_pattern(lam, qi)]
            chains[(lam, qi)] = [sizes[j] - (sizes[j - 1] if j else 0) for j in range(d)]
        row_weight[row] = chains[(lam, qi)]
    col_phase = np.exp(1j * theta @ _occupations(d, n))[:, None]
    row_phase = np.exp(1j * row_weight @ theta)[:, None]
    if np.abs(s_mat @ (col_phase * x) - row_phase * sx).max() > 1e-10:
        out.append("weight leakage")
    index = np.arange(dim).reshape((d,) * n)
    lams = sorted({lam for lam, _, _ in codec.triples})
    for k in range(1, n):
        moved = s_mat @ x[np.swapaxes(index, k - 1, k).reshape(-1)]
        perm = tuple(k + 1 if i == k else k if i == k + 1 else i for i in range(1, n + 1))
        for lam in lams:
            sl = codec.block_slice(lam)
            y = young_orthogonal(lam, perm)
            np_ = y.shape[0]
            want = np.matmul(y, sx[sl].reshape(-1, np_, 2))
            if np.abs(moved[sl].reshape(-1, np_, 2) - want).max() > 1e-10:
                out.append(f"S_n action on {lam} at ({k},{k + 1})")
                break
    return out
