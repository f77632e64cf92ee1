"""Extraction of irrep matrices from the Schur transform and numerical
verification that it simultaneously block-diagonalizes the collective
unitary action and the qudit-permutation action.

No function here reads the dense S.  The irrep matrices multiply only
their sector's rows of S, filled from the torus-weight blocks the cascade
builds; every full conjugation S X S^T goes through SchurTransform.conjugate,
and the leakage of verify_block_diagonal is still measured over every
off-lam-block entry of the full d^n x d^n conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .characters import young_orthogonal
from .combinatorics import normalize
from .operators import (
    DenseOperator,
    _collective_factors,
    _image_indices,
    max_or_nan,
    permute_columns_like,
    real_complex_matmul,
    right_multiply_collective,
)
from .permutations import check_permutation
from .qtypes import sector_distribution
from .schur_transform import schur


def _require_unitary(u: np.ndarray, d: int, tol: float = 1e-8) -> np.ndarray:
    u = np.asarray(u)
    if u.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} matrix")
    if not np.abs(u.conj().T @ u - np.eye(d)).max() <= tol:
        raise ValueError("matrix is not unitary within tolerance")
    return u


def rep_matrix_q(lam, u, d: int, n: int) -> DenseOperator:
    """The unitary-group irrep matrix q_lam(u) on the GZ basis: the block of
    the Schur conjugation of u^{tensor n} at a fixed path index, computed
    from those rows of S alone."""
    u = _require_unitary(u, d)
    t = schur(d, n)
    _, nq, _ = t.codec.sector(lam)
    rows = _rows_of_s(t, lam, range(1, nq + 1), 1)
    return _irrep_block(right_multiply_collective(rows, u, n), rows)


def rep_matrix_p(lam, s, d: int = None, n: int = None) -> DenseOperator:
    """The symmetric-group irrep matrix p_lam(s) on the path basis: the
    block of the Schur conjugation of the qudit permutation at a fixed GZ
    index, computed from those rows of S alone.  Independent of which
    d >= rows(lam) is used."""
    lam = normalize(lam)
    if n is None:
        n = len(s)
    s = check_permutation(s, n)
    if d is None:
        d = max(len(lam), 1)
    t = schur(d, n)
    _, _, np_ = t.codec.sector(lam)
    rows = _rows_of_s(t, lam, [1], np_)
    return _irrep_block(permute_columns_like(rows, s, d), rows)


def _rows_of_s(t, lam, qis, paths: int) -> np.ndarray:
    """The rows (lam, qi, 1..paths) of S for each qi in qis, as a dense
    (len(qis) * paths, d^n) array filled from the weight blocks."""
    out = np.zeros((len(qis), paths, len(t.codec)))
    for k, qi in enumerate(qis):
        block, cols = t.sector_rows(lam, qi)
        out[k][:, cols] = block[:paths]
    return out.reshape(-1, len(t.codec))


def _irrep_block(xr, rows) -> DenseOperator:
    """rows x rows^T from xr = rows x, labeled 1, 2, ..., as the transpose
    of the real-by-complex product rows xr^T."""
    labels = list(range(1, len(rows) + 1))
    return DenseOperator(real_complex_matmul(rows, xr.T).T, row_labels=labels, col_labels=labels)


@dataclass
class IrrepBlockReport:
    """Result of a simultaneous block-diagonalization check.

    factor_residuals maps lam to max |block - q_hat tensor p_lam(s)|; a
    sector with dim_p(lam) = 1 holds 0.0 by construction, or NaN when its
    block is not finite."""

    d: int
    n: int
    leakage: float
    factor_residuals: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)

    @property
    def worst_factor_residual(self) -> float:
        return max_or_nan(self.factor_residuals.values())


def verify_block_diagonal(u, s, d: int, n: int, tol: float = 1e-10) -> IrrepBlockReport:
    """Conjugate u^{tensor n} P(s) by the Schur transform, measure the mass
    outside the lam-diagonal blocks, and test that each block factors as
    (collective factor) tensor p_lam(s) with p_lam built independently from
    tableau contents.

    A sector with dim_p(lam) = 1 (lam = (n) or (1^n)) reports its factor
    residual as 0.0 by construction, or NaN when its block is not finite:
    there p_lam(s) = [+-1], so q_hat tensor p_lam(s) reproduces any finite
    block exactly and young_orthogonal is not called."""
    u = _require_unitary(u, d, tol=max(tol, 1e-8))
    s = check_permutation(s, n)
    t = schur(d, n)
    # u^{tensor n} P(s) = kron(u^{tensor n//2}, u^{tensor n - n//2})[:, dest]
    w = t.conjugate(_collective_factors(u, n), perm=_image_indices(s, d))
    # w is the transpose of a C-ordered array: read each block through w.T
    wt = w.T
    report = IrrepBlockReport(d=d, n=n, leakage=_off_block_max(wt, t.codec.sectors))
    for lam, (sl, nq, np_) in t.codec.sectors.items():
        report.blocks[lam] = DenseOperator(w[sl, sl])
        if np_ == 1:
            # the entries of a unitary's conjugate are at most 1 in modulus,
            # so the sum overflows only if some entry is not finite
            report.factor_residuals[lam] = 0.0 if np.isfinite(wt[sl, sl].sum()) else math.nan
            continue
        p_mat = young_orthogonal(lam, s)
        # bt[b, q, a, p] = block[a * np_ + p, b * np_ + q]
        bt = wt[sl, sl].reshape(nq, np_, nq, np_)
        # best collective factor (transposed) by contracting the known one
        q_hat_t = np.einsum("bqap,pq->ba", bt, p_mat) / np_
        # kron(q_hat, p_mat)^T - block^T, by broadcasting
        diff = q_hat_t[:, None, :, None] * p_mat.T[:, None, :]
        diff -= bt
        report.factor_residuals[lam] = float(np.abs(diff).max())
    return report


def _off_block_max(wt, sectors) -> float:
    """max |w| over every entry of w = wt.T outside the diagonal sector
    blocks, read from wt one sector's rows at a time; NaN if any is NaN."""
    return max_or_nan(
        np.abs(part).max(initial=0.0)
        for sl, _, _ in sectors.values()
        for part in (wt[sl, : sl.start], wt[sl, sl.stop :])
    )


def rho_blocks(rho, n: int) -> dict:
    """Decompose rho^{tensor n} through the Schur transform.

    Returns lam -> (weight, q_factor, p_state) where weight is the sector
    mass dim_p * schur_poly(lam, spec rho), q_factor the collective-register
    block q_lam(rho) (trace = schur_poly), and p_state the conditional
    permutation-register density matrix (maximally mixed for product
    inputs).
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValueError("rho must be square")
    if not np.abs(rho - rho.conj().T).max() <= 1e-10:
        raise ValueError("rho must be Hermitian")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-10 or abs(rho.trace().real - 1.0) > 1e-10:
        raise ValueError("rho must be a density matrix (PSD, trace 1)")
    t = schur(d, n)
    w = t.conjugate(_collective_factors(rho, n))
    out = {}
    for lam, (sl, nq, np_) in t.codec.sectors.items():
        b4 = w[sl, sl].reshape(nq, np_, nq, np_)
        q_block = np.einsum("apbp->ab", b4)  # trace over the p register
        p_block = np.einsum("apaq->pq", b4)  # trace over the q register
        weight = float(q_block.trace().real)
        q_factor = q_block / np_
        p_state = p_block / weight if weight > 1e-300 else np.eye(np_) / np_
        out[lam] = (weight, q_factor, p_state)
    return out


def spectral_weights(rho, n: int) -> dict:
    """lam -> dim_p(lam) * schur_poly(lam, spec rho): the sector masses of
    rho^{tensor n} computed without any d^n-dimensional object.  Negative
    eigenvalue round-off is clipped to 0; ValueError unless the spectrum
    then sums to 1."""
    spec = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    return sector_distribution(np.clip(spec, 0.0, None), n)
