"""Symmetric-group Kronecker coefficients, invariant tripartite vectors,
and the normal form of n copies of a channel isometry under collective
Schur rotations on input and on both output factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import character, young_orthogonal
from .combinatorics import dim_p, normalize
from .operators import collective_split, max_or_nan, require_dense
from .permutations import all_permutations, conjugacy_classes
from .schur_transform import schur


def kronecker(lam_a, lam_b, lam_c) -> int:
    """Multiplicity of the trivial irrep in P_a tensor P_b tensor P_c:
    (1/n!) sum_s chi_a(s) chi_b(s) chi_c(s), summed by conjugacy class.
    Symmetric in all three arguments."""
    lam_a, lam_b, lam_c = normalize(lam_a), normalize(lam_b), normalize(lam_c)
    n = sum(lam_a)
    if sum(lam_b) != n or sum(lam_c) != n:
        raise ValueError("all three partitions must have the same size")
    total = 0
    for rho, size in conjugacy_classes(n).items():
        total += size * character(lam_a, rho) * character(lam_b, rho) * character(lam_c, rho)
    q, r = divmod(total, math.factorial(n))
    assert r == 0
    return q


def phi_lambda(lam) -> np.ndarray:
    """The unique (up to phase) vector in P_lam tensor P_lam invariant under
    the diagonal action: (1/sqrt(dim_p)) sum_p |p, p>."""
    k = dim_p(normalize(lam))
    return np.eye(k).reshape(-1) / math.sqrt(k)


def invariant_basis(lam_a, lam_b, lam_c) -> tuple:
    """Orthonormal basis of the subspace of P_a tensor P_b tensor P_c fixed
    by every diagonal p(s) tensor p(s) tensor p(s); length = kronecker.

    Deterministic: the group-average projector's SVD, keeping singular value
    1 directions, each normalized so its first nonzero entry is positive.
    Cached per triple; the vectors are read-only.
    """
    return _invariant_basis(normalize(lam_a), normalize(lam_b), normalize(lam_c))


@lru_cache(maxsize=None)
def _invariant_basis(lam_a, lam_b, lam_c) -> tuple:
    n = sum(lam_a)
    ka, kb, kc = dim_p(lam_a), dim_p(lam_b), dim_p(lam_c)
    dim = ka * kb * kc
    acc = np.zeros((dim, dim))
    for s in all_permutations(n):
        acc += np.kron(
            young_orthogonal(lam_a, s),
            np.kron(young_orthogonal(lam_b, s), young_orthogonal(lam_c, s)),
        )
    acc /= math.factorial(n)
    u, sv, _ = np.linalg.svd(acc)
    out = []
    for i, s in enumerate(sv):
        if s > 0.5:
            v = u[:, i]
            lead = np.flatnonzero(np.abs(v) > 1e-12)[0]
            out.append(v if v[lead] > 0 else -v)
            out[-1].flags.writeable = False
    assert len(out) == kronecker(lam_a, lam_b, lam_c)
    return tuple(out)


@dataclass
class ChannelNormalForm:
    n: int
    coefficients: dict  # (lamA, qA, lamB, lamE, qB, qE, alpha) -> complex
    bases: dict  # (lamA, lamB, lamE) -> tuple of invariant vectors
    reconstruction_residual: float
    isometry_residual: float


def channel_normal_form(u_n: np.ndarray, n: int, db: int = 2) -> ChannelNormalForm:
    """Decompose u_n^{tensor n} (u_n an isometry C^da -> C^db tensor C^de)
    in the Schur bases of the input and of both output factors; da is the
    column count of u_n and de its row count over db, which must divide it.

    By collective covariance the permutation-register part of every
    (lamA, lamB, lamE) block lies in the span of the diagonal-invariant
    vectors; the returned coefficients are the expansion in that basis and
    reconstruct the conjugated isometry exactly (residual reported).

    u_n^{tensor n} is held as a (db^n, de^n, da^n) array and conjugated by
    one Schur transform per axis; each block's coefficients are one
    projection onto its stacked invariant vectors.
    """
    u_n = np.asarray(u_n, dtype=complex)
    if u_n.ndim != 2 or not u_n.size or db < 1 or len(u_n) % db:
        raise ValueError(f"isometry must map C^da into C^{db} tensor C^de, got shape {u_n.shape}")
    da, de = u_n.shape[1], len(u_n) // db
    if not np.abs(u_n.conj().T @ u_n - np.eye(da)).max() <= 1e-10:
        raise ValueError("input is not an isometry")
    require_dense((db * de) ** n, da**n, what="rows of the tensor power at n = {}", of=(n,))
    conj = collective_split(u_n, n, db)
    # (Sb tensor Se) u_n^{tensor n} Sa^T, one Schur transform per axis
    for axis, d in enumerate((db, de, da)):
        conj = np.moveaxis(schur(d, n).apply(np.moveaxis(conj, axis, 0)), 0, axis)
    codec_b, codec_e, codec_a = (schur(d, n).codec for d in (db, de, da))
    coefficients = {}
    bases = {}
    residual = []
    iso_res = []
    for lam_a, (sl_a, nqa, ka) in codec_a.sectors.items():
        # the coefficient blocks of lamA, rows (qB, qE, alpha) and columns qA
        v = [np.zeros((0, nqa))]
        for lam_b, (sl_b, nqb, kb) in codec_b.sectors.items():
            for lam_e, (sl_e, nqe, ke) in codec_e.sectors.items():
                t = conj[sl_b, sl_e, sl_a].reshape(nqb, kb, nqe, ke, nqa, ka)
                # rows (qB, qE, qA), columns the permutation part (pA, pB, pE)
                w = t.transpose(0, 2, 4, 5, 1, 3).reshape(nqb * nqe * nqa, -1)
                if np.abs(w).max() > 1e-14:
                    key3 = (lam_a, lam_b, lam_e)
                    if key3 not in bases:
                        bases[key3] = invariant_basis(lam_a, lam_b, lam_e)
                    basis = np.array(bases[key3]).reshape(-1, w.shape[1])
                    c = w @ basis.T
                    w = w - c @ basis
                    c = c.reshape(nqb, nqe, nqa, len(basis))
                    mag = np.abs(c)
                    c[mag <= 1e-14] = 0
                    for qb, qe, qa, alpha in np.argwhere(mag > 1e-14).tolist():
                        coefficients[
                            (lam_a, qa + 1, lam_b, lam_e, qb + 1, qe + 1, alpha)
                        ] = complex(c[qb, qe, qa, alpha])
                    v.append(c.transpose(0, 1, 3, 2).reshape(-1, nqa))
                residual.append(np.abs(w).max())
        # isometry relation: the coefficient matrix [rows (lamB, lamE, qB,
        # qE, alpha)] x [cols qA] has V dagger V = dim_p(lamA) I
        v = np.concatenate(v)
        iso_res.append(np.abs(v.conj().T @ v / ka - np.eye(nqa)).max())
    return ChannelNormalForm(
        n=n,
        coefficients=coefficients,
        bases=bases,
        reconstruction_residual=max_or_nan(residual),
        isometry_residual=max_or_nan(iso_res),
    )
