"""The symmetric-group quantum Fourier transform obtained by restricting
the Schur transform to the group algebra, and generalized phase
estimation: measuring the partition label of a state with a group-algebra
ancilla and controlled qudit permutations instead of the Schur unitary.

The group algebra embeds into (C^n)^{tensor n} as the words with n
distinct letters, the all-ones torus weight, so the Fourier transform is
the one n! x n! weight block of S(n, n), read from the weight blocks the
cascade builds; the dense S(n, n) is never formed.

Both GPE entry points share one ancilla pipeline.  The controlled
permutation sum_s |s><s| tensor P(s) is applied as an index gather per
ancilla row, so the joint register is an n! x d^n array and nothing larger
is formed.  Its guard is require_dense(n!, d^n); the Fourier block is
behind the Schur transform's own guard on n^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .characters import young_orthogonal
from .combinatorics import _weight_numbers, dim_p, enumerate_partitions
from .operators import DenseOperator, _image_indices, dense_cap, max_or_nan, require_dense
from .operators import real_complex_matmul
from .permutations import all_permutations, count_permutations, identity, transposition
from .schur_transform import schur


@dataclass
class FourierBlockLayout:
    """Row layout of the Fourier transform: per-partition blocks of size
    dim_p^2 with rows ordered (left index, right index)."""

    n: int
    blocks: list = field(default_factory=list)  # (lam, row slice)


def sn_qft_from_schur(n: int):
    """The n! x n! Fourier transform on the group algebra, as the Schur
    transform of (C^n)^{tensor n} restricted to the embedded group algebra.

    Rows are (lam, a, b) with a indexing the multiplicity register (the
    all-distinct-letters weight space, one copy of the irrep) and b the
    permutation register.  Left multiplication acts on a, right (inverse)
    multiplication on b; each block matches the standard Fourier convention
    up to a fixed sign on each row.
    """
    t = schur(n, n)
    # the rows of the weight (1, ..., 1) block are in codec order and its
    # columns, the words with distinct letters, in cascade order; sorted by
    # index, those words are in all_permutations order
    rows, cols, block = t.by_weight[_all_ones_number(n)]
    layout = FourierBlockLayout(n=n)
    start = 0
    for lam in enumerate_partitions(n, n):
        layout.blocks.append((lam, slice(start, start + dim_p(lam) ** 2)))
        start += dim_p(lam) ** 2
    op = DenseOperator(
        block[:, np.argsort(cols)],
        row_labels=[t.codec.label(r) for r in rows],
        col_labels=list(all_permutations(n)),
    )
    return op, layout


@lru_cache(maxsize=None)
def _all_ones_number(n: int) -> int:
    """The number (_weight_numbers) of the weight (1, ..., 1) of size n."""
    return int(_weight_numbers([(1,) * n])[0])


def _regular_indices(s1, s2, n: int) -> np.ndarray:
    """idx[k] = index of s1 t_k s2^-1, t_k the k-th entry of
    all_permutations(n): L(s1) R(s2) on the group algebra as a column
    gather, F L(s1) R(s2) = F[:, idx].  Lexicographic order is ascending
    base-n value, so a word's index is its rank among those values."""
    perms = np.array(all_permutations(n)) - 1
    words = (np.asarray(s1) - 1)[perms[:, np.argsort(s2)]]
    values = n ** np.arange(n - 1, -1, -1)
    return np.searchsorted(perms @ values, words @ values)


def _alignment_signs(f: np.ndarray, layout: FourierBlockLayout, n: int) -> dict:
    """Fixed per-row sign vector aligning each multiplicity register with
    Young's orthogonal representation, computed once from the left action of
    adjacent transpositions and then frozen."""
    signs = {}
    gens = [transposition(n, g) for g in range(1, n)]
    gens = [(s, _regular_indices(s, identity(n), n)) for s in gens]
    for lam, sl in layout.blocks:
        k = dim_p(lam)
        # each generator's multiplicity-register factor and Young matrix
        pairs = []
        for s, idx in gens:
            blk = (f[sl][:, idx] @ f[sl].T).reshape(k, k, k, k)
            pairs.append((np.einsum("apbp->ab", blk) / k, young_orthogonal(lam, s)))
        fix = np.zeros(k)
        fix[0] = 1.0
        # propagate relative signs through generators until all determined
        for _ in range(k):
            for rep, y in pairs:
                for a in range(k):
                    for b in range(k):
                        if fix[b] and not fix[a] and abs(rep[a, b]) > 1e-8:
                            fix[a] = math.copysign(1.0, rep[a, b] * y[a, b] * fix[b])
            if all(fix):
                break
        signs[lam] = fix
    return signs


@dataclass
class FourierReport:
    n: int
    leakage: float
    block_residual: float
    pairs_checked: int


def verify_fourier(n: int, trials: int = 0, seed: int = 0) -> FourierReport:
    """Check that conjugating L(s1) R(s2) by the Fourier transform is block
    diagonal with blocks p_lam(s1) tensor p_lam(s2), after the one-time
    frozen sign alignment.  trials = 0 checks all pairs exhaustively;
    negative trials raise ValueError."""
    if trials < 0:
        raise ValueError("trials must be >= 0 (0 checks every pair)")
    f, layout = sn_qft_from_schur(n)
    signs = _alignment_signs(f.matrix, layout, n)
    perms = all_permutations(n)
    if trials:
        rng = np.random.default_rng(seed)
        pairs = [
            (perms[rng.integers(len(perms))], perms[rng.integers(len(perms))])
            for _ in range(trials)
        ]
    else:
        pairs = [(s1, s2) for s1 in perms for s2 in perms]
    leakage, residual = [], []
    for s1, s2 in pairs:
        w = f.matrix[:, _regular_indices(s1, s2, n)] @ f.matrix.T
        mask = np.ones(w.shape, dtype=bool)
        for lam, sl in layout.blocks:
            mask[sl, sl] = False
            d_fix = np.diag(signs[lam])
            expected = np.kron(
                d_fix @ young_orthogonal(lam, s1) @ d_fix, young_orthogonal(lam, s2)
            )
            residual.append(np.abs(w[sl, sl] - expected).max())
        leakage.append(np.abs(w[mask]).max(initial=0.0))
    leakage, residual = max_or_nan(leakage), max_or_nan(residual)
    return FourierReport(n=n, leakage=leakage, block_residual=residual, pairs_checked=len(pairs))


# ---------------------------------------------------------------------------
# generalized phase estimation


def _ancilla_pipeline(state, d: int, n: int):
    """Apply the controlled permutation to |trivial> tensor state and
    Fourier-transform the ancilla.

    Returns the Fourier layout, the n! x d^n joint register (rows in the
    layout's order) and uncompute(sl, part), which inverts both steps on the
    joint register that holds part in rows sl and zeros elsewhere, and
    returns its component on the trivial ancilla.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != d**n:
        raise ValueError("state length must be d^n")
    require_dense(count_permutations(n, dense_cap()), d**n, what="GPE register rows or columns")
    f, layout = sn_qft_from_schur(n)
    # dest[k, i] = index of P(s_k)|i>
    dest = _image_indices(all_permutations(n), d)
    rows = np.arange(dest.shape[0])[:, None]
    trivial = np.full(dest.shape[0], 1.0 / math.sqrt(dest.shape[0]))
    joint = np.zeros(dest.shape, dtype=complex)
    joint[rows, dest] = trivial[:, None] * state
    joint = real_complex_matmul(f.matrix, joint)

    def uncompute(sl: slice, part: np.ndarray) -> np.ndarray:
        return real_complex_matmul(trivial, real_complex_matmul(f.matrix[sl].T, part)[rows, dest])

    return layout, joint, uncompute


@dataclass
class GPEResult:
    distribution: dict  # lam -> probability
    post_states: dict  # lam -> normalized post-measurement system state
    ancilla_fidelity: dict  # lam -> |<trivial|ancilla>|^2 after uncomputation


def gpe_measure(state, d: int, n: int) -> GPEResult:
    """Measure the partition label of a state using the group-algebra
    ancilla route: Fourier-conjugated controlled permutations, a label
    measurement on the ancilla, then uncomputation.

    The label distribution equals the isotypic projector masses and the
    post-measurement state is the normalized projection.
    """
    layout, joint, uncompute = _ancilla_pipeline(state, d, n)
    result = GPEResult(distribution={}, post_states={}, ancilla_fidelity={})
    for lam, sl in layout.blocks:
        part = joint[sl]
        prob = float((np.abs(part) ** 2).sum())
        result.distribution[lam] = prob
        if prob < 1e-14:
            continue
        post = uncompute(sl, part)
        norm = np.linalg.norm(post)
        result.post_states[lam] = post / norm if norm > 0 else post
        result.ancilla_fidelity[lam] = float(norm**2 / prob)
    return result


def gpe_instrument(ops: dict, state, d: int, n: int) -> dict:
    """Apply a label-indexed instrument {x: {lam: A_lam^x on P_lam}} through
    the ancilla route: after the controlled-permutation step the ancilla's
    permutation register carries the system's original P_lam amplitudes, so
    acting there effects A on the system.  A sector missing from a family
    acts as the zero operator.

    Returns x -> (probability, post-measurement system state).
    """
    layout, joint, uncompute = _ancilla_pipeline(state, d, n)
    # only sectors with at most d rows can occur on the system
    for lam, _ in layout.blocks:
        if len(lam) > d:
            continue
        k = dim_p(lam)
        total = np.zeros((k, k), dtype=complex)
        for fam in ops.values():
            if lam in fam:
                a = np.asarray(fam[lam], dtype=complex)
                total += a.conj().T @ a
        if np.abs(total - np.eye(k)).max() > 1e-8:
            raise ValueError(f"instrument not normalized on sector {lam}")
    out = {}
    for x, fam in ops.items():
        post = np.zeros(joint.shape[1], dtype=complex)
        for lam, sl in layout.blocks:
            if lam not in fam:
                continue
            k = dim_p(lam)
            a = np.asarray(fam[lam], dtype=complex)
            blk = joint[sl].reshape(k, k, -1)
            post += uncompute(sl, np.einsum("qp,apx->aqx", a, blk).reshape(k * k, -1))
        prob = float(np.linalg.norm(post) ** 2)
        out[x] = (prob, post / math.sqrt(prob) if prob > 1e-14 else post)
    return out
