import tracemalloc

import numpy as np
import pytest
from conftest import haar_unitary, random_permutation

from schurkit import duality_checks
from schurkit.characters import young_orthogonal
from schurkit.cli import main
from schurkit.combinatorics import dim_p, dim_q, enumerate_partitions
from schurkit.duality_checks import (
    rep_matrix_p,
    rep_matrix_q,
    rho_blocks,
    spectral_weights,
    verify_block_diagonal,
)
from schurkit.permutations import all_permutations, compose
from schurkit.operators import collective_unitary, permutation_action
from schurkit.qtypes import sector_distribution
from schurkit.schur_transform import SchurTransform, schur, schur_unitary


@pytest.mark.parametrize("d,n", [(2, 3), (2, 5), (3, 3), (3, 4), (2, 10), (32, 2)])
def test_simultaneous_block_diagonalization(d, n, rng):
    for _ in range(4):
        u = haar_unitary(rng, d)
        s = random_permutation(rng, n)
        report = verify_block_diagonal(u, s, d, n)
        assert report.leakage < 1e-12
        assert report.worst_factor_residual < 1e-12
        assert set(report.blocks) == set(enumerate_partitions(d, n))


def _dense_report(u, s, d, n):
    """verify_block_diagonal's fields from the dense S, an n-fold np.kron
    and permutation_action."""
    x = np.array([[1.0]])
    for _ in range(n):
        x = np.kron(x, u)
    su, codec = schur_unitary(d, n)
    w = su.matrix @ (x @ permutation_action(s, d)) @ su.matrix.T
    off, residuals, blocks = np.abs(w), {}, {}
    for lam, (sl, nq, np_) in codec.sectors.items():
        off[sl, sl] = 0.0
        p_mat = young_orthogonal(lam, s)
        q_hat = np.einsum("apbq,pq->ab", w[sl, sl].reshape(nq, np_, nq, np_), p_mat) / np_
        residuals[lam] = np.abs(w[sl, sl] - np.kron(q_hat, p_mat)).max()
        blocks[lam] = w[sl, sl]
    return off.max(), residuals, blocks


@pytest.mark.parametrize("d,n", [(1, 3), (3, 1), (2, 2), (2, 5), (3, 4), (4, 3), (2, 8)])
def test_verify_block_diagonal_matches_a_dense_reference(d, n, rng):
    for real in (False, True):
        u = haar_unitary(rng, d)
        u = np.linalg.qr(u.real)[0] if real else u
        s = random_permutation(rng, n)
        report = verify_block_diagonal(u, s, d, n)
        leakage, residuals, blocks = _dense_report(u, s, d, n)
        assert abs(report.leakage - leakage) <= 1e-12
        assert report.factor_residuals.keys() == residuals.keys()
        for lam, res in residuals.items():
            assert abs(report.factor_residuals[lam] - res) <= 1e-12
            assert np.abs(report.blocks[lam].matrix - blocks[lam]).max() <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 10), (32, 2), (4, 5)])
def test_verify_block_diagonal_peaks_within_two_and_a_half_work_arrays(d, n, rng):
    u, s = haar_unitary(rng, d), random_permutation(rng, n)
    verify_block_diagonal(u, s, d, n)  # warm the transform and its caches
    tracemalloc.start()
    try:
        verify_block_diagonal(u, s, d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = 16 * d ** (2 * n)  # one complex D x D array
    assert peak <= 2.5 * work, f"peak {peak} B is {peak / work:.2f} complex D x D arrays"


def test_one_dimensional_sectors_build_no_youngs_form(monkeypatch, rng):
    # (3, 2) has only the sectors (2) and (1, 1), both with dim_p = 1
    def refuse(lam, s):
        raise AssertionError(f"young_orthogonal{lam, s} called")

    monkeypatch.setattr(duality_checks, "young_orthogonal", refuse)
    report = verify_block_diagonal(haar_unitary(rng, 3), (2, 1), 3, 2)
    assert report.factor_residuals == {(2,): 0.0, (1, 1): 0.0}


# at (3, 3) the sectors are (3), (2, 1) and (1, 1, 1), with dim_p 1, 2 and 1;
# each entry sits in a part that is not the first one read
NAN_ENTRIES = {
    "off_block": lambda sec: (sec[2, 1][0].start, sec[1, 1, 1][0].start),
    "dim_p_1_block": lambda sec: (sec[1, 1, 1][0].start,) * 2,
    "dim_p_2_block": lambda sec: (sec[2, 1][0].start + 1, sec[2, 1][0].start),
}


@pytest.mark.parametrize("where", sorted(NAN_ENTRIES))
def test_nan_in_the_conjugate_fails_the_report_and_the_cli(where, monkeypatch, rng, capsys):
    conjugate = SchurTransform.conjugate

    def poisoned(self, x, perm=None):
        w = conjugate(self, x, perm=perm)
        w[NAN_ENTRIES[where](self.codec.sectors)] = np.nan
        return w

    monkeypatch.setattr(SchurTransform, "conjugate", poisoned)
    tol = 1e-10
    report = verify_block_diagonal(haar_unitary(rng, 3), (2, 3, 1), 3, 3, tol=tol)
    assert not (report.leakage < tol and report.worst_factor_residual < 10 * tol)
    assert main(["verify", "--d", "3", "--n", "3", "--trials", "2", "--tol", str(tol)]) == 2
    capsys.readouterr()


def test_verify_rejects_non_unitary():
    with pytest.raises(ValueError):
        verify_block_diagonal(np.ones((2, 2)), (1, 2), 2, 2)


def test_verify_rejects_wrong_dimension_unitary(rng):
    with pytest.raises(ValueError):
        verify_block_diagonal(haar_unitary(rng, 3), (2, 1, 3), 2, 3)


@pytest.mark.parametrize("s", [(1, 1, 3), (0, 1, 2), (2, 3, 4), (1, 2), (1, 2, 3, 4)])
def test_non_permutations_are_rejected(s):
    with pytest.raises(ValueError):
        verify_block_diagonal(np.eye(2), s, 2, 3)
    with pytest.raises(ValueError):
        rep_matrix_p((2, 1), s, d=2, n=3)


@pytest.mark.parametrize("lam", [(2, 1), (1, 1, 1, 1), (1, 3)])
def test_rep_matrix_q_rejects_foreign_partitions(lam):
    # (2, 1) is not a partition of 4; (1, 1, 1, 1) has more than d = 2 rows;
    # (1, 3) is not a partition, and its Weyl and hook products are -1 and -2
    with pytest.raises(ValueError):
        rep_matrix_q(lam, np.eye(2), 2, 4)
    with pytest.raises(ValueError):
        rep_matrix_p(lam, (2, 1, 3, 4), 2, 4)


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (2, 10)])
def test_rep_matrices_match_the_full_conjugation(rng, d, n):
    t = schur(d, n)
    u = haar_unitary(rng, d)
    s = random_permutation(rng, n)
    wq = t.conjugate(collective_unitary(u, n))
    wp = t.conjugate(permutation_action(s, d))
    for lam, (_, nq, np_) in t.codec.sectors.items():
        rows = [t.codec.index(lam, qi, 1) for qi in range(1, nq + 1)]
        got = rep_matrix_q(lam, u, d, n)
        assert got.shape == (nq, nq)
        assert np.abs(got.matrix - wq[np.ix_(rows, rows)]).max() < 1e-12
        rows = [t.codec.index(lam, 1, pi) for pi in range(1, np_ + 1)]
        got = rep_matrix_p(lam, s, d, n)
        assert got.shape == (np_, np_)
        assert np.abs(got.matrix - wp[np.ix_(rows, rows)]).max() < 1e-12


def test_rep_matrix_p_is_youngs_orthogonal_form():
    for n in (3, 4):
        for lam in enumerate_partitions(n, n):
            for s in all_permutations(n)[:8]:
                got = rep_matrix_p(lam, s).matrix
                assert np.abs(got - young_orthogonal(lam, s)).max() < 1e-12


def test_rep_matrix_p_is_d_independent():
    lam, s = (2, 1), (3, 1, 2)
    a = rep_matrix_p(lam, s, d=2).matrix
    b = rep_matrix_p(lam, s, d=3).matrix
    assert np.abs(a - b).max() < 1e-12


def test_rep_matrix_q_is_a_homomorphism(rng):
    d, n = 2, 3
    for lam in enumerate_partitions(d, n):
        u = haar_unitary(rng, d)
        v = haar_unitary(rng, d)
        qu = rep_matrix_q(lam, u, d, n).matrix
        qv = rep_matrix_q(lam, v, d, n).matrix
        quv = rep_matrix_q(lam, u @ v, d, n).matrix
        assert np.abs(quv - qu @ qv).max() < 1e-10
        assert np.abs(qu.conj().T @ qu - np.eye(dim_q(lam, d))).max() < 1e-10


def test_rep_matrix_p_is_a_homomorphism(rng):
    n = 4
    for lam in enumerate_partitions(n, n):
        s = random_permutation(rng, n)
        t = random_permutation(rng, n)
        ps = rep_matrix_p(lam, s).matrix
        pt = rep_matrix_p(lam, t).matrix
        pst = rep_matrix_p(lam, compose(s, t)).matrix
        assert np.abs(pst - ps @ pt).max() < 1e-12


def test_rho_blocks_weights_match_schur_polynomials(rng):
    d, n = 2, 4
    probs = np.array([0.7, 0.3])
    u = haar_unitary(rng, d)
    rho = u @ np.diag(probs) @ u.conj().T
    blocks = rho_blocks(rho, n)
    weights = spectral_weights(rho, n)
    total = 0.0
    for lam, (w, q_factor, p_state) in blocks.items():
        assert abs(w - weights[lam]) < 1e-10
        total += w
        # the permutation register of a product state is maximally mixed
        np_ = dim_p(lam)
        assert np.abs(p_state - np.eye(np_) / np_).max() < 1e-10
        # the collective factor is PSD with trace = the Schur polynomial
        evals = np.linalg.eigvalsh(q_factor)
        assert evals.min() > -1e-12
        assert abs(q_factor.trace().real * dim_p(lam) - w) < 1e-10
    assert abs(total - 1.0) < 1e-10


def test_spectral_weights_are_the_sector_distribution_of_the_spectrum(rng):
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    pure = np.outer(v, v.conj()) / np.vdot(v, v).real  # round-off below 0
    for rho in (pure, np.diag([0.5, 0.3, 0.2])):
        spec = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        assert spectral_weights(rho, 6) == sector_distribution(spec, 6)
    with pytest.raises(ValueError):
        spectral_weights(np.eye(2), 2)  # trace 2, as rho_blocks rejects


def test_rho_blocks_validates_input():
    with pytest.raises(ValueError):
        rho_blocks(np.array([[1.0, 0.5], [0.0, 0.0]]), 2)  # not Hermitian
    with pytest.raises(ValueError):
        rho_blocks(np.eye(2), 2)  # trace 2
