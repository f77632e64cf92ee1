import numpy as np
import pytest
from conftest import haar_unitary

from schurkit.channels import (
    channel_normal_form,
    invariant_basis,
    kronecker,
    phi_lambda,
)
from schurkit.characters import young_orthogonal
from schurkit.cli import main
from schurkit.combinatorics import dim_p, enumerate_partitions
from schurkit.permutations import all_permutations, conjugacy_classes
from schurkit.schur_transform import SchurTransform

DEPHASING = np.array(
    [[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex
)  # |i> -> |i>_B |i>_E
IDENTITY = np.array(
    [[1, 0], [0, 0], [0, 1], [0, 0]], dtype=complex
)  # |i> -> |i>_B |0>_E


def test_kronecker_known_values():
    # coupling with the trivial shape reduces to the orthogonality of irreps
    assert kronecker((3,), (3,), (3,)) == 1
    assert kronecker((3,), (2, 1), (2, 1)) == 1
    assert kronecker((3,), (2, 1), (3,)) == 0
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker((1, 1, 1), (2, 1), (2, 1)) == 1


def test_s0_has_one_class_and_one_invariant():
    # S_0 is the trivial group: one class, the empty cycle type, of size 1
    assert conjugacy_classes(0) == {(): 1}
    assert kronecker((), (), ()) == 1
    (vec,) = invariant_basis((), (), ())
    assert vec.tolist() == [1.0]


def test_kronecker_symmetry_and_size_mismatch():
    assert (
        kronecker((2, 1), (1, 1, 1), (2, 1))
        == kronecker((1, 1, 1), (2, 1), (2, 1))
        == kronecker((2, 1), (2, 1), (1, 1, 1))
    )
    with pytest.raises(ValueError):
        kronecker((2,), (1,), (2,))


@pytest.mark.parametrize("n", [2, 3])
def test_invariant_basis_count_and_orthonormality(n):
    for la in enumerate_partitions(n, n):
        for lb in enumerate_partitions(n, n):
            for lc in enumerate_partitions(n, n):
                vecs = invariant_basis(la, lb, lc)
                assert len(vecs) == kronecker(la, lb, lc)
                for i, v in enumerate(vecs):
                    for j, w in enumerate(vecs):
                        assert abs(float(v @ w) - (i == j)) < 1e-10


def test_invariant_basis_vectors_are_fixed_points():
    la, lb, lc = (2, 1), (2, 1), (2, 1)
    (v,) = invariant_basis(la, lb, lc)
    for s in all_permutations(3):
        m = np.kron(
            young_orthogonal(la, s),
            np.kron(young_orthogonal(lb, s), young_orthogonal(lc, s)),
        )
        assert np.abs(m @ v - v).max() < 1e-10


def test_invariant_basis_is_cached_and_read_only():
    vecs = invariant_basis((2, 1), (2, 1), (2, 1))
    assert invariant_basis([2, 1, 0], (2, 1), (2, 1)) is vecs
    with pytest.raises(ValueError):
        vecs[0][0] = 1.0


def test_invariant_basis_refuses_a_projector_past_the_cap(monkeypatch):
    # dim_p((4, 3, 2, 1)) = 768, so the group-average projector would have
    # 768^3 rows, an exbibyte-sized array
    monkeypatch.delenv("SCHURKIT_DENSE_CAP", raising=False)
    with pytest.raises(ValueError, match="exceeds cap"):
        invariant_basis((4, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1))


def test_phi_lambda_is_normalized_and_invariant():
    for lam in enumerate_partitions(4, 4):
        v = phi_lambda(lam)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        n = sum(lam)
        for s in all_permutations(n)[:6]:
            m = np.kron(young_orthogonal(lam, s), young_orthogonal(lam, s))
            assert np.abs(m @ v - v).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dephasing_normal_form_round_trip(n):
    nf = channel_normal_form(DEPHASING, n)
    assert nf.reconstruction_residual < 1e-12
    assert nf.isometry_residual < 1e-12
    for key in nf.coefficients:
        lam_a, _, lam_b, lam_e, _, _, _ = key
        assert kronecker(lam_a, lam_b, lam_e) > 0


def test_identity_channel_support():
    nf = channel_normal_form(IDENTITY, 2)
    assert nf.reconstruction_residual < 1e-12
    assert nf.isometry_residual < 1e-12
    for lam_a, _, lam_b, lam_e, _, _, _ in nf.coefficients:
        assert lam_b == lam_a
        assert lam_e == (2,)


def test_nan_in_a_schur_apply_fails_the_report_and_the_cli(monkeypatch, capsys):
    apply = SchurTransform.apply
    calls = []

    def poisoned(self, x):
        out = apply(self, x)
        calls.append(None)
        if len(calls) % 3 == 0:  # the input axis, third of each decomposition
            # axes (A, B, E): a = b = 0 and e = 3 lie in the block lamA = lamB
            # = (2), lamE = (1, 1), which is zero since g = 0 there
            out[0, 0, 3] = np.nan
        return out

    monkeypatch.setattr(SchurTransform, "apply", poisoned)
    tol = 1e-10
    nf = channel_normal_form(DEPHASING, 2)
    assert not (nf.reconstruction_residual < tol and nf.isometry_residual < tol)
    assert main(["channel", "--spec", "dephasing", "--n", "2", "--tol", str(tol)]) == 2
    capsys.readouterr()


def test_channel_normal_form_rejects_non_isometry():
    with pytest.raises(ValueError):
        channel_normal_form(np.ones((4, 2)), 2)
    with pytest.raises(ValueError):
        channel_normal_form(np.eye(3), 2)


def test_channel_normal_form_checks_the_dense_cap_first():
    # (db*de)^7 = 16384 > 4096: refused before the 2 GB kron(sb, se) exists
    with pytest.raises(ValueError, match="exceeds cap"):
        channel_normal_form(DEPHASING, 7)


def _assert_matches_dense_conjugation(u_n, n):
    """Every coefficient is an inner product of the densely conjugated
    isometry with an explicit (invariant vector x basis) column, recomputed
    here from scratch."""
    from schurkit.schur_transform import schur_unitary

    nf = channel_normal_form(u_n, n)
    assert nf.reconstruction_residual < 1e-12
    assert nf.isometry_residual < 1e-12
    su, codec = schur_unitary(2, n)
    dim = 2**n
    big = np.array([[1.0 + 0j]])
    for _ in range(n):
        big = np.kron(big, u_n)
    # reorder outputs (b1 e1 ... bn en) -> (b1..bn e1..en)
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)) + [2 * n]
    big = big.reshape((2,) * 2 * n + (dim,)).transpose(order).reshape(dim * dim, dim)
    conj = np.kron(su.matrix, su.matrix) @ big @ su.matrix.T
    for key, c in nf.coefficients.items():
        lam_a, qa, lam_b, lam_e, qb, qe, alpha = key
        v = nf.bases[(lam_a, lam_b, lam_e)][alpha]
        ka, kb, ke = dim_p(lam_a), dim_p(lam_b), dim_p(lam_e)
        v3 = v.reshape(ka, kb, ke)
        got = 0.0
        for pa in range(ka):
            for pb in range(kb):
                for pe in range(ke):
                    row = codec.index(lam_b, qb, pb + 1) * dim + codec.index(
                        lam_e, qe, pe + 1
                    )
                    col = codec.index(lam_a, qa, pa + 1)
                    got += v3[pa, pb, pe] * conj[row, col]
        assert abs(got - c) < 1e-12


def test_dephasing_n2_coefficients_match_dense_conjugation():
    _assert_matches_dense_conjugation(DEPHASING, 2)


@pytest.mark.parametrize("n", [3, 4])
def test_random_isometry_coefficients_match_dense_conjugation(n):
    u_n = haar_unitary(np.random.default_rng(n), 4)[:, :2]
    _assert_matches_dense_conjugation(u_n, n)
