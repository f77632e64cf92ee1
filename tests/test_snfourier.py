import math
import tracemalloc

import numpy as np
import pytest
from conftest import haar_unitary, random_state

from schurkit import sn_fourier
from schurkit.combinatorics import dim_p, enumerate_partitions, gz_weight
from schurkit.permutations import all_permutations, compose, inverse
from schurkit.schur_transform import (
    central_projector_oracle,
    measure_schur,
    schur_unitary,
)
from schurkit.sn_fourier import (
    _regular_indices,
    gpe_instrument,
    gpe_measure,
    sn_qft_from_schur,
    verify_fourier,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qft_is_unitary(n):
    f, layout = sn_qft_from_schur(n)
    assert f.matrix.shape == (math.factorial(n), math.factorial(n))
    assert f.unitarity_residual() < 1e-12
    total = sum(sl.stop - sl.start for _, sl in layout.blocks)
    assert total == math.factorial(n)
    for lam, sl in layout.blocks:
        assert sl.stop - sl.start == dim_p(lam) ** 2


@pytest.mark.slow
def test_qft_is_unitary_n5():
    f, _ = sn_qft_from_schur(5)
    assert f.unitarity_residual() < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_qft_is_the_embedded_group_algebra_block_of_schur(n):
    """Reference built from scratch: the rows of S(n, n) whose GZ weight is
    (1, ..., 1), in codec order, and the columns |s(1) ... s(n)> of the
    permutations in lexicographic order."""
    su, codec = schur_unitary(n, n)
    rows = [
        r
        for r, (lam, qi, _) in enumerate(codec.triples)
        if gz_weight(codec.gz_pattern(lam, qi)) == (1,) * n
    ]
    perms = all_permutations(n)
    cols = [sum((v - 1) * n ** (n - 1 - k) for k, v in enumerate(s)) for s in perms]
    assert len(set(cols)) == math.factorial(n)
    expected = su.matrix[np.ix_(rows, cols)]
    f, layout = sn_qft_from_schur(n)
    assert f.matrix.dtype == expected.dtype
    assert np.array_equal(f.matrix, expected)
    assert f.row_labels == [codec.label(r) for r in rows]
    assert f.col_labels == list(perms)
    sizes = [dim_p(lam) ** 2 for lam in enumerate_partitions(n, n)]
    starts = np.cumsum([0] + sizes).tolist()
    assert layout.blocks == [
        (lam, slice(a, a + k))
        for lam, a, k in zip(enumerate_partitions(n, n), starts, sizes)
    ]
    # the returned matrix is the caller's own: writing to it leaves the
    # cached weight layout intact
    f.matrix[:] = 0.0
    assert np.array_equal(sn_qft_from_schur(n)[0].matrix, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_regular_indices_are_the_two_regular_actions(n):
    """Reference built from scratch: the k-th entry is the position of
    s1 t_k s2^-1 in all_permutations(n), found by lookup in the list."""
    perms = all_permutations(n)
    where = {t: k for k, t in enumerate(perms)}
    idx = {}
    for s1 in perms:
        for s2 in perms:
            idx[s1, s2] = _regular_indices(s1, s2, n)
            expected = [where[compose(compose(s1, t), inverse(s2))] for t in perms]
            assert idx[s1, s2].tolist() == expected
    if n > 3:
        return
    # L and R are commuting homomorphisms: the gathers compose
    e = perms[0]
    for s1, s2 in idx:
        assert np.array_equal(idx[s1, e][idx[e, s2]], idx[e, s2][idx[s1, e]])
        for t1, t2 in idx:
            assert np.array_equal(
                idx[compose(s1, t1), compose(s2, t2)], idx[s1, s2][idx[t1, t2]]
            )


def test_fourier_block_diagonalizes_both_regular_actions():
    report = verify_fourier(3)  # exhaustive over all pairs
    assert report.pairs_checked == 36
    assert report.leakage < 1e-12
    assert report.block_residual < 1e-12


def test_fourier_exhaustive_n4():
    report = verify_fourier(4)
    assert report.pairs_checked == 576
    assert report.leakage < 1e-12
    assert report.block_residual < 1e-12


def test_one_flipped_sign_in_the_fourier_transform_fails_the_report(monkeypatch):
    qft = sn_fourier.sn_qft_from_schur

    def flipped(n):
        f, layout = qft(n)
        f.matrix = f.matrix.copy()
        f.matrix[2, 3] *= -1.0
        return f, layout

    assert qft(3)[0].matrix[2, 3] != 0.0
    monkeypatch.setattr(sn_fourier, "sn_qft_from_schur", flipped)
    report = verify_fourier(3)
    assert report.leakage > 1e-3 and report.block_residual > 1e-3


def test_nan_in_the_fourier_transform_fails_the_report(monkeypatch):
    qft = sn_fourier.sn_qft_from_schur

    def poisoned(n):
        f, layout = qft(n)
        f.matrix = f.matrix.copy()
        f.matrix[5, 4] = np.nan
        return f, layout

    monkeypatch.setattr(sn_fourier, "sn_qft_from_schur", poisoned)
    report = verify_fourier(3)
    # row 5 of every conjugate is NaN, inside and outside its block
    assert not report.leakage < 1e-12
    assert not report.block_residual < 1e-12


def test_fourier_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        verify_fourier(3, trials=-1)


def test_fourier_sampled_n4():
    report = verify_fourier(4, trials=6, seed=2)
    assert report.leakage < 1e-12
    assert report.block_residual < 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)])
def test_gpe_marginal_matches_projector_masses(d, n, rng):
    state = random_state(rng, d**n)
    result = gpe_measure(state, d, n)
    assert abs(sum(result.distribution.values()) - 1.0) < 1e-12
    for lam, p in result.distribution.items():
        if len(lam) > d:
            assert p < 1e-12
            continue
        oracle = central_projector_oracle(lam, d, n)
        mass = float((state.conj() @ oracle.matrix @ state).real)
        assert abs(p - mass) < 1e-12
        if p > 1e-12:
            # uncomputation returns the ancilla to its start state
            assert abs(result.ancilla_fidelity[lam] - 1.0) < 1e-10
            projected = oracle.matrix @ state
            projected /= np.linalg.norm(projected)
            overlap = abs(np.vdot(projected, result.post_states[lam]))
            assert abs(overlap - 1.0) < 1e-10


def test_gpe_invariant_under_collective_rotation(rng):
    d, n = 2, 3
    state = random_state(rng, d**n)
    u = haar_unitary(rng, d)
    big = np.array([[1.0 + 0j]])
    for _ in range(n):
        big = np.kron(big, u)
    before = gpe_measure(state, d, n).distribution
    after = gpe_measure(big @ state, d, n).distribution
    for lam in before:
        assert abs(before[lam] - after[lam]) < 1e-12


def test_gpe_instrument_identity_and_projective(rng):
    d, n = 2, 3
    state = random_state(rng, d**n)
    lams = [l for l in enumerate_partitions(d, n)]
    ident = {"only": {lam: np.eye(dim_p(lam)) for lam in lams}}
    out = gpe_instrument(ident, state, d, n)
    prob, post = out["only"]
    assert abs(prob - 1.0) < 1e-10
    assert abs(abs(np.vdot(post, state)) - 1.0) < 1e-10
    # a projective instrument on the two-dimensional permutation register
    lam = (2, 1)
    e0, e1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    fam = {
        0: {(3,): np.eye(1), lam: e0},
        1: {(3,): np.zeros((1, 1)), lam: e1},
    }
    out = gpe_instrument(fam, state, d, n)
    total = sum(p for p, _ in out.values())
    assert abs(total - 1.0) < 1e-10
    # probabilities agree with a direct Schur-basis computation
    table = measure_schur(state, d, n, granularity="full")
    p_direct = sum(v for (l, q, p), v in table.items() if l == (3,) or p == 1)
    assert abs(out[0][0] - p_direct) < 1e-10


def test_gpe_instrument_rejects_unnormalized(rng):
    d, n = 2, 2
    state = random_state(rng, d**n)
    bad = {"x": {(2,): np.eye(1) * 0.5, (1, 1): np.eye(1)}}
    with pytest.raises(ValueError):
        gpe_instrument(bad, state, d, n)


def test_gpe_instrument_missing_sector_is_zero_operator(rng):
    d, n = 2, 2
    state = random_state(rng, d**n)
    # each family omits the sector the other one carries
    split = {"sym": {(2,): np.eye(1)}, "anti": {(1, 1): np.eye(1)}}
    out = gpe_instrument(split, state, d, n)
    table = measure_schur(state, d, n)
    for x, lam in (("sym", (2,)), ("anti", (1, 1))):
        assert abs(out[x][0] - table[lam]) < 1e-12
    # a sector missing from every family leaves the instrument unnormalized
    with pytest.raises(ValueError, match="not normalized"):
        gpe_instrument({"sym": {(2,): np.eye(1)}}, state, d, n)


def test_gpe_memory_stays_linear_in_the_register(rng):
    d, n = 4, 4
    state = random_state(rng, d**n)
    lams = list(enumerate_partitions(d, n))
    ident = {"only": {lam: np.eye(dim_p(lam)) for lam in lams}}
    sn_qft_from_schur(n)  # build the cached Schur transform outside the window
    tracemalloc.start()
    try:
        gpe_measure(state, d, n)
        gpe_instrument(ident, state, d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_gpe_refuses_a_permutation_register_past_the_cap(monkeypatch):
    # at d = 1 the state has one entry for any n, and n! is never formed
    monkeypatch.delenv("SCHURKIT_DENSE_CAP", raising=False)
    with pytest.raises(ValueError, match="more than 4096 GPE register rows or columns"):
        gpe_measure(np.ones(1), 1, 10**6)


def test_gpe_instrument_respects_dense_cap(rng, monkeypatch):
    monkeypatch.setenv("SCHURKIT_DENSE_CAP", "8")
    d, n = 3, 2
    state = random_state(rng, d**n)
    ident = {"only": {lam: np.eye(dim_p(lam)) for lam in enumerate_partitions(d, n)}}
    with pytest.raises(ValueError):
        gpe_instrument(ident, state, d, n)
