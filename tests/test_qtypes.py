import json
import math

import numpy as np
import pytest
from conftest import random_state
from hypothesis import given
from hypothesis import strategies as st

from schurkit import qtypes
from schurkit.cli import main
from schurkit.combinatorics import dim_p, enumerate_partitions, schur_poly
from schurkit.operators import collective_split
from schurkit.qtypes import (
    TraceBoundRecord,
    classical_type_bounds,
    compress_rate,
    concentrate,
    entropy,
    kl_divergence,
    normalized_shape,
    sector_distribution,
    spectrum_estimate,
    trace_bound_check,
    trace_bound_checks,
    typical_mass,
)
from schurkit.schur_transform import SchurTransform, schur_unitary


def test_entropy_and_divergence_basics():
    assert entropy((0.5, 0.5)) == pytest.approx(1.0)
    assert entropy((1.0, 0.0)) == 0.0
    assert kl_divergence((0.5, 0.5), (0.5, 0.5)) == 0.0
    assert kl_divergence((1.0, 0.0), (0.0, 1.0)) == math.inf
    assert kl_divergence((0.9, 0.1), (0.5, 0.5)) > 0


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=3).filter(
        lambda t: sum(t) > 0
    )
)
def test_classical_type_bounds_hold(t):
    d = len(t)
    p = tuple(1 / d for _ in range(d))
    record = classical_type_bounds(t, p)
    assert record.bounds_hold
    assert record.count_lower <= record.count <= record.count_upper * (1 + 1e-12)


def test_sector_distribution_is_a_distribution():
    for r in [(0.5, 0.5), (0.8, 0.2), (0.5, 0.3, 0.2)]:
        dist = sector_distribution(r, 6)
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        assert all(w >= 0 for w in dist.values())


@pytest.mark.parametrize("d,n", [(3, 30), (4, 12), (2, 40)])
def test_sector_distribution_matches_per_shape_schur_poly(d, n):
    w = np.random.default_rng(d * n).random(d)
    r = tuple(sorted((w / w.sum()).tolist(), reverse=True))
    expected = {
        lam: dim_p(lam) * float(schur_poly(lam, r))
        for lam in enumerate_partitions(d, n)
    }
    assert sector_distribution(r, n) == expected


def test_trace_bound_sandwich_qubit():
    r = (0.8, 0.2)
    for n in (5, 10, 20):
        for lam in enumerate_partitions(2, n):
            assert trace_bound_check(lam, r, n).bounds_hold


@pytest.mark.parametrize("r,n", [((0.8, 0.2), 9), ((0.2, 0.3, 0.5), 7), ((0.6, 0.4, 0.0), 5), ((1.0,), 3)])
def test_trace_bound_checks_are_the_per_shape_checks(r, n):
    assert trace_bound_checks(r, n) == [
        trace_bound_check(lam, r, n) for lam in enumerate_partitions(len(r), n)
    ]
    with pytest.raises(ValueError, match="n must be >= 1"):
        trace_bound_checks(r, 0)


def test_an_underflowed_sector_mass_fails_its_lower_bound(capsys):
    record = TraceBoundRecord(lam=(1,), value=0.0, divergence=1.0, lower=1e-300, upper=1.0)
    assert not record.bounds_hold
    # at n = 800 the masses of (400, 400) and its neighbours underflow to 0.0
    records = {rec.lam: rec for rec in trace_bound_checks((0.9, 0.1), 800)}
    assert records[(400, 400)].value == 0.0 and not records[(400, 400)].bounds_hold
    assert records[(720, 80)].bounds_hold
    assert main(["typebounds", "--r", "0.9,0.1", "--n", "800"]) == 2
    capsys.readouterr()


def test_trace_bound_check_rejects_a_d_it_cannot_honour():
    # three variables do not fit in d = 2, nor does a shape of three rows
    with pytest.raises(ValueError, match="more than d = 2 entries"):
        trace_bound_check((2, 1), (0.5, 0.3, 0.2), 3, d=2)
    with pytest.raises(ValueError, match=r"\(1, 1, 1\) has more than 2 rows"):
        trace_bound_check((1, 1, 1), (0.5, 0.5), 3, d=2)
    # a d above len(r) pads r with zeros: that sector is then empty
    padded = trace_bound_check((1, 1, 1), (0.5, 0.5), 3, d=3)
    assert padded.value == 0.0 and padded.divergence == math.inf
    assert trace_bound_check((2, 1), (0.5, 0.5), 3, d=3).value == pytest.approx(0.5)


def test_typical_mass_bound_and_flag():
    for n in (10, 20, 40):
        record = typical_mass((0.8, 0.2), n, 0.2)
        assert record.bound_holds
        assert 0.0 <= record.mass <= 1.0 + 1e-12


def test_typical_mass_increases_with_n():
    masses = [typical_mass((0.7, 0.3), n, 0.25).mass for n in (8, 16, 32, 64)]
    assert masses == sorted(masses)


def test_spectrum_estimate_distribution_is_exact_and_seeded():
    r, n = (0.7, 0.3), 8
    a = spectrum_estimate(r, n, trials=2000, seed=5)
    b = spectrum_estimate(r, n, trials=2000, seed=5)
    assert a.counts == b.counts
    dist = sector_distribution(r, n)
    for lam, p in a.distribution.items():
        assert abs(p - dist[lam]) < 1e-14
    assert sum(a.counts.values()) == 2000


def test_spectrum_failure_rate_decreases_with_n():
    rates = [
        spectrum_estimate((0.7, 0.3), n, trials=20000, seed=11).failure_rates[0.3]
        for n in (8, 16, 32)
    ]
    assert rates[0] >= rates[1] >= rates[2]


def test_concentrate_two_qubit(rng):
    psi = random_state(rng, 4)
    for n in (2, 3):
        report = concentrate(psi, n)
        assert report.off_diagonal_mass < 1e-12
        assert abs(sum(report.outcome_weights.values()) - 1.0) < 1e-12
        assert report.distortion_free_residual < 1e-10
        for lam, sv in report.schmidt_values.items():
            if len(sv):
                assert np.abs(sv - 1 / math.sqrt(dim_p(lam))).max() < 1e-10


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (2, 8)])
def test_concentrate_matches_a_dense_reference(rng, d, n):
    psi = random_state(rng, d * d)
    report = concentrate(psi, n)
    s, codec = schur_unitary(d, n)
    # psi^{tensor n} with rows a1..an and columns b1..bn, conjugated by the
    # dense S on both sides
    state = collective_split(psi.reshape(-1, 1), n, d).reshape(d**n, d**n)
    both = s.matrix @ state @ s.matrix.T
    total = 0.0
    for lam, (sl, nq, np_) in codec.sectors.items():
        block = both[sl, sl]
        w = float((np.abs(block) ** 2).sum())
        total += w
        assert abs(report.outcome_weights[lam] - w) <= 1e-12
        cond = block.reshape(nq, np_, nq, np_) / math.sqrt(w)
        sv = np.linalg.svd(cond.transpose(1, 0, 2, 3).reshape(np_, -1), compute_uv=False)
        assert np.abs(report.schmidt_values[lam] - sv).max() <= 1e-12
        pair = np.einsum("apbq,arbs->pqrs", cond, cond.conj()).reshape(np_**2, np_**2)
        assert np.abs(report.pair_states[lam].matrix - pair).max() <= 1e-12
    assert abs(report.off_diagonal_mass - max(0.0, 1.0 - total)) <= 1e-12


def test_concentrate_checks_its_pair_states_against_the_dense_cap(monkeypatch):
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    # lam = (6, 4) at (2, 10) has dim_p = 90, so its pair state is 8100 x 8100
    with pytest.raises(ValueError, match="SCHURKIT_DENSE_CAP"):
        concentrate(bell, 10)
    # (4, 2) at (2, 6) has dim_p = 9: a pair state of 81 x 81 against d^n = 64
    monkeypatch.setenv("SCHURKIT_DENSE_CAP", "64")
    with pytest.raises(ValueError, match="exceeds cap"):
        concentrate(bell, 6)
    monkeypatch.setenv("SCHURKIT_DENSE_CAP", "81")
    assert concentrate(bell, 6).pair_states[4, 2].matrix.shape == (81, 81)


def test_nan_in_the_conjugate_fails_concentration_and_the_cli(monkeypatch, tmp_path, capsys):
    conjugate = SchurTransform.conjugate

    def poisoned(self, x, perm=None):
        w = conjugate(self, x, perm=perm)
        w[0, 0] = np.nan
        return w

    monkeypatch.setattr(SchurTransform, "conjugate", poisoned)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    report = concentrate(bell, 3)  # a failed report, not an SVD error
    assert not report.distortion_free_residual < 1e-10
    assert not report.off_diagonal_mass < 1e-10
    state = tmp_path / "bell.json"
    state.write_text(
        json.dumps({"rows": 4, "cols": 1, "data": [[x, 0.0] for x in bell.tolist()]})
    )
    assert main(["concentrate", "--n", "3", "--state", str(state)]) == 2
    capsys.readouterr()


def test_concentrate_validates_input():
    with pytest.raises(ValueError):
        concentrate(np.ones(3), 2)  # not a two-party state
    with pytest.raises(ValueError):
        concentrate(np.ones(4), 2)  # not normalized


def test_compress_rate_above_entropy_eventually_keeps_everything_typical():
    r = (0.9, 0.1)  # entropy ~ 0.469 bits
    errors = [compress_rate(r, n, 0.75).error_mass for n in (8, 16, 32)]
    assert errors[0] >= errors[1] >= errors[2]
    record = compress_rate(r, 32, 0.75)
    assert record.dimension_ok
    assert record.kept_dimension <= 2 ** (32 * 0.75)


def test_compress_rate_below_entropy_fails():
    record = compress_rate((0.5, 0.5), 24, 0.3)
    assert record.error_mass > 0.5


def test_a_nan_sector_mass_is_a_nan_error_mass(monkeypatch):
    masses = qtypes.sector_distribution

    def poisoned(r, n):
        dist = masses(r, n)
        dist[next(iter(dist))] = math.nan
        return dist

    monkeypatch.setattr(qtypes, "sector_distribution", poisoned)
    # the poisoned first shape, (12), has entropy 0, so it is kept
    assert math.isnan(compress_rate((0.9, 0.1), 12, 1.0).error_mass)


def test_sector_masses_that_miss_their_sum_raise(monkeypatch):
    # a schur_poly fallen below float64's range takes its sector's mass along
    polys = qtypes.schur_polys

    def underflowed(lams, r):
        vals = polys(lams, r)
        vals[next(iter(vals))] = 0.0
        return vals

    monkeypatch.setattr(qtypes, "schur_polys", underflowed)
    with pytest.raises(ValueError, match="the sector masses at n = 12 leave float64's range"):
        qtypes.sector_distribution((0.9, 0.1), 12)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: spectrum_estimate((0.5, 0.5), 5, 0), "trials >= 1"),
        (lambda: spectrum_estimate((0.5, 0.5), 5, -3), "trials >= 1"),
        (lambda: spectrum_estimate((0.5, 0.5), 0, 10), "n >= 1"),
        (lambda: compress_rate((0.5, 0.5), 0, 1.0), "n must be >= 1"),
        (lambda: typical_mass((0.5, 0.5), 0, 0.1), "n must be >= 1"),
        (lambda: trace_bound_check((), (0.5, 0.5), 0), "n must be >= 1"),
    ],
    ids=["trials0", "trials-3", "spectrum-n0", "compress-n0", "typical-n0", "trace-n0"],
)
def test_invalid_sizes_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_normalized_shape():
    assert normalized_shape((3, 1), 4, 2) == (0.75, 0.25)
    assert normalized_shape((4,), 4, 3) == (1.0, 0.0, 0.0)
