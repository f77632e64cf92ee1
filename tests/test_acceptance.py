"""Acceptance suite: ten end-to-end criteria, each with its stated tolerance
and runtime budget.  Every test ends with a single pass/fail summary line
(printed on success; a failed assertion is the fail line)."""

import math
import time

import numpy as np
import pytest
from conftest import haar_unitary, random_permutation, random_state

from schurkit.channels import channel_normal_form, invariant_basis, kronecker
from schurkit.combinatorics import (
    dim_p,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    enumerate_yy,
    multinomial,
    pad,
)
from schurkit.duality_checks import max_or_nan, verify_block_diagonal
from schurkit.operators import collective_unitary
from schurkit.qtypes import (
    entropy,
    sector_distribution,
    spectrum_estimate,
    concentrate,
    trace_bound_check,
    typical_mass,
)
from schurkit.schur_transform import central_projector_oracle, schur_unitary
from schurkit.sn_fourier import gpe_measure, sn_qft_from_schur, verify_fourier

S2, S3, S6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)


def _passed(k, text):
    print(f"[PASS] criterion {k}: {text}")


def test_criterion_01_two_and_three_qubit_reference_bases():
    """The two-qubit Schur basis is the triplet/singlet basis and the
    three-qubit basis is the standard spin-3/2 plus two mixed-symmetry
    spin-1/2 doublets, row-by-row up to a unit phase, < 1e-10."""
    t0 = time.perf_counter()
    reference_n2 = [
        np.array([1, 0, 0, 0.0]),
        np.array([0, 1, 1, 0]) / S2,
        np.array([0, 0, 0, 1.0]),
        np.array([0, 1, -1, 0]) / S2,
    ]

    def v(*idx):
        out = np.zeros(8)
        out[list(idx)] = 1.0
        return out

    reference_n3 = [
        v(0),
        (v(1) + v(2) + v(4)) / S3,
        (v(3) + v(5) + v(6)) / S3,
        v(7),
        (v(4) - v(2)) / S2,
        (v(5) - v(3)) / S2,
        math.sqrt(2 / 3) * v(1) - (v(2) + v(4)) / S6,
        math.sqrt(2 / 3) * v(6) - (v(5) + v(3)) / S6,
    ]
    for n, reference in ((2, reference_n2), (3, reference_n3)):
        su, _ = schur_unitary(2, n)
        matched_rows = []
        for ref in reference:
            hits = []
            for r in range(2**n):
                row = su.matrix[r]
                overlap = np.vdot(row, ref)
                if abs(overlap) > 0.5 and np.abs(row * overlap - ref).max() < 1e-10:
                    hits.append(r)
            assert len(hits) == 1, f"reference vector has {len(hits)} matches (n={n})"
            matched_rows.append(hits[0])
        assert len(set(matched_rows)) == 2**n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, f"n=2 and n=3 reference bases reproduced up to phase ({elapsed:.2f}s)")


def test_criterion_02_duality_sweep():
    """For every (d, n) with d^n <= 1024 and 20 random (U, s) pairs each:
    off-block leakage < 1e-10 and block factorization residual < 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    cases = 0
    worst_leak = worst_res = 0.0
    d = 2
    while d**2 <= 1024:
        n = 2
        while d**n <= 1024:
            for _ in range(20):
                u = haar_unitary(rng, d)
                s = random_permutation(rng, n)
                report = verify_block_diagonal(u, s, d, n)
                worst_leak = max_or_nan([worst_leak, report.leakage])
                worst_res = max_or_nan([worst_res, report.worst_factor_residual])
            cases += 1
            n += 1
        d += 1
    elapsed = time.perf_counter() - t0
    assert worst_leak < 1e-10, f"leakage {worst_leak}"
    assert worst_res < 1e-9, f"factor residual {worst_res}"
    assert elapsed < 60.0, f"{elapsed:.1f}s over budget"
    _passed(
        2,
        f"{cases} (d,n) pairs x 20 trials, leakage {worst_leak:.1e}, "
        f"residual {worst_res:.1e} ({elapsed:.1f}s)",
    )


def test_criterion_03_projector_oracle_equivalence():
    """Schur-derived isotypic projectors equal the character-theoretic
    central projectors entrywise within 1e-9 for all lam, d <= 3, n <= 4."""
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3):
        for n in (1, 2, 3, 4):
            su, codec = schur_unitary(d, n)
            for lam in enumerate_partitions(d, n):
                sl = codec.block_slice(lam)
                rows = su.matrix[sl, :]
                oracle = central_projector_oracle(lam, d, n)
                worst = max(worst, np.abs(rows.T @ rows - oracle.matrix).max())
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 30.0
    _passed(3, f"max projector deviation {worst:.1e} ({elapsed:.1f}s)")


def test_criterion_04_dimension_ledger():
    """Sum of dim_q*dim_p = d^n exactly (d <= 4, n <= 6); formulas match
    enumerations for |lam| <= 6; polynomial dimension bounds for d <= 3,
    n <= 10."""
    t0 = time.perf_counter()
    for d in (1, 2, 3, 4):
        for n in range(1, 7):
            assert (
                sum(dim_q(l, d) * dim_p(l) for l in enumerate_partitions(d, n))
                == d**n
            )
    for d in (2, 3, 4):
        for n in range(1, 7):
            for lam in enumerate_partitions(d, n):
                assert dim_p(lam) == len(enumerate_yy(lam))
                assert dim_q(lam, d) == len(enumerate_gz(lam, d))
    for d in (2, 3):
        for n in range(1, 11):
            lams = enumerate_partitions(d, n)
            assert len(lams) <= (n + 1) ** d
            for lam in lams:
                np_, nq = dim_p(lam), dim_q(lam, d)
                assert nq <= (n + d) ** (d * (d - 1) / 2)
                binom = multinomial(n, pad(lam, d))
                assert binom * (n + d) ** (-d * (d - 1) / 2) <= np_ <= binom
                h = entropy([x / n for x in pad(lam, d)])
                assert (
                    2 ** (n * h) * (n + d) ** (-d * (d + 1) / 2)
                    <= np_
                    <= 2 ** (n * h) * (1 + 1e-9)
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(4, f"ledger, enumerations, and dimension bounds hold ({elapsed:.1f}s)")


def test_criterion_05_trace_sandwich_and_typical_mass():
    """Sector-mass divergence sandwich for every lam at d=2, n <= 20,
    r=(0.8,0.2); typical-mass lower bound holds (or is trivially satisfied)
    at n in {10, 20, 40}."""
    t0 = time.perf_counter()
    r = (0.8, 0.2)
    for n in range(1, 21):
        for lam in enumerate_partitions(2, n):
            record = trace_bound_check(lam, r, n)
            assert record.bounds_hold, (lam, n)
    flags = []
    for n in (10, 20, 40):
        record = typical_mass(r, n, 0.2)
        assert record.bound_holds
        flags.append("trivial" if record.trivially_satisfied else "active")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(
        5,
        f"sandwich holds for n<=20; typical-mass bound {'/'.join(flags)} "
        f"at n=10/20/40 ({elapsed:.1f}s)",
    )


def test_criterion_06_spectrum_estimation():
    """Exact sampling distribution equals dim_p * schur_poly to 1e-12;
    Monte Carlo failure rate at delta=0.3, r=(0.7,0.3) is monotone
    nonincreasing over n in {8, 16, 32} with 1e5 seeded trials."""
    t0 = time.perf_counter()
    r = (0.7, 0.3)
    rates = []
    for n in (8, 16, 32):
        report = spectrum_estimate(r, n, trials=100_000, seed=13, deltas=(0.3,))
        exact = sector_distribution(r, n)
        for lam, p in report.distribution.items():
            assert abs(p - exact[lam]) < 1e-12
        rates.append(report.failure_rates[0.3])
    assert rates[0] >= rates[1] >= rates[2], rates
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(
        6,
        "failure rates "
        + " >= ".join(f"{x:.3f}" for x in rates)
        + f" ({elapsed:.1f}s)",
    )


def test_criterion_07_entanglement_concentration():
    """For random two-qubit psi and n <= 4 both parties' labels agree on
    every branch and every conditional Schmidt coefficient equals
    1/sqrt(dim_p) within 1e-8."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    for trial in range(5):
        psi = random_state(rng, 4)
        for n in (1, 2, 3, 4):
            report = concentrate(psi, n)
            assert report.off_diagonal_mass < 1e-12
            assert report.distortion_free_residual < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(7, f"5 states x n<=4 distortion-free ({elapsed:.1f}s)")


def test_criterion_08_symmetric_group_fourier():
    """sn_qft_from_schur(n) unitary to 1e-10 for n <= 4; at n = 3 every
    (s1, s2) pair block-diagonalizes to p_lam(s1) x p_lam(s2) after the
    frozen sign alignment."""
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        f, _ = sn_qft_from_schur(n)
        assert f.unitarity_residual() < 1e-10
    report = verify_fourier(3)
    assert report.pairs_checked == 36
    assert report.leakage < 1e-10
    assert report.block_residual < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        8,
        f"unitary n<=4; n=3 exhaustive leakage {report.leakage:.1e}, "
        f"residual {report.block_residual:.1e} ({elapsed:.1f}s)",
    )


def test_criterion_09_generalized_phase_estimation():
    """GPE lambda-marginals equal oracle projector masses within 1e-10 on 50
    random states (d=2, n <= 4) and are invariant under a random collective
    rotation of the input."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    oracles = {
        n: {
            lam: central_projector_oracle(lam, 2, n).matrix
            for lam in enumerate_partitions(2, n)
        }
        for n in (2, 3, 4)
    }
    checked = 0
    worst = 0.0
    for k in range(51):
        n = (2, 3, 4)[k % 3]
        state = random_state(rng, 2**n)
        result = gpe_measure(state, 2, n)
        for lam, p in result.distribution.items():
            if len(lam) > 2:
                worst = max(worst, p)
                continue
            mass = float((state.conj() @ oracles[n][lam] @ state).real)
            worst = max(worst, abs(p - mass))
        if k % 10 == 0:
            u = haar_unitary(rng, 2)
            rotated = collective_unitary(u, n) @ state
            after = gpe_measure(rotated, 2, n).distribution
            for lam, p in result.distribution.items():
                worst = max(worst, abs(p - after[lam]))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 50
    assert worst < 1e-10
    assert elapsed < 120.0
    _passed(9, f"{checked} states, max deviation {worst:.1e} ({elapsed:.1f}s)")


def test_criterion_10_channel_normal_form():
    """Dephasing-isometry normal form at n=2 reconstructs U_N^{x2} within
    1e-9 with the isometry relation within 1e-9; Kronecker coefficients by
    characters equal fixed-subspace dimensions exhaustively at n <= 4."""
    t0 = time.perf_counter()
    dephasing = np.zeros((4, 2))
    dephasing[0, 0] = dephasing[3, 1] = 1.0
    nf = channel_normal_form(dephasing, 2)
    assert nf.reconstruction_residual < 1e-9
    assert nf.isometry_residual < 1e-9
    triples = 0
    for n in range(1, 5):
        lams = enumerate_partitions(n, n)
        for la in lams:
            for lb in lams:
                for lc in lams:
                    # invariant_basis asserts its count equals kronecker
                    assert len(invariant_basis(la, lb, lc)) == kronecker(la, lb, lc)
                    triples += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(
        10,
        f"round trip {nf.reconstruction_residual:.1e}, isometry "
        f"{nf.isometry_residual:.1e}, {triples} Kronecker triples ({elapsed:.1f}s)",
    )
