import hashlib
import json
import math
import os
import subprocess
import sys
import time
import timeit
import tracemalloc

import numpy as np
import pytest
from conftest import haar_unitary, random_state
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import combinatorics, schur_transform, wigner
from schurkit.channels import channel_normal_form
from schurkit.characters import character
from schurkit.combinatorics import (
    dim_p,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    gz_weight,
    sibling_offset,
)
from schurkit.duality_checks import (
    rep_matrix_p,
    rep_matrix_q,
    rho_blocks,
    verify_block_diagonal,
)
from schurkit.operators import dense_cap, permutation_action
from schurkit.permutations import all_permutations, cycle_type
from schurkit.qtypes import concentrate, sector_distribution
from schurkit.schur_transform import (
    SchurLabelCodec,
    SchurTransform,
    central_projector_oracle,
    dfs_decode,
    dfs_encode,
    measure_schur,
    schur,
    schur_unitary,
)
from schurkit.sn_fourier import sn_qft_from_schur
from schurkit.wigner import cg_block, cg_output_blocks


@pytest.mark.parametrize(
    "d,n", [(2, 1), (2, 4), (2, 8), (3, 3), (3, 5), (4, 3), (5, 2)]
)
def test_schur_unitary_is_unitary(d, n):
    su, codec = schur_unitary(d, n)
    assert su.matrix.shape == (d**n, d**n)
    assert len(codec) == d**n
    assert su.unitarity_residual() < 1e-12


def test_schur_d2_n1_is_identity():
    su, _ = schur_unitary(2, 1)
    assert np.array_equal(su.matrix, np.eye(2))


def _dense_cascade(d, n):
    """S(d, n) as the dense product CG_n (S(d, n - 1) tensor I), from
    S(d, 1) = I, with none of the weight-block bookkeeping of the build."""
    s = np.eye(d)
    for k in range(2, n + 1):
        prev, codec = SchurLabelCodec(d, k - 1), SchurLabelCodec(d, k)
        grown = np.kron(s, np.eye(d))
        s = np.zeros_like(grown)
        for mu, (rows, nq, np_) in prev.sectors.items():
            # the rows (q', p'', i) of the mu sector, reordered to (p'', (q', i))
            x = grown[rows.start * d : rows.stop * d].reshape(nq, np_, d, -1)
            x = x.transpose(1, 0, 2, 3).reshape(np_, nq * d, -1)
            y = cg_block(mu, d).matrix @ x
            for lp, sl in cg_output_blocks(mu, d):
                for g in range(sl.stop - sl.start):
                    top = codec.index(lp, g + 1, sibling_offset(mu, lp) + 1)
                    s[top : top + np_] = y[:, sl.start + g]
    return s


@pytest.mark.parametrize(
    "d,n",
    [
        (2, 6),
        (3, 4),
        (4, 3),
        (2, 8),
        (3, 5),
        (5, 3),
        (10, 2),
        (1, 3),
        (3, 1),
        # many runs of one width per shape, and several CG terms per target row
        (4, 4),
        (10, 3),
        (32, 2),
    ],
)
def test_cascade_matches_a_dense_reference(d, n):
    assert np.abs(schur(d, n).dense.matrix - _dense_cascade(d, n)).max() <= 1e-14


@pytest.mark.parametrize("piece", [1, 7])
@pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (4, 3), (10, 2)])
def test_cascade_is_the_same_in_pieces_of_any_size(d, n, piece, monkeypatch):
    monkeypatch.setattr(schur_transform, "_PIECE", piece)
    built = SchurTransform(d, n)
    for got, want in zip(built.stacks, schur(d, n).stacks, strict=True):
        assert got.tobytes() == want.tobytes()


def test_schur_unitary_hands_out_a_fresh_matrix():
    su, _ = schur_unitary(2, 3)
    expected = su.matrix.copy()
    su.matrix[0, 0] = 5.0
    assert np.array_equal(schur_unitary(2, 3)[0].matrix, expected)


@pytest.mark.parametrize("d,n", [(1, 3), (2, 5), (3, 4), (4, 3), (10, 2), (32, 1)])
def test_weight_classes_group_the_patterns_by_gz_weight(d, n):
    for lam in enumerate_partitions(d, n):
        weights = [gz_weight(g) for g in enumerate_gz(lam, d)]
        numbers = combinatorics._gz_numbers(lam, d).tolist()
        # two patterns share a number exactly when they share a weight
        assert len(set(zip(weights, numbers))) == len(set(weights)) == len(set(numbers))


@pytest.mark.parametrize(
    "call",
    [
        lambda t: t.sector_rows((3, 1), 0),
        lambda t: t.codec.index((3, 1), 0, 1),
        lambda t: t.sector_rows((3, 1), 4),
        lambda t: t.codec.label(-1),
    ],
    ids=["sector-rows-q0", "index-q0", "sector-rows-q4", "label-minus-1"],
)
def test_codec_rejects_indices_out_of_range(call):
    # (3, 1) at d = 2 has dim_q = dim_p = 3, and S(2, 4) has 16 rows
    with pytest.raises(ValueError, match="must lie in"):
        call(schur(2, 4))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda codec: codec.gz_pattern((3, 1), 0), "must lie in"),
        (lambda codec: codec.gz_pattern((3, 1), 4), "must lie in"),
        (lambda codec: codec.gz_pattern((5,), 1), "not a partition of 4"),
        (
            lambda codec: dfs_encode((3, 1), ((9,), (3, 1)), np.ones(3), 2, 4),
            r"not a GZ pattern of \(3, 1\) at d=2",
        ),
    ],
    ids=["gz-pattern-q0", "gz-pattern-q4", "gz-pattern-foreign-shape", "dfs-foreign-pattern"],
)
def test_codec_checks_the_shape_and_the_pattern_index(call, message):
    # (3, 1) at d = 2 has dim_q = 3, and S(2, 4) has no (5,) sector; q = 0
    # once read the last pattern through index -1
    with pytest.raises(ValueError, match=message):
        call(SchurLabelCodec(2, 4))


def test_codec_lists_its_row_labels_only_when_read():
    # 2^20 rows in 11 sectors: the codec holds the sectors, not a tuple per row
    elapsed = min(timeit.repeat(lambda: SchurLabelCodec(2, 20), number=1, repeat=3))
    tracemalloc.start()
    codec = SchurLabelCodec(2, 20)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.01 and peak < 1 << 20, (elapsed, peak)
    assert len(codec) == 2**20 and "triples" not in vars(codec)
    for row in np.random.default_rng(20).integers(0, 2**20, 10**4).tolist():
        assert codec.index(*codec.label(row)) == row
    assert "triples" in vars(codec) and len(codec.triples) == 2**20


def test_codec_is_a_bijection_with_contiguous_blocks():
    d, n = 3, 4
    codec = SchurLabelCodec(d, n)
    seen = set()
    for lam in enumerate_partitions(d, n):
        sl = codec.block_slice(lam)
        assert sl.stop - sl.start == dim_q(lam, d) * dim_p(lam)
        for qi in range(1, dim_q(lam, d) + 1):
            for pi in range(1, dim_p(lam) + 1):
                row = codec.index(lam, qi, pi)
                assert sl.start <= row < sl.stop
                assert codec.label(row) == (lam, qi, pi)
                seen.add(row)
    assert seen == set(range(d**n))


@pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (3, 3)])
def test_projectors_match_character_oracle(d, n):
    su, codec = schur_unitary(d, n)
    for lam in enumerate_partitions(d, n):
        sl = codec.block_slice(lam)
        rows = su.matrix[sl, :]
        projector = rows.T @ rows
        oracle = central_projector_oracle(lam, d, n)
        assert np.abs(projector - oracle.matrix).max() < 1e-12


@pytest.mark.parametrize(
    "d,n", [(1, 3), (2, 3), (3, 3), (2, 5), (3, 4), pytest.param(2, 7, marks=pytest.mark.slow)]
)
def test_projector_oracle_is_the_dense_character_sum(d, n, monkeypatch):
    """Reference: (dim_p / n!) sum_s chi(s) P(s) with every P(s) a dense
    permutation matrix, summed class by class.  Before the scale every entry
    is a sum of integers, exact in any order, so the match is bitwise."""
    # the oracle's table of S_n is guarded too: 7! = 5040 passes the default cap
    monkeypatch.setenv("SCHURKIT_DENSE_CAP", str(max(dense_cap(), math.factorial(n))))
    classes = {}
    for s in all_permutations(n):
        mu = cycle_type(s)
        classes[mu] = classes.get(mu, 0) + permutation_action(s, d)
    for lam in enumerate_partitions(n, n):
        expected = sum(character(lam, mu) * p for mu, p in classes.items())
        expected *= dim_p(lam) / math.factorial(n)
        assert np.array_equal(central_projector_oracle(lam, d, n).matrix, expected), lam


def test_measure_schur_matches_projector_masses(rng):
    d, n = 2, 4
    state = random_state(rng, d**n)
    table = measure_schur(state, d, n)
    assert abs(sum(table.values()) - 1.0) < 1e-12
    for lam, p in table.items():
        oracle = central_projector_oracle(lam, d, n)
        mass = float((state.conj() @ oracle.matrix @ state).real)
        assert abs(p - mass) < 1e-12


def test_measure_schur_granularities(rng):
    d, n = 2, 3
    state = random_state(rng, d**n)
    full = measure_schur(state, d, n, granularity="full")
    by_lam = measure_schur(state, d, n, granularity="lambda")
    by_q = measure_schur(state, d, n, granularity="lambda_q")
    for lam, p in by_lam.items():
        partial = sum(v for (l, _, _), v in full.items() if l == lam)
        assert abs(p - partial) < 1e-12
    for (lam, qi), p in by_q.items():
        partial = sum(v for (l, q, _), v in full.items() if (l, q) == (lam, qi))
        assert abs(p - partial) < 1e-12
    assert set(by_q) == {label[:2] for label in full}
    with pytest.raises(ValueError):
        measure_schur(state, d, n, granularity="bogus")


def test_dfs_roundtrip_and_collective_invariance(rng):
    d, n = 2, 4
    lam = (3, 1)
    p_state = random_state(rng, dim_p(lam))
    encoded = dfs_encode(lam, 1, p_state, d, n)
    assert abs(np.linalg.norm(encoded) - 1.0) < 1e-12
    assert np.abs(dfs_decode(lam, 1, encoded, d, n) - p_state).max() < 1e-12
    # encoded states live in the lam isotypic component
    oracle = central_projector_oracle(lam, d, n)
    assert np.abs(oracle.matrix @ encoded - encoded).max() < 1e-12
    # a collective rotation keeps the permutation-register content intact
    u = haar_unitary(rng, d)
    big = np.array([[1.0 + 0j]])
    for _ in range(n):
        big = np.kron(big, u)
    rotated = big @ encoded
    # decode over every q column and compare the total p amplitude
    for qi in range(1, dim_q(lam, d) + 1):
        dec = dfs_decode(lam, qi, rotated, d, n)
        overlap = abs(np.vdot(p_state, dec))
        assert abs(overlap - np.linalg.norm(dec)) < 1e-10


def test_projector_oracle_refuses_a_permutation_table_past_the_cap(monkeypatch):
    # d^n = 4096 passes; the 12! = 479001600 permutations of S_12 do not
    monkeypatch.delenv("SCHURKIT_DENSE_CAP", raising=False)
    t = time.perf_counter()
    with pytest.raises(ValueError, match="more than 4096 permutations of 12: .*exceeds cap"):
        central_projector_oracle((6, 6), 2, 12)
    # at d = 1 no bound on d^n limits n, and n! is never formed
    with pytest.raises(ValueError, match="exceeds cap"):
        central_projector_oracle((10**6,), 1, 10**6)
    assert time.perf_counter() - t < 1.0


def test_an_oversized_transform_is_refused_by_the_cap_not_its_size(monkeypatch):
    # 2^20000 has 6021 digits, past what Python prints of an int
    monkeypatch.delenv("SCHURKIT_DENSE_CAP", raising=False)
    t = time.perf_counter()
    with pytest.raises(ValueError, match="SCHURKIT_DENSE_CAP") as info:
        schur(2, 20000)
    assert time.perf_counter() - t < 0.1
    assert str(info.value).startswith("more than 4096 rows of S(2, 20000): ")


def test_dense_cap_blocks_large_instances(monkeypatch):
    monkeypatch.setenv("SCHURKIT_DENSE_CAP", "8")
    assert dense_cap() == 8
    with pytest.raises(ValueError):
        schur_unitary(2, 11)


def test_lowered_cap_rejects_cached_transforms(monkeypatch, rng):
    schur_unitary(2, 4)  # built and cached under the default cap
    monkeypatch.setenv("SCHURKIT_DENSE_CAP", "8")
    p_state = random_state(rng, dim_p((3, 1)))
    psi = np.array([0.8, 0, 0, 0.6])
    consumers = [
        lambda: schur_unitary(2, 4),
        lambda: verify_block_diagonal(np.eye(2), (2, 1, 3, 4), 2, 4),
        lambda: measure_schur(random_state(rng, 16), 2, 4),
        lambda: dfs_encode((3, 1), 1, p_state, 2, 4),
        lambda: dfs_decode((3, 1), 1, random_state(rng, 16), 2, 4),
        lambda: rep_matrix_q((3, 1), np.eye(2), 2, 4),
        lambda: rep_matrix_p((3, 1), (2, 1, 3, 4), 2, 4),
        lambda: rho_blocks(np.diag([0.7, 0.3]), 4),
        lambda: concentrate(psi, 4),
        lambda: sn_qft_from_schur(4),
        lambda: schur(2, 4).conjugate(np.eye(16)),
    ]
    for call in consumers:
        with pytest.raises(ValueError, match="exceeds cap"):
            call()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: measure_schur(np.full(8, np.nan), 2, 3), "normalized"),
        (lambda: concentrate(np.array([np.nan, 0, 0, 1.0]), 2), "normalized"),
        (lambda: verify_block_diagonal(np.full((2, 2), np.nan), (2, 1), 2, 2), "unitary"),
        (lambda: rep_matrix_q((2,), np.diag([1.0, np.nan]), 2, 2), "unitary"),
        (lambda: channel_normal_form(np.full((4, 2), np.nan), 2), "isometry"),
        (lambda: rho_blocks(np.diag([np.nan, 1.0]), 2), "Hermitian"),
        (lambda: sector_distribution((np.nan, 0.5), 4), "sum to 1"),
    ],
    ids=["measure", "concentrate", "verify", "rep_q", "channel", "rho", "probs"],
)
def test_non_finite_inputs_raise_value_error(call, message):
    # every tolerance check must fail on NaN, which compares false both ways
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "lam,q",
    [
        ((2, 1), 0),  # q below range
        ((2, 1), -1),
        ((2, 1), 3),  # dim_q((2, 1), 2) = 2
        ((1, 1, 1), 1),  # three rows at d = 2
        ((3, 1), 1),  # not a partition of n = 3
        ((2, 1), ((2,), (3,))),  # a GZ pattern of another shape
    ],
    ids=["q0", "q-1", "q3", "three-rows", "size-4", "foreign-pattern"],
)
def test_dfs_codec_rejects_foreign_sectors(lam, q):
    with pytest.raises(ValueError):
        dfs_encode(lam, q, [1, 0], 2, 3)
    with pytest.raises(ValueError):
        dfs_decode(lam, q, np.ones(8), 2, 3)


def test_dfs_codec_rejects_wrong_vector_lengths():
    with pytest.raises(ValueError):
        dfs_encode((2, 1), 1, [1, 0, 0], 2, 3)
    with pytest.raises(ValueError):
        dfs_decode((2, 1), 1, np.ones(4), 2, 3)


@pytest.mark.parametrize(
    "d,n", [(1, 3), (3, 1), (2, 4), (2, 10), (4, 5), (10, 3), (32, 2)]
)
def test_schur_conjugate_matches_dense_product(d, n, rng):
    s = schur_unitary(d, n)[0].matrix
    dim = d**n
    real = rng.normal(size=(dim, dim))
    for x in (real, real + 1j * rng.normal(size=(dim, dim))):
        assert np.abs(schur(d, n).conjugate(x) - s @ x @ s.T).max() < 1e-12
    assert np.abs(schur(d, n).apply(real) - s @ real).max() < 1e-12


def test_schur_conjugate_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        schur(2, 3).conjugate(np.eye(4))
    with pytest.raises(ValueError):
        schur(2, 3).conjugate(np.ones((8, 4)))
    with pytest.raises(ValueError):
        schur(2, 3).apply(np.ones(4))


@pytest.mark.parametrize(
    "d,n", [(1, 3), (3, 1), (5, 1), (2, 4), (2, 10), (4, 5), (10, 3), (32, 2)]
)
def test_schur_conjugate_of_factors_and_permutation_matches_dense(d, n, rng):
    t, s = schur(d, n), schur_unitary(d, n)[0].matrix
    perm = rng.permutation(d**n)
    k = n // 2
    # a real square pair, and a rectangular pair with a complex first factor
    square = rng.normal(size=(d**k, d**k)), rng.normal(size=(d ** (n - k),) * 2)
    shapes = (d**k, d ** (k + 1)), (d ** (n - k), d ** (n - k - 1))
    ra, rb = (rng.normal(size=shape) for shape in shapes)
    rectangular = ra + 1j * rng.normal(size=shapes[0]), rb
    for a, b in (square, rectangular):
        x = np.kron(a, b)
        parts = (x.real, x.imag) if np.iscomplexobj(x) else (x, 0 * x)
        re, im = (s @ part[:, perm] @ s.T for part in parts)
        for arg in ((a, b), x):
            got = t.conjugate(arg, perm=perm)
            assert got.dtype == x.dtype
            assert max(np.abs(got.real - re).max(), np.abs(got.imag - im).max()) <= 1e-12
        assert np.abs(t.conjugate((a, b), perm=list(perm)) - got).max() <= 1e-12
        assert np.abs(t.conjugate((a, b)) - t.conjugate(x)).max() <= 1e-12


def test_schur_conjugate_rejects_factors_and_permutations_of_the_wrong_size():
    t = schur(2, 3)
    for pair in (
        (np.eye(2), np.eye(3)),  # 6 x 6
        (np.ones((2, 4)), np.eye(2)),  # 4 x 8
        (np.ones((2, 4)), np.ones((4, 1))),  # 8 x 4
        (np.ones(2), np.eye(4)),  # a vector
    ):
        with pytest.raises(ValueError, match="factors"):
            t.conjugate(pair)
    for perm in (np.arange(4), np.arange(8).reshape(2, 4)):
        with pytest.raises(ValueError, match="column indices"):
            t.conjugate((np.eye(2), np.eye(4)), perm=perm)


def test_cascade_rejects_cg_block_that_breaks_weight(monkeypatch):
    real_cg_triplets = schur_transform.cg_triplets

    def leaky_cg_triplets(lams, d):
        out = real_cg_triplets(lams, d)
        for lam, (rows, cols, vals) in out.items():
            block = cg_block(lam, d)  # for the labels
            # column 0 is (q, i = 1): couple it to a row whose weight is not
            # weight(q) + e_1
            q, _ = block.col_labels[0]
            target = tuple(np.add(gz_weight(q), np.eye(d, dtype=int)[0]))
            row = next(
                r
                for r, (_, g) in enumerate(block.row_labels)
                if gz_weight(g) != target
            )
            out[lam] = (np.append(rows, row), np.append(cols, 0), np.append(vals, 1e-3))
        return out

    monkeypatch.setattr(schur_transform, "cg_triplets", leaky_cg_triplets)
    with pytest.raises(ValueError, match="breaks torus weight"):
        SchurTransform(2, 3)


def test_cascade_never_forms_a_dense_cg_block(monkeypatch):
    def refuse(lam, d):
        raise AssertionError("a dense CG block was formed")

    monkeypatch.setattr(wigner, "cg_block", refuse)
    built = SchurTransform(3, 4)
    monkeypatch.undo()
    assert np.array_equal(built.dense.matrix, schur_unitary(3, 4)[0].matrix)


@pytest.mark.parametrize("corruption", ["shifted", "reversed"])
def test_cascade_rejects_corrupted_path_ranks(monkeypatch, corruption):
    real = schur_transform.sibling_offset

    def corrupt(mu, lam):
        if corruption == "shifted":
            return real(mu, lam) + 1
        # siblings in the opposite order: still a bijection onto 0..dim_p - 1
        return dim_p(lam) - dim_p(mu) - real(mu, lam)

    monkeypatch.setattr(schur_transform, "sibling_offset", corrupt)
    with pytest.raises(ValueError, match="rank order"):
        SchurTransform(2, 4)


def test_products_with_s_never_form_the_dense_matrix(monkeypatch, rng):
    d, n = 2, 5
    s = schur_unitary(d, n)[0].matrix
    codec = SchurLabelCodec(d, n)

    def refuse(self):
        raise AssertionError("the dense Schur transform was formed")

    monkeypatch.setattr(SchurTransform, "dense", property(refuse))
    with pytest.raises(AssertionError):
        schur_unitary(d, n)
    state = random_state(rng, d**n)
    amps = s @ state
    for (lam, qi, pi), p in measure_schur(state, d, n, granularity="full").items():
        assert abs(p - abs(amps[codec.index(lam, qi, pi)]) ** 2) < 1e-12
    p_state = random_state(rng, dim_p((3, 2)))
    rows = [codec.index((3, 2), 2, pi) for pi in range(1, dim_p((3, 2)) + 1)]
    encoded = dfs_encode((3, 2), 2, p_state, d, n)
    assert np.abs(encoded - p_state @ s[rows]).max() < 1e-12
    assert np.abs(dfs_decode((3, 2), 2, encoded, d, n) - p_state).max() < 1e-12
    x = rng.normal(size=(d**n, d**n))
    assert np.abs(schur(d, n).conjugate(x) - s @ x @ s.T).max() < 1e-12
    assert verify_block_diagonal(haar_unitary(rng, d), (2, 1, 3, 5, 4), d, n).leakage < 1e-10
    rho = np.diag([0.7, 0.3])
    assert abs(sum(w for w, _, _ in rho_blocks(rho, n).values()) - 1.0) < 1e-12
    psi = np.array([0.8, 0, 0, 0.6])
    assert concentrate(psi, 3).off_diagonal_mass < 1e-10
    assert sn_qft_from_schur(4)[0].unitarity_residual() < 1e-12


def test_measure_schur_peak_memory_on_warm_transform(rng):
    d, n = 2, 10
    state = random_state(rng, d**n)
    measure_schur(state, d, n)
    tracemalloc.start()
    try:
        measure_schur(state, d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("d,n", [(2, 10), (3, 7), (4, 6)])
def test_build_peak_stays_within_1_45_times_the_kept_blocks(d, n):
    SchurTransform(d, n)  # warm the shared pattern and coefficient caches
    tracemalloc.start()
    try:
        built = SchurTransform(d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(stack.nbytes for stack in built.stacks)
    assert peak <= 1.45 * kept, f"peak {peak} B is {peak / kept:.2f}x the {kept} B kept"


def test_weight_blocks_are_read_only():
    t = schur(2, 4)
    before = t.dense.matrix
    block, cols = t.sector_rows((3, 1), 1)
    for a in (block, cols):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    for arrays in t.by_weight:
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[0] = 1
    assert t.dense.matrix.tobytes() == before.tobytes()


@pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (4, 3), (32, 2), (1, 3), (3, 1)])
def test_dense_view_matches_a_per_block_scatter(d, n, rng):
    t = schur(d, n)
    dim = d**n
    expected = np.zeros((dim, dim))
    for rows, cols, block in t.by_weight:
        expected[np.ix_(rows, cols)] = block
    s = t.dense.matrix
    assert s.dtype == expected.dtype and s.tobytes() == expected.tobytes()
    vec = rng.normal(size=(dim, 3))
    for x in (vec, vec + 1j * rng.normal(size=(dim, 3))):
        assert np.abs(t.apply(x) - s @ x).max() <= 1e-12
    mat = rng.normal(size=(dim, dim))
    for x in (mat, mat + 1j * rng.normal(size=(dim, dim))):
        assert np.abs(t.conjugate(x) - s @ x @ s.T).max() <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (4, 3), (32, 2), (1, 3), (3, 1)])
def test_the_block_of_each_weight_number_holds_the_words_of_that_weight(d, n):
    t = schur(d, n)
    assert len(t.by_weight) == math.comb(n + d - 1, n)
    # the letter counts of each word (column), and the weight number of each
    # codec row's GZ pattern
    letters = np.arange(d**n)[:, None] // d ** np.arange(n) % d
    words = combinatorics._weight_numbers((letters[:, :, None] == np.arange(d)).sum(axis=1))
    shapes = enumerate_partitions(d, n)
    patterns = np.concatenate([np.repeat(combinatorics._gz_numbers(s, d), dim_p(s)) for s in shapes])
    for c, (rows, cols, block) in enumerate(t.by_weight):
        assert np.array_equal(np.sort(cols), np.flatnonzero(words == c))
        assert np.array_equal(rows, np.flatnonzero(patterns == c))
        assert block.shape == (len(rows), len(cols))


@pytest.mark.parametrize("d,n", [(4, 3), (3, 4), (10, 2), (2, 5), (1, 3)])
def test_rows_are_the_rows_of_the_dense_matrix(d, n):
    # at d >= 3 the rows of many weight blocks interleave in codec order, so
    # every range of more than a few rows crosses from block to block
    t = schur(d, n)
    s, dim = t.dense.matrix, d**n
    assert len(t.by_weight) > 2 or d < 3
    sectors = t.codec.sectors.values()
    steps = sorted({1, 2, 3} | {np_ for _, _, np_ in sectors})
    for a in range(dim + 1):
        for b in sorted({a, a + 1, a + 7, a + 29, dim}):
            for step in steps if b <= dim else ():
                got = t.rows(a, b, step)
                assert got.dtype == np.float64 and got.flags.writeable
                assert got.shape == (len(range(a, b, step)), dim)
                assert got.tobytes() == s[a:b:step].tobytes()
    # the rows the irrep extractors read: path 1 of every pattern of a sector
    for sl, _, np_ in sectors:
        assert t.rows(sl.start, sl.stop, np_).tobytes() == s[sl][::np_].tobytes()
    for a, b, step in [(-1, 2, 1), (3, 2, 1), (0, dim + 1, 1), (0, 2, 0), (0, 2, -1)]:
        with pytest.raises(ValueError, match="rows must lie in"):
            t.rows(a, b, step)


# the criterion-02 grid: every (d, n) with d, n >= 2 and d^n <= 1024
_GRID = [(d, n) for d in range(2, 33) for n in range(2, 11) if d**n <= 1024]


def test_no_zero_entry_of_s_has_its_sign_bit_set():
    # a CG coefficient below 0 times a zero entry is -0.0, which documents spell
    for d, n in _GRID + [(2, 11), (2, 12)]:
        for stack in schur(d, n).stacks:
            assert not np.any(np.signbit(stack) & (stack == 0)), (d, n)


_DIGESTS = """
import hashlib, json, sys
from schurkit.schur_transform import SchurTransform, schur
built, cells = json.loads(sys.argv[1])
for d, n in built:
    schur(d, n)
digests = []
for d, n in cells:
    digests.append(hashlib.sha256(SchurTransform(d, n).dense.matrix.tobytes()).hexdigest())
print(json.dumps(digests))
"""


def _digests_in_a_fresh_interpreter(built, cells) -> list:
    """sha256 of S at each cell, built anew in a fresh interpreter after the
    cells in built."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(schur_transform.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _DIGESTS, json.dumps([built, cells])],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_s_does_not_depend_on_the_cells_built_before():
    # every build shares the triplets and weight numbers kept per (shape,
    # rank); a cell built alone and one built after the other 52 cells of
    # the grid must agree bit for bit, and with S in this process
    cells = [(32, 2), (10, 3), (5, 4), (4, 5), (3, 6), (2, 10)]
    after = _digests_in_a_fresh_interpreter(_GRID, cells)
    alone = [_digests_in_a_fresh_interpreter([], [cell])[0] for cell in cells]
    here = [hashlib.sha256(schur(d, n).dense.matrix.tobytes()).hexdigest() for d, n in cells]
    assert after == alone == here


def _small_cells():
    return st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.integers(1, max(d for d in range(1, 257) if d**n <= 256)), st.just(n)
        )
    )


@settings(max_examples=25, deadline=None)
@given(_small_cells())
def test_schur_transform_structure(cell):
    d, n = cell
    su, codec = schur_unitary(d, n)
    s = su.matrix
    assert np.abs(s @ s.T - np.eye(d**n)).max() < 1e-12
    # S vanishes outside its weight blocks: a row's GZ weight must equal
    # the letter content of every computational index it touches
    digits = np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1) % d
    content = (digits[:, :, None] == np.arange(d)).sum(axis=1)
    for r in range(d**n):
        lam, qi, pi = codec.label(r)
        weight = np.array(gz_weight(enumerate_gz(lam, d)[qi - 1]))
        outside = np.any(content != weight, axis=1)
        assert not np.any(s[r, outside])
        assert codec.index(*codec.label(r)) == r
