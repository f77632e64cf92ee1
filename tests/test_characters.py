import math

import numpy as np
import pytest

from schurkit.characters import character, young_orthogonal
from schurkit.combinatorics import dim_p, enumerate_partitions
from schurkit.permutations import (
    all_permutations,
    compose,
    conjugacy_classes,
    cycle_type,
    identity,
    sign,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_character_at_identity_is_dimension(n):
    for lam in enumerate_partitions(n, n):
        assert character(lam, (1,) * n) == dim_p(lam)


def test_known_character_table_s3():
    # rows (3), (2,1), (1,1,1); columns classes (1,1,1), (2,1), (3)
    table = {
        (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
        (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
        (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
    }
    for lam, row in table.items():
        for rho, value in row.items():
            assert character(lam, rho) == value


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_character_row_orthogonality(n):
    classes = conjugacy_classes(n)
    lams = enumerate_partitions(n, n)
    for a in lams:
        for b in lams:
            inner = sum(
                size * character(a, rho) * character(b, rho)
                for rho, size in classes.items()
            )
            assert inner == (math.factorial(n) if a == b else 0)


def test_sign_character():
    for n in range(2, 6):
        for s in all_permutations(n):
            assert character((1,) * n, cycle_type(s)) == sign(s)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_young_orthogonal_is_an_orthogonal_representation(n):
    rng = np.random.default_rng(3)
    perms = all_permutations(n)
    for lam in enumerate_partitions(n, n):
        for _ in range(6):
            s = perms[rng.integers(len(perms))]
            t = perms[rng.integers(len(perms))]
            ys, yt = young_orthogonal(lam, s), young_orthogonal(lam, t)
            assert np.abs(ys @ ys.T - np.eye(dim_p(lam))).max() < 1e-12
            assert np.abs(young_orthogonal(lam, compose(s, t)) - ys @ yt).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_young_orthogonal_trace_is_the_character(n):
    for lam in enumerate_partitions(n, n):
        for rho, _ in conjugacy_classes(n).items():
            # a concrete permutation of each cycle type
            s, k = [], 1
            for c in rho:
                s.extend(list(range(k + 1, k + c)) + [k])
                k += c
            s = tuple(s)
            assert cycle_type(s) == rho
            tr = np.trace(young_orthogonal(lam, s))
            assert abs(tr - character(lam, rho)) < 1e-10


def test_identity_representation():
    assert np.array_equal(young_orthogonal((2, 1), identity(3)), np.eye(2))


@pytest.mark.parametrize("s", [(1, 2, 3, 4, 5), (2, 1, 3, 4, 5), (5, 3, 1, 4, 2)])
def test_writing_into_a_result_leaves_the_next_result_unchanged(s):
    # the generators behind every result are cached and shared
    first = young_orthogonal((3, 2), s)
    expected = first.copy()
    first[...] = 7.0
    assert np.array_equal(young_orthogonal((3, 2), s), expected)
