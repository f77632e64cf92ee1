import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurkit.permutations import (
    all_permutations,
    check_permutation,
    compose,
    conjugacy_classes,
    count_permutations,
    cycle_type,
    identity,
    inverse,
    sign,
    transposition,
)

perms = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


@given(perms)
def test_inverse_composes_to_identity(s):
    n = len(s)
    assert compose(s, inverse(s)) == identity(n)
    assert compose(inverse(s), s) == identity(n)


def test_compose_convention():
    # (s t)(k) = s(t(k))
    s, t = (2, 3, 1), (1, 3, 2)
    assert compose(s, t) == tuple(s[t[k] - 1] for k in range(3))


@given(st.tuples(perms, perms).filter(lambda p: len(p[0]) == len(p[1])))
def test_sign_is_a_homomorphism(pair):
    s, t = pair
    assert sign(compose(s, t)) == sign(s) * sign(t)


def test_cycle_type():
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 1, 3)) == (2, 1)
    assert cycle_type((2, 3, 1)) == (3,)


def test_transpositions():
    assert transposition(4, 2) == (1, 3, 2, 4)
    assert sign(transposition(5, 1)) == -1


def test_all_permutations_and_index():
    for n in range(1, 6):
        perms_n = all_permutations(n)
        assert len(perms_n) == math.factorial(n)
        assert list(perms_n) == sorted(perms_n)  # lexicographic one-line order


def test_conjugacy_class_sizes():
    for n in range(1, 6):
        classes = conjugacy_classes(n)
        assert sum(classes.values()) == math.factorial(n)
        for s in all_permutations(n):
            assert cycle_type(s) in classes


def test_check_permutation():
    assert check_permutation(np.array([2, 3, 1]), 3) == (2, 3, 1)
    for s, n in [((1, 1, 3), 3), ((0, 1, 2), 3), ((2, 3, 4), 3), ((1, 2), 3), ((1.5, 2), 2)]:
        with pytest.raises(ValueError):
            check_permutation(s, n)


def test_count_permutations_stops_once_past_the_bound():
    assert [count_permutations(n, 10**6) for n in range(8)] == [math.factorial(n) for n in range(8)]
    # 7! = 5040 is the first count past 4096; 10**9! is never formed
    assert count_permutations(10**9, 4096) == 5040
