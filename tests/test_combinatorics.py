import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit.combinatorics import (
    add_box,
    dim_p,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    enumerate_yy,
    gz_weight,
    interlaces,
    is_partition,
    kostka,
    multinomial,
    normalize,
    pad,
    parse_partition,
    partition_str,
    remove_box,
    schur_poly,
    schur_polys,
    weights_of_size,
    yy_index,
    yy_unindex,
)

partitions = st.lists(
    st.integers(min_value=0, max_value=6), min_size=0, max_size=4
).map(lambda xs: normalize(sorted(xs, reverse=True)))


def test_normalize_strips_trailing_zeros():
    assert normalize((3, 1, 0, 0)) == (3, 1)
    assert normalize([2]) == (2,)
    assert normalize(()) == ()


def test_is_partition():
    assert is_partition((3, 3, 1))
    assert not is_partition((1, 2))
    assert not is_partition((2, -1))


def test_enumerate_partitions_counts():
    # partitions of n into at most d parts
    assert len(enumerate_partitions(2, 5)) == 3
    assert len(enumerate_partitions(3, 6)) == 7
    assert [normalize(l) == l for l in enumerate_partitions(4, 6)]


def test_enumerate_partitions_order_is_stable_and_dominance_compatible():
    lams = enumerate_partitions(3, 6)
    assert lams[0] == (6,)
    assert all(sum(l) == 6 for l in lams)
    assert len(set(lams)) == len(lams)


@given(partitions)
def test_pad_and_normalize_roundtrip(lam):
    assert normalize(pad(lam, len(lam) + 3)) == lam


def test_interlacing():
    assert interlaces((2, 1), (3, 1))
    assert interlaces((3,), (3, 1))
    assert not interlaces((1,), (3, 2))


def test_add_remove_box_are_converse():
    for lam in enumerate_partitions(3, 5):
        for lp in add_box(lam, 3):
            assert lam in remove_box(lp)
        for lm in remove_box(lam):
            assert lam in add_box(lm, 3)


@pytest.mark.parametrize(
    "d,n", [(2, 4), (3, 4), (3, 5), (4, 4), (64, 1), (256, 1), (16, 2)]
)
def test_dimension_formulas_match_enumerations(d, n):
    for lam in enumerate_partitions(d, n):
        assert dim_q(lam, d) == len(enumerate_gz(lam, d))
        assert dim_p(lam) == len(enumerate_yy(lam))


@pytest.mark.parametrize("d,n", [(2, 6), (3, 5), (4, 4), (5, 3)])
def test_dimension_ledger(d, n):
    assert sum(dim_q(l, d) * dim_p(l) for l in enumerate_partitions(d, n)) == d**n


def test_gz_weights_sum_to_size():
    for lam in enumerate_partitions(3, 4):
        for g in enumerate_gz(lam, 3):
            assert sum(gz_weight(g)) == 4


def test_yy_index_bijection():
    for lam in enumerate_partitions(3, 5):
        paths = enumerate_yy(lam)
        for path in paths:
            k = yy_index(path)
            assert 1 <= k <= dim_p(lam)
            assert yy_unindex(lam, k) == path


def test_kostka_values():
    # number of semistandard tableaux of the given shape and content
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((1, 1), (2, 0)) == 0


def test_kostka_row_sums_give_dim_q():
    for d, n in [(2, 4), (3, 4)]:
        for lam in enumerate_partitions(d, n):
            total = sum(kostka(lam, mu) for mu in weights_of_size(d, n))
            assert total == dim_q(lam, d)


def test_multinomial():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (5, 0)) == 1
    assert multinomial(6, (3, 2, 1)) == 60


def test_schur_poly_normalization():
    # sector masses of a product state sum to one
    for r in [(Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 3))]:
        total = sum(
            dim_p(l) * schur_poly(l, r) for l in enumerate_partitions(len(r), 6)
        )
        assert total == 1
        # one call for every shape shares the recursion and stays exact
        polys = schur_polys(enumerate_partitions(len(r), 6), r)
        assert sum(dim_p(l) * s for l, s in polys.items()) == 1


def test_schur_poly_at_all_ones_is_dim_q():
    for lam in enumerate_partitions(3, 4):
        assert schur_poly(lam, (1, 1, 1)) == dim_q(lam, 3)


@given(partitions)
@settings(max_examples=50)
def test_partition_string_roundtrip(lam):
    assert parse_partition(partition_str(lam)) == lam
