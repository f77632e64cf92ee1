import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import combinatorics
from schurkit.combinatorics import (
    _branching_plan,
    _gz_numbers,
    _unkept_levels,
    _weight_numbers,
    add_box,
    count_partitions,
    dim_p,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    enumerate_yy,
    gz_weight,
    interlaces,
    interlacing_partitions,
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
    assert all(normalize(l) == l for l in enumerate_partitions(4, 6))
    assert enumerate_partitions(3, 0) == [()]


@pytest.mark.parametrize("d", range(0, 7))
def test_count_partitions_is_the_length_of_the_list(d):
    for n in range(-2, 15):
        listed = len(enumerate_partitions(d, n)) if d >= 1 and n >= 0 else None
        expected = listed if listed is not None else int(n == 0)
        assert count_partitions(d, n) == expected, (d, n)
    # p(40) = 37338 and p(100) = 190569292
    assert count_partitions(40, 40) == count_partitions(1000, 40) == 37338
    assert count_partitions(100, 100) == 190569292


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


@pytest.mark.parametrize("d", [100, 1000])
def test_dim_q_is_the_weyl_product_over_all_rows(d):
    # dim_q folds the empty rows into one binomial ratio per row of lam; the
    # Weyl product here runs over every row j < d below each row of lam
    for n in range(7):
        for lam in enumerate_partitions(6, n):
            lt = [x + d - 1 - i for i, x in enumerate(pad(lam, d))]
            pairs = [(i, j) for i in range(len(lam)) for j in range(i + 1, d)]
            num = math.prod(lt[i] - lt[j] for i, j in pairs)
            assert dim_q(lam, d) == num // math.prod(j - i for i, j in pairs), lam


@pytest.mark.parametrize("d,n", [(2, 6), (3, 5), (4, 4), (5, 3)])
def test_dimension_ledger(d, n):
    assert sum(dim_q(l, d) * dim_p(l) for l in enumerate_partitions(d, n)) == d**n


def test_gz_weights_sum_to_size():
    for lam in enumerate_partitions(3, 4):
        for g in enumerate_gz(lam, 3):
            assert sum(gz_weight(g)) == 4


def _recursive_interlacing(lam, rows):
    lam = pad(lam, rows + 1)

    def gen(i):
        if i == rows or lam[i] == 0:
            yield ()
            return
        for v in range(lam[i], lam[i + 1] - 1, -1):
            for rest in gen(i + 1):
                yield (v,) + rest

    return [normalize(mu) for mu in gen(0)]


def _recursive_gz(lam, d):
    if d == 1:
        return [(lam,)]
    return [
        sub + (lam,)
        for mu in _recursive_interlacing(lam, d - 1)
        for sub in _recursive_gz(mu, d - 1)
    ]


def _recursive_weights(d, n):
    if d == 1:
        return [(n,)]
    return [(first,) + rest for first in range(n, -1, -1) for rest in _recursive_weights(d - 1, n - first)]


def test_gz_tables_and_weights_follow_the_recursive_order():
    for d in range(1, 6):
        for n in range(0, 7):
            assert weights_of_size(d, n) == _recursive_weights(d, n)
            for lam in enumerate_partitions(d, n):
                assert interlacing_partitions(lam, d - 1) == _recursive_interlacing(lam, d - 1)
                patterns = _recursive_gz(lam, d)
                assert list(enumerate_gz(lam, d)) == patterns
                weights = [gz_weight(g) for g in patterns]
                assert _gz_numbers(lam, d).tolist() == _weight_numbers(weights).tolist()
                for mu in weights_of_size(d, n)[:: d + 1]:
                    assert kostka(lam, mu) == sum(gz_weight(g) == mu for g in patterns)


def test_weight_numbers_number_the_weights_of_each_size():
    for d in range(1, 7):
        for n in range(0, 6):
            weights = weights_of_size(d, n)
            numbers = _weight_numbers(np.array(weights).reshape(-1, d))
            assert sorted(numbers.tolist()) == list(range(len(weights)))
            if n == 1:  # the cascade's first step reads e_i as weight number i
                assert numbers.tolist() == list(range(d))
            for lam in enumerate_partitions(d, n):
                patterns = np.array([gz_weight(g) for g in enumerate_gz(lam, d)])
                assert np.array_equal(_gz_numbers(lam, d), _weight_numbers(patterns))


def test_gz_tables_and_weights_run_past_the_recursion_limit():
    d = sys.getrecursionlimit() + 100
    patterns = enumerate_gz((1,), d)
    assert len(patterns) == d and patterns[0] == ((1,),) * d
    assert patterns[-1] == ((),) * (d - 1) + ((1,),)
    assert weights_of_size(d, 1) == list(map(gz_weight, patterns))
    assert _gz_numbers((1,), d).tolist() == list(range(d))
    assert weights_of_size(d, 1) == [tuple(int(i == j) for i in range(d)) for j in range(d)]
    assert kostka((1,), (0,) * (d - 1) + (1,)) == 1


def test_kept_tables_walk_no_rank_below_their_own():
    for lam, d in [((2, 1), 5), ((3, 1, 1), 4), ((1,), sys.getrecursionlimit() + 100)]:
        _gz_numbers(lam, d)
        assert _unkept_levels([lam], d, combinatorics._GZ_NUMBERS) == [(d, {})]


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


def test_kostka_of_the_empty_shape_at_rank_zero():
    # rank 0 has the one empty pattern, of the empty weight
    assert kostka((), ()) == 1 == dim_q((), 0) == len(enumerate_gz((), 0))


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


def _recursive_schur_polys(lams, r):
    """The branching recursion written out plainly, one memoized call per
    (shape, depth): the reference for the bits schur_polys must give."""
    memo = {}

    def rec(shape, depth):
        if depth == 1:
            return r[0] ** sum(shape)
        if (shape, depth) not in memo:
            memo[shape, depth] = sum(
                rec(mu, depth - 1) * r[depth - 1] ** (sum(shape) - sum(mu))
                for mu in interlacing_partitions(shape, depth - 1)
            )
        return memo[shape, depth]

    return {normalize(lam): rec(normalize(lam), len(r)) for lam in lams}


@pytest.mark.parametrize("d,n", [(1, 5), (2, 40), (3, 30), (4, 12), (5, 7), (6, 6)])
def test_schur_polys_floats_match_the_recursion_bit_for_bit(d, n):
    rng = np.random.default_rng(10 * d + n)
    lams = enumerate_partitions(d, n)
    spectra = []
    for _ in range(2):
        r = sorted(rng.random(d).tolist(), reverse=True)
        spectra.append(tuple(x / sum(r) for x in r))
    with_zero = spectra[0][:-1] + (0.0,)
    with_tie = (spectra[1][0],) + spectra[1][:-1]
    for r in spectra + [with_zero, with_tie]:
        got, want = schur_polys(lams, r), _recursive_schur_polys(lams, r)
        assert list(got) == list(want)
        for lam in lams:
            assert type(got[lam]) is float and got[lam] == want[lam], (r, lam)


@pytest.mark.parametrize("d,n", [(3, 8), (4, 6)])
def test_schur_polys_fractions_are_the_kostka_sums(d, n):
    r = tuple(Fraction(k, 7 * d) for k in range(1, d + 1))
    lams = enumerate_partitions(d, n)
    got = schur_polys(lams, r)
    for lam in lams:
        want = sum(
            kostka(lam, w) * math.prod(x**e for x, e in zip(r, w))
            for w in weights_of_size(d, n)
        )
        assert type(got[lam]) is Fraction and got[lam] == want


def test_schur_polys_edge_cases():
    assert schur_polys([], (0.5, 0.5)) == {}
    assert schur_polys([], (Fraction(1, 2),) * 3) == {}
    # padded and repeated shapes give canonical keys in first-seen order
    r = (0.5, 0.3, 0.2)
    got = schur_polys([(2, 1, 0), (3,), (2, 1), (3, 0, 0)], r)
    assert list(got) == [(2, 1), (3,)]
    assert got == _recursive_schur_polys([(2, 1), (3,)], r)
    # ints stay Python ints, beyond what int64 holds
    lams = enumerate_partitions(2, 40)
    got = schur_polys(lams, (3, 2))
    assert got == _recursive_schur_polys(lams, (3, 2))
    assert all(type(s) is int for s in got.values()) and got[(40,)] > 2**63


def test_schur_polys_of_no_variables():
    # s_() of no variables is the empty product; any other shape has a row
    assert schur_polys([()], ()) == {(): 1}
    assert schur_polys([(), (0, 0)], ()) == {(): 1}
    assert schur_poly((), ()) == 1
    with pytest.raises(ValueError, match="more than 0 rows"):
        schur_polys([(1,)], ())


@pytest.mark.parametrize(
    "lams,r,message",
    [
        ([(2, 1)], (0.5, -0.1, 0.6), "nonnegative"),
        ([(1, 1, 1)], (0.5, 0.5), "more than 2 rows"),
    ],
)
def test_schur_polys_checks_inputs_before_building_a_plan(lams, r, message):
    before = _branching_plan.cache_info()
    with pytest.raises(ValueError, match=message):
        schur_polys(lams, r)
    assert _branching_plan.cache_info() == before


@given(partitions)
@settings(max_examples=50)
def test_partition_string_roundtrip(lam):
    assert parse_partition(partition_str(lam)) == lam
