import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurkit
from schurkit import combinatorics, wigner
from schurkit.combinatorics import (
    _grown,
    _shrunk,
    add_box,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    gz_weight,
    interlaces,
    is_partition,
    normalize,
    pad,
)
from schurkit.schur_transform import SchurTransform
from schurkit.wigner import (
    cg_block,
    cg_output_blocks,
    cg_triplets,
    is_structural_zero,
    reduced_wigner,
    that_matrix,
)


def test_reduced_wigner_trivial_cases():
    assert reduced_wigner((), 1, (), 0, 1) == 1.0
    # coupling a fresh box onto the empty shape at d = 2
    assert abs(reduced_wigner((), 1, (), 1, 2)) == pytest.approx(1.0)


def test_structural_zeros_are_reported_as_zero():
    # mu' does not interlace mu + e_j
    assert is_structural_zero((2,), 2, (2,), 1, 2)
    assert reduced_wigner((2,), 2, (2,), 1, 2) == 0.0
    # a build fills the formula's cache with the pairs of (2,) at d = 2;
    # the selection rules still answer before the formula is reached
    cg_block((2,), 2)
    SchurTransform(2, 3)
    assert reduced_wigner((2,), 2, (2,), 1, 2) == 0.0


def test_invalid_queries_raise():
    with pytest.raises(ValueError):
        reduced_wigner((1, 2), 1, (1,), 1, 2)  # not a partition
    with pytest.raises(ValueError):
        reduced_wigner((2,), 0, (1,), 1, 2)  # j out of range


@pytest.mark.parametrize("d", [2, 3, 4])
def test_that_matrix_is_orthogonal(d):
    for n in range(0, 4):
        for mu in enumerate_partitions(d, n) if n else [()]:
            for mupp in enumerate_partitions(d - 1, n) if n else [()]:
                if len(mupp) > d - 1:
                    continue
                try:
                    t = that_matrix(mu, mupp, d)
                except ValueError:
                    continue
                assert t.unitarity_residual() < 1e-12


@st.composite
def _that_matrix_args(draw):
    """mu with at most d rows and |mu| <= 12, and mu'' with at most d - 1
    rows drawn around the interlacing range of mu, so that most pairs are
    consistent and some are not."""
    d = draw(st.integers(1, 6))
    size = draw(st.integers(0, 12))
    mu = draw(st.sampled_from(enumerate_partitions(d, size) if size else [()]))
    rows = pad(mu, d)
    mupp = [draw(st.integers(rows[i + 1], rows[i] + 1)) for i in range(d - 1)]
    return mu, normalize(sorted(mupp, reverse=True)), d


@settings(max_examples=200, deadline=None)
@given(_that_matrix_args())
def test_that_matrix_is_orthogonal_property(args):
    mu, mupp, d = args
    try:
        t = that_matrix(mu, mupp, d).matrix
    except ValueError:
        return  # no consistent branch for this pair
    rows = [j - 1 for j in _full_scan_rows(mu, mupp, d)]
    cols = [jp for jp, _ in _full_scan_cols(mu, mupp, d)]
    valid = t[np.ix_(rows, cols)]
    assert np.abs(valid.T @ valid - np.eye(len(rows))).max() < 1e-12
    assert np.abs(t.T @ t - np.eye(d)).max() < 1e-12
    for j in _full_scan_rows(mu, mupp, d):
        for jp, mup in _full_scan_cols(mu, mupp, d):
            assert t[j - 1, jp] == reduced_wigner(mu, j, mup, jp, d)


def test_cascade_never_calls_that_matrix(monkeypatch):
    """The build reads each coefficient from the formula: that_matrix is a
    view for callers, not a step of the cascade."""

    def refuse(*args):
        raise AssertionError("the build called that_matrix")

    monkeypatch.setattr(wigner, "that_matrix", refuse)
    SchurTransform(3, 4)
    SchurTransform(4, 3)
    assert cg_block((2, 1), 4).unitarity_residual() < 1e-12


def _full_scan_rows(mu, mupp, d):
    """The rows j = 1..d of that_matrix(mu, mupp, d) that the selection rules
    allow (mu + e_j a partition that mu'' interlaces), scanning every row."""
    out = []
    for j in range(1, d + 1):
        cand = list(pad(mu, d))
        cand[j - 1] += 1
        if is_partition(cand) and interlaces(mupp, normalize(cand)):
            out.append(j)
    return out


def _full_scan_cols(mu, mupp, d):
    """The (j', mu') columns of that_matrix(mu, mupp, d) that the selection
    rules allow (mu' = mu'' - e_j', or mu'' at j' = 0, a partition of at most
    d - 1 rows that interlaces mu), scanning every column j' = 0..d-1."""
    out = []
    mupp_p = pad(mupp, d - 1)
    for jp in range(0, d):
        if jp == 0:
            mup = normalize(mupp)
        else:
            cand = list(mupp_p)
            cand[jp - 1] -= 1
            if not is_partition(cand):
                continue
            mup = normalize(cand)
        if len(mup) <= d - 1 and interlaces(mup, mu):
            out.append((jp, mup))
    return out


def _full_scan_grown(lam, d):
    """(j, lam + e_j) for every row j = 1..d where that is a partition."""
    out = []
    for j in range(1, d + 1):
        cand = list(pad(lam, d))
        cand[j - 1] += 1
        if is_partition(cand):
            out.append((j, normalize(cand)))
    return out


def _full_scan_shrunk(lam):
    """(j, lam - e_j) for every row j of lam where that is a partition."""
    out = []
    for j in range(1, len(lam) + 1):
        cand = list(lam)
        cand[j - 1] -= 1
        if is_partition(cand):
            out.append((j, normalize(cand)))
    return out


@pytest.mark.parametrize("d,max_size", [(2, 5), (3, 5), (4, 4), (5, 4), (8, 3), (16, 2), (32, 2)])
def test_selection_rules_scan_only_rows_that_can_change(d, max_size):
    """_grown and _shrunk, which stop at the first empty row and skip rows
    equal to their neighbour, list the same moves as a scan over every row,
    and so give that_matrix the rows and columns the full scans allow."""
    for n in range(max_size + 1):
        for mu in enumerate_partitions(d, n) if n else [()]:
            assert _grown(mu, d) == _full_scan_grown(mu, d)
            assert _shrunk(mu) == _full_scan_shrunk(mu)
            for m in (n, n + 1):
                for mupp in enumerate_partitions(d - 1, m) if m and d > 1 else [()]:
                    assert _grown(mupp, d - 1) == _full_scan_grown(mupp, d - 1)
                    assert _shrunk(mupp) == _full_scan_shrunk(mupp)
                    rows = [j for j, lam in _grown(mu, d) if interlaces(mupp, lam)]
                    cols = [(0, mupp)] + _shrunk(mupp)
                    cols = [(jp, mup) for jp, mup in cols if interlaces(mup, mu)]
                    assert rows == _full_scan_rows(mu, mupp, d)
                    assert cols == _full_scan_cols(mu, mupp, d)


def _padded_structural_zero(mu, j, mup, jp, d):
    """is_structural_zero by editing padded lists: mu' interlaces mu,
    mu + e_j and mu' + e_j' are partitions, and the second interlaces the
    first."""
    mu = pad(mu, d)
    mup = pad(mup, d - 1) if d > 1 else ()
    if not interlaces(mup, mu):
        return True
    new_mu = list(mu)
    new_mu[j - 1] += 1
    if not is_partition(new_mu):
        return True
    new_mup = list(mup)
    if jp >= 1:
        new_mup[jp - 1] += 1
        if not is_partition(new_mup):
            return True
    return not interlaces(tuple(new_mup), tuple(new_mu))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_structural_zeros_match_the_padded_list_rules(d):
    seen = set()
    for n in range(5):
        for mu in enumerate_partitions(d, n):
            for m in (n - 1, n, n + 1):
                for mup in enumerate_partitions(d - 1, m) if m > 0 and d > 1 else [()]:
                    for j in range(1, d + 1):
                        for jp in range(d):
                            zero = is_structural_zero(mu, j, mup, jp, d)
                            assert zero == _padded_structural_zero(mu, j, mup, jp, d)
                            seen.add(zero)
    # at d = 1 every shape is one row and every coefficient is 1
    assert seen == ({False} if d == 1 else {True, False})


def _fraction_wigner(mu, j, mup, jp, d):
    """_reduced_wigner's product formula with the ratio taken as an exact
    Fraction before the one rounding to float."""
    if d == 1:
        return 1.0
    mt = [x + d - i for i, x in enumerate(pad(mu, d), 1)]
    mpt = [x + d - 1 - i for i, x in enumerate(pad(mup, d - 1), 1)]
    den = math.prod(mt[j - 1] - mt[s] for s in range(d) if s != j - 1)
    if jp == 0:
        num = math.prod(mt[j - 1] - mpt[s] for s in range(d - 1))
        return math.sqrt(abs(Fraction(num, den)))
    sign_part = math.prod(mpt[jp - 1] - mt[t] + 1 for t in range(d) if t != j - 1)
    num = sign_part * math.prod(mt[j - 1] - mpt[s] for s in range(d - 1) if s != jp - 1)
    den *= math.prod(mpt[jp - 1] - mpt[t] + 1 for t in range(d - 1) if t != jp - 1)
    value = math.sqrt(abs(Fraction(num, den)))
    return -value if sign_part < 0 else value


def test_reduced_wigner_float_ratio_is_the_fraction_ratio(monkeypatch):
    # int / int is correctly rounded, as float(Fraction) is, so the two
    # formulas agree bit for bit on every coefficient a build reads; the
    # build evaluates it at rank min(d, len(mu) + 2), the oracle at the full d
    seen = set()
    formula = wigner._reduced_wigner

    def record(*key):
        seen.add(key)
        return formula(*key)

    monkeypatch.setattr(wigner, "_reduced_wigner", record)
    # start from no kept triplets, so that every coefficient is read again
    monkeypatch.setattr(wigner, "_TRIPLETS", {})
    for d in range(1, 13):
        cg_triplets([lam for n in range(6) for lam in enumerate_partitions(d, n)], d)
    assert len(seen) > 3000
    assert any(d > len(mu) + 2 for mu, *_, d in seen)
    for key in seen:
        assert formula(*key) == _fraction_wigner(*key), key


def test_cg_build_pads_no_shape_past_two_rows_below_it(monkeypatch):
    # a coefficient depends on the two shapes, not on d: the build never
    # forms more shifted rows than a shape's length + 2, even at d = 64
    asked = []

    def record(lam, d):
        asked.append(d - len(normalize(lam)))
        return shifted(lam, d)

    shifted = wigner._shifted
    monkeypatch.setattr(wigner, "_shifted", record)
    monkeypatch.setattr(combinatorics, "_shifted", record)
    monkeypatch.setattr(wigner, "_TRIPLETS", {})
    combinatorics.dim_q.cache_clear()
    cg_triplets([()], 64)
    assert asked and max(asked) <= 2


def _shapes(d, max_size):
    """Partitions of at most max_size boxes whose CG block at rank d has at
    most 2048 columns: at d = 32 these are () and (1,)."""
    return [
        lam
        for n in range(max_size + 1)
        for lam in enumerate_partitions(d, n)
        if d * dim_q(lam, d) <= 2048
    ]


@pytest.mark.parametrize("d", [2, 3, 5, 6, 32])
def test_cg_block_is_unitary(d):
    for lam in _shapes(d, 4):
        block = cg_block(lam, d)
        assert block.unitarity_residual() < 1e-12
        assert block.matrix.shape[0] == block.matrix.shape[1]


def test_cg_block_rejects_d_below_one():
    with pytest.raises(ValueError, match="d must be >= 1"):
        cg_block((), 0)


def test_cg_block_is_unitary_d4():
    for lam in [(), (1,), (2, 1), (1, 1, 1, 1), (2, 2)]:
        assert cg_block(lam, 4).unitarity_residual() < 1e-12


def test_cg_block_checks_the_dense_cap_first(monkeypatch):
    monkeypatch.setenv("SCHURKIT_DENSE_CAP", "8")
    assert cg_block((), 8).matrix.shape == (8, 8)
    with pytest.raises(ValueError, match="exceeds cap"):
        cg_block((1,), 3)  # 3 x dim_q((1,), 3) = 9 columns


def test_cg_block_keeps_no_block_after_returning():
    """No dense block outlives its call: once the block of (1,) at d = 32 is
    dropped, the package holds less than that block's size, the triplets it
    keeps per (shape, rank) included.  Measured in a fresh interpreter, so
    no earlier call has warmed a cache."""
    code = (
        "import gc, tracemalloc\n"
        "tracemalloc.start()\n"
        "from schurkit.wigner import cg_block\n"
        "base = tracemalloc.get_traced_memory()[0]\n"
        "block = cg_block((1,), 32)\n"
        "nbytes = block.matrix.nbytes\n"
        "del block\n"
        "gc.collect()\n"
        "print(nbytes, tracemalloc.get_traced_memory()[0] - base)\n"
    )
    src = os.path.dirname(os.path.dirname(schurkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    nbytes, retained = map(int, out.stdout.split())
    assert nbytes == 1024 * 1024 * 8
    assert retained < nbytes


@pytest.mark.parametrize("d", [2, 3])
def test_cg_output_blocks_cover_add_box_once_each(d):
    for lam in enumerate_partitions(d, 3):
        blocks = cg_output_blocks(lam, d)
        assert [lp for lp, _ in blocks] == add_box(lam, d)
        total = sum(sl.stop - sl.start for _, sl in blocks)
        assert total == dim_q(lam, d) * d
        for lp, sl in blocks:
            assert sl.stop - sl.start == dim_q(lp, d)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 32])
def test_cg_block_preserves_weight(d):
    """Coupling adds the qudit value to the pattern weight: entries vanish
    unless weight(out) = weight(in) + e_i."""
    for lam in _shapes(d, 3):
        block = cg_block(lam, d)
        ids = {}
        out_w = [ids.setdefault(gz_weight(g), len(ids)) for _, g in block.row_labels]
        grown = [
            tuple(w + (k == i - 1) for k, w in enumerate(gz_weight(q)))
            for q, i in block.col_labels
        ]
        in_w = [ids.setdefault(w, len(ids)) for w in grown]
        allowed = np.equal.outer(out_w, in_w)
        assert not block.matrix[~allowed].any()


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_cg_triplets_are_the_nonzeros_of_cg_block(d):
    shapes = _shapes(d, 3)
    together = cg_triplets(shapes, d)
    for lam in shapes:
        rows, cols, vals = cg_triplets([lam], d)[lam]
        assert all(np.array_equal(a, b) for a, b in zip(together[lam], (rows, cols, vals)))
        assert np.all(np.diff(rows) >= 0) and np.all(vals != 0.0)
        m = cg_block(lam, d).matrix
        assert len(vals) == np.count_nonzero(m)
        assert np.array_equal(m[rows, cols], vals)
