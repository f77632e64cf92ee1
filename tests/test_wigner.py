import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit.combinatorics import (
    add_box,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    gz_weight,
    normalize,
    pad,
)
from schurkit.wigner import (
    _valid_cols,
    _valid_rows,
    cg_block,
    cg_output_blocks,
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
    rows = [j - 1 for j in _valid_rows(mu, mupp, d)]
    cols = [jp for jp, _ in _valid_cols(mu, mupp, d)]
    valid = t[np.ix_(rows, cols)]
    assert np.abs(valid.T @ valid - np.eye(len(rows))).max() < 1e-12
    assert np.abs(t.T @ t - np.eye(d)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_cg_block_is_unitary(d):
    for n in range(0, 5):
        for lam in enumerate_partitions(d, n) if n else [()]:
            block = cg_block(lam, d)
            assert block.unitarity_residual() < 1e-12
            assert block.matrix.shape[0] == block.matrix.shape[1]


def test_cg_block_rejects_d_below_one():
    with pytest.raises(ValueError, match="d must be >= 1"):
        cg_block((), 0)


def test_cg_block_is_unitary_d4():
    for lam in [(), (1,), (2, 1), (1, 1, 1, 1), (2, 2)]:
        assert cg_block(lam, 4).unitarity_residual() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_cg_output_blocks_cover_add_box_once_each(d):
    for lam in enumerate_partitions(d, 3):
        blocks = cg_output_blocks(lam, d)
        assert [lp for lp, _ in blocks] == add_box(lam, d)
        total = sum(sl.stop - sl.start for _, sl in blocks)
        assert total == dim_q(lam, d) * d
        for lp, sl in blocks:
            assert sl.stop - sl.start == dim_q(lp, d)


@pytest.mark.parametrize("d", [2, 3])
def test_cg_block_preserves_weight(d):
    """Coupling adds the qudit value to the pattern weight: entries vanish
    unless weight(out) = weight(in) + e_i."""
    for lam in enumerate_partitions(d, 3):
        block = cg_block(lam, d)
        for r, (_, out_pattern) in enumerate(block.row_labels):
            for c, (in_pattern, i) in enumerate(block.col_labels):
                expected = tuple(
                    w + (1 if k == i - 1 else 0)
                    for k, w in enumerate(gz_weight(in_pattern))
                )
                if gz_weight(out_pattern) != expected:
                    assert block.matrix[r, c] == 0.0
