"""Input checks that no other test reaches: each case calls the public
function (or the schurkit command) in front of the check and expects its
ValueError with the current message.  Branches that no other test reaches
follow the cases."""

import json
import math
import re

import numpy as np
import pytest

from schurkit import cli
from schurkit.characters import character, young_orthogonal
from schurkit.combinatorics import (
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    interlacing_partitions,
    kostka,
    multinomial,
    pad,
    parse_partition,
    weights_of_size,
    yy_unindex,
)
from schurkit.duality_checks import rho_blocks
from schurkit.operators import DenseOperator, permute_columns_like
from schurkit.qtypes import (
    classical_type_bounds,
    compress_rate,
    concentrate,
    sector_distribution,
    trace_bound_check,
    typical_mass,
)
from schurkit.schur_transform import schur
from schurkit.sn_fourier import gpe_measure
from schurkit.wigner import cg_triplets, reduced_wigner


def _command(*argv):
    """Run a schurkit command without main's handler, so that its
    ValueError reaches the caller."""
    args = cli._build_parser().parse_args(argv)
    args.func(args)


# name -> (a call that reaches the check, its message)
CASES = {
    # combinatorics
    "pad": (lambda: pad((1, 1), 1), "partition (1, 1) has more than 1 rows"),
    "enumerate_partitions-d": (lambda: enumerate_partitions(0, 1), "d must be >= 1"),
    "enumerate_partitions-n": (lambda: enumerate_partitions(1, -1), "n must be >= 0"),
    "interlacing_partitions": (
        lambda: interlacing_partitions((1, 1, 1), 1),
        "partition (1, 1, 1) has more than 2 rows",
    ),
    "multinomial": (lambda: multinomial(3, (1, 1)), "weight must sum to n"),
    "enumerate_gz": (lambda: enumerate_gz((1, 1), 1), "partition (1, 1) has more than 1 rows"),
    "yy_unindex": (lambda: yy_unindex((2, 1), 3), "index 3 out of range for shape (2, 1)"),
    "weights_of_size": (lambda: weights_of_size(0, 2), "d must be >= 1"),
    "kostka": (lambda: kostka((2, 1), (1, 1)), "shape and weight must have the same size"),
    # a --lambda of another size than --n reaches the Kostka rows
    "kostka-command": (
        lambda: _command("kostka", "--d", "3", "--n", "4", "--lambda", "2,1"),
        "shape and weight must have the same size",
    ),
    "parse_partition": (lambda: parse_partition("1,2"), "not a partition: '1,2'"),
    "dim_q": (lambda: dim_q((1, 1, 1), 2), "partition (1, 1, 1) has more than 2 rows"),
    # characters
    "character": (lambda: character((2, 1), (2,)), "lam and rho must partition the same n"),
    "young_orthogonal": (
        lambda: young_orthogonal((2, 1), (1, 2)),
        "permutation length must equal |lam|",
    ),
    # wigner
    "reduced_wigner": (
        lambda: reduced_wigner((1, 1), 1, (1,), 0, 1),
        "partition has too many rows for this rank",
    ),
    "cg_triplets": (lambda: cg_triplets([()], 0), "d must be >= 1"),
    # operators
    "DenseOperator": (lambda: DenseOperator(np.zeros(3)), "matrix must be two-dimensional"),
    "permute_columns_like": (
        lambda: permute_columns_like(np.zeros((2, 3)), (2, 1), 2),
        "column count must be d^n",
    ),
    # qtypes
    "prob_vector": (
        lambda: sector_distribution((1.5, -0.5), 2),
        "probabilities must be nonnegative",
    ),
    "classical_type_bounds": (
        lambda: classical_type_bounds((1, 1, 0), (0.5, 0.5)),
        "type and distribution must have equal length",
    ),
    "typical_mass": (lambda: typical_mass((0.5, 0.5), 2, 0.0), "delta must be positive"),
    "trace_bound_check": (lambda: trace_bound_check((2,), (0.5, 0.5), 3), "lam must partition n"),
    "compress_rate": (lambda: compress_rate((0.5, 0.5), 2, 0.0), "rate must be positive"),
    # dim_p((1000, 1000)) passes float64
    "sector_distribution-range": (
        lambda: sector_distribution((0.5, 0.5), 2000),
        "the sector masses at n = 2000 leave float64's range",
    ),
    "trace_bound_check-range": (
        lambda: trace_bound_check((1000, 1000), (0.5, 0.5), 2000),
        "the sector masses at n = 2000 leave float64's range",
    ),
    "rho-probs": (
        lambda: _command("rho", "--n", "2", "--r", "0.5,half"),
        "cannot parse probability vector: '0.5,half'",
    ),
    # the transform and its applications
    "rho_blocks": (lambda: rho_blocks(np.zeros((2, 3)), 2), "rho must be square"),
    "schur": (lambda: schur(0, 1), "need d >= 1 and n >= 1"),
    "gpe_measure": (lambda: gpe_measure(np.ones(3), 2, 2), "state length must be d^n"),
}

@pytest.mark.parametrize("name", CASES)
def test_input_check_raises_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_gpe_rejects_a_state_file_of_two_columns(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
    with pytest.raises(ValueError, match=re.escape("state file must be a matrix document with cols = 1")):
        _command("gpe", "--d", "2", "--n", "1", "--state", str(path))


def test_concentrate_leaves_the_sectors_a_product_state_misses_empty():
    # |00>^3 lies wholly in the symmetric sector (3): the other sector, (2, 1),
    # has weight 0, so its Schmidt values are empty
    report = concentrate(np.eye(4)[0], 3)
    assert list(report.outcome_weights) == [(3,), (2, 1)]
    assert report.outcome_weights[(3,)] == pytest.approx(1.0, abs=1e-12)
    assert len(report.schmidt_values[(2, 1)]) == 0
    assert math.isclose(sum(report.outcome_weights.values()), 1.0, abs_tol=1e-12)
    assert report.distortion_free_residual < 1e-10 and report.off_diagonal_mass < 1e-10
