"""Input checks that no other test reaches: each case calls the public
function (or the schurkit command) in front of the check and expects its
ValueError with the current message."""

import re

import numpy as np
import pytest

from schurkit import cli
from schurkit.characters import character, young_orthogonal
from schurkit.combinatorics import (
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
