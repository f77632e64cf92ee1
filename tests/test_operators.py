import numpy as np
import pytest
from conftest import haar_unitary, random_permutation

from schurkit.operators import (
    DenseOperator,
    _image_indices,
    collective_unitary,
    permutation_action,
    permute_columns_like,
    real_complex_matmul,
    right_multiply_collective,
)
from schurkit.permutations import all_permutations, compose


def test_dense_operator_labels_and_lookup():
    op = DenseOperator(np.arange(6).reshape(2, 3), ["a", "b"], ["x", "y", "z"])
    assert op.shape == (2, 3)
    assert op["b", "z"] == 5
    assert op.dagger().shape == (3, 2)
    with pytest.raises(ValueError):
        DenseOperator(np.eye(2), ["only-one"], ["a", "b"])


def test_permutation_action_convention():
    # the qudit at position k moves to position s(k)
    d = 2
    s = (2, 3, 1)  # position 1 -> 2, 2 -> 3, 3 -> 1
    p = permutation_action(s, d)
    basis = np.zeros(8)
    basis[0b011] = 1.0  # |0 1 1>
    out = p @ basis
    # digit from position 1 (0) lands at position 2, etc: |1 0 1>
    assert out[0b101] == 1.0


def test_permutation_action_is_a_representation():
    d, n = 2, 3
    for s in all_permutations(n):
        for t in all_permutations(n):
            lhs = permutation_action(compose(s, t), d)
            rhs = permutation_action(s, d) @ permutation_action(t, d)
            assert np.array_equal(lhs, rhs)


def test_permute_columns_like_matches_dense_product(rng):
    d, n = 2, 4
    m = rng.normal(size=(5, d**n))
    s = random_permutation(rng, n)
    assert np.array_equal(
        permute_columns_like(m, s, d), m @ permutation_action(s, d)
    )
    # the index maps of a (k, n) stack are those of each permutation in turn
    for d, n in [(1, 3), (2, 1), (2, 4), (3, 3), (4, 2)]:
        perms = all_permutations(n)
        stacked = _image_indices(perms, d)
        assert stacked.shape == (len(perms), d**n)
        for row, s in zip(stacked, perms):
            assert np.array_equal(row, _image_indices(s, d))
            assert np.array_equal(row, permutation_action(s, d).argmax(axis=0))


def test_collective_unitary(rng):
    u = haar_unitary(rng, 2)
    big = collective_unitary(u, 3)
    assert np.abs(big - np.kron(u, np.kron(u, u))).max() < 1e-12


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 2), (1, 3)])
def test_collective_unitary_is_the_kron_chain(rng, shape):
    # rectangular factors are what collective_split passes
    u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    chain = np.array([[1.0]])
    for n in range(7):
        got = collective_unitary(u, n)
        assert got.shape == chain.shape and np.abs(got - chain).max() <= 1e-12
        chain = np.kron(chain, u)
    assert collective_unitary(np.eye(2, dtype=int), 2).dtype == np.float64


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 3)])
def test_right_multiply_collective_matches_dense_product(rng, d, n):
    u = haar_unitary(rng, d)
    for m in (rng.normal(size=(5, d**n)), rng.normal(size=(1, d**n)) + 1j):
        expected = m @ collective_unitary(u, n)
        assert np.abs(right_multiply_collective(m, u, n) - expected).max() < 1e-12
    with pytest.raises(ValueError):
        right_multiply_collective(np.eye(3), u, n)


def test_real_complex_matmul_matches_dense(rng):
    a = rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.abs(real_complex_matmul(a, b) - a @ b).max() < 1e-12
    assert np.abs(real_complex_matmul(b, a) - b @ a).max() < 1e-12
    assert np.abs(real_complex_matmul(b, b) - b @ b).max() < 1e-12
    assert np.abs(real_complex_matmul(a, a) - a @ a).max() < 1e-12

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    pairs = [
        (rng.normal(size=(5, 7)), cplx(7)),  # a vector
        (rng.normal(size=7), cplx(7, 3)),
        (rng.normal(size=(5, 7)), cplx(7, 3)),  # rectangular
        (rng.normal(size=(5, 7)).T, cplx(3, 5).T),  # strided operands
        (rng.normal(size=(4, 3, 3)), cplx(4, 3, 6)),  # a stack of blocks
        (cplx(5, 7), rng.normal(size=(7, 3))),  # complex x real
        (cplx(7), rng.normal(size=(7, 3))),
        (cplx(5, 7), rng.normal(size=7)),
        (cplx(4, 6, 3), rng.normal(size=(4, 3, 3))),
    ]
    for x, y in pairs:
        want = np.matmul(x, y)
        got = real_complex_matmul(x, y)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-12
        out = np.empty_like(want)
        assert real_complex_matmul(x, y, out=out) is out
        assert np.abs(out - want).max() <= 1e-12
    # out= on a stack writes into the rows of a larger array it views
    blocks, part = rng.normal(size=(3, 4, 4)), cplx(3, 4, 5)
    big = np.zeros((20, 5), dtype=complex)
    real_complex_matmul(blocks, part, out=big[4:16].reshape(3, 4, 5))
    assert not big[:4].any() and not big[16:].any()
    assert np.abs(big[4:16].reshape(3, 4, 5) - blocks @ part).max() <= 1e-12
