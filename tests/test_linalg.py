import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from teleportsim.linalg import (
    eig2_hermitian,
    frobenius_distance,
    partial_trace,
    tensor_product,
)

from support import trace_out

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def complex_matrices(rows, cols):
    elements = st.floats(-1.0, 1.0)
    return st.tuples(
        arrays(np.float64, (rows, cols), elements=elements),
        arrays(np.float64, (rows, cols), elements=elements),
    ).map(lambda pair: pair[0] + 1j * pair[1])


# ---------------------------------------------------------------- input checks

def test_rejects_non_finite():
    bad = np.array([[np.nan, 0], [0, 1]])
    for call in (
        lambda: tensor_product(bad, np.eye(2)),
        lambda: partial_trace(bad, 2, 1, "A"),
        lambda: frobenius_distance(bad, np.eye(2)),
        lambda: eig2_hermitian(bad),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            call()


# ---------------------------------------------------------------- tensor_product

def test_tensor_identities():
    assert np.allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4), rtol=0, atol=1e-15)


def test_tensor_basis_vectors():
    zero = np.array([1, 0])
    one = np.array([0, 1])
    assert np.allclose(tensor_product(zero, one), [0, 1, 0, 0], rtol=0, atol=1e-15)


def test_tensor_against_index_formula():
    rng = np.random.default_rng(5)
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (2, 2))
    out = tensor_product(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert out[i * 2 + k, j * 2 + l] == pytest.approx(
                        a[i, j] * b[k, l], abs=1e-12
                    )


@pytest.mark.parametrize("shape_a", [(2,), (4,), (2, 2), (4, 4), (2, 4)])
@pytest.mark.parametrize("shape_b", [(2,), (8,), (2, 2), (4, 2)])
def test_tensor_product_is_kron(shape_a, shape_b):
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_complex(rng, shape_a)
        b = random_complex(rng, shape_b)
        out, want = tensor_product(a, b), np.kron(a, b)
        assert out.shape == want.shape
        assert out.tobytes() == want.tobytes()


@settings(max_examples=50)
@given(complex_matrices(2, 2), complex_matrices(2, 2), complex_matrices(2, 2))
def test_tensor_associative(a, b, c):
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    assert np.abs(left - right).max() <= 1e-12


# ---------------------------------------------------------------- partial_trace

def random_density(rng, dim):
    psi = random_complex(rng, dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def test_partial_trace_product_state():
    rng = np.random.default_rng(6)
    rho_env = random_density(rng, 2)
    rho_sys = random_density(rng, 2)
    joint = tensor_product(rho_env, rho_sys)
    assert np.allclose(partial_trace(joint, 2, 2, keep="B"), rho_sys, rtol=0, atol=1e-12)
    assert np.allclose(partial_trace(joint, 2, 2, keep="A"), rho_env, rtol=0, atol=1e-12)


def test_partial_trace_bell_state_is_maximally_mixed():
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = np.outer(phi_plus, phi_plus.conj())
    for keep in ("A", "B"):
        assert np.allclose(partial_trace(rho, 2, 2, keep=keep), np.eye(2) / 2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim_a,dim_b", [(2, 2), (4, 2), (2, 4)])
def test_partial_trace_against_index_oracle(dim_a, dim_b):
    rng = np.random.default_rng(7)
    rho = random_density(rng, dim_a * dim_b)
    for keep in ("A", "B"):
        expected = trace_out(rho, dim_a, dim_b, keep)
        assert np.allclose(partial_trace(rho, dim_a, dim_b, keep=keep), expected, rtol=0, atol=1e-12)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = random_complex(rng, (4, 4))
        hermitian = a + a.conj().T
        for keep in ("A", "B"):
            reduced = partial_trace(hermitian, 2, 2, keep=keep)
            assert abs(np.trace(reduced) - np.trace(hermitian)) <= 1e-12
            assert np.abs(reduced - reduced.conj().T).max() <= 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="expected"):
        partial_trace(np.eye(4), 2, 4, keep="A")


def test_partial_trace_bad_keep():
    with pytest.raises(ValueError, match="keep"):
        partial_trace(np.eye(4), 2, 2, keep="C")


def test_partial_trace_rejects_a_vector():
    with pytest.raises(ValueError) as info:
        partial_trace(np.full(4, 0.5), 2, 2, keep="A")
    assert str(info.value) == "rho must be 2-dimensional, got shape (4,)"


def test_tensor_product_rejects_a_3d_operand():
    with pytest.raises(ValueError) as info:
        tensor_product(np.ones((2, 2, 2)), np.eye(2))
    assert str(info.value) == "operands must be vectors or matrices, got shapes (2, 2, 2) and (2, 2)"


# ---------------------------------------------------------------- frobenius_distance

def test_frobenius_zero_on_equal():
    rng = np.random.default_rng(9)
    a = random_complex(rng, (2, 2))
    assert frobenius_distance(a, a) == 0.0


def test_frobenius_hand_computed_case():
    a = np.full((2, 2), 0.5)
    b = np.diag([0.5, 0.5])
    # two off-diagonal differences of 1/2: sqrt(2 * 1/4)
    assert frobenius_distance(a, b) == pytest.approx(1 / np.sqrt(2), abs=1e-15)


def test_frobenius_against_summation_oracle():
    rng = np.random.default_rng(10)
    a = random_complex(rng, (4, 4))
    b = random_complex(rng, (4, 4))
    expected = np.sqrt(sum(abs(a[i, j] - b[i, j]) ** 2 for i in range(4) for j in range(4)))
    assert frobenius_distance(a, b) == pytest.approx(expected, abs=1e-12)
    assert frobenius_distance(b, a) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=50)
@given(complex_matrices(2, 2), complex_matrices(2, 2), complex_matrices(2, 2))
def test_frobenius_triangle_inequality(a, b, c):
    assert frobenius_distance(a, c) <= frobenius_distance(a, b) + frobenius_distance(b, c) + 1e-10


def test_frobenius_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        frobenius_distance(np.eye(2), np.eye(4))


# ---------------------------------------------------------------- eig2_hermitian

def test_eig2_identity():
    assert eig2_hermitian(np.eye(2)) == pytest.approx((1, 1), abs=1e-15)


def test_eig2_sigma_z_ascending():
    assert eig2_hermitian(SIGMA_Z) == pytest.approx((-1, 1), abs=1e-15)


def test_eig2_characteristic_polynomial_residual():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = random_complex(rng, (2, 2))
        h = a + a.conj().T
        scale = 1 + np.abs(h).max()
        for lam in eig2_hermitian(h):
            residual = (h[0, 0] - lam) * (h[1, 1] - lam) - h[0, 1] * h[1, 0]
            assert abs(residual) <= 1e-9 * scale


def test_eig2_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig2_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig2_rejects_wrong_shape():
    with pytest.raises(ValueError, match="2x2"):
        eig2_hermitian(np.eye(3))
