import cmath

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from teleportsim.qcore import (
    DENSITY_TOL,
    GATES,
    I,
    X,
    Z,
    ZX,
    DensityMatrix,
    Ket,
    Projector,
    apply_gate,
    bell_basis,
    bell_state_vectors,
    born_measure,
    fidelity,
    ket_from_amplitudes,
    purity,
    seeded_stream,
    to_density,
)

SQRT_HALF = np.sqrt(0.5)


def random_qubit(rng):
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return amps / np.linalg.norm(amps)


def computational_basis():
    return (
        Projector(np.diag([1.0, 0.0]), "0"),
        Projector(np.diag([0.0, 1.0]), "1"),
    )


# ---------------------------------------------------------------- Ket

def test_ket_from_amplitudes_basis():
    assert np.allclose(ket_from_amplitudes(1, 0).amplitudes, [1, 0])


def test_ket_from_amplitudes_normalizes():
    psi = ket_from_amplitudes(1, 1)
    assert np.allclose(psi.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15)


def test_ket_from_amplitudes_complex_case():
    psi = ket_from_amplitudes(3, 4j)
    assert np.allclose(psi.amplitudes, [0.6, 0.8j], atol=1e-15)


def test_ket_from_amplitudes_rejects_zero_vector():
    with pytest.raises(ValueError, match="do not define"):
        ket_from_amplitudes(0, 0)


def test_ket_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        Ket(np.array([1.0, 1.0]), ("1",))


def test_ket_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Ket(np.array([np.inf, 0]), ("1",))


def test_ket_rejects_label_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        Ket(np.array([1.0, 0, 0, 0]), ("1",))


def test_ket_amplitudes_are_read_only():
    psi = ket_from_amplitudes(1, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


# ---------------------------------------------------------------- to_density

def test_to_density_basis_state():
    assert np.allclose(to_density(ket_from_amplitudes(1, 0)).mat, np.diag([1, 0]))


def test_to_density_plus_state_all_halves():
    rho = to_density(ket_from_amplitudes(1, 1))
    assert np.allclose(rho.mat, np.full((2, 2), 0.5), atol=1e-15)


def test_to_density_against_outer_product_oracle():
    rng = np.random.default_rng(20)
    amps = random_qubit(rng)
    rho = to_density(Ket(amps, ("1",)))
    expected = np.array(
        [[amps[i] * np.conj(amps[j]) for j in range(2)] for i in range(2)]
    )
    assert np.allclose(rho.mat, expected, atol=1e-12)
    assert purity(rho) == pytest.approx(1, abs=1e-12)


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))


def density_oracle(mat):
    """The start of the message DensityMatrix must reject mat with, or None to
    accept it: Hermiticity, np.trace and np.linalg.eigvalsh, in that order."""
    skew = np.abs(mat - mat.conj().T).max()
    # numpy's array modulus and libm's hypot may differ in the last bit.
    assume(abs(skew - DENSITY_TOL) > 1e-25)
    if skew > DENSITY_TOL:
        return "density matrix is not Hermitian within tolerance"
    tr = np.trace(mat)
    if abs(tr - 1.0) > DENSITY_TOL:
        return f"density matrix trace is {tr!r}, expected 1"
    low = np.linalg.eigvalsh(mat)[0]
    # The closed-form eigenvalue and LAPACK's agree to ~1e-16; the boundary
    # case between them is no test of the decision.
    assume(abs(low + DENSITY_TOL) > 1e-14)
    if low < -DENSITY_TOL:
        return "density matrix has negative eigenvalue "
    return None


# A distance from a tolerance boundary: on it, or within +-1e-9 or +-1e-12 of it.
near = st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-1e-12, 1e-12))
angles = st.floats(0.0, 2 * np.pi)


@st.composite
def qubit_matrices(draw):
    """2x2 complex matrices: unstructured ones, and Hermitian ones put on or
    near one of DensityMatrix's boundaries (skew, trace, lower eigenvalue)."""
    boundary = draw(st.sampled_from(["skew", "trace", "eigenvalue", "none", "random", "hermitian"]))
    if boundary in ("random", "hermitian"):
        entries = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
        mat = np.array(draw(st.lists(entries, min_size=4, max_size=4))).reshape(2, 2)
        return mat if boundary == "random" else (mat + mat.conj().T) / 2
    trace = 1.0
    if boundary == "trace":
        trace += draw(st.sampled_from([1.0, -1.0])) * DENSITY_TOL + draw(near)
    if boundary == "eigenvalue":
        low = -DENSITY_TOL + draw(near)
    else:
        low = draw(st.sampled_from([-0.5, 0.0, 0.2, 0.5]))
    theta, phi, psi = draw(angles), draw(angles), draw(angles)
    c, s = np.cos(theta), np.sin(theta) * cmath.exp(1j * phi)
    u = np.array([[c, -s.conjugate()], [s, c]])
    mat = u @ np.diag([low, trace - low]) @ u.conj().T
    mat = (mat + mat.conj().T) / 2  # Hermitian to the last bit
    if boundary == "skew":
        skew = (DENSITY_TOL + draw(near)) * cmath.exp(1j * psi)
        where = draw(st.sampled_from([(0, 1), (1, 0), (0, 0), (1, 1)]))
        mat[where] += skew if where[0] != where[1] else 0.5j * abs(skew)
    return mat


@settings(max_examples=400, deadline=None)
@given(qubit_matrices())
@example(np.diag([-0.0, -0.0]).astype(complex))  # np.trace sums from +0: "0j"
def test_qubit_density_checks_match_eigvalsh_oracle(mat):
    expected = density_oracle(mat)
    if expected is None:
        assert np.array_equal(DensityMatrix(mat).mat, mat)
        return
    with pytest.raises(ValueError) as info:
        DensityMatrix(mat)
    assert str(info.value).startswith(expected)


# ---------------------------------------------------------------- gates

@pytest.mark.parametrize("gate", [I, X, Z, ZX])
def test_gates_unitary(gate):
    defect = gate.mat.conj().T @ gate.mat - np.eye(2)
    assert np.linalg.norm(defect) <= 1e-12


def test_zx_is_x_then_z():
    assert np.array_equal(ZX.mat, Z.mat @ X.mat)
    assert set(GATES) == {"I", "X", "Z", "ZX"}


def test_apply_gate_x_flips():
    assert np.allclose(apply_gate(ket_from_amplitudes(1, 0), X, 0).amplitudes, [0, 1])


def test_apply_gate_z_phases():
    out = apply_gate(ket_from_amplitudes(1, 1), Z, 0)
    assert np.allclose(out.amplitudes, [SQRT_HALF, -SQRT_HALF], atol=1e-15)


def test_apply_gate_zx_restores_swapped_negated_state():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a, b = random_qubit(rng)
        flipped = Ket(np.array([-b, a]), ("1",))
        restored = apply_gate(flipped, ZX, 0)
        overlap = np.vdot(np.array([a, b]), restored.amplitudes)
        assert abs(overlap) == pytest.approx(1, abs=1e-12)


def test_apply_gate_middle_target_matches_kron_oracle():
    rng = np.random.default_rng(22)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    psi = Ket(amps, ("1", "2", "3"))
    out = apply_gate(psi, X, 1)
    oracle = np.kron(np.kron(np.eye(2), X.mat), np.eye(2)) @ amps
    assert np.allclose(out.amplitudes, oracle, atol=1e-12)


def test_apply_gate_bad_index():
    with pytest.raises(ValueError, match="out of range"):
        apply_gate(ket_from_amplitudes(1, 0), X, 1)


# ---------------------------------------------------------------- bell basis

def test_bell_basis_complete():
    total = sum(p.mat for p in bell_basis())
    assert np.abs(total - np.eye(4)).max() <= 1e-12


def test_bell_basis_projects_own_state():
    projectors = bell_basis()
    vectors = bell_state_vectors()
    psi_minus = vectors[3]
    assert np.allclose(projectors[3].mat @ psi_minus, psi_minus, atol=1e-12)
    assert np.allclose(projectors[0].mat @ psi_minus, np.zeros(4), atol=1e-12)


def test_bell_basis_mutually_orthogonal():
    projectors = bell_basis()
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            product = p.mat @ q.mat
            expected = p.mat if i == j else np.zeros((4, 4))
            assert np.abs(product - expected).max() <= 1e-12


def test_projector_rejects_non_idempotent():
    with pytest.raises(ValueError, match="idempotent"):
        Projector(np.diag([0.5, 0.5]), "half")


# ---------------------------------------------------------------- born_measure

def test_born_measure_deterministic_outcome():
    outcome, post, prob = born_measure(
        ket_from_amplitudes(1, 0), computational_basis(), (0,), seeded_stream(0)
    )
    assert outcome == 0
    assert prob == pytest.approx(1, abs=1e-12)
    assert np.allclose(post.amplitudes, [1, 0])


def test_born_measure_reports_exact_probability():
    psi = ket_from_amplitudes(1, 1)
    for seed in range(8):
        outcome, post, prob = born_measure(
            psi, computational_basis(), (0,), seeded_stream(seed)
        )
        assert prob == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros(2)
        expected[outcome] = 1.0
        assert np.allclose(post.amplitudes, expected, atol=1e-12)


def test_born_measure_bell_probabilities_quarter():
    rng = np.random.default_rng(23)
    singlet = np.array([0, 1, -1, 0]) * SQRT_HALF
    for _ in range(10):
        amps = np.kron(random_qubit(rng), singlet)
        joint = Ket(amps, ("1", "2", "3"))
        _, _, prob = born_measure(joint, bell_basis(), (0, 1), seeded_stream(5))
        assert prob == pytest.approx(0.25, abs=1e-12)


def test_born_measure_frequencies_match_probabilities():
    psi = ket_from_amplitudes(0.6, 0.8)
    rng = seeded_stream(42)
    projectors = computational_basis()
    shots = 100_000
    ones = 0
    for _ in range(shots):
        outcome, _, _ = born_measure(psi, projectors, (0,), rng)
        ones += outcome
    p = 0.64
    sigma = np.sqrt(shots * p * (1 - p))
    assert abs(ones - shots * p) <= 3 * sigma


def test_born_measure_rejects_incomplete_set():
    zero_only = (Projector(np.diag([1.0, 0.0]), "0"),)
    with pytest.raises(ValueError, match="complete"):
        born_measure(ket_from_amplitudes(1, 0), zero_only, (0,), seeded_stream(0))


def test_born_measure_rejects_non_contiguous_targets():
    rng = np.random.default_rng(24)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = Ket(amps / np.linalg.norm(amps), ("1", "2", "3"))
    with pytest.raises(ValueError, match="contiguous"):
        born_measure(psi, bell_basis(), (0, 2), seeded_stream(0))


def test_born_measure_rejects_wrong_projector_dimension():
    with pytest.raises(ValueError, match="dimension"):
        born_measure(ket_from_amplitudes(1, 0), bell_basis(), (0,), seeded_stream(0))


# ---------------------------------------------------------------- fidelity

def test_fidelity_of_state_with_itself():
    rng = np.random.default_rng(25)
    psi = Ket(random_qubit(rng), ("1",))
    assert fidelity(psi, to_density(psi)) == pytest.approx(1, abs=1e-12)


def test_fidelity_against_maximally_mixed():
    mixed = DensityMatrix(np.eye(2) / 2)
    assert fidelity(ket_from_amplitudes(1, 0), mixed) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_against_quadratic_form_oracle():
    rng = np.random.default_rng(26)
    psi = Ket(random_qubit(rng), ("1",))
    rho = to_density(Ket(random_qubit(rng), ("1",)))
    expected = sum(
        np.conj(psi.amplitudes[i]) * rho.mat[i, j] * psi.amplitudes[j]
        for i in range(2)
        for j in range(2)
    )
    assert fidelity(psi, rho) == pytest.approx(expected.real, abs=1e-12)
    assert -1e-12 <= fidelity(psi, rho) <= 1 + 1e-12


@settings(max_examples=50)
@given(st.floats(0, 2 * np.pi))
def test_fidelity_invariant_under_global_phase(theta):
    psi = ket_from_amplitudes(0.6, 0.8j)
    rho = to_density(ket_from_amplitudes(1, 1j))
    rotated = Ket(np.exp(1j * theta) * psi.amplitudes, psi.labels)
    assert fidelity(rotated, rho) == pytest.approx(fidelity(psi, rho), abs=1e-12)


def test_fidelity_dimension_mismatch():
    rng = np.random.default_rng(27)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pair = Ket(amps / np.linalg.norm(amps), ("1", "2"))
    with pytest.raises(ValueError, match="mismatch"):
        fidelity(pair, to_density(ket_from_amplitudes(1, 0)))


def test_purity_of_maximally_mixed():
    assert purity(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------- rng stream

def test_seeded_stream_reproducible():
    a = seeded_stream(123).random(5)
    b = seeded_stream(123).random(5)
    c = seeded_stream(124).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
