import cmath
import ast
import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import teleportsim
from teleportsim.qcore import (
    DENSITY_TOL,
    NORM_TOL,
    I,
    X,
    Z,
    ZX,
    DensityMatrix,
    Gate,
    Ket,
    Projector,
    apply_gate,
    bell_basis,
    bell_state_vectors,
    born_measure,
    fidelity,
    ket_from_amplitudes,
    normalized_amplitudes,
    purity,
    seeded_stream,
    to_density,
)
from teleportsim.qcore import _GATE_ROWS, _first_word, _lifted_projectors

import support
from support import SINGLET, SQRT_HALF, _first_draw, random_qubit


def computational_basis():
    return (
        Projector(np.diag([1.0, 0.0]), "0"),
        Projector(np.diag([0.0, 1.0]), "1"),
    )


# ---------------------------------------------------------------- Ket

def test_ket_from_amplitudes_basis():
    assert np.allclose(ket_from_amplitudes(1, 0).amplitudes, [1, 0], rtol=0, atol=1e-15)


def test_ket_from_amplitudes_normalizes():
    psi = ket_from_amplitudes(1, 1)
    assert np.allclose(psi.amplitudes, [SQRT_HALF, SQRT_HALF], rtol=0, atol=1e-15)


def test_ket_from_amplitudes_complex_case():
    psi = ket_from_amplitudes(3, 4j)
    assert np.allclose(psi.amplitudes, [0.6, 0.8j], rtol=0, atol=1e-15)


def test_ket_from_amplitudes_rejects_zero_vector():
    with pytest.raises(ValueError, match="do not define"):
        ket_from_amplitudes(0, 0)


# ---------------------------------------------------------------- normalized_amplitudes

def signed_powers(low, high):
    """+-10^e with e uniform in [low, high]."""
    return st.builds(lambda e, negative: (-1.0 if negative else 1.0) * 10.0**e, st.floats(low, high), st.booleans())


ordinary_parts = signed_powers(-3.0, 3.0) | st.just(0.0)
extreme_scales = st.sampled_from([2.0**1000, 2.0**-1000, 1e300, 1e-300]) | signed_powers(-300.0, 300.0).map(abs)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[ordinary_parts] * 4), extreme_scales)
def test_normalized_amplitudes_are_scale_invariant(parts, k):
    assume(any(parts))
    a, b = complex(*parts[:2]), complex(*parts[2:])
    want = normalized_amplitudes(a, b)
    got = normalized_amplitudes(complex(k * a.real, k * a.imag), complex(k * b.real, k * b.imag))
    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-15
    assert abs(math.hypot(*(p for z in got for p in (z.real, z.imag))) - 1.0) <= NORM_TOL


def _sweep_formula(a, b):
    norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return complex(a.real / norm, a.imag / norm), complex(b.real / norm, b.imag / norm)


moderate_parts = signed_powers(-100.0, 100.0)


# A power-of-two prescale of these ordinary pairs would move a last bit,
# also where the largest part lies on an edge of _SQUARE_SAFE, 2^500 or 2^-500.
@example(3.273390607896142e+150, 1.896115527360844e+149, -1.0798115211919791e+150, 8.527400738015481e+149)
@example(3.054936363499605e-151, 3.0158138472171213e-151, 1.617326434823386e-151, 1.5511358726179443e-151)
@example(-0.03371122486833298, -0.4902698125589609, -0.17758829074147392, 7.583801934427046)
@example(0.33309485542470724, 0.06859111559592775, 0.02408921548802265, -9.652044207232224)
@example(30.037790005030434, -0.04704051890412, -0.10297260982439896, -0.07989616729931714)
@settings(max_examples=300, deadline=None)
@given(moderate_parts, moderate_parts, moderate_parts, moderate_parts)
def test_normalized_amplitudes_keep_the_sweep_formula_bit_for_bit(a_re, a_im, b_re, b_im):
    a, b = complex(a_re, a_im), complex(b_re, b_im)
    assert normalized_amplitudes(a, b) == _sweep_formula(a, b)


@pytest.mark.parametrize(
    "a, b, want",
    [
        (1e200, 0, (1, 0)),
        (1e-200, 0, (1, 0)),
        (5e-324, 0, (1, 0)),
        (0, -1.5e-310j, (0, -1j)),
        (complex(1.7e308, 1.7e308), 1.7e308, (complex(3**-0.5, 3**-0.5), 3**-0.5)),
    ],
)
def test_normalized_amplitudes_at_the_float64_extremes(a, b, want):
    assert normalized_amplitudes(a, b) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize(
    "a, b, message",
    [
        (0, 0, "do not define"),
        (float("nan"), 1, "non-finite"),
        (1, complex(0, float("inf")), "non-finite"),
    ],
)
def test_normalized_amplitudes_reject_non_finite_and_zero(a, b, message):
    with pytest.raises(ValueError, match=message):
        normalized_amplitudes(a, b)


def test_normalized_amplitudes_of_numpy_scalars_are_the_python_floats_answer():
    # float32 parts are read as the Python floats they equal, before any
    # arithmetic: no float32 rounding and no numpy warning.
    a, b = np.float32(0.6), np.float32(0.8)
    got, want = normalized_amplitudes(a, b), normalized_amplitudes(float(a), float(b))
    assert [type(z) for z in got] == [complex, complex]
    assert parts(got) == parts(want)


def test_ket_keeps_its_labels_as_a_tuple():
    psi = Ket([1, 0], ["1"])
    assert type(psi.labels) is tuple and psi.labels == ("1",)


@pytest.mark.parametrize(
    "amps, labels, message",
    [
        (np.eye(2), ("1",), "amplitudes must be a vector, got shape (2, 2)"),
        (np.full(16, 0.25), ("1", "2", "3", "4"), "expected 1 to 3 subsystem labels, got ('1', '2', '3', '4')"),
    ],
    ids=["matrix", "four-labels"],
)
def test_ket_rejects_a_matrix_and_four_labels(amps, labels, message):
    with pytest.raises(ValueError) as info:
        Ket(amps, labels)
    assert str(info.value) == message


# ---------------------------------------------------------------- values

def parts(values):
    """Each complex as the hex of its parts, so -0.0 and nan payloads count."""
    return [(z.real.hex(), z.imag.hex()) for z in values]


@pytest.mark.parametrize(
    "value, attrs",
    [
        (ket_from_amplitudes(0.6, 0.8j), ("entries", "amplitudes", "labels", "dim", "other")),
        (to_density(ket_from_amplitudes(0.6, 0.8j)), ("rows", "mat", "other")),
        (X, ("name", "mat", "rows", "other")),
    ],
    ids=["Ket", "DensityMatrix", "Gate"],
)
def test_values_refuse_assignment_and_deletion(value, attrs):
    for attr in attrs:
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)


@st.composite
def qubit_states(draw):
    """A one-qubit Ket from random parts, as ``ket_from_amplitudes`` or from
    an ndarray; signed zeros included."""
    part = st.one_of(st.floats(-1, 1), st.sampled_from([0.0, -0.0]))
    a, b = complex(draw(part), draw(part)), complex(draw(part), draw(part))
    assume(a != 0 or b != 0)
    psi = ket_from_amplitudes(a, b)
    return Ket(np.array(psi.entries), ("1",)) if draw(st.booleans()) else psi


@settings(max_examples=200, deadline=None)
@given(qubit_states())
def test_value_arrays_are_read_only_cached_and_equal_the_entries(psi):
    rho = to_density(psi)
    for value, array, entries in ((psi, "amplitudes", psi.entries), (rho, "mat", rho.rows[0] + rho.rows[1])):
        arr = getattr(value, array)
        assert arr.dtype == np.complex128
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
        assert getattr(value, array) is arr
        assert all(type(z) is complex for z in entries)
        assert parts(arr.ravel().tolist()) == parts(entries)
    assert psi.dim == len(psi.entries) == 2


# Constructor inputs and what the constructors do with them: "accept", a
# (type, message) rejection, or NUMPY for the error that numpy's own
# conversion to complex128 raises (its text is numpy's). Every input is read
# through that conversion, a tuple or list too, so an int above 2**53 is
# rounded to a float before the check.
NUMPY = "numpy"
NAN, INF = math.nan, math.inf
KET_INPUTS = {
    "ndarray": (np.array([0.6, 0.8]), "accept"),
    "ndarray-unnormalized": (np.array([1.0, 1.0]), (ValueError, "ket is not normalized: |amplitudes| = 1.4142135623730951")),
    "ndarray-inf": (np.array([np.inf, 0]), (ValueError, "amplitudes contain non-finite entries")),
    "ndarray-length-4": (np.array([1.0, 0, 0, 0]), (ValueError, "dimension 4 does not match 1 two-level subsystems")),
    "int-list": ([1, 0], "accept"),
    "int-tuple": ((0, 1), "accept"),
    "float-subclass": ([type("F", (float,), {})(1.0), 0.0], "accept"),
    "signed-zeros": ([complex(-0.0, -0.0), -1.0], "accept"),
    "signed-zeros-tuple": ((complex(-0.0, -0.0), 1.0), "accept"),
    "numpy-scalars": ((np.float64(0.6), np.complex128(0.8j)), "accept"),
    "numpy-ints": ((np.int64(1), np.int64(0)), "accept"),
    "bools": ([True, False], "accept"),
    "bools-unnormalized": ([True, True], (ValueError, "ket is not normalized: |amplitudes| = 1.4142135623730951")),
    "strings": (["0.6", "0.8j"], "accept"),
    "bytes": ([b"1", b"0"], "accept"),
    "malformed-string": (["abc", "0"], NUMPY),
    "None-entry": ([None, 1.0], (ValueError, "amplitudes contain non-finite entries")),
    "None": (None, (ValueError, "amplitudes must be a vector, got shape ()")),
    "scalar": (1.0, (ValueError, "amplitudes must be a vector, got shape ()")),
    "nested-2x1": (((1.0,), (0.0,)), (ValueError, "amplitudes must be a vector, got shape (2, 1)")),
    "ragged": ([1.0, [0.0]], NUMPY),
    "dict": ({0: 1.0, 1: 0.0}, NUMPY),
    "generator": ((z for z in [1.0, 0.0]), NUMPY),
    "length-0": ([], (ValueError, "dimension 0 does not match 1 two-level subsystems")),
    "length-1": ([1.0], (ValueError, "dimension 1 does not match 1 two-level subsystems")),
    "length-3": ([1.0, 0.0, 0.0], (ValueError, "dimension 3 does not match 1 two-level subsystems")),
    "length-4": ([1.0, 0, 0, 0], (ValueError, "dimension 4 does not match 1 two-level subsystems")),
    "2x3-array": (np.zeros((2, 3)), (ValueError, "amplitudes must be a vector, got shape (2, 3)")),
    "3d-array": (np.zeros((2, 1, 1)), (ValueError, "amplitudes must be a vector, got shape (2, 1, 1)")),
    "nan-real": ([NAN, 1.0], (ValueError, "amplitudes contain non-finite entries")),
    "nan-imag": ([complex(0, NAN), 1.0], (ValueError, "amplitudes contain non-finite entries")),
    "inf-real": ([INF, 0.0], (ValueError, "amplitudes contain non-finite entries")),
    "inf-imag": ([complex(1, -INF), 0.0], (ValueError, "amplitudes contain non-finite entries")),
    "huge-int": ([10**400, 0], (OverflowError, "int too large to convert to float")),
    "int-above-2**53": ([2**53 + 1, 0], (ValueError, "ket is not normalized: |amplitudes| = 9007199254740992.0")),
    "norm-overflow": ([1e200, 0.0], (ValueError, "ket is not normalized: |amplitudes| = inf")),
}
DENSITY_INPUTS = {
    "ndarray": (np.diag([0.5, 0.5]), "accept"),
    "int-rows": ([[1, 0], [0, 0]], "accept"),
    "mixed-rows": (([1.0, 0.0], (0.0, 0.0)), "accept"),
    "qubit-rows": ([[0.36, complex(0.48, 0.0)], [complex(0.48, -0.0), 0.64]], "accept"),
    "signed-zeros-tuple": (((1.0, complex(-0.0, -0.0)), (complex(-0.0, 0.0), -0.0)), "accept"),
    "float-subclass": ([[type("F", (float,), {})(1.0), 0.0], [0.0, 0.0]], "accept"),
    "numpy-scalars": (((np.float64(1.0), np.complex128(0)), (np.float64(0), np.float64(0))), "accept"),
    "array-rows": ([np.array([1.0, 0.0]), np.array([0.0, 0.0])], "accept"),
    "bools": ([[True, False], [False, False]], "accept"),
    "strings": ([["1", "0"], ["0", "0"]], "accept"),
    "malformed-string": ([["x", "0"], ["0", "0"]], NUMPY),
    "string-rows": (["10", "00"], (ValueError, "density matrix must be 2x2, got shape (2,)")),
    "None-entry": ([[None, 0], [0, 1]], (ValueError, "density matrix contains non-finite entries")),
    "None": (None, (ValueError, "density matrix must be 2x2, got shape ()")),
    "nested-2x1": (((1.0,), (0.0,)), (ValueError, "density matrix must be 2x2, got shape (2, 1)")),
    "flat-4": ([1.0, 0.0, 0.0, 0.0], (ValueError, "density matrix must be 2x2, got shape (4,)")),
    "2x3": ([[1.0, 0, 0], [0, 0, 0]], (ValueError, "density matrix must be 2x2, got shape (2, 3)")),
    "3x2": ([[1.0, 0], [0, 0], [0, 0]], (ValueError, "density matrix must be 2x2, got shape (3, 2)")),
    "2x3-array": (np.zeros((2, 3)), (ValueError, "density matrix must be 2x2, got shape (2, 3)")),
    "3d-array": (np.zeros((2, 2, 1)), (ValueError, "density matrix must be 2x2, got shape (2, 2, 1)")),
    "ragged": ([[1.0, 0.0], [0.0]], NUMPY),
    "dict-rows": ([{0: 1.0, 1: 0.0}, {0: 0.0, 1: 0.0}], NUMPY),
    "generator-rows": ([(z for z in [1.0, 0.0]), (z for z in [0.0, 0.0])], NUMPY),
    "nan": ([[NAN, 0], [0, 1]], (ValueError, "density matrix contains non-finite entries")),
    "nan-imag": ([[0.5, complex(0, NAN)], [0, 0.5]], (ValueError, "density matrix contains non-finite entries")),
    "inf": ([[INF, 0], [0, 1]], (ValueError, "density matrix contains non-finite entries")),
    "-inf-offdiagonal": ([[0.5, -INF], [0, 0.5]], (ValueError, "density matrix contains non-finite entries")),
    "skew-overflow": ([[0.5, 1.5e308 + 1.5e308j], [0, 0.5]], (ValueError, "density matrix is not Hermitian within tolerance")),
    "zero-trace": ([[-0.0, 0], [0, -0.0]], (ValueError, "density matrix trace is 0j, expected 1")),
    "negative-eigenvalue": ([[1.5, 0], [0, -0.5]], (ValueError, "density matrix has negative eigenvalue -0.5")),
    "huge-int": ([[10**400, 0], [0, 0]], (OverflowError, "int too large to convert to float")),
    "int-above-2**53": ([[2**53 + 1, 0], [0, 0]], (ValueError, "density matrix trace is (9007199254740992+0j), expected 1")),
}


def numpy_error(values):
    with pytest.raises(Exception) as info:
        np.array(values, dtype=np.complex128)
    return type(info.value), str(info.value)


def check_construction(build, values, expected, entries_of):
    if expected == "accept":
        value = build(values)
        assert parts(entries_of(value)) == parts(np.array(values, dtype=np.complex128).ravel().tolist())
        return
    kind, message = numpy_error(values) if expected == NUMPY else expected
    with pytest.raises(Exception) as info:
        build(values)
    assert (type(info.value), str(info.value)) == (kind, message)


@pytest.mark.parametrize("name", KET_INPUTS)
def test_ket_inputs_are_accepted_and_rejected_as_through_an_ndarray(name):
    values, expected = KET_INPUTS[name]
    check_construction(lambda v: Ket(v, ("1",)), values, expected, lambda psi: psi.entries)


@pytest.mark.parametrize("name", DENSITY_INPUTS)
def test_density_inputs_are_accepted_and_rejected_as_through_an_ndarray(name):
    values, expected = DENSITY_INPUTS[name]
    check_construction(DensityMatrix, values, expected, lambda rho: rho.rows[0] + rho.rows[1])


# ---------------------------------------------------------------- to_density

# A random state, then a basis state and |+>, whose entries are 1, 0 and 1/2,
# and |+i>, whose off-diagonal entries -i/2 and i/2 show which one is conjugated.
@pytest.mark.parametrize(
    "amps",
    [
        random_qubit(np.random.default_rng(20)),
        np.array([1.0, 0.0]),
        np.array([SQRT_HALF, SQRT_HALF]),
        np.array([SQRT_HALF, 1j * SQRT_HALF]),
    ],
    ids=["random", "basis", "plus", "plus-i"],
)
def test_to_density_against_outer_product_oracle(amps):
    rho = to_density(Ket(amps, ("1",)))
    expected = np.array(
        [[amps[i] * np.conj(amps[j]) for j in range(2)] for i in range(2)]
    )
    assert np.allclose(rho.mat, expected, rtol=0, atol=1e-12)
    assert purity(rho) == pytest.approx(1, abs=1e-12)


@pytest.mark.parametrize(
    "mat, message",
    [
        (np.diag([0.7, 0.7]), "density matrix trace is (1.4+0j), expected 1"),
        (np.diag([0.0, 0.0]), "density matrix trace is 0j, expected 1"),
        (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -0.5"),
        (np.array([[np.nan, 0], [0, 1]]), "density matrix contains non-finite entries"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "density matrix is not Hermitian within tolerance"),
        # The skew's modulus overflows float64 though every part is finite.
        (np.array([[0.5, 1.5e308 + 1.5e308j], [0, 0.5]]), "density matrix is not Hermitian within tolerance"),
    ],
    ids=["trace", "zero-trace", "eigenvalue", "nan", "not-hermitian", "skew-overflow"],
)
def test_density_matrix_messages_print_plain_numbers(mat, message):
    with pytest.raises(ValueError) as info:
        DensityMatrix(mat)
    assert str(info.value) == message


# A skew of exactly DENSITY_TOL, off the diagonal and as twice a diagonal
# imaginary part: only a skew above it is rejected. With both diagonal parts
# on that edge the trace is exactly 1 + 1e-10j, on the trace's edge as well.
@pytest.mark.parametrize("mat", [
    [[0.5, 1e-10], [0, 0.5]],
    [[0.5 + 0.5e-10j, 0], [0, 0.5]],
    [[0.5 + 0.5e-10j, 0], [0, 0.5 + 0.5e-10j]],
], ids=["off-diagonal", "diagonal", "trace"])
def test_density_matrix_accepts_a_skew_of_exactly_density_tol(mat):
    assert DENSITY_TOL == 1e-10 == 2 * 0.5e-10
    assert DensityMatrix(mat).rows == tuple(tuple(complex(z) for z in row) for row in mat)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DensityMatrix(np.eye(4) / 4), "density matrix must be 2x2, got shape (4, 4)"),
        (lambda: to_density(Ket(np.full(4, 0.5), ("1", "2"))), "psi must be a single-qubit Ket, got dimension 4"),
        (lambda: DensityMatrix(np.array([0.5, 0.5])), "density matrix must be 2x2, got shape (2,)"),
    ],
    ids=["DensityMatrix-4x4", "to_density-two-qubit-ket", "DensityMatrix-vector"],
)
def test_density_matrix_is_a_qubits_2x2_state(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


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
        return f"density matrix trace is {complex(tr)!r}, expected 1"
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


# A left-to-right sum of squares and BLAS's vdot round the norm up to this many
# ulps apart: 2 at 2 amplitudes and 3 at 8, over 200 000 random vectors.
VDOT_GAP_ULPS = 3


def ket_oracle(amps):
    """numpy's checks on a ket: (message start, vdot's norm) to reject amps
    with, or (None, None) to accept them."""
    if not np.isfinite(amps).all():
        return "amplitudes contain non-finite entries", None
    norm = math.sqrt(np.vdot(amps, amps).real)
    # Within the gap of 1 +- NORM_TOL the two norms may fall on either side.
    assume(abs(abs(norm - 1.0) - NORM_TOL) > VDOT_GAP_ULPS * math.ulp(norm))
    if abs(norm - 1.0) > NORM_TOL:
        return "ket is not normalized: |amplitudes| = ", norm
    return None, None


def left_to_right_norm(amps):
    """The norm Ket prints: the squared parts added left to right."""
    total = 0.0
    for z in amps.tolist():
        total += z.real * z.real
        total += z.imag * z.imag
    return math.sqrt(total)


@st.composite
def ket_amplitudes(draw):
    """2, 4 or 8 complex amplitudes: unstructured ones, signed zeros around a
    basis state, non-finite parts, and norms on or near 1 +- NORM_TOL."""
    size = 2 * draw(st.sampled_from([2, 4, 8]))
    kind = draw(st.sampled_from(["random", "zeros", "non-finite", "boundary"]))
    if kind == "random":
        parts = draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))
    elif kind == "zeros":
        parts = [draw(st.sampled_from([0.0, -0.0])) for _ in range(size)]
        scale = draw(st.sampled_from([1.0, -1.0, 0.0, 1.0 + 2 * NORM_TOL, 1.0 - NORM_TOL / 2]))
        parts[draw(st.integers(0, size - 1))] = scale
    else:
        direction = draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))
        length = math.hypot(*direction)
        assume(length > 0.1)
        norm = 1.0
        if kind == "boundary":
            norm += draw(st.sampled_from([1.0, -1.0])) * NORM_TOL + draw(near)
        parts = [norm * p / length for p in direction]
        if kind == "non-finite":
            parts[draw(st.integers(0, size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array([complex(re, im) for re, im in zip(parts[0::2], parts[1::2])])


@settings(max_examples=400, deadline=None)
@given(ket_amplitudes())
@example(np.array([complex(-0.0, -0.0), complex(-1.0, 0.0)]))
@example(np.array([complex(0.0, math.nan), 0j]))
# The two norms of this ket differ by 2 ulps.
@example(np.array([complex(0.1237378575341197, 0.0), complex(0.7298228536491811, 0.5302357341014016)]))
def test_qubit_ket_checks_match_numpy_oracle(amps):
    labels = ("1", "2", "3")[: len(amps).bit_length() - 1]
    expected, norm = ket_oracle(amps)
    if expected is None:
        assert np.array_equal(Ket(amps, labels).amplitudes, amps)
        return
    with pytest.raises(ValueError) as info:
        Ket(amps, labels)
    message = str(info.value)
    if norm is None:
        assert message == expected
    else:
        assert message.startswith(expected)
        assert float(message[len(expected):]) == left_to_right_norm(amps)


# ---------------------------------------------------------------- gates

@pytest.mark.parametrize("gate", [I, X, Z, ZX])
def test_gates_unitary(gate):
    # U^dagger U == I exactly, in Python complex arithmetic on the table.
    columns = list(zip(*gate.rows))
    product = [[sum(u.conjugate() * v for u, v in zip(left, right)) for right in columns] for left in columns]
    assert product == [[1, 0], [0, 1]]
    assert {z for row in gate.rows for z in row} <= {0, 1, -1}


GATE_TAKES_ONLY_A_NAME = "Gate.__init__() takes 2 positional arguments but 3 were given"


@pytest.mark.parametrize(
    "args, error, message",
    [
        (("H",), ValueError, "unknown gate name 'H'"),
        # A gate is its name: a caller's matrix, of any shape, unitary or
        # not, NaN or the table itself, is refused, never ignored.
        (("X", np.eye(3)), TypeError, GATE_TAKES_ONLY_A_NAME),
        (("X", [[1, 1], [0, 1]]), TypeError, GATE_TAKES_ONLY_A_NAME),
        (("X", np.eye(2)), TypeError, GATE_TAKES_ONLY_A_NAME),
        (("ZX", X.mat), TypeError, GATE_TAKES_ONLY_A_NAME),
        (("Z", [[1, 0], [0, math.nan]]), TypeError, GATE_TAKES_ONLY_A_NAME),
    ],
    ids=["name", "shape", "unitary", "identity-as-X", "X-as-ZX", "nan"],
)
def test_gate_rejects_bad_inputs(args, error, message):
    with pytest.raises(error) as info:
        Gate(*args)
    assert str(info.value) == message


def test_zx_is_x_then_z():
    assert np.array_equal(ZX.mat, Z.mat @ X.mat)
    assert set(_GATE_ROWS) == {"I", "X", "Z", "ZX"}


def test_zx_table_keeps_the_negative_zero_of_numpys_product():
    # ZX was numpy's Z @ X, whose lower-right real part is -0.0; the protocol's
    # corrected pairs keep the zero signs they had with it.
    assert parts(ZX.rows[0] + ZX.rows[1]) == parts((0j, 1 + 0j, -1 + 0j, complex(-0.0, 0.0)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: X,
        lambda: ZX,
        lambda: Gate("X"),
        lambda: Gate("Z"),
        lambda: Gate("ZX"),
    ],
    ids=["X", "ZX", "X-ints", "Z-ndarray", "ZX-mixed"],
)
def test_gate_arrays_are_read_only_cached_and_equal_the_table(build):
    gate = build()
    assert gate.rows is Gate(gate.name).rows is _GATE_ROWS[gate.name]
    assert eval(repr(gate)).rows is gate.rows  # repr is Gate('X'): the constructor call
    arr = gate.mat
    assert arr.dtype == np.complex128
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 1.0
    assert gate.mat is arr
    assert parts(arr.ravel().tolist()) == parts(gate.rows[0] + gate.rows[1])


def test_ndarray_inputs_are_read_not_kept():
    # An ndarray input is converted only to read its entries; the value's own
    # array is built from those entries on first read.
    amps, mat = np.array([0.6, 0.8j]), np.eye(2) / 2
    psi, rho = Ket(amps, ("1",)), DensityMatrix(mat)
    assert "amplitudes" not in vars(psi) and "mat" not in vars(rho)
    assert psi.amplitudes is not amps and np.array_equal(psi.amplitudes, amps)
    assert rho.mat is not mat and np.array_equal(rho.mat, mat)


def test_importing_the_package_builds_no_value_array():
    src = os.path.dirname(os.path.dirname(teleportsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import teleportsim.cli\n"
        "from teleportsim import qcore\n"
        "assert not any('mat' in vars(g) for g in (qcore.I, qcore.X, qcore.Z, qcore.ZX))\n"
        "assert qcore.bell_state_vectors.cache_info().currsize == 0\n"
        "assert qcore.bell_basis.cache_info().currsize == 0\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_apply_gate_x_flips():
    assert np.allclose(apply_gate(ket_from_amplitudes(1, 0), X, 0).amplitudes, [0, 1], rtol=0, atol=1e-15)


def test_apply_gate_z_phases():
    out = apply_gate(ket_from_amplitudes(1, 1), Z, 0)
    assert np.allclose(out.amplitudes, [SQRT_HALF, -SQRT_HALF], rtol=0, atol=1e-15)


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
    assert np.allclose(out.amplitudes, oracle, rtol=0, atol=1e-12)


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
    assert np.allclose(projectors[3].mat @ psi_minus, psi_minus, rtol=0, atol=1e-12)
    assert np.allclose(projectors[0].mat @ psi_minus, np.zeros(4), rtol=0, atol=1e-12)


def test_bell_basis_mutually_orthogonal():
    projectors = bell_basis()
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            product = p.mat @ q.mat
            expected = p.mat if i == j else np.zeros((4, 4))
            assert np.abs(product - expected).max() <= 1e-12


def test_bell_basis_is_built_once_so_its_lifted_projectors_are_reused():
    assert bell_basis() is bell_basis()
    joint = Ket(np.kron([1.0, 0.0], SINGLET), ("1", "2", "3"))
    _lifted_projectors.cache_clear()
    for _ in range(2):
        born_measure(joint, bell_basis(), (0, 1), seeded_stream(0))
    info = _lifted_projectors.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# [[1, d], [0, 0]] is exactly idempotent, so only the Hermitian check sees d;
# [[0, d], [d, 0]] is exactly Hermitian, and its square minus itself is
# [[d^2, -d], [-d, d^2]], so only the idempotent check sees d. Each check
# accepts a defect of exactly NORM_TOL and rejects one ulp past it.
PAST_NORM_TOL = math.nextafter(NORM_TOL, math.inf)


@pytest.mark.parametrize("d", [NORM_TOL, -NORM_TOL, 1j * NORM_TOL])
def test_projector_accepts_a_defect_of_exactly_norm_tol(d):
    for mat in ([[1, d], [0, 0]], [[0, d], [np.conj(d), 0]]):
        assert Projector(mat, "p").mat.tolist() == np.array(mat, dtype=complex).tolist()


def test_projector_rejects_non_idempotent():
    with pytest.raises(ValueError, match="idempotent"):
        Projector(np.diag([0.5, 0.5]), "half")


@pytest.mark.parametrize(
    "mat, message",
    [
        (np.zeros((2, 3)), "projector must be square, got shape (2, 3)"),
        (np.array([[0, 1], [0, 0]]), "projector 'p' is not Hermitian"),
        ([[1, PAST_NORM_TOL], [0, 0]], "projector 'p' is not Hermitian"),
        ([[0, PAST_NORM_TOL], [PAST_NORM_TOL, 0]], "projector 'p' is not idempotent"),
    ],
    ids=["not-square", "not-hermitian", "hermitian-one-ulp-past-tol", "idempotent-one-ulp-past-tol"],
)
def test_projector_rejects_bad_matrices(mat, message):
    with pytest.raises(ValueError) as info:
        Projector(mat, "p")
    assert str(info.value) == message


# ---------------------------------------------------------------- born_measure

def test_born_measure_deterministic_outcome():
    outcome, post, prob = born_measure(
        ket_from_amplitudes(1, 0), computational_basis(), (0,), seeded_stream(0)
    )
    assert outcome == 0
    assert prob == pytest.approx(1, abs=1e-12)
    assert np.allclose(post.amplitudes, [1, 0], rtol=0, atol=1e-15)


def test_born_measure_takes_its_targets_as_any_sequence():
    # The lifted projectors are cached by their targets as a tuple, so a
    # list or a range gives the tuple's draw.
    psi = Ket(np.kron([0.6, 0.8j], SINGLET), ("1", "2", "3"))
    want = born_measure(psi, bell_basis(), (0, 1), seeded_stream(5))
    for targets in ([0, 1], range(2)):
        outcome, post, prob = born_measure(psi, bell_basis(), targets, seeded_stream(5))
        assert (outcome, post.entries, prob) == (want[0], want[1].entries, want[2])


def test_born_measure_reports_exact_probability():
    psi = ket_from_amplitudes(1, 1)
    for seed in range(8):
        outcome, post, prob = born_measure(
            psi, computational_basis(), (0,), seeded_stream(seed)
        )
        assert prob == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros(2)
        expected[outcome] = 1.0
        assert np.allclose(post.amplitudes, expected, rtol=0, atol=1e-12)


def test_born_measure_bell_probabilities_quarter():
    rng = np.random.default_rng(23)
    for _ in range(10):
        amps = np.kron(random_qubit(rng), SINGLET)
        joint = Ket(amps, ("1", "2", "3"))
        _, _, prob = born_measure(joint, bell_basis(), (0, 1), seeded_stream(5))
        assert prob == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("labels", [("1", "2"), ("1", "2", "3")])
def test_born_measure_on_a_later_subsystem_matches_the_lifted_oracle(labels):
    # Target 1 follows subsystem 0, so each projector P is lifted to I (x) P,
    # and to I (x) P (x) I on three qubits.
    rng = np.random.default_rng(25)
    dim = 2 ** len(labels)
    projectors = computational_basis()
    seen = set()
    for seed in range(20):
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = Ket(amps / np.linalg.norm(amps), labels)
        outcome, post, prob = born_measure(psi, projectors, (1,), seeded_stream(seed))
        op = np.kron(np.kron(np.eye(2), projectors[outcome].mat), np.eye(dim // 4))
        projected = op @ psi.amplitudes
        expected = np.vdot(projected, projected).real
        assert prob == pytest.approx(expected, abs=1e-12)
        assert np.allclose(post.amplitudes, projected / np.sqrt(expected), rtol=0, atol=1e-12)
        seen.add(outcome)
    assert seen == {0, 1}


def test_born_measure_on_three_contiguous_targets_matches_the_basis_oracle():
    # The eight computational-basis projectors on all three qubits: outcome
    # k has probability |psi_k|^2 and leaves |k> up to phase.
    projectors = tuple(Projector(np.diag(np.eye(8)[k]), format(k, "03b")) for k in range(8))
    rng = np.random.default_rng(26)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = Ket(amps / np.linalg.norm(amps), ("1", "2", "3"))
    seen = set()
    for seed in range(40):
        outcome, post, prob = born_measure(psi, projectors, (0, 1, 2), seeded_stream(seed))
        assert prob == pytest.approx(abs(psi.amplitudes[outcome]) ** 2, abs=1e-12)
        assert abs(post.amplitudes[outcome]) == pytest.approx(1, abs=1e-12)
        seen.add(outcome)
    assert len(seen) > 4


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


def test_born_measure_rejects_targets_out_of_range():
    with pytest.raises(ValueError) as info:
        born_measure(ket_from_amplitudes(1, 0), computational_basis(), (1,), seeded_stream(0))
    assert str(info.value) == "targets (1,) out of range for labels ('1',)"


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
    with pytest.raises(ValueError, match="^psi must be a single-qubit Ket, got dimension 4$"):
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


# ---------------------------------------------------------------- the first draw of a seed

# The package's two seeded paths, one seed rule: numpy's stream and the
# protocol's first word, read as numpy's first draw.
_SEED_PATHS = {
    "seeded_stream": lambda seed: seeded_stream(seed).random(),
    "_first_draw": _first_draw,
}


@pytest.mark.parametrize("path", _SEED_PATHS.values(), ids=_SEED_PATHS)
@pytest.mark.parametrize("seed", [None, [1, 2], 1.5, "3"], ids=repr)
def test_both_seed_paths_reject_a_non_integer_seed_by_name(path, seed):
    # numpy alone would draw OS entropy for None and take [1, 2] as entropy.
    with pytest.raises(TypeError, match=rf"^seed must be an integer, not {type(seed).__name__}$"):
        path(seed)


def test_first_draw_rejects_a_negative_seed_as_seeded_stream_does():
    with pytest.raises(ValueError) as want:
        np.random.Philox(-1)
    for path in _SEED_PATHS.values():
        with pytest.raises(ValueError) as got:
            path(-1)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "seed",
    [0, 7, 2**63, 2**64, 2**70, 2**80, 2**130 + 5, True, False, np.int64(12), np.uint8(200), np.uint64(2**64 - 1)],
    ids=repr,
)
def test_every_accepted_seed_type_gives_one_first_draw_on_both_paths(seed):
    draws = {path(s).hex() for path in _SEED_PATHS.values() for s in (seed, int(seed))}
    assert draws == {np.random.Generator(np.random.Philox(int(seed))).random().hex()}


def _numpy_first_word(seed):
    return np.random.Philox(seed).random_raw()  # a Python int


def test_first_word_is_numpys_for_seeds_below_100_000():
    seeds = range(100_000)
    ours, theirs = list(map(_first_word, seeds)), list(map(_numpy_first_word, seeds))
    assert [s for s in seeds if ours[s] != theirs[s]] == []


# Each side of every 32-bit word boundary up to 2**192: at 2**128 the seed
# has a fifth word, the first mixed into the pool after it is full.
@pytest.mark.parametrize("seed", [2 ** (32 * k) + d for k in range(1, 7) for d in (-1, 0)])
def test_first_word_is_numpys_across_word_boundaries(seed):
    assert _first_word(seed) == _numpy_first_word(seed) == support.philox_words(seed, 1)[0]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**200))
@example(0)
@example(2**63)
@example(2**64)
@example(2**70)
def test_first_word_is_numpys_up_to_2_to_the_200(seed):
    assert _first_word(seed) == _numpy_first_word(seed) == support.philox_words(seed, 1)[0]
    assert _first_draw(seed).hex() == seeded_stream(seed).random().hex()


@pytest.mark.parametrize("seed", [0, 1, 2**62 + 12345, 2**64, 2**130 + 7])
def test_loop_form_oracle_is_numpys_philox_stream(seed):
    # Three blocks of four words: the counter, key schedule and every output
    # word of the oracle, not only the first one the protocol reads.
    assert support.philox_words(seed, 3) == np.random.Philox(seed).random_raw(12).tolist()


# What _first_word keeps bound from the key on, besides the cipher's registers.
_KEY_SCHEDULE = {"seed", "s", "m", "m64", "rest", "k0", "k1"}


@pytest.mark.parametrize("seed", [12345, 2**128 + 12345], ids=["small-seed", "large-seed"])
def test_first_word_holds_four_registers_under_the_cipher(seed):
    """From the key on, each line of the cipher holds at most four values
    beyond the seed, the masks and the key: its rotating registers. A word
    kept after its product is formed, or the word loop's last word for a
    large seed, would be a fifth."""
    counts = []

    def trace(frame, event, arg):
        if frame.f_code is not _first_word.__code__:
            return None
        if event == "line" and "k1" in frame.f_locals and "p0" not in frame.f_locals:
            counts.append(len(set(frame.f_locals) - _KEY_SCHEDULE))
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        word = _first_word(seed)
    finally:
        sys.settrace(previous)
    assert word == _numpy_first_word(seed)
    assert len(counts) == 24 and max(counts) == 4


# The literals of _first_word that are not the published constants folded:
# masks, shift counts, and the sign test of the seed.
_STRUCTURAL = {0, 16, 32, 64, 96, 128, support.MASK32, support.MASK64}


def test_first_word_literals_derive_from_the_published_constants():
    """Every integer literal of the unrolled kernel, in source order, is a
    shift, a mask, or one of the two algorithms' constants folded as the loop
    form in tests/support.py would use it at that step."""
    tree = ast.parse(inspect.getsource(_first_word))
    nodes = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and type(n.value) is int]
    literals = [n.value for n in sorted(nodes, key=lambda n: (n.lineno, n.col_offset))]

    xa = [support.INIT_A * support.MULT_A**j & support.MASK32 for j in range(17)]
    xb = [support.INIT_B * support.MULT_B**i & support.MASK32 for i in range(5)]
    mix = [support.MIX_MULT_L, -support.MIX_MULT_R & support.MASK32]
    (m0, m1), (w0, w1) = support.PHILOX_M, support.PHILOX_W
    expected = []
    for j in range(4):  # the seed's words hashed into the pool
        expected += [xa[j], xa[j + 1]]
    for j in range(4, 16):  # every pool word mixed into every other
        expected += [xa[j], xa[j + 1], *mix]
    expected += [xa[16], support.MULT_A, *mix]  # words past the fourth
    for i in range(4):  # generate_state
        expected += [xb[i], xb[i + 1]]
    expected += [m0, m1, w0, m0, w1]  # round 2, after round 1 gave (k0, 0, k1, M0)
    for r in range(2, 8):  # rounds 3 to 8
        expected += [m0, m1, r * w0 & support.MASK64, r * w1 & support.MASK64]
    expected += [m0, m1, 8 * w1 & support.MASK64]  # round 9, word 2 only
    expected += [m1, 9 * w0 & support.MASK64]  # round 10, word 0 only
    assert [x for x in literals if x not in _STRUCTURAL] == expected


def test_a_protocol_run_imports_no_numpy_random():
    src = os.path.dirname(os.path.dirname(teleportsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import teleportsim\n"
        "psi = teleportsim.ket_from_amplitudes(0.6, 0.8j)\n"
        "teleportsim.run_ideal(psi, 7)\n"
        "teleportsim.noisy_teleport(psi, teleportsim.EnvironmentModel(0.5, 1, 1), 7)\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})
