"""The closed-form kernel against the exact oracles of ``support`` (a joint
state traced over its environment, and rational arithmetic), its
invariances and range bounds, the exact-replica condition, and the scale
extremes it must get right."""

import cmath
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from teleportsim.cli import SweepConfig, main
from teleportsim.envmodel import (
    DEGENERATE_TOL,
    DegenerateModelError,
    EnvironmentModel,
    _delta,
    _printed_entries,
    closed_form,
    deviation,
    deviation_closed_form_paper,
    direct_report,
    evolve,
    noisy_teleport,
    printed_deviation,
    reduced_state,
    reduced_state_paper_literal,
)
from teleportsim.qcore import (
    DensityMatrix, Ket, _check_normalized, _pure_density, _qubit_rows, fidelity, purity, to_density,
)

from support import (
    NEAR_DEGENERATE, SQRT_HALF, coefficients, coupled_joint, exact_point, exact_printed, exact_replica_terms,
    exact_rho3, exact_sqrt, overlaps, phases, qubits, traced_over_environment,
)

TOL = 1e-12

scales = st.floats(-150.0, 150.0).map(lambda k: 10.0**k)


def kept_by_scaling(c, scale):
    """``c * scale``, where scaling kept every nonzero part of ``c`` a normal
    float: a part that underflows to zero or into the subnormals changes the
    ratio of (c0, c1), which no scale invariance covers."""
    scaled = c * scale
    for part, kept in ((c.real, scaled.real), (c.imag, scaled.imag)):
        assume(part == 0 or abs(kept) >= sys.float_info.min)
    return scaled


def metrics(a, b, c0, c1, gamma):
    try:
        return closed_form(a, b, c0, c1, gamma)
    except DegenerateModelError:
        assume(False)


def oracle(a, b, env):
    """rho3 through ``support``'s joint state and a partial trace, and delta,
    fidelity and purity from ``support.exact_point``."""
    rho = traced_over_environment(coupled_joint(a, b, env.c0, env.c1, env.gamma))
    _, delta_sq, fid, pur = exact_point(a, b, env.c0, env.c1, env.gamma)
    return rho, float(exact_sqrt(delta_sq)), float(fid), float(pur)


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps, scales)
@example(ab=(8.71109270991109e-87j, 1j), c0=5.8464881218362925e-224j,
         c1=1.84794080076845e-257j, gamma=0j, scale=1e-67)
@example(ab=(SQRT_HALF, SQRT_HALF), c0=1e-172, c1=1.2345678e-172, gamma=0.5, scale=1e-150)
def test_kernel_matches_exact_oracle_at_any_scale(ab, c0, c1, gamma, scale):
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    form = metrics(a, b, kept_by_scaling(c0, scale), kept_by_scaling(c1, scale), gamma)
    rho, delta, fid, pur = oracle(a, b, EnvironmentModel(gamma, c0, c1))
    assert np.abs(np.array(form.rows(), dtype=np.complex128) - rho).max() <= TOL
    assert form.delta == pytest.approx(delta, abs=TOL)
    assert form.fidelity == pytest.approx(fid, abs=TOL)
    assert form.purity == pytest.approx(pur, abs=TOL)


def bits(x):
    """``x`` as float.hex(), which tells -0.0 from 0.0 as the CSV does."""
    return float(x).hex()


# Every sign of a zero overlap; -0.0 - 0.0j is complex(-0.0, 0.0).
SIGNED_ZERO_OVERLAPS = [0j, -0.0 - 0.0j, complex(0.0, -0.0), complex(-0.0, -0.0)]


@settings(max_examples=100, deadline=None)
@given(qubits(), coefficients, coefficients, st.lists(overlaps, min_size=1, max_size=6), scales)
@example(ab=(8.71109270991109e-87j, 1j), c0=5.8464881218362925e-224j,
         c1=1.84794080076845e-257j, gammas=[0j], scale=1e-67)
@example(ab=(1.0, 0.0), c0=SQRT_HALF, c1=SQRT_HALF, gammas=SIGNED_ZERO_OVERLAPS, scale=1.0)
@example(ab=(0.6, 0.8j), c0=SQRT_HALF, c1=-SQRT_HALF, gammas=SIGNED_ZERO_OVERLAPS, scale=1.0)
def test_batched_kernel_equals_scalar_calls_bit_for_bit(ab, c0, c1, gammas, scale):
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    batch = metrics(a, b, c0 * scale, c1 * scale, np.array(gammas))
    rho1 = to_density(Ket(np.array([a, b]), ("3",)))
    for k, gamma in enumerate(gammas):
        env = EnvironmentModel(gamma, c0 * scale, c1 * scale)
        point = closed_form(a, b, env.c0, env.c1, env.gamma)
        for field in ("rho01_re", "rho01_im", "delta", "fidelity", "purity"):
            assert bits(getattr(batch, field)[k]) == bits(getattr(point, field))
        assert (bits(batch.rho00), bits(batch.rho11)) == (bits(point.rho00), bits(point.rho11))
        assert bits(deviation(reduced_state(a, b, env), rho1)) == bits(batch.delta[k])
        # The oracle gets the model the kernel got: c * scale may underflow.
        rho = oracle(a, b, env)[0]
        assert np.abs(np.array(point.rows(), dtype=np.complex128) - rho).max() <= TOL


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps)
def test_rho1_is_exact_and_rho3_is_one_matrix_on_every_route(ab, c0, c1, gamma):
    # rho1 in real arithmetic: no fused multiply-add leaves an imaginary part
    # on the diagonal, and the lower off-diagonal is the upper one conjugated.
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    psi = Ket(np.array([a, b]), ("3",))
    rho1 = to_density(psi).mat
    assert rho1[0, 0].imag == 0.0 and rho1[1, 1].imag == 0.0
    assert rho1[0, 0].real == a.real * a.real + a.imag * a.imag
    assert rho1[1, 1].real == b.real * b.real + b.imag * b.imag
    assert rho1[1, 0] == np.conj(rho1[0, 1])
    env = EnvironmentModel(gamma, c0, c1)
    form = metrics(a, b, c0, c1, env.gamma)
    report = direct_report(a, b, env)
    bits = np.array(form.rows(), dtype=np.complex128).tobytes()
    assert report.rho3.mat.tobytes() == bits
    assert reduced_state(a, b, env).mat.tobytes() == bits
    assert report.delta == form.delta == deviation(reduced_state(a, b, env), to_density(psi))


@settings(max_examples=100, deadline=None)
@given(qubits(), coefficients, coefficients, st.lists(overlaps, min_size=1, max_size=6))
@example(ab=(1.0, 0.0), c0=SQRT_HALF, c1=SQRT_HALF, gammas=SIGNED_ZERO_OVERLAPS)
@example(ab=(0.6, 0.8j), c0=SQRT_HALF, c1=-SQRT_HALF, gammas=SIGNED_ZERO_OVERLAPS)
def test_printed_deviation_batch_equals_scalar_calls_bit_for_bit(ab, c0, c1, gammas):
    # A point runs in Python floats and a sweep's batch in numpy arrays.
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    batch = printed_deviation(a, b, c0, c1, np.array(gammas))
    points = [deviation_closed_form_paper(a, b, EnvironmentModel(g, c0, c1)) for g in gammas]
    assert [bits(x) for x in batch] == [bits(x) for x in points]


# Overlap arrays of other dtypes and shapes, each with its pinned results at
# (a, b, c0, c1) = ODD_POINT: (overlaps, result type, result dtype,
# closed_form's delta and printed_deviation as float.hex()). A 0-d array
# gives a float. An integer or bool overlap has an integer or bool
# |gamma|^2, which a float product cannot be written into. A real float64
# overlap's real part is the caller's array itself.
ODD_POINT = (0.6, 0.8j, 1.0, 0.5 + 0.5j)
ODD_OVERLAPS = {
    "int64": (np.array([-1, 0, 1], dtype=np.int64), np.ndarray, np.float64,
              ["0x1.4d3486e3064d2p+0", "0x1.7091b261a9086p-1", "0x1.2a071c54b35dep-1"],
              ["0x1.8f5c28f5c28f5p+0", "0x1.803d25ddc97e0p-1", "0x1.89686f9e146b9p-1"]),
    "bool": (np.array([False, True]), np.ndarray, np.float64,
             ["0x1.7091b261a9086p-1", "0x1.2a071c54b35dep-1"],
             ["0x1.803d25ddc97e0p-1", "0x1.89686f9e146b9p-1"]),
    "float32": (np.array([0.25, -0.5, 1.0], dtype=np.float32), np.ndarray, np.float32,
                ["0x1.3b96da0000000p-1", "0x1.fb43fe0000000p-1", "0x1.2a071e0000000p-1"],
                ["0x1.3aff3e0000000p-1", "0x1.1a7e9c0000000p+0", "0x1.8968700000000p-1"]),
    "complex64": (np.array([0.3 + 0.4j, -0.6j], dtype=np.complex64), np.ndarray, np.float32,
                  ["0x1.a43bc20000000p-2", "0x1.0d00c60000000p+0"],
                  ["0x1.565bf20000000p-2", "0x1.2f5d8e0000000p+0"]),
    "0d-float64": (np.array(0.5), float, None, ["0x1.1a45885a1c33ep-1"], ["0x1.169aec250724ep-1"]),
    "float64-2d": (np.array([[0.25, -0.5], [1.0, 0.0]]), np.ndarray, np.float64,
                   ["0x1.3b96d97c5ceacp-1", "0x1.fb43fd5bf42d2p-1", "0x1.2a071c54b35dep-1", "0x1.7091b261a9086p-1"],
                   ["0x1.3aff3ec2f2df7p-1", "0x1.1a7e9cbbc502fp+0", "0x1.89686f9e146b9p-1", "0x1.803d25ddc97e0p-1"]),
}
# closed_form's fidelity and purity at the same points, as float.hex(),
# recorded before the kernel built them in place.
ODD_OVERLAP_METRICS = {
    "int64": (["0x1.3939393939398p-3", "0x1.f7912ac45df7ap-2", "0x1.a942dc760fa94p-1"],
              ["0x1.ffffffffffffep-1", "0x1.00e2c4a6886a4p-1", "0x1.ffffffffffffep-1"]),
    "bool": (["0x1.f7912ac45df7ap-2", "0x1.a942dc760fa94p-1"],
             ["0x1.00e2c4a6886a4p-1", "0x1.ffffffffffffep-1"]),
    "float32": (["0x1.2727260000000p-1", "0x1.4a16e40000000p-2", "0x1.a942dc0000000p-1"],
                ["0x1.10d4980000000p-1", "0x1.40aa140000000p-1", "0x1.0000000000000p+0"]),
    "complex64": (["0x1.7537c80000000p-1", "0x1.2764d40000000p-2"],
                  ["0x1.40aa140000000p-1", "0x1.5cba180000000p-1"]),
    "0d-float64": (["0x1.5285b8ec1f528p-1"], ["0x1.40aa137ce64fbp-1"]),
    "float64-2d": (["0x1.2727272727273p-1", "0x1.4a16e3b07d4a3p-2", "0x1.a942dc760fa94p-1", "0x1.f7912ac45df7ap-2"],
                   ["0x1.10d4985c1fe3ap-1", "0x1.40aa137ce64fbp-1", "0x1.ffffffffffffep-1", "0x1.00e2c4a6886a4p-1"]),
}


@pytest.mark.parametrize("name", ODD_OVERLAPS)
def test_batch_kernels_keep_the_result_dtype_and_leave_gamma_unchanged(name):
    overlaps, kind, dtype, canonical, printed = ODD_OVERLAPS[name]
    fidelity, purity = ODD_OVERLAP_METRICS[name]
    # A read-only copy: a kernel that wrote into the caller's gamma would raise.
    gamma = overlaps.copy()
    gamma.flags.writeable = False
    # A 0-d overlap's fidelity and purity are numpy floats: only a delta
    # passes through math.sqrt.
    metric_kind = np.float64 if kind is float else kind
    for call, expected, expected_kind in (
        (lambda: closed_form(*ODD_POINT, gamma).delta, canonical, kind),
        (lambda: closed_form(*ODD_POINT, gamma).fidelity, fidelity, metric_kind),
        (lambda: closed_form(*ODD_POINT, gamma).purity, purity, metric_kind),
        (lambda: printed_deviation(*ODD_POINT, gamma), printed, kind),
    ):
        result = call()
        assert type(result) is expected_kind
        if kind is np.ndarray:
            assert (result.dtype, result.shape) == (dtype, gamma.shape)
            assert not np.shares_memory(result, gamma)
        assert [bits(x) for x in np.ravel(result)] == expected
        # The kernels build their temporaries in place, never in the caller's array.
        assert (gamma.dtype, gamma.shape, gamma.tobytes()) == (overlaps.dtype, overlaps.shape, overlaps.tobytes())
    # Each array field is its own array, never a view of gamma or of another field.
    arrays = [field for field in closed_form(*ODD_POINT, gamma) if isinstance(field, np.ndarray)]
    assert len(arrays) == (5 if kind is np.ndarray else 0)
    for i, first in enumerate(arrays):
        assert not np.shares_memory(first, gamma)
        assert not any(np.shares_memory(first, later) for later in arrays[i + 1:])


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps, phases, phases)
# A subnormal (c0, c1): rotated as drawn, its ratio rounds away.
@example((0.9363291775690445j, 0.3511234415883917j), 2.2250738585e-313j,
         complex(2.2250738585e-313, 5e-324), 0j, 0.0, 3.0)
def test_global_phase_invariance(ab, c0, c1, gamma, theta, phi):
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    # Rotating (c0, c1) in floats must keep the model, so the pair is first
    # scaled up by a power of two, which is exact, to a largest modulus in
    # [0.5, 1). Scale invariance has its own tests.
    shift = max(0, -math.frexp(max(abs(c0), abs(c1)))[1])
    c0, c1 = (complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift)) for z in (c0, c1))
    base = metrics(a, b, c0, c1, gamma)
    turn_ab, turn_c = cmath.exp(1j * theta), cmath.exp(1j * phi)
    turned = metrics(a * turn_ab, b * turn_ab, c0 * turn_c, c1 * turn_c, gamma)
    diff = np.array(turned.rows(), dtype=np.complex128) - np.array(base.rows(), dtype=np.complex128)
    assert np.abs(diff).max() <= TOL
    for field in ("delta", "fidelity", "purity"):
        assert getattr(turned, field) == pytest.approx(getattr(base, field), abs=TOL)


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps)
def test_fidelity_and_purity_ranges(ab, c0, c1, gamma):
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    form = metrics(a, b, c0, c1, gamma)
    assert -TOL <= form.fidelity <= 1 + TOL
    assert 0.5 - TOL <= form.purity <= 1 + TOL
    assert 0.5 - TOL <= purity(reduced_state(a, b, EnvironmentModel(gamma, c0, c1))) <= 1 + TOL


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, st.floats(0.0, 1.0))
@example(ab=(0.6, 0.8j), c=SQRT_HALF, s=1.0)
@example(ab=(0.6, 0.8j), c=SQRT_HALF, s=0.0)
def test_symmetric_coupling_fidelity_identity(ab, c, s):
    a, b = ab
    assume(abs(c) > 1e-6)
    form = metrics(a, b, c, c, complex(s))
    expected = 1 - 2 * abs(a) ** 2 * abs(b) ** 2 * (1 - s)
    assert form.fidelity == pytest.approx(expected, abs=TOL)


# ---------------------------------------------------------------- scale extremes

BASES = (
    (0.6, 0.8j, SQRT_HALF, SQRT_HALF, 0.5),
    (SQRT_HALF, 0.5 + 0.5j, 0.6 + 0.3j, -0.5j, 0.3 + 0.4j),
)


@pytest.mark.parametrize("scale", [1e-170, 1e200])
@pytest.mark.parametrize("a, b, c0, c1, gamma", BASES)
def test_direct_report_is_scale_invariant(a, b, c0, c1, gamma, scale):
    want = direct_report(a, b, EnvironmentModel(gamma, c0, c1))
    got = direct_report(a, b, EnvironmentModel(gamma, c0 * scale, c1 * scale))
    assert np.abs(got.rho3.mat - want.rho3.mat).max() <= 1e-15
    assert got.delta == pytest.approx(want.delta, abs=1e-15)
    assert got.fidelity == pytest.approx(want.fidelity, abs=1e-15)
    assert got.purity == pytest.approx(want.purity, abs=1e-15)
    # And the scaled report is the exact unscaled answer, to rounding.
    (rho00, rho11, re, im), delta_sq, fid, pur = exact_point(a, b, c0, c1, gamma)
    (m00, m01), (_, m11) = got.rho3.rows
    values = (m00.real, m11.real, m01.real, m01.imag, got.delta, got.fidelity, got.purity)
    exact = (rho00, rho11, re, im, exact_sqrt(delta_sq), fid, pur)
    assert max(abs(Fraction(x) - y) for x, y in zip(values, exact)) <= 1e-15


@pytest.mark.parametrize("a, b, c0, c1, gamma", BASES)
def test_printed_form_overflow_is_rejected_by_name(a, b, c0, c1, gamma):
    env = EnvironmentModel(gamma, c0 * 1e200, c1 * 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="reduced_state_paper_literal overflows"):
            reduced_state_paper_literal(a, b, env)
        with pytest.raises(ValueError, match="printed_deviation overflows"):
            deviation_closed_form_paper(a, b, env)


@pytest.mark.parametrize("a, b, c0, c1, gamma", BASES)
def test_printed_deviation_overflow_is_rejected_without_warnings(a, b, c0, c1, gamma):
    # At 1e150 the printed matrix is finite but the deviation's squares are not.
    env = EnvironmentModel(gamma, c0 * 1e150, c1 * 1e150)
    batch = np.array([gamma, 0.5 * gamma])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(reduced_state_paper_literal(a, b, env)).all()
        for call in (
            lambda: deviation_closed_form_paper(a, b, env),
            lambda: printed_deviation(a, b, c0 * 1e150, c1 * 1e150, batch),
            lambda: printed_deviation(a, b, c0, c1, batch * 1e200),
        ):
            with pytest.raises(ValueError, match="printed_deviation overflows"):
                call()


def test_printed_matrix_overflowing_only_off_the_diagonal_is_rejected_by_name():
    # |c0 a| = 1e153 and |c1 b| ~ 1e150 keep the printed diagonal finite, but
    # the off-diagonal's product c0 conj(c1) overflows before a b* scales it down.
    a, b = 1e-10, math.sqrt(1 - 1e-20)
    env = EnvironmentModel(0.5, 1e163, 1e150)
    assert abs(env.c0 * a) ** 2 * 1.25 == pytest.approx(1.25e306, rel=1e-12)
    assert abs(env.c1 * b) ** 2 * 1.25 == pytest.approx(1.25e300, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="reduced_state_paper_literal overflows"):
            reduced_state_paper_literal(a, b, env)
        report = direct_report(a, b, env)
    want = direct_report(a, b, EnvironmentModel(0.5, 1e13, 1.0))
    assert np.abs(report.rho3.mat - want.rho3.mat).max() <= 1e-15
    assert report.delta == pytest.approx(want.delta, abs=1e-15)


@pytest.mark.parametrize("c1_scale", [1.7e308, 1.0])
@pytest.mark.parametrize("a, b, c0, c1, gamma", BASES)
def test_direct_report_at_a_modulus_beyond_float64_is_the_unscaled_answer(a, b, c0, c1, gamma, c1_scale):
    # Parts of 1.7e308 are finite, but |c0| = 1.7e308 sqrt(2) is not.
    want = direct_report(a, b, EnvironmentModel(gamma, 1 + 1j, c1 * c1_scale / 1.7e308))
    got = direct_report(a, b, EnvironmentModel(gamma, complex(1.7e308, 1.7e308), c1 * c1_scale))
    assert np.abs(got.rho3.mat - want.rho3.mat).max() <= 1e-15
    assert got.delta == pytest.approx(want.delta, abs=1e-15)
    assert got.fidelity == pytest.approx(want.fidelity, abs=1e-15)
    assert got.purity == pytest.approx(want.purity, abs=1e-15)


sizable = coefficients.filter(lambda c: abs(c) >= 0.1)
small_ratios = st.floats(12.0, 150.0).map(lambda k: 10.0**-k)


@settings(max_examples=200, deadline=None)
@given(qubits(), sizable, sizable, overlaps, small_ratios, st.booleans())
def test_a_small_coefficient_ratio_is_computed(ab, c0, c1, gamma, ratio, swap):
    # Down to |c0 / c1| = 1e-150 the coupled norm's square is a normal float,
    # so the state is computed rather than rejected as degenerate.
    a, b = ab
    c0, c1 = (c1, c0 * ratio) if swap else (c0 * ratio, c1)
    form = closed_form(a, b, c0, c1, gamma)
    got = (form.rho00, form.rho11, form.rho01_re, form.rho01_im)
    assert all(abs(Fraction(x) - y) <= 1e-15 for x, y in zip(got, exact_rho3(a, b, c0, c1, gamma)))
    rho = oracle(a, b, EnvironmentModel(gamma, c0, c1))[0]
    assert np.abs(np.array(form.rows(), dtype=np.complex128) - rho).max() <= 1e-15


@pytest.mark.parametrize("a, b, c0, c1", [(1, 0, 1e-160, 1), (0, 1, 1, 1e-155), (1, 1e-160, 1e-160, 1), (0, 1, 1, 0)])
def test_an_underflowing_coupled_norm_is_degenerate_on_both_routes(a, b, c0, c1):
    # The kernel, and each checked route through a model.
    with pytest.raises(DegenerateModelError, match="below DEGENERATE_TOL"):
        closed_form(a, b, c0, c1, 0.5)
    for route in (direct_report, reduced_state):
        with pytest.raises(DegenerateModelError, match="below DEGENERATE_TOL"):
            route(a, b, EnvironmentModel(0.5, c0, c1))


def test_a_coupled_norm_of_exactly_degenerate_tol_is_computed():
    # DEGENERATE_TOL is 2^-511, so c0 a = 2^-511 with c1 = 0 puts the coupled
    # norm on it exactly; only a norm below it is degenerate.
    assert DEGENERATE_TOL == 2.0**-511
    form = closed_form(2.0**-511, 1.0, 1, 0, 0.5)
    assert (form.rho00, form.rho11, form.rho01_re, form.rho01_im) == (1.0, 0.0, 0.0, 0.0)
    assert reduced_state(2.0**-511, 1.0, EnvironmentModel(0.5, 1, 0)).rows == ((1, 0), (0, 0))


@st.composite
def nearly_unit_qubits(draw):
    """Pairs a Ket accepts whose norm, as a Ket sums it, lies 0.5e-12 to
    1e-12 off 1: inside NORM_TOL, but off by more than NORM_TOL when squared."""
    a, b = draw(qubits())
    off = draw(st.floats(0.5e-12, 1e-12)) * draw(st.sampled_from((-1.0, 1.0)))
    a, b = a * (1.0 + off), b * (1.0 + off)
    total = 0.0
    for part in (a.real, a.imag, b.real, b.imag):
        total += part * part
    assume(0.5e-12 <= abs(math.sqrt(total) - 1.0) <= 1e-12)
    return a, b


@st.composite
def off_unit_qubits(draw):
    """Pairs whose norm lies 0 to 1e-10 off 1, on either side of NORM_TOL."""
    a, b = draw(qubits())
    off = draw(st.floats(0.0, 1e-10)) * draw(st.sampled_from((-1.0, 1.0)))
    return a * (1.0 + off), b * (1.0 + off)


# Every route that takes (a, b): the report, the reduced state and the
# printed forms, at one point and in a batch.
PAIR_ROUTES = (
    direct_report,
    reduced_state,
    reduced_state_paper_literal,
    deviation_closed_form_paper,
    lambda a, b, env: printed_deviation(a, b, env.c0, env.c1, np.array([env.gamma, 0.5])),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(nearly_unit_qubits(), off_unit_qubits()), coefficients, coefficients, overlaps)
@example(ab=(1 + 2.5e-11, 0j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=0.5)
@example(ab=(1 - 2.5e-11, 0j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=0.5)
@example(ab=(complex(0.6, math.nan), 0.8j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=0.5)
@example(ab=(1e200, 0j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=0.5)
def test_a_pair_a_ket_accepts_is_used_unchanged(ab, c0, c1, gamma):
    # Every route accepts (a, b) if and only if a Ket does, rejects any
    # other pair with exactly the Ket's text, and uses a pair it accepts
    # unchanged, so the kernel's delta is the deviation from the Ket's own
    # rho1, bit for bit.
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    env = EnvironmentModel(gamma, c0, c1)
    psi = outcome(Ket, (a, b), ("1",))
    results = [outcome(call, a, b, env) for call in PAIR_ROUTES]
    rejections = [str(r) for r in results if isinstance(r, ValueError) and str(r).startswith("amplitudes ")]
    assert rejections == ([str(psi)] * len(PAIR_ROUTES) if isinstance(psi, ValueError) else [])
    report = results[0]
    if isinstance(psi, Ket) and not isinstance(report, DegenerateModelError):
        assert report.delta == deviation(reduced_state(a, b, env), to_density(psi))


def listed_point(a, b, env):
    """A point query in its earlier, list-based form: ``direct_report``'s rows,
    delta, fidelity and purity, the printed matrix and the printed delta.

    The rows are laid out as nested lists and each entry converted to complex
    (as ``DensityMatrix`` read them), the printed matrix is built from nested
    lists, and the printed delta converts c0, c1 and gamma to complex once
    more. A printed value that overflows is its ValueError."""
    form = closed_form(a, b, env.c0, env.c1, env.gamma)
    re, im = form.rho01_re, form.rho01_im
    listed = [[form.rho00, complex(re, im)], [complex(re, 0.0 - im), form.rho11]]
    rows = tuple(tuple(complex(z) for z in row) for row in listed)
    a, b = _check_normalized(a, b)
    d00, d11, p_re, p_im = _printed_entries(a, b, env.c0, env.c1, env.gamma)
    if all(math.isfinite(x) for x in (d00, d11, p_re, p_im)):
        printed = np.array([[d00, complex(p_re, p_im)], [complex(p_re, 0.0 - p_im), d11]], dtype=np.complex128)
    else:
        printed = ValueError("reduced_state_paper_literal overflows")
    entries = _printed_entries(a, b, complex(env.c0), complex(env.c1), complex(env.gamma))
    delta = _delta(_pure_density(a, b), *entries)
    printed_delta = delta if math.isfinite(delta) else ValueError("printed_deviation overflows")
    return rows, form.delta, form.fidelity, form.purity, printed, printed_delta


def outcome(call, *args):
    """``call(*args)``, or the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return exc


signed_parts = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.6, -0.8))
signed_complexes = st.builds(complex, signed_parts, signed_parts)
signed_qubits = st.tuples(signed_complexes, signed_complexes).filter(
    lambda ab: abs(abs(ab[0]) ** 2 + abs(ab[1]) ** 2 - 1.0) <= 1e-12
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(qubits(), nearly_unit_qubits(), signed_qubits),
    st.one_of(coefficients, signed_complexes),
    st.one_of(coefficients, signed_complexes),
    st.one_of(overlaps, signed_complexes.filter(lambda g: abs(g) <= 1.0)),
    st.one_of(st.just(1.0), scales),
)
@example(ab=(complex(-0.0, 1.0), complex(0.0, -0.0)), c0=complex(1.0, -0.0), c1=complex(-0.0, -0.0),
         gamma=complex(-0.0, 0.0), scale=1.0)
@example(ab=(SQRT_HALF, SQRT_HALF), c0=1.0, c1=1.0, gamma=0.5, scale=1e200)
def test_point_path_equals_the_listed_form_bit_for_bit(ab, c0, c1, gamma, scale):
    # Bytes and float.hex tell signed zeros apart, so a changed layout or an
    # extra conversion that moved one sign would fail here.
    a, b = ab
    c0, c1 = kept_by_scaling(c0, scale), kept_by_scaling(c1, scale)
    assume(c0 != 0 or c1 != 0)
    assume(cmath.isfinite(c0) and cmath.isfinite(c1))
    env = EnvironmentModel(gamma, c0, c1)
    try:
        report = direct_report(a, b, env)
    except DegenerateModelError:
        assume(False)
    rows, delta, fidelity, purity, printed, printed_delta = listed_point(a, b, env)
    assert report.rho3.rows == rows
    assert np.array(report.rho3.rows, dtype=np.complex128).tobytes() == np.array(rows).tobytes()
    assert all(type(z) is complex for row in report.rho3.rows for z in row)
    assert (report.delta.hex(), report.fidelity.hex(), report.purity.hex()) == (
        delta.hex(), fidelity.hex(), purity.hex())
    literal = outcome(reduced_state_paper_literal, a, b, env)
    if isinstance(printed, ValueError):
        assert isinstance(literal, ValueError) and str(printed) in str(literal)
    else:
        assert (literal.dtype, literal.shape, literal.flags.writeable) == (np.complex128, (2, 2), True)
        assert literal.tobytes() == printed.tobytes()
        assert not np.shares_memory(literal, reduced_state_paper_literal(a, b, env))
    got = outcome(deviation_closed_form_paper, a, b, env)
    for value in (got, outcome(printed_deviation, a, b, c0, c1, gamma)):
        if isinstance(printed_delta, ValueError):
            assert isinstance(value, ValueError) and str(printed_delta) in str(value)
        else:
            assert type(value) is float and value.hex() == printed_delta.hex()


def test_lower_entry_keeps_a_positive_zero_imaginary_part():
    # Real inputs give an upper off-diagonal with imaginary part +0.0; the
    # lower entry is laid out as 0.0 - im, so it stays +0.0 too.
    env = EnvironmentModel(0.5, SQRT_HALF, SQRT_HALF)
    for mat in (
        reduced_state(0.6, 0.8, env).mat,
        direct_report(0.6, 0.8, env).rho3.mat,
        reduced_state_paper_literal(0.6, 0.8, env),
        to_density(Ket((0.6, 0.8), ("1",))).mat,
    ):
        assert math.copysign(1.0, mat[0, 1].imag) == 1.0
        assert math.copysign(1.0, mat[1, 0].imag) == 1.0


# Each evolve row checks the float oracle's own input boundary.
@pytest.mark.parametrize("call", [direct_report, reduced_state, evolve])
@pytest.mark.parametrize("a, b", [(complex(1.7e308, 1.7e308), 0), (0, complex(-1.7e308, 1.7e308))])
def test_amplitude_modulus_beyond_float64_is_not_normalized(call, a, b):
    # Parts of 1.7e308 are finite, but the modulus is not.
    with pytest.raises(ValueError, match=r"^amplitudes are not normalized: \|amplitudes\| = inf$"):
        call(a, b, EnvironmentModel(0.5, 1, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda a, b, env: closed_form(a, b, env.c0, env.c1, env.gamma),
        reduced_state_paper_literal,
        lambda a, b, env: printed_deviation(a, b, env.c0, env.c1, env.gamma),
        evolve,
    ],
    ids=["closed_form", "literal", "printed", "evolve"],
)
@pytest.mark.parametrize(
    "a, b",
    [(math.nan, 0), (0, complex(0, math.nan)), (math.inf, 0), (1, complex(-math.inf, 0))],
)
def test_non_finite_amplitudes_get_the_kets_message(call, a, b):
    # The message a Ket and normalized_amplitudes give for the same input.
    with pytest.raises(ValueError, match="^amplitudes contain non-finite entries$"):
        call(a, b, EnvironmentModel(0.5, 0.7, 0.7))


@pytest.mark.parametrize(
    "call",
    [
        reduced_state_paper_literal,
        deviation_closed_form_paper,
        lambda a, b, env: printed_deviation(a, b, env.c0, env.c1, np.array([env.gamma, 0.5])),
    ],
    ids=["literal", "point", "batch"],
)
@pytest.mark.parametrize(
    "a, b", [(2, 0), (3, 4), (1 + 2e-10, 0), (complex(1.7e308, 1.7e308), 0), (1 + 2.5e-11, 0), (1 - 2.5e-11, 0)]
)
def test_printed_forms_reject_an_unnormalized_state(call, a, b):
    # The one input boundary of closed_form: same tolerance, same message.
    with pytest.raises(ValueError, match=r"^amplitudes are not normalized: \|amplitudes\| = "):
        call(a, b, EnvironmentModel(0.5, 0.7, 0.7))


# ---------------------------------------------------------------- against the exact values

# The largest absolute error of closed_form's rho3 entries, delta, fidelity
# and purity against their exact values (support.exact_point). Measured on
# this kernel over 320 000 random points drawn like the strategies below, with
# zeros, tiny parts, c1 = c0 (1 +- 1e-15) and |gamma| in {0, 1, 1 - 10^-k}
# mixed in: at most 1.2 eps on rho3's entries, 2.6 eps on delta, 2.4 eps on
# the fidelity and 2.6 eps on the purity (eps = 2^-52). Asserted: 4 eps.
EXACT_ABS_TOL = 4 * 2.0**-52
NEAR_IDEAL = [1 - 10.0**-k for k in (2, 6, 10, 12, 14)]


@settings(max_examples=300, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps)
@example(ab=(0.6, 0.8j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=NEAR_IDEAL[0])
@example(ab=(0.6, 0.8j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=NEAR_IDEAL[2])
@example(ab=(0.6, 0.8j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=NEAR_IDEAL[4])
@example(ab=(SQRT_HALF, -SQRT_HALF * 1j), c0=1 + 1j, c1=(1 + 1j) * (1 + 1e-15), gamma=NEAR_IDEAL[3])
@example(ab=(0.6, 0.8), c0=1e200, c1=1e-200j, gamma=0.5)
@example(ab=(1, 1e-160), c0=1e-140, c1=1, gamma=-0.5j)
@example(ab=(NEAR_DEGENERATE, 1), c0=1, c1=NEAR_DEGENERATE, gamma=0.3 + 0.4j)
def test_kernel_is_within_a_few_eps_of_the_exact_values(ab, c0, c1, gamma):
    # An absolute bound: near the ideal point delta and 1 - fidelity are tiny
    # differences of O(1) numbers, so their relative error grows as
    # 1 / (1 - |gamma|) while the absolute error stays a few eps.
    a, b = ab
    form = metrics(a, b, c0, c1, gamma)
    rho3, delta_sq, fidelity, purity = exact_point(a, b, c0, c1, gamma)
    got = (form.rho00, form.rho11, form.rho01_re, form.rho01_im)
    errors = [abs(Fraction(x) - y) for x, y in zip(got, rho3)] + [
        abs(Fraction(form.delta) - exact_sqrt(delta_sq)),
        abs(Fraction(form.fidelity) - fidelity),
        abs(Fraction(form.purity) - purity),
    ]
    assert max(errors) <= EXACT_ABS_TOL, [float(e) / 2.0**-52 for e in errors]


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps)
@example(ab=(0.6, 0.8j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=NEAR_IDEAL[4])
@example(ab=(complex(-0.0, 0.6), complex(0.8, -0.0)), c0=1e200, c1=1e-200j, gamma=-1)
def test_fidelity_and_purity_of_each_state_are_the_kernels_values(ab, c0, c1, gamma):
    # qcore's fidelity and purity apply the kernel's one formula for each
    # metric to a state's rows, so on rho3 they give the kernel's values bit
    # for bit, and on every state they are within its bound of the exact values.
    a, b = ab
    form = metrics(a, b, c0, c1, gamma)
    env = EnvironmentModel(gamma, c0, c1)
    psi = Ket((a, b), ("1",))
    _, _, exact_fidelity, exact_purity = exact_point(a, b, c0, c1, gamma)
    report, noisy = direct_report(a, b, env), noisy_teleport(psi, env, 0)
    for rho3 in (reduced_state(a, b, env), report.rho3):
        assert [fidelity(psi, rho3).hex(), purity(rho3).hex()] == [form.fidelity.hex(), form.purity.hex()]
    # noisy_teleport's rho3 is the corrected pair's, a few ulps from (a, b)'s.
    assert purity(noisy.rho3).hex() == noisy.purity.hex()
    for rho3 in (report.rho3, noisy.rho3):
        got = fidelity(psi, rho3), purity(rho3)
        assert [type(x) for x in got] == [float, float]
        assert max(abs(Fraction(got[0]) - exact_fidelity), abs(Fraction(got[1]) - exact_purity)) <= EXACT_ABS_TOL
    # rho1 = |psi><psi| is rho3 at gamma = 1 with c0 = c1: fidelity and purity 1.
    _, _, exact_fidelity, exact_purity = exact_point(a, b, 1, 1, 1)
    rho1 = to_density(psi)
    assert abs(Fraction(fidelity(psi, rho1)) - exact_fidelity) <= EXACT_ABS_TOL
    assert abs(Fraction(purity(rho1)) - exact_purity) <= EXACT_ABS_TOL


# The largest error of the printed form's entries and delta against their
# exact values (support.exact_printed), in eps: relative on each diagonal
# entry, and of |d01| on each off-diagonal part, with the smallest normal
# float as the floor below which a product has lost its relative precision;
# on delta, of the sum of the printed matrix's and rho1's traces, since delta
# is a difference of those entries and its relative error grows without
# bound as the printed matrix nears rho1 (c0 = c1 = sqrt(1/2), gamma -> 1).
# Measured on this kernel over 120 000 random points drawn like the
# strategies below, a quarter with (c0, c1) scaled by 2^100 or 2^-100 and
# half with |gamma| = 1 - 2^-k: at most 3.4 eps on the diagonal, 2.3 eps on
# the off-diagonal and 2.7 eps on delta. Asserted: 5 eps.
PRINTED_TOL = 5
EPS = 2.0**-52
NEAR_ONE = [1 - 2.0**-k for k in range(1, 53)]


def printed_errors(a, b, c0, c1, gamma):
    """The errors of ``reduced_state_paper_literal``'s entries and of
    ``deviation_closed_form_paper``'s and a ``printed_deviation`` batch's
    delta, in eps, as the comment above measures them."""
    env = EnvironmentModel(gamma, c0, c1)
    (d00, d11, re, im), delta_sq = exact_printed(a, b, c0, c1, gamma)
    (m00, m01), (m10, m11) = reduced_state_paper_literal(a, b, env).tolist()
    floor = Fraction(sys.float_info.min)
    errors = [abs(Fraction(m00.real) - d00) / max(d00, floor), abs(Fraction(m11.real) - d11) / max(d11, floor)]
    modulus = max(exact_sqrt(re * re + im * im), floor)
    for got_re, got_im in ((m01.real, m01.imag), (m10.real, -m10.imag)):
        errors += [abs(Fraction(got_re) - re) / modulus, abs(Fraction(got_im) - im) / modulus]
    ar, ai, br, bi = (Fraction(x) for x in (a.real, a.imag, b.real, b.imag))
    scale = d00 + d11 + ar * ar + ai * ai + br * br + bi * bi
    delta = exact_sqrt(delta_sq)
    batch = printed_deviation(a, b, c0, c1, np.array([gamma, gamma]))
    for got in (deviation_closed_form_paper(a, b, env), *batch.tolist()):
        errors.append(abs(Fraction(got) - delta) / scale)
    return [float(e / Fraction(EPS)) for e in errors]


@settings(max_examples=300, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps, st.sampled_from([1.0, 2.0**100, 2.0**-100]))
@example(ab=(0.6, 0.8j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=NEAR_ONE[51], scale=1.0)
@example(ab=(0.6, 0.8j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=NEAR_ONE[30], scale=2.0**100)
@example(ab=(SQRT_HALF, -SQRT_HALF * 1j), c0=1 + 1j, c1=(1 + 1j) * (1 + 1e-15), gamma=NEAR_ONE[51], scale=2.0**-100)
@example(ab=(0.6, 0.8), c0=1e-160, c1=1e-170j, gamma=0.5, scale=1.0)
def test_printed_forms_are_within_a_few_eps_of_the_exact_values(ab, c0, c1, gamma, scale):
    a, b = ab
    c0, c1 = c0 * scale, c1 * scale
    assume(c0 != 0 or c1 != 0)
    errors = printed_errors(a, b, c0, c1, gamma)
    assert max(errors) <= PRINTED_TOL, errors


@pytest.mark.parametrize("scale", [1.0, 2.0**100, 2.0**-100], ids=["unscaled", "2^100", "2^-100"])
@pytest.mark.parametrize("c1", [SQRT_HALF, SQRT_HALF * (1 + EPS), SQRT_HALF + 1e-9j],
                         ids=["c0", "c0(1+eps)", "c0+1e-9i"])
def test_printed_forms_near_the_ideal_point_are_within_a_few_eps_of_the_exact_values(c1, scale):
    # gamma = 1 - 2^-k, for k = 1 to 52: at scale 1 and c1 = c0 = sqrt(1/2),
    # the printed matrix tends to rho1 and delta to 0.
    for gamma in NEAR_ONE:
        errors = printed_errors(0.6, 0.8j, SQRT_HALF * scale, c1 * scale, gamma)
        assert max(errors) <= PRINTED_TOL, (gamma, errors)


# ---------------------------------------------------------------- the exact-replica condition
#
# With p = |a|^2 and q = |b|^2 on a normalized (a, b), the kernel's rho3 obeys
#   1 - F      = p q (|c0 - c1 gamma*|^2 + |c1|^2 (1 - |gamma|^2)) / (|c0|^2 p + |c1|^2 q),
#   1 - purity = 2 rho00 rho11 (1 - |gamma|^2).
# Both terms of the first are non-negative where |gamma| <= 1, so the replica
# is exact (F = 1, delta = 0) if and only if p q = 0, or |gamma| = 1 and
# c0 = c1 gamma*; and it is pure if and only if |gamma| = 1 or rho00 rho11 = 0.

unit_overlaps = phases.map(lambda theta: cmath.exp(1j * theta))
nonzero_coefficients = coefficients.filter(lambda c: abs(c) >= 1e-3)


def assert_exact_replica(form):
    """delta, 1 - F and 1 - purity are each within the kernel's bound of 0."""
    assert max(form.delta, abs(1 - form.fidelity), abs(1 - form.purity)) <= EXACT_ABS_TOL, form


@settings(max_examples=300, deadline=None)
@given(qubits(), nonzero_coefficients, unit_overlaps)
@example(ab=(0.6, 0.8j), c1=SQRT_HALF, gamma=1)
@example(ab=(SQRT_HALF, SQRT_HALF), c1=1, gamma=-1)
@example(ab=(0.6, 0.8j), c1=1 - 0.5j, gamma=1j)
def test_the_replica_is_exact_where_gamma_is_a_phase_the_apparatus_compensates(ab, c1, gamma):
    # c0 = c1 gamma*, |gamma| = 1: a proper apparatus, trivial or not.
    a, b = ab
    assert_exact_replica(metrics(a, b, c1 * gamma.conjugate(), c1, gamma))


@settings(max_examples=300, deadline=None)
@given(unit_overlaps, st.booleans(), coefficients, coefficients, overlaps)
@example(phase=1, zero_b=True, c0=0.9, c1=1.1, gamma=0)
@example(phase=1j, zero_b=False, c0=1e-3, c1=1.5j, gamma=0.5)
def test_the_replica_is_exact_where_p_q_is_zero_with_any_model(phase, zero_b, c0, c1, gamma):
    a, b = (phase, 0) if zero_b else (0, phase)
    assert_exact_replica(metrics(a, b, c0, c1, gamma))


@settings(max_examples=300, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps)
@example(ab=(0.6, 0.8j), c0=SQRT_HALF, c1=SQRT_HALF, gamma=NEAR_IDEAL[4])
@example(ab=(0.6, 0.8j), c0=1j, c1=1, gamma=1)  # |gamma| = 1, c0 != c1 gamma*: pure but wrong
@example(ab=(0.6, 0.8j), c0=0, c1=1, gamma=0.5)  # c0 = 0: pure, |1><1|
@example(ab=(0.6, 0.8j), c0=-1j, c1=1, gamma=1j)  # on the set
def test_infidelity_and_impurity_follow_their_identities(ab, c0, c1, gamma):
    a, b = ab
    form = metrics(a, b, c0, c1, gamma)
    (rho00, rho11, _, _), _, fidelity, purity = exact_point(a, b, c0, c1, gamma)
    p, q, m, l, n = exact_replica_terms(a, b, c0, c1, gamma)
    g_sq = Fraction(gamma.real) ** 2 + Fraction(gamma.imag) ** 2
    infidelity, impurity = p * q * (m + l) / n, 2 * rho00 * rho11 * (1 - g_sq)
    # Each identity is exact on the given floats, and the kernel is within its bound of it.
    assert infidelity == 1 - fidelity and impurity == 1 - purity
    assert abs(1 - Fraction(form.fidelity) - infidelity) <= EXACT_ABS_TOL
    assert abs(1 - Fraction(form.purity) - impurity) <= EXACT_ABS_TOL
    # Both directions of each "if and only if", where |gamma| <= 1 exactly.
    if g_sq <= 1:
        on_set = p * q == 0 or (g_sq == 1 and m == 0)
        assert m >= 0 and l >= 0 and (infidelity == 0) == on_set
        assert (impurity == 0) == (g_sq == 1 or rho00 * rho11 == 0)


# ---------------------------------------------------------------- sweep rows are states

sweep_parts = st.one_of(
    st.just(0.0),
    st.floats(-2.0, 2.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(lambda s: s[0] * 10.0**s[1]),
)
sweep_ends = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[sweep_parts] * 8),
    sweep_ends,
    sweep_ends,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(2, 101),
)
def test_every_row_of_a_validated_sweep_is_a_density_matrix(parts, start, end, phase, steps):
    # The sweep checks no row: a validated config gives states by construction.
    cfg = SweepConfig(*parts, gamma_start=start, gamma_end=end, steps=steps, gamma_phase=phase)
    try:
        cfg.validate()
    except ValueError:  # (a, b) = (0, 0), or a degenerate model
        assume(False)
    t = np.arange(cfg.steps) / (cfg.steps - 1)
    gamma = (cfg.gamma_start + (cfg.gamma_end - cfg.gamma_start) * t) * np.exp(1j * cfg.gamma_phase)
    states = metrics(cfg.a, cfg.b, cfg.c0, cfg.c1, gamma)
    for re, im in zip(states.rho01_re.tolist(), states.rho01_im.tolist()):
        DensityMatrix(_qubit_rows(states.rho00, states.rho11, re, im))


# ---------------------------------------------------------------- CLI at the extremes

def test_degenerate_message_quotes_an_underflowing_norm(capsys):
    # c0 a = c1 b = 1e-160: neither product vanishes, but the squared norm
    # 2e-320 is subnormal, so the state is rejected with its norm quoted.
    code = main(["deviation", "--a-re", "1", "--b-re", "1e-160", "--c0-re", "1e-160", "--c1-re", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: coupled state's norm computes to 1.4142056902605667e-160, below "
        "DEGENERATE_TOL = 1.4916681462400413e-154 with (c0, c1) at unit max-modulus: "
        "its square is zero or subnormal in float64\n"
    )


@pytest.mark.parametrize("command", ["deviation", "paper-check"])
@pytest.mark.parametrize("flags, message", [
    # Degenerate, and the printed matrix overflows too: the canonical error comes first.
    (["--a-re", "1e-154", "--b-re", "1", "--c0-re", "1.7e308", "--c1-re", "0"],
     "coupled state's norm computes to 1e-154, below DEGENERATE_TOL = 1.4916681462400413e-154 with "
     "(c0, c1) at unit max-modulus: its square is zero or subnormal in float64"),
    (["--a-re", "1", "--b-re", "0", "--c0-re", "0"],
     "coupled state's norm computes to 0.0, below DEGENERATE_TOL = 1.4916681462400413e-154 with "
     "(c0, c1) at unit max-modulus: its square is zero or subnormal in float64"),
    # The printed matrix and its delta both overflow: the matrix's error comes first.
    (["--c0-re", "1e200", "--c1-re", "1e200"],
     "reduced_state_paper_literal overflows float64 at this (c0, c1) scale; the printed form is not "
     "scale invariant (the canonical form is)"),
    (["--c0-re", "1e150", "--c1-re", "1e150"],
     "printed_deviation overflows float64 at this (c0, c1) scale; the printed form is not "
     "scale invariant (the canonical form is)"),
], ids=["degenerate", "zero-branch", "printed-matrix", "printed-delta"])
def test_point_query_cli_reports_the_first_error_of_its_three_values(command, flags, message, capsys):
    assert main([command, *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_the_degenerate_cli_point_also_overflows_the_printed_form():
    env = EnvironmentModel(1.0, 1.7e308, 0)
    with pytest.raises(DegenerateModelError):
        direct_report(1e-154, 1, env)
    with pytest.raises(ValueError, match="reduced_state_paper_literal overflows"):
        reduced_state_paper_literal(1e-154, 1, env)


def test_deviation_cli_computes_a_small_coefficient_ratio(capsys):
    code = main(["deviation", "--a-re", "1", "--b-re", "0", "--c0-re", "1e-13", "--c1-re", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("delta_canonical 0\n")
    assert "  [ 1+0j  0+0j ]\n  [ 0+0j  0+0j ]\n" in out
