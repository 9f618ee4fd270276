"""The closed-form kernel against the explicit route (evolve + partial_trace),
its invariances and range bounds, and the scale extremes it must get right."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teleportsim.cli import main
from teleportsim.envmodel import (
    DegenerateModelError,
    EnvironmentModel,
    closed_form,
    deviation,
    deviation_closed_form_paper,
    direct_report,
    evolve,
    printed_deviation,
    reduced_state,
    reduced_state_paper_literal,
)
from teleportsim.linalg import partial_trace
from teleportsim.qcore import Ket, check_qubit_states, to_density

SQRT_HALF = np.sqrt(0.5)
TOL = 1e-12

unit = st.floats(-1.0, 1.0)
phases = st.floats(0.0, 2 * math.pi)
scales = st.floats(-150.0, 150.0).map(lambda k: 10.0**k)


@st.composite
def qubits(draw):
    re0, im0, re1, im1 = draw(st.tuples(unit, unit, unit, unit))
    norm = math.hypot(re0, im0, re1, im1)
    assume(norm > 1e-3)
    return complex(re0, im0) / norm, complex(re1, im1) / norm


coefficients = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
overlaps = st.builds(cmath.rect, st.floats(0.0, 1.0), phases)


def metrics(a, b, c0, c1, gamma):
    try:
        return closed_form(a, b, c0, c1, gamma)
    except DegenerateModelError:
        assume(False)


def oracle(a, b, env):
    """rho3, delta, fidelity, purity through the joint state and a partial trace."""
    joint = evolve(a, b, env).amplitudes
    rho = partial_trace(np.outer(joint, joint.conj()), 2, 2, keep="B")
    psi = np.array([a, b])
    return (
        rho,
        np.linalg.norm(rho - np.outer(psi, psi.conj())),
        np.vdot(psi, rho @ psi).real,
        np.trace(rho @ rho).real,
    )


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps, scales)
def test_kernel_matches_partial_trace_oracle_at_any_scale(ab, c0, c1, gamma, scale):
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    form = metrics(a, b, c0 * scale, c1 * scale, gamma)
    rho, delta, fid, pur = oracle(a, b, EnvironmentModel(gamma, c0, c1))
    assert np.abs(form.matrix() - rho).max() <= TOL
    assert form.delta == pytest.approx(delta, abs=TOL)
    assert form.fidelity == pytest.approx(fid, abs=TOL)
    assert form.purity == pytest.approx(pur, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(qubits(), coefficients, coefficients, st.lists(overlaps, min_size=1, max_size=6), scales)
def test_batched_kernel_equals_scalar_calls_bit_for_bit(ab, c0, c1, gammas, scale):
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    batch = metrics(a, b, c0 * scale, c1 * scale, np.array(gammas))
    rho1 = to_density(Ket(np.array([a, b]), ("3",)))
    for k, gamma in enumerate(gammas):
        env = EnvironmentModel(gamma, c0 * scale, c1 * scale)
        point = closed_form(a, b, env.c0, env.c1, env.gamma)
        for field in ("rho01_re", "rho01_im", "delta", "fidelity", "purity"):
            assert getattr(batch, field)[k] == getattr(point, field)
        assert (batch.rho00, batch.rho11) == (point.rho00, point.rho11)
        assert deviation(reduced_state(a, b, env), rho1) == batch.delta[k]
        rho = oracle(a, b, EnvironmentModel(gamma, c0, c1))[0]
        assert np.abs(point.matrix() - rho).max() <= TOL


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
    bits = form.matrix().tobytes()
    assert report.rho3.mat.tobytes() == bits
    assert reduced_state(a, b, env).mat.tobytes() == bits
    assert report.delta == form.delta == deviation(reduced_state(a, b, env), to_density(psi))


@settings(max_examples=100, deadline=None)
@given(qubits(), coefficients, coefficients, st.lists(overlaps, min_size=1, max_size=6))
def test_printed_deviation_batch_equals_scalar_calls_bit_for_bit(ab, c0, c1, gammas):
    # A point runs in Python floats and a sweep's batch in numpy arrays.
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    batch = printed_deviation(a, b, c0, c1, np.array(gammas))
    points = [deviation_closed_form_paper(a, b, EnvironmentModel(g, c0, c1)) for g in gammas]
    assert batch.tolist() == points


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps, phases, phases)
def test_global_phase_invariance(ab, c0, c1, gamma, theta, phi):
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    base = metrics(a, b, c0, c1, gamma)
    turn_ab, turn_c = cmath.exp(1j * theta), cmath.exp(1j * phi)
    turned = metrics(a * turn_ab, b * turn_ab, c0 * turn_c, c1 * turn_c, gamma)
    assert np.abs(turned.matrix() - base.matrix()).max() <= TOL
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


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, st.floats(0.0, 1.0))
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
    joint = evolve(a, b, EnvironmentModel(gamma, c0 * scale, c1 * scale))
    unscaled = evolve(a, b, EnvironmentModel(gamma, c0, c1))
    assert np.abs(joint.amplitudes - unscaled.amplitudes).max() <= 1e-15


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


def test_overlap_modulus_beyond_float64_exceeds_one():
    with pytest.raises(ValueError, match=r"\|gamma\| = inf exceeds 1"):
        EnvironmentModel(complex(1.7e308, 1.7e308), SQRT_HALF, SQRT_HALF)


def test_amplitudes_within_tolerance_are_rescaled():
    env = EnvironmentModel(0.5, SQRT_HALF, SQRT_HALF)
    report = direct_report(1 + 2.5e-11, 0, env)
    exact = direct_report(1, 0, env)
    assert np.array_equal(report.rho3.mat, exact.rho3.mat)
    assert (report.delta, report.fidelity, report.purity) == (exact.delta, exact.fidelity, exact.purity)
    assert np.array_equal(evolve(1 + 2.5e-11, 0, env).amplitudes, evolve(1, 0, env).amplitudes)
    with pytest.raises(ValueError, match="not normalized"):
        direct_report(1 + 2e-10, 0, env)


@pytest.mark.parametrize("call", [direct_report, reduced_state, evolve])
@pytest.mark.parametrize("a, b", [(complex(1.7e308, 1.7e308), 0), (0, complex(-1.7e308, 1.7e308))])
def test_amplitude_modulus_beyond_float64_is_not_normalized(call, a, b):
    # Parts of 1.7e308 are finite, but the modulus is not.
    with pytest.raises(ValueError, match=r"\(a, b\) is not normalized: \|a\|\^2 \+ \|b\|\^2 = inf"):
        call(a, b, EnvironmentModel(0.5, 1, 1))


def test_deviation_rejects_non_finite_matrix():
    rho1 = to_density(Ket(np.array([0.6, 0.8]), ("3",)))
    with pytest.raises(ValueError, match="non-finite"):
        deviation(np.array([[np.nan, 0], [0, 1]]), rho1)


# ---------------------------------------------------------------- batch validation

def test_check_qubit_states_accepts_a_sweep():
    gamma = np.linspace(0, 1, 11) * np.exp(0.4j)
    states = closed_form(0.6, 0.8, 1, 1j, gamma)
    check_qubit_states(states.rho00, states.rho11, states.rho01_re, states.rho01_im)


@pytest.mark.parametrize(
    "entries, message",
    [
        ((0.5, 0.5, np.array([0.0, np.inf]), 0.0), "non-finite"),
        ((0.5, 0.6, np.array([0.0, 0.1]), 0.0), "trace"),
        ((0.5, 0.5, np.array([0.0, 0.6]), 0.0), "negative determinant"),
    ],
)
def test_check_qubit_states_rejects_what_density_matrix_rejects(entries, message):
    with pytest.raises(ValueError, match=message):
        check_qubit_states(*entries)


# ---------------------------------------------------------------- CLI at the extremes

def test_deviation_cli_rejects_printed_overflow(capsys):
    code = main(["deviation", "--c0-re", "1e200", "--c1-re", "1e200"])
    assert code == 2
    assert "overflows" in capsys.readouterr().err


def test_deviation_cli_degenerate_model_is_usage_error(capsys):
    code = main(["deviation", "--a-re", "1", "--b-re", "0", "--c0-re", "0"])
    assert code == 2
    assert "zero norm" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["deviation", "paper-check"])
def test_point_query_cli_prints_nothing_when_the_printed_deviation_overflows(command, capsys):
    code = main([command, "--c0-re", "1e150", "--c1-re", "1e150"])
    captured = capsys.readouterr()
    assert code == 2
    assert "printed_deviation overflows" in captured.err
    assert captured.out == ""
