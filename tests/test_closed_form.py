"""The closed-form kernel against the explicit route (evolve + partial_trace),
its invariances and range bounds, and the scale extremes it must get right."""

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
from teleportsim.qcore import DensityMatrix, Ket, _qubit_rows, to_density

from support import SQRT_HALF, coefficients, overlaps, phases, qubits

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
@example(ab=(8.71109270991109e-87j, 1j), c0=5.8464881218362925e-224j,
         c1=1.84794080076845e-257j, gamma=0j, scale=1e-67)
@example(ab=(SQRT_HALF, SQRT_HALF), c0=1e-172, c1=1.2345678e-172, gamma=0.5, scale=1e-150)
def test_kernel_matches_partial_trace_oracle_at_any_scale(ab, c0, c1, gamma, scale):
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    form = metrics(a, b, kept_by_scaling(c0, scale), kept_by_scaling(c1, scale), gamma)
    rho, delta, fid, pur = oracle(a, b, EnvironmentModel(gamma, c0, c1))
    assert np.abs(np.array(form.rows(), dtype=np.complex128) - rho).max() <= TOL
    assert form.delta == pytest.approx(delta, abs=TOL)
    assert form.fidelity == pytest.approx(fid, abs=TOL)
    assert form.purity == pytest.approx(pur, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(qubits(), coefficients, coefficients, st.lists(overlaps, min_size=1, max_size=6), scales)
@example(ab=(8.71109270991109e-87j, 1j), c0=5.8464881218362925e-224j,
         c1=1.84794080076845e-257j, gammas=[0j], scale=1e-67)
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
def test_printed_deviation_batch_equals_scalar_calls_bit_for_bit(ab, c0, c1, gammas):
    # A point runs in Python floats and a sweep's batch in numpy arrays.
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    batch = printed_deviation(a, b, c0, c1, np.array(gammas))
    points = [deviation_closed_form_paper(a, b, EnvironmentModel(g, c0, c1)) for g in gammas]
    assert batch.tolist() == points


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


def exact_rho3(a, b, c0, c1, gamma):
    """(rho00, rho11, rho01_re, rho01_im) in exact rational arithmetic on the
    given floats: the closed form with no rounding and no scaling."""
    def mul(z, w):
        return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]

    a, b, c0, c1, gamma = ((Fraction(z.real), Fraction(z.imag)) for z in map(complex, (a, b, c0, c1, gamma)))
    x0, x1 = mul(c0, a), mul(c1, b)
    p0 = x0[0] ** 2 + x0[1] ** 2
    p1 = x1[0] ** 2 + x1[1] ** 2
    n = p0 + p1
    off = mul(mul(x0, (x1[0], -x1[1])), gamma)
    return p0 / n, p1 / n, off[0] / n, off[1] / n


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


@pytest.mark.parametrize("a, b, c0, c1", [(1, 0, 1e-160, 1), (0, 1, 1, 1e-155), (1, 1e-160, 1e-160, 1)])
def test_an_underflowing_coupled_norm_is_degenerate_on_both_routes(a, b, c0, c1):
    with pytest.raises(DegenerateModelError, match="below DEGENERATE_TOL"):
        closed_form(a, b, c0, c1, 0.5)
    with pytest.raises(DegenerateModelError, match="below DEGENERATE_TOL"):
        evolve(a, b, EnvironmentModel(0.5, c0, c1))


def test_amplitudes_within_tolerance_are_rescaled():
    env = EnvironmentModel(0.5, SQRT_HALF, SQRT_HALF)
    report = direct_report(1 + 2.5e-11, 0, env)
    exact = direct_report(1, 0, env)
    assert np.array_equal(report.rho3.mat, exact.rho3.mat)
    assert (report.delta, report.fidelity, report.purity) == (exact.delta, exact.fidelity, exact.purity)
    assert np.array_equal(evolve(1 + 2.5e-11, 0, env).amplitudes, evolve(1, 0, env).amplitudes)
    with pytest.raises(ValueError, match="not normalized"):
        direct_report(1 + 2e-10, 0, env)


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


@settings(max_examples=300, deadline=None)
@given(nearly_unit_qubits(), coefficients, coefficients, overlaps)
def test_a_pair_a_ket_accepts_is_used_unchanged(ab, c0, c1, gamma):
    # The model judges (a, b) by a Ket's norm, so the kernel's delta is the
    # deviation from the Ket's own rho1, bit for bit.
    a, b = ab
    assume(c0 != 0 or c1 != 0)
    env = EnvironmentModel(gamma, c0, c1)
    try:
        report = direct_report(a, b, env)
    except DegenerateModelError:
        assume(False)
    assert report.delta == deviation(reduced_state(a, b, env), to_density(Ket((a, b), ("1",))))


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


@pytest.mark.parametrize("call", [direct_report, reduced_state, evolve])
@pytest.mark.parametrize("a, b", [(complex(1.7e308, 1.7e308), 0), (0, complex(-1.7e308, 1.7e308))])
def test_amplitude_modulus_beyond_float64_is_not_normalized(call, a, b):
    # Parts of 1.7e308 are finite, but the modulus is not.
    with pytest.raises(ValueError, match=r"\(a, b\) is not normalized: \|a\|\^2 \+ \|b\|\^2 = inf"):
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
@pytest.mark.parametrize("a, b", [(2, 0), (3, 4), (1 + 2e-10, 0), (complex(1.7e308, 1.7e308), 0)])
def test_printed_forms_reject_an_unnormalized_state(call, a, b):
    # The one input boundary of closed_form: same tolerance, same message.
    with pytest.raises(ValueError, match=r"\(a, b\) is not normalized"):
        call(a, b, EnvironmentModel(0.5, 0.7, 0.7))


def test_deviation_rejects_non_finite_matrix():
    rho1 = to_density(Ket(np.array([0.6, 0.8]), ("3",)))
    with pytest.raises(ValueError, match="non-finite"):
        deviation(np.array([[np.nan, 0], [0, 1]]), rho1)


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
    except ValueError:  # (a, b) = (0, 0)
        assume(False)
    t = np.arange(cfg.steps) / (cfg.steps - 1)
    gamma = (cfg.gamma_start + (cfg.gamma_end - cfg.gamma_start) * t) * np.exp(1j * cfg.gamma_phase)
    states = metrics(cfg.a, cfg.b, cfg.c0, cfg.c1, gamma)
    for re, im in zip(states.rho01_re.tolist(), states.rho01_im.tolist()):
        DensityMatrix(_qubit_rows(states.rho00, states.rho11, re, im))


# ---------------------------------------------------------------- CLI at the extremes

def test_deviation_cli_rejects_printed_overflow(capsys):
    code = main(["deviation", "--c0-re", "1e200", "--c1-re", "1e200"])
    assert code == 2
    assert "overflows" in capsys.readouterr().err


def test_deviation_cli_degenerate_model_is_usage_error(capsys):
    code = main(["deviation", "--a-re", "1", "--b-re", "0", "--c0-re", "0"])
    assert code == 2
    assert "norm computes to 0.0, below DEGENERATE_TOL" in capsys.readouterr().err


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


def test_deviation_cli_computes_a_small_coefficient_ratio(capsys):
    code = main(["deviation", "--a-re", "1", "--b-re", "0", "--c0-re", "1e-13", "--c1-re", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("delta_canonical 0\n")
    assert "  [ 1+0j  0+0j ]\n  [ 0+0j  0+0j ]\n" in out


@pytest.mark.parametrize("command", ["deviation", "paper-check"])
def test_point_query_cli_prints_nothing_when_the_printed_deviation_overflows(command, capsys):
    code = main([command, "--c0-re", "1e150", "--c1-re", "1e150"])
    captured = capsys.readouterr()
    assert code == 2
    assert "printed_deviation overflows" in captured.err
    assert captured.out == ""
