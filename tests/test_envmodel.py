import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from teleportsim.cli import SweepConfig
from teleportsim.envmodel import (
    DegenerateModelError,
    EnvironmentModel,
    closed_form,
    deviation,
    deviation_closed_form_paper,
    direct_report,
    embed_environment,
    evolve,
    noisy_teleport,
    reduced_state,
    reduced_state_paper_literal,
)
from teleportsim.qcore import DensityMatrix, Ket, ket_from_amplitudes, purity, to_density
from teleportsim.teleport import BellOutcome

from support import SQRT_HALF, coupled_joint, exact_sqrt, random_model, random_qubit, traced_over_environment


# ---------------------------------------------------------------- model validation

def test_model_accepts_overlap_at_tolerance():
    EnvironmentModel(1.0 + 5e-13, SQRT_HALF, SQRT_HALF)


INF, NAN = float("inf"), float("nan")


# The checks run in order: finiteness, named by the first bad field of gamma,
# c0, c1, then |gamma|, then the zero pair.
@pytest.mark.parametrize("args, message", [
    ((complex(NAN, 0), INF, 0), "gamma is not finite: (nan+0j)"),
    ((complex(NAN, 0), 1, 1), "gamma is not finite: (nan+0j)"),
    ((2.0, complex(0, INF), NAN), "c0 is not finite: infj"),
    ((0.5, 0, complex(1, NAN)), "c1 is not finite: (1+nanj)"),
    ((2.0, 0, 0), "|gamma| = 2.0 exceeds 1"),
    ((1.5, SQRT_HALF, SQRT_HALF), "|gamma| = 1.5 exceeds 1"),
    ((complex(1.7e308, 1.7e308), 0, 0), "|gamma| = inf exceeds 1"),
    ((complex(1.7e308, 1.7e308), SQRT_HALF, SQRT_HALF), "|gamma| = inf exceeds 1"),
    ((0.5, 0, -0.0), "c0 and c1 cannot both be zero"),
    ((0.5, 0, 0), "c0 and c1 cannot both be zero"),
    # Past the ceiling 1 + OVERLAP_TOL by half of it (1 + 0.5e-12 is accepted).
    ((1 + 1.5e-12, SQRT_HALF, SQRT_HALF), "|gamma| = 1.0000000000015 exceeds 1"),
])
def test_model_checks_run_in_order_with_their_messages(args, message):
    with pytest.raises(ValueError) as err:
        EnvironmentModel(*args)
    assert str(err.value) == message


# c0 = c1 = 0 is one error by either route: the model's check, and the kernel
# that a sweep's validation runs, raise the same class with the same message.
def test_both_coefficients_zero_is_one_degenerate_error():
    routes = (lambda: EnvironmentModel(0.5, 0, 0), lambda: closed_form(0.6, 0.8, 0, 0, 0.5),
              lambda: SweepConfig(c0_re=0, c1_re=0).validate())
    errors = []
    for route in routes:
        with pytest.raises(DegenerateModelError) as err:
            route()
        errors.append((type(err.value), str(err.value)))
    assert errors == [(DegenerateModelError, "c0 and c1 cannot both be zero")] * 3


@pytest.mark.parametrize("args", [
    (0, 1, 2),
    (0.5, 0.6, 0.8),
    (np.float64(0.5), np.float32(0.75), np.int64(3)),
    (np.complex128(0.3 + 0.4j), np.complex64(1j), np.float64(2.0)),
], ids=["int", "float", "numpy-real", "numpy-complex"])
def test_model_fields_are_python_complexes(args):
    model = EnvironmentModel(*args)
    fields = (model.gamma, model.c0, model.c1)
    assert [type(z) for z in fields] == [complex] * 3
    assert fields == tuple(complex(x) for x in args)


def test_a_report_of_numpy_scalars_is_the_report_of_python_numbers():
    # Each of (a, b) is read as a Python complex before the kernel runs, so
    # the report holds Python numbers with the bits of a Python-input report.
    env = EnvironmentModel(0.5 + 0.2j, 0.9, 1.1)
    want = direct_report(0.6, 0.8j, env)
    for a, b in ((np.float64(0.6), np.complex128(0.8j)), (0.6, np.complex128(0.8j)), (np.float64(0.6), 0.8j)):
        got = direct_report(a, b, env)
        assert repr(got) == repr(want)
        assert [type(x) for x in (got.delta, got.fidelity, got.purity)] == [float] * 3
        values = [*got.rho3.rows[0], *got.rho3.rows[1], got.delta, got.fidelity, got.purity]
        twins = [*want.rho3.rows[0], *want.rho3.rows[1], want.delta, want.fidelity, want.purity]
        assert np.array(values, dtype=np.complex128).tobytes() == np.array(twins, dtype=np.complex128).tobytes()


# ---------------------------------------------------------------- embed_environment

def test_embed_orthogonal_at_zero_overlap():
    e0, e1 = embed_environment(EnvironmentModel(0, 1, 1))
    assert np.allclose(e0.amplitudes, [1, 0], rtol=0, atol=1e-15)
    assert np.allclose(e1.amplitudes, [0, 1], rtol=0, atol=1e-15)


def test_embed_identical_at_unit_overlap():
    e0, e1 = embed_environment(EnvironmentModel(1, 1, 1))
    assert np.allclose(e1.amplitudes, e0.amplitudes, rtol=0, atol=1e-15)


@pytest.mark.parametrize("gamma", [0.6, 0.3 + 0.4j, -0.25j, 0.9 * np.exp(1.2j)])
def test_embed_inner_product_equals_overlap(gamma):
    e0, e1 = embed_environment(EnvironmentModel(gamma, 1, 1))
    assert np.vdot(e1.amplitudes, e0.amplitudes) == pytest.approx(gamma, abs=1e-12)


# ---------------------------------------------------------------- evolve

def test_evolve_unit_overlap_gives_product_state():
    rng = np.random.default_rng(40)
    a, b = random_qubit(rng)
    env = EnvironmentModel(1, SQRT_HALF, SQRT_HALF)
    phi = evolve(a, b, env)
    assert np.allclose(phi.amplitudes, [a, b, 0, 0], rtol=0, atol=1e-12)


def test_evolve_single_branch_input():
    for gamma in (0, 0.5, 1):
        phi = evolve(1, 0, EnvironmentModel(gamma, SQRT_HALF, SQRT_HALF))
        assert np.allclose(phi.amplitudes, [1, 0, 0, 0], rtol=0, atol=1e-12)


def test_evolve_orthogonal_environment_balanced_input():
    phi = evolve(SQRT_HALF, SQRT_HALF, EnvironmentModel(0, 1, 1))
    assert np.allclose(phi.amplitudes, np.array([1, 0, 0, 1]) * SQRT_HALF, rtol=0, atol=1e-12)


def test_evolve_degenerate_model():
    with pytest.raises(DegenerateModelError):
        evolve(0, 1, EnvironmentModel(0.5, 1, 0))


def test_evolve_rejects_unnormalized_input():
    with pytest.raises(ValueError, match="not normalized"):
        evolve(1, 1, EnvironmentModel(0.5, 1, 1))


@pytest.mark.parametrize("scale", [1e-170, 1e200])
@pytest.mark.parametrize("a, b, c0, c1, gamma", [
    (0.6, 0.8j, SQRT_HALF, SQRT_HALF, 0.5),
    (SQRT_HALF, 0.5 + 0.5j, 0.6 + 0.3j, -0.5j, 0.3 + 0.4j),
])
def test_evolve_is_scale_invariant(a, b, c0, c1, gamma, scale):
    joint = evolve(a, b, EnvironmentModel(gamma, c0 * scale, c1 * scale))
    unscaled = evolve(a, b, EnvironmentModel(gamma, c0, c1))
    assert np.abs(joint.amplitudes - unscaled.amplitudes).max() <= 1e-15


@pytest.mark.parametrize("a, b, c0, c1", [(1, 0, 1e-160, 1), (0, 1, 1, 1e-155), (1, 1e-160, 1e-160, 1), (0, 1, 1, 0)])
def test_evolve_rejects_an_underflowing_coupled_norm(a, b, c0, c1):
    with pytest.raises(DegenerateModelError, match="below DEGENERATE_TOL"):
        evolve(a, b, EnvironmentModel(0.5, c0, c1))


def test_evolve_computes_a_coupled_norm_of_exactly_degenerate_tol():
    assert evolve(2.0**-511, 1.0, EnvironmentModel(0.5, 1, 0)).entries == (1, 0, 0, 0)


# A Ket's norm rule: within NORM_TOL = 1e-12 of 1 is accepted as given.
@pytest.mark.parametrize("a, b, accepted", [
    (1 + 0.5e-12, 0j, True), (0.6 * (1 - 0.9e-12), 0.8j * (1 - 0.9e-12), True),
    (1 + 2.5e-11, 0j, False), (1 - 2.5e-11, 0j, False),
])
def test_evolve_takes_a_pair_as_a_ket_does(a, b, accepted):
    env = EnvironmentModel(0.5, SQRT_HALF, SQRT_HALF)
    if accepted:
        Ket((a, b), ("1",))
        assert evolve(a, b, env).dim == 4
    else:
        for build in (lambda: Ket((a, b), ("1",)), lambda: evolve(a, b, env)):
            with pytest.raises(ValueError, match="not normalized"):
                build()


# ---------------------------------------------------------------- reduced_state

def test_reduced_state_unit_overlap_is_pure_input():
    rng = np.random.default_rng(42)
    a, b = random_qubit(rng)
    rho = reduced_state(a, b, EnvironmentModel(1, SQRT_HALF, SQRT_HALF))
    assert np.allclose(rho.mat, to_density(Ket(np.array([a, b]), ("3",))).mat, rtol=0, atol=1e-12)


def test_reduced_state_half_overlap_balanced_case():
    rho = reduced_state(SQRT_HALF, SQRT_HALF, EnvironmentModel(0.5, SQRT_HALF, SQRT_HALF))
    assert np.allclose(rho.mat, [[0.5, 0.25], [0.25, 0.5]], rtol=0, atol=1e-12)
    oracle = traced_over_environment(coupled_joint(SQRT_HALF, SQRT_HALF, SQRT_HALF, SQRT_HALF, 0.5))
    assert np.allclose(rho.mat, oracle, rtol=0, atol=1e-12)


def test_reduced_state_phase_covariance():
    rng = np.random.default_rng(44)
    a, b = random_qubit(rng)
    base = reduced_state(a, b, EnvironmentModel(0.7, 0.6, 0.8))
    for phase in (0.3, 1.1, 2.9):
        rotated = reduced_state(a, b, EnvironmentModel(0.7 * np.exp(1j * phase), 0.6, 0.8))
        assert np.allclose(np.diag(rotated.mat), np.diag(base.mat), rtol=0, atol=1e-12)
        assert abs(rotated.mat[0, 1]) == pytest.approx(abs(base.mat[0, 1]), abs=1e-12)
        expected_arg = np.angle(base.mat[0, 1]) + phase
        assert np.exp(1j * np.angle(rotated.mat[0, 1])) == pytest.approx(
            np.exp(1j * expected_arg), abs=1e-10
        )


def is_pure_expected(a, b, env):
    return abs(env.gamma) >= 1 - 1e-10 or abs(a * b * env.c0 * env.c1) <= 1e-10


def test_reduced_state_is_pure_exactly_at_the_extremes():
    rng = np.random.default_rng(45)
    for _ in range(100):
        a, b = random_qubit(rng)
        env = random_model(rng)
        try:
            p = purity(reduced_state(a, b, env))
        except DegenerateModelError:
            continue
        assert (p >= 1 - 1e-10) == is_pure_expected(a, b, env)
    assert purity(reduced_state(1, 0, EnvironmentModel(0, 1, 1))) == pytest.approx(1, abs=1e-12)


# The draws above land on the mixed side. The pure side: |gamma| = 1, real
# and with a phase, then a, b, c0 and c1 zero in turn; and a mixed point just below
# |gamma| = 1, where 1 - purity is 8e-7.
@pytest.mark.parametrize("a, b, env, pure", [
    (0.6, 0.8j, EnvironmentModel(1, 0.9, 1.1), True),
    (0.6, 0.8j, EnvironmentModel(cmath.exp(0.7j), 0.9, 1.1 - 0.3j), True),
    (0, 1, EnvironmentModel(0.4, 0.9, 1.1), True),
    (1, 0, EnvironmentModel(0.4, 0.9, 1.1), True),
    (0.6, 0.8j, EnvironmentModel(0.4, 0, 1.1), True),
    (0.6, 0.8j, EnvironmentModel(0.4, 0.9, 0), True),
    (0.6, 0.8j, EnvironmentModel(1 - 1e-6, 0.9, 1.1), False),
], ids=["unit-gamma", "unit-gamma-with-phase", "a-zero", "b-zero", "c0-zero", "c1-zero", "gamma-just-below-one"])
def test_reduced_state_is_pure_at_each_extreme(a, b, env, pure):
    assert is_pure_expected(a, b, env) == pure
    assert (purity(reduced_state(a, b, env)) >= 1 - 1e-10) == pure


def test_reduced_state_deviation_monotone_in_overlap():
    a, b = 0.6, 0.8
    rho1 = to_density(Ket(np.array([a, b]), ("3",)))
    deltas = []
    for s in np.linspace(0, 1, 101):
        env = EnvironmentModel(s, SQRT_HALF, SQRT_HALF)
        deltas.append(deviation(reduced_state(a, b, env), rho1))
    for previous, current in zip(deltas, deltas[1:]):
        assert current <= previous + 1e-12
    assert deltas[0] == pytest.approx(np.sqrt(2) * abs(a * b), abs=1e-12)
    assert deltas[-1] == pytest.approx(0, abs=1e-12)


# ---------------------------------------------------------------- printed closed form

def test_literal_form_unit_overlap_reproduces_pure_state():
    rng = np.random.default_rng(46)
    a, b = random_qubit(rng)
    literal = reduced_state_paper_literal(a, b, EnvironmentModel(1, SQRT_HALF, SQRT_HALF))
    assert np.allclose(literal, to_density(Ket(np.array([a, b]), ("3",))).mat, rtol=0, atol=1e-12)
    assert np.trace(literal).real == pytest.approx(1, abs=1e-12)


def test_literal_form_half_trace_at_zero_overlap():
    rng = np.random.default_rng(47)
    a, b = random_qubit(rng)
    literal = reduced_state_paper_literal(a, b, EnvironmentModel(0, SQRT_HALF, SQRT_HALF))
    assert np.trace(literal).real == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------- deviation

def test_deviation_zero_on_equal():
    rho1 = to_density(ket_from_amplitudes(0.6, 0.8))
    assert deviation(rho1, rho1) == 0.0


def test_deviation_fully_dephased_balanced_case():
    env = EnvironmentModel(0, SQRT_HALF, SQRT_HALF)
    rho1 = to_density(ket_from_amplitudes(1, 1))
    rho3 = reduced_state(SQRT_HALF, SQRT_HALF, env)
    delta = deviation(rho3, rho1)
    assert delta == pytest.approx(SQRT_HALF, abs=1e-12)
    oracle = np.sqrt(
        sum(abs(rho3.mat[i, j] - rho1.mat[i, j]) ** 2 for i in range(2) for j in range(2))
    )
    assert delta == pytest.approx(oracle, abs=1e-15)


MIXED = np.eye(2) / 2
ZERO = to_density(ket_from_amplitudes(1, 0))
NON_FINITE = np.array([[np.nan, 0], [0, 1]])


NON_HERMITIAN = np.array([[0.3 + 0.4j, 0.1 - 0.2j], [0.5 + 0.6j, -0.7 + 0.25j]])


# Any finite 2x2 arrays, so a diagonal entry may have an imaginary part: in
# both diagonal entries, in d11 only and in d00 only.
@pytest.mark.parametrize("x, y", [
    (NON_HERMITIAN, np.array([[0.1 - 0.3j, 0.2j], [-0.4, 0.6 - 0.5j]])),
    (np.array([[0.5, 0.1], [0.3, 0.5 + 0.9j]]), MIXED),
    (np.array([[0.5 - 0.9j, 0.1], [0.3, 0.5]]), MIXED),
], ids=["both-diagonals", "d11", "d00"])
def test_deviation_of_complex_diagonals_is_the_exact_distance(x, y):
    squares = sum((Fraction(u.real) - Fraction(v.real)) ** 2 + (Fraction(u.imag) - Fraction(v.imag)) ** 2
                  for u, v in zip(x.ravel().tolist(), y.ravel().tolist()))
    got = deviation(x, y)
    # Each row rounds to within 0.28 ulp of the exact distance.
    assert abs(Fraction(got) - exact_sqrt(squares)) <= math.ulp(got) / 2


def test_deviation_reads_rho1_by_the_same_rule_as_rho3():
    assert deviation(MIXED, MIXED) == 0.0
    assert deviation(ZERO, MIXED) == deviation(ZERO, DensityMatrix(MIXED)) == deviation(MIXED, ZERO)


# Either argument: a bad input is rejected with the argument's name.
@pytest.mark.parametrize("rho3, rho1, message", [
    (MIXED, NON_FINITE, "rho1 contains non-finite entries"),
    (NON_FINITE, ZERO, "rho3 contains non-finite entries"),
    (ZERO, np.eye(4), "rho1 must be 2x2, got shape (4, 4)"),
    (np.eye(4), ZERO, "rho3 must be 2x2, got shape (4, 4)"),
], ids=["rho1-non-finite", "rho3-non-finite", "rho1-shape", "rho3-shape"])
def test_deviation_rejects_a_bad_argument_by_name(rho3, rho1, message):
    with pytest.raises(ValueError) as err:
        deviation(rho3, rho1)
    assert str(err.value) == message


# ---------------------------------------------------------------- printed deviation expansion

def test_closed_form_fully_dephased_balanced_case():
    env = EnvironmentModel(0, 1, 1)
    delta = deviation_closed_form_paper(SQRT_HALF, SQRT_HALF, env)
    # only the two off-diagonal terms survive: sqrt(2 |a b|^2)
    assert delta == pytest.approx(np.sqrt(2) * 0.5, abs=1e-12)


# ---------------------------------------------------------------- direct_report fidelity

def test_direct_report_fidelity_fully_dephased_balanced_case():
    env = EnvironmentModel(0, 1, 1)
    fid = direct_report(SQRT_HALF, SQRT_HALF, env).fidelity
    assert fid == pytest.approx(0.5, abs=1e-12)
    rho = reduced_state(SQRT_HALF, SQRT_HALF, env)
    psi = np.array([SQRT_HALF, SQRT_HALF])
    oracle = sum(
        np.conj(psi[i]) * rho.mat[i, j] * psi[j] for i in range(2) for j in range(2)
    ).real
    assert fid == pytest.approx(oracle, abs=1e-15)


def test_direct_report_fidelity_pointer_state_unaffected():
    for gamma in (0, 0.3, 0.9):
        assert direct_report(1, 0, EnvironmentModel(gamma, 0.8, 0.6)).fidelity == pytest.approx(
            1, abs=1e-12
        )


# ---------------------------------------------------------------- noisy_teleport

def test_noisy_teleport_special_case_delivers_exactly():
    psi = ket_from_amplitudes(0.6, 0.8j)
    env = EnvironmentModel(1, SQRT_HALF, SQRT_HALF)
    for seed in range(20):
        report = noisy_teleport(psi, env, seed)
        assert report.delta == pytest.approx(0, abs=1e-12)
        assert report.fidelity == pytest.approx(1, abs=1e-12)
        assert report.purity == pytest.approx(1, abs=1e-12)


def test_noisy_teleport_dephasing_is_branch_independent():
    psi = ket_from_amplitudes(1, 1)
    env = EnvironmentModel(0, SQRT_HALF, SQRT_HALF)
    seen = {}
    for seed in range(60):
        report = noisy_teleport(psi, env, seed)
        assert report.fidelity == pytest.approx(0.5, abs=1e-12)
        assert report.delta == pytest.approx(SQRT_HALF, abs=1e-12)
        seen[report.branch] = report
        if len(seen) == 4:
            break
    assert set(seen) == set(BellOutcome)


def test_noisy_teleport_pointer_state():
    psi = ket_from_amplitudes(1, 0)
    report = noisy_teleport(psi, EnvironmentModel(0.2, 0.9, 0.1), seed=5)
    assert report.fidelity == pytest.approx(1, abs=1e-12)


def test_direct_report_invariants():
    rng = np.random.default_rng(55)
    for _ in range(100):
        a, b = random_qubit(rng)
        env = random_model(rng)
        try:
            report = direct_report(a, b, env)
        except DegenerateModelError:
            continue
        assert report.branch is None
        assert report.delta >= 0
        assert -1e-12 <= report.fidelity <= 1 + 1e-12
        assert 0.5 - 1e-12 <= report.purity <= 1 + 1e-12
