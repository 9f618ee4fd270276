import numpy as np
import pytest

from teleportsim.envmodel import (
    DegenerateModelError,
    EnvironmentModel,
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

from support import SQRT_HALF, random_model, random_qubit, traced_over_environment


# ---------------------------------------------------------------- model validation

def test_model_rejects_overlap_above_one():
    with pytest.raises(ValueError, match="exceeds 1"):
        EnvironmentModel(1.5, SQRT_HALF, SQRT_HALF)


def test_model_accepts_overlap_at_tolerance():
    EnvironmentModel(1.0 + 5e-13, SQRT_HALF, SQRT_HALF)


def test_model_rejects_both_coefficients_zero():
    with pytest.raises(ValueError, match="both"):
        EnvironmentModel(0.5, 0, 0)


def test_model_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        EnvironmentModel(complex(np.nan, 0), 1, 1)


# ---------------------------------------------------------------- embed_environment

def test_embed_orthogonal_at_zero_overlap():
    e0, e1 = embed_environment(EnvironmentModel(0, 1, 1))
    assert np.allclose(e0.amplitudes, [1, 0])
    assert np.allclose(e1.amplitudes, [0, 1])


def test_embed_identical_at_unit_overlap():
    e0, e1 = embed_environment(EnvironmentModel(1, 1, 1))
    assert np.allclose(e1.amplitudes, e0.amplitudes, atol=1e-15)


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
    assert np.allclose(phi.amplitudes, [a, b, 0, 0], atol=1e-12)


def test_evolve_single_branch_input():
    for gamma in (0, 0.5, 1):
        phi = evolve(1, 0, EnvironmentModel(gamma, SQRT_HALF, SQRT_HALF))
        assert np.allclose(phi.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_evolve_orthogonal_environment_balanced_input():
    phi = evolve(SQRT_HALF, SQRT_HALF, EnvironmentModel(0, 1, 1))
    assert np.allclose(phi.amplitudes, np.array([1, 0, 0, 1]) * SQRT_HALF, atol=1e-12)


def test_evolve_degenerate_model():
    with pytest.raises(DegenerateModelError):
        evolve(0, 1, EnvironmentModel(0.5, 1, 0))


def test_evolve_rejects_unnormalized_input():
    with pytest.raises(ValueError, match="not normalized"):
        evolve(1, 1, EnvironmentModel(0.5, 1, 1))


# ---------------------------------------------------------------- reduced_state

def test_reduced_state_orthogonal_environment_is_diagonal():
    rng = np.random.default_rng(41)
    a, b = random_qubit(rng)
    rho = reduced_state(a, b, EnvironmentModel(0, 1, 1))
    assert np.allclose(rho.mat, np.diag([abs(a) ** 2, abs(b) ** 2]), atol=1e-12)


def test_reduced_state_unit_overlap_is_pure_input():
    rng = np.random.default_rng(42)
    a, b = random_qubit(rng)
    rho = reduced_state(a, b, EnvironmentModel(1, SQRT_HALF, SQRT_HALF))
    assert np.allclose(rho.mat, to_density(Ket(np.array([a, b]), ("3",))).mat, atol=1e-12)


def test_reduced_state_half_overlap_balanced_case():
    rho = reduced_state(SQRT_HALF, SQRT_HALF, EnvironmentModel(0.5, SQRT_HALF, SQRT_HALF))
    assert np.allclose(rho.mat, [[0.5, 0.25], [0.25, 0.5]], atol=1e-12)
    oracle = traced_over_environment(
        evolve(SQRT_HALF, SQRT_HALF, EnvironmentModel(0.5, SQRT_HALF, SQRT_HALF)).amplitudes
    )
    assert np.allclose(rho.mat, oracle, atol=1e-12)


def test_reduced_state_matches_partial_trace_oracle():
    rng = np.random.default_rng(43)
    for _ in range(200):
        a, b = random_qubit(rng)
        env = random_model(rng)
        try:
            rho = reduced_state(a, b, env)
        except DegenerateModelError:
            continue
        oracle = traced_over_environment(evolve(a, b, env).amplitudes)
        assert np.abs(rho.mat - oracle).max() <= 1e-12


def test_reduced_state_phase_covariance():
    rng = np.random.default_rng(44)
    a, b = random_qubit(rng)
    base = reduced_state(a, b, EnvironmentModel(0.7, 0.6, 0.8))
    for phase in (0.3, 1.1, 2.9):
        rotated = reduced_state(a, b, EnvironmentModel(0.7 * np.exp(1j * phase), 0.6, 0.8))
        assert np.allclose(np.diag(rotated.mat), np.diag(base.mat), atol=1e-12)
        assert abs(rotated.mat[0, 1]) == pytest.approx(abs(base.mat[0, 1]), abs=1e-12)
        expected_arg = np.angle(base.mat[0, 1]) + phase
        assert np.exp(1j * np.angle(rotated.mat[0, 1])) == pytest.approx(
            np.exp(1j * expected_arg), abs=1e-10
        )


def test_reduced_state_purity_range_and_extremes():
    rng = np.random.default_rng(45)
    for _ in range(100):
        a, b = random_qubit(rng)
        env = random_model(rng)
        try:
            p = purity(reduced_state(a, b, env))
        except DegenerateModelError:
            continue
        assert 0.5 - 1e-12 <= p <= 1 + 1e-12
        pure_expected = abs(env.gamma) >= 1 - 1e-10 or abs(
            a * b * env.c0 * env.c1
        ) <= 1e-10
        assert (p >= 1 - 1e-10) == pure_expected
    assert purity(reduced_state(1, 0, EnvironmentModel(0, 1, 1))) == pytest.approx(1, abs=1e-12)


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
    assert np.allclose(literal, to_density(Ket(np.array([a, b]), ("3",))).mat, atol=1e-12)
    assert np.trace(literal).real == pytest.approx(1, abs=1e-12)


def test_literal_form_half_trace_at_zero_overlap():
    rng = np.random.default_rng(47)
    a, b = random_qubit(rng)
    literal = reduced_state_paper_literal(a, b, EnvironmentModel(0, SQRT_HALF, SQRT_HALF))
    assert np.trace(literal).real == pytest.approx(0.5, abs=1e-12)


def test_literal_form_zero_overlap_unit_coefficients_is_the_input_populations():
    rng = np.random.default_rng(48)
    a, b = (complex(z) for z in random_qubit(rng))
    c0 = c1 = 1
    literal = reduced_state_paper_literal(a, b, EnvironmentModel(0, c0, c1))
    assert np.allclose(literal, np.diag([abs(a) ** 2, abs(b) ** 2]), atol=1e-15)
    assert np.array_equal(literal, np.diag([abs(c0 * a) ** 2, abs(c1 * b) ** 2]))


def test_literal_form_at_zero_overlap_is_the_printed_diagonal():
    rng = np.random.default_rng(49)
    for _ in range(20):
        a, b = (complex(z) for z in random_qubit(rng))
        c0 = complex(rng.standard_normal(), rng.standard_normal())
        c1 = complex(rng.standard_normal(), rng.standard_normal())
        literal = reduced_state_paper_literal(a, b, EnvironmentModel(0, c0, c1))
        assert np.array_equal(literal, np.diag([abs(c0 * a) ** 2, abs(c1 * b) ** 2]))


# ---------------------------------------------------------------- deviation

def test_deviation_zero_on_equal():
    rho1 = to_density(ket_from_amplitudes(0.6, 0.8))
    assert deviation(rho1, rho1) == 0.0


def test_deviation_vanishes_in_special_case():
    rng = np.random.default_rng(50)
    a, b = random_qubit(rng)
    env = EnvironmentModel(1, SQRT_HALF, SQRT_HALF)
    rho1 = to_density(Ket(np.array([a, b]), ("3",)))
    assert deviation(reduced_state(a, b, env), rho1) == pytest.approx(0, abs=1e-12)


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


def test_deviation_shape_mismatch():
    rho1 = to_density(ket_from_amplitudes(1, 0))
    with pytest.raises(ValueError, match=r"^rho3 shape mismatch: \(4, 4\) vs \(2, 2\)$"):
        deviation(np.eye(4), rho1)
    with pytest.raises(ValueError, match=r"^rho1 shape mismatch: \(4, 4\) vs \(2, 2\)$"):
        deviation(rho1, np.eye(4))


def test_deviation_reads_rho1_by_the_same_rule_as_rho3():
    mixed = np.eye(2) / 2
    zero = to_density(ket_from_amplitudes(1, 0))
    assert deviation(mixed, mixed) == 0.0
    assert deviation(zero, mixed) == deviation(zero, DensityMatrix(mixed)) == deviation(mixed, zero)
    with pytest.raises(ValueError, match="^rho1 contains non-finite entries$"):
        deviation(mixed, np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError, match=r"^rho1 shape mismatch: \(4, 4\) vs \(2, 2\)$"):
        deviation(zero, np.eye(4))


# ---------------------------------------------------------------- printed deviation expansion

def test_closed_form_vanishes_in_special_case():
    rng = np.random.default_rng(51)
    a, b = random_qubit(rng)
    env = EnvironmentModel(1, SQRT_HALF, SQRT_HALF)
    assert deviation_closed_form_paper(a, b, env) == pytest.approx(0, abs=1e-12)


def test_closed_form_matches_literal_route():
    rng = np.random.default_rng(52)
    for _ in range(500):
        a, b = random_qubit(rng)
        env = random_model(rng)
        rho1 = to_density(Ket(np.array([a, b]), ("3",)))
        literal = reduced_state_paper_literal(a, b, env)
        assert literal[1, 0] == np.conj(literal[0, 1])
        assert deviation_closed_form_paper(a, b, env) == deviation(literal, rho1)


def test_closed_form_fully_dephased_balanced_case():
    env = EnvironmentModel(0, 1, 1)
    delta = deviation_closed_form_paper(SQRT_HALF, SQRT_HALF, env)
    # only the two off-diagonal terms survive: sqrt(2 |a b|^2)
    assert delta == pytest.approx(np.sqrt(2) * 0.5, abs=1e-12)


# ---------------------------------------------------------------- direct_report fidelity

def test_direct_report_fidelity_special_case_is_one():
    rng = np.random.default_rng(53)
    a, b = random_qubit(rng)
    assert direct_report(a, b, EnvironmentModel(1, SQRT_HALF, SQRT_HALF)).fidelity == pytest.approx(
        1, abs=1e-12
    )


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


def test_direct_report_fidelity_closed_form_for_symmetric_coupling():
    rng = np.random.default_rng(54)
    for _ in range(50):
        a, b = random_qubit(rng)
        s = rng.random()
        fid = direct_report(a, b, EnvironmentModel(s, SQRT_HALF, SQRT_HALF)).fidelity
        assert fid == pytest.approx(1 - 2 * abs(a) ** 2 * abs(b) ** 2 * (1 - s), abs=1e-12)


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
