import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teleportsim.qcore import (
    GATES,
    Ket,
    bell_basis,
    bell_state_vectors,
    born_measure,
    fidelity,
    ket_from_amplitudes,
    to_density,
)
from teleportsim.teleport import (
    CORRECTIONS,
    OUTCOME_ORDER,
    BellOutcome,
    alice_measure,
    born_index,
    correction_for,
    enumerate_branches,
    prepare_joint,
    run_ideal,
    singlet,
)
from teleportsim.qcore import seeded_stream

SQRT_HALF = np.sqrt(0.5)


def random_qubit(rng):
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return amps / np.linalg.norm(amps)


def listed_conditional(outcome, a, b):
    """Receiver-side conditional states, written out independently."""
    return {
        BellOutcome.PSI_MINUS: np.array([-a, -b]),
        BellOutcome.PSI_PLUS: np.array([-a, b]),
        BellOutcome.PHI_MINUS: np.array([b, a]),
        BellOutcome.PHI_PLUS: np.array([-b, a]),
    }[outcome]


# ---------------------------------------------------------------- outcomes

def test_bell_outcome_bits_bijection():
    bits = {outcome.bits for outcome in BellOutcome}
    assert bits == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert len(OUTCOME_ORDER) == 4


# ---------------------------------------------------------------- prepare_joint

def test_prepare_joint_zero_input():
    joint = prepare_joint(ket_from_amplitudes(1, 0))
    expected = np.zeros(8, dtype=complex)
    expected[0b001] = SQRT_HALF
    expected[0b010] = -SQRT_HALF
    assert np.allclose(joint.amplitudes, expected, atol=1e-15)


def test_prepare_joint_one_input():
    joint = prepare_joint(ket_from_amplitudes(0, 1))
    expected = np.zeros(8, dtype=complex)
    expected[0b101] = SQRT_HALF
    expected[0b110] = -SQRT_HALF
    assert np.allclose(joint.amplitudes, expected, atol=1e-15)


def test_prepare_joint_against_kron_oracle():
    rng = np.random.default_rng(30)
    amps = random_qubit(rng)
    joint = prepare_joint(Ket(amps, ("1",)))
    assert np.allclose(joint.amplitudes, np.kron(amps, singlet().amplitudes), atol=1e-12)
    assert joint.labels == ("1", "2", "3")


def test_prepare_joint_rejects_multi_qubit_input():
    with pytest.raises(ValueError, match="single-qubit"):
        prepare_joint(singlet())


# ---------------------------------------------------------------- alice_measure

def collect_all_outcomes(joint, max_tries=500):
    rng = seeded_stream(99)
    seen = {}
    for _ in range(max_tries):
        outcome, bob = alice_measure(joint, rng)
        seen.setdefault(outcome, bob)
        if len(seen) == 4:
            return seen
    raise AssertionError("did not observe all four outcomes")


def test_alice_measure_conditional_states_match_listed_table():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a, b = random_qubit(rng)
        joint = prepare_joint(Ket(np.array([a, b]), ("1",)))
        for outcome, bob in collect_all_outcomes(joint).items():
            overlap = np.vdot(listed_conditional(outcome, a, b), bob.amplitudes)
            assert abs(overlap) == pytest.approx(1, abs=1e-12)


def test_alice_measure_basis_input_gives_pointer_states():
    joint = prepare_joint(ket_from_amplitudes(1, 0))
    expectations = {
        BellOutcome.PSI_MINUS: 0,
        BellOutcome.PSI_PLUS: 0,
        BellOutcome.PHI_MINUS: 1,
        BellOutcome.PHI_PLUS: 1,
    }
    for outcome, bob in collect_all_outcomes(joint).items():
        assert abs(bob.amplitudes[expectations[outcome]]) == pytest.approx(1, abs=1e-12)


# ---------------------------------------------------------------- correction table

def test_correction_table_rederived_by_exhaustive_search():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a, b = random_qubit(rng)
        target = np.array([a, b])
        for outcome in BellOutcome:
            conditional = listed_conditional(outcome, a, b)
            winners = [
                name
                for name, gate in GATES.items()
                if abs(np.vdot(target, gate.mat @ conditional)) > 1 - 1e-9
            ]
            assert winners == [CORRECTIONS[outcome]]


def test_correction_for_returns_expected_gates():
    assert correction_for(BellOutcome.PSI_MINUS).name == "I"
    assert correction_for(BellOutcome.PSI_PLUS).name == "Z"
    assert correction_for(BellOutcome.PHI_MINUS).name == "X"
    assert correction_for(BellOutcome.PHI_PLUS).name == "ZX"


# ---------------------------------------------------------------- run_ideal

def test_run_ideal_basis_state():
    record = run_ideal(ket_from_amplitudes(1, 0), seed=0)
    assert record.fidelity == pytest.approx(1, abs=1e-12)
    assert record.probability == pytest.approx(0.25, abs=1e-12)


def test_run_ideal_exact_for_all_seeds():
    psi = ket_from_amplitudes(1, 1j)
    for seed in range(100):
        assert run_ideal(psi, seed).fidelity >= 1 - 1e-12


def test_run_ideal_outcome_distribution():
    psi = ket_from_amplitudes(0.6, 0.8)
    counts = dict.fromkeys(BellOutcome, 0)
    runs = 40_000
    for seed in range(runs):
        counts[run_ideal(psi, seed).outcome] += 1
    sigma = np.sqrt(runs * 0.25 * 0.75)
    for outcome, count in counts.items():
        assert abs(count - runs / 4) <= 3 * sigma, (outcome, count)


def test_run_ideal_global_phase_robust():
    rng = np.random.default_rng(33)
    amps = random_qubit(rng)
    psi = Ket(amps, ("1",))
    rotated = Ket(np.exp(0.7j) * amps, ("1",))
    for seed in (0, 1, 17):
        assert run_ideal(rotated, seed).fidelity == pytest.approx(
            run_ideal(psi, seed).fidelity, abs=1e-12
        )


# ---------------------------------------------------------------- enumerate_branches

def test_enumerate_branches_quarter_probabilities():
    rng = np.random.default_rng(34)
    for _ in range(50):
        records = enumerate_branches(Ket(random_qubit(rng), ("1",)))
        assert len(records) == 4
        for record in records:
            assert record.probability == pytest.approx(0.25, abs=1e-12)
        assert sum(r.probability for r in records) == pytest.approx(1, abs=1e-12)


def test_enumerate_branches_conditional_states_for_basis_input():
    records = enumerate_branches(ket_from_amplitudes(1, 0))
    for record in records:
        expected = listed_conditional(record.outcome, 1.0, 0.0)
        assert np.allclose(record.conditional_state.amplitudes, expected, atol=1e-12)


def test_enumerate_branches_mixture_recovers_input():
    rng = np.random.default_rng(35)
    psi = Ket(random_qubit(rng), ("1",))
    records = enumerate_branches(psi)
    mixture = sum(
        r.probability * np.outer(r.corrected_state.amplitudes, r.corrected_state.amplitudes.conj())
        for r in records
    )
    assert np.allclose(mixture, to_density(psi).mat, atol=1e-12)


def test_enumerate_branches_fidelity_high_for_random_states():
    rng = np.random.default_rng(36)
    for _ in range(200):
        for record in enumerate_branches(Ket(random_qubit(rng), ("1",))):
            assert record.fidelity >= 1 - 1e-12


# ---------------------------------------------------------------- branch kernel vs born_measure

TOL = 1e-12
unit = st.floats(-1.0, 1.0)
seeds = st.integers(0, 2**62)


@st.composite
def qubit_kets(draw):
    re0, im0, re1, im1 = draw(st.tuples(unit, unit, unit, unit))
    norm = math.hypot(re0, im0, re1, im1)
    assume(norm > 1e-3)
    return Ket(np.array([complex(re0, im0), complex(re1, im1)]) / norm, ("1",))


@st.composite
def entangled_joint_kets(draw):
    """Normalized three-particle kets with particle 1 entangled with 2 and 3,
    so not of the form psi (x) singlet."""
    parts = np.array(draw(st.lists(unit, min_size=16, max_size=16)))
    amps = parts[:8] + 1j * parts[8:]
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    amps = amps / norm
    assume(np.linalg.svd(amps.reshape(2, 4), compute_uv=False)[1] > 1e-3)
    return Ket(amps, ("1", "2", "3"))


def oracle_conditional(post_amplitudes, index):
    """The receiver's state after outcome ``index``: <bell_i|_12 applied to the
    post-measurement three-particle state, renormalized."""
    v = bell_state_vectors()[index].conj() @ post_amplitudes.reshape(4, 2)
    return v / math.sqrt(np.vdot(v, v).real)


def assert_matches_oracle(record, psi, index, post_amplitudes, prob):
    conditional = oracle_conditional(post_amplitudes, index)
    corrected = correction_for(OUTCOME_ORDER[index]).mat @ conditional
    assert record.outcome is OUTCOME_ORDER[index]
    assert abs(record.probability - prob) <= TOL
    assert np.abs(record.conditional_state.amplitudes - conditional).max() <= TOL
    assert np.abs(record.corrected_state.amplitudes - corrected).max() <= TOL
    assert abs(record.fidelity - fidelity(psi, to_density(Ket(corrected, ("3",))))) <= TOL


@settings(max_examples=200, deadline=None)
@given(qubit_kets(), seeds)
def test_run_ideal_matches_born_measure_oracle(psi, seed):
    index, post, prob = born_measure(prepare_joint(psi), bell_basis(), (0, 1), seeded_stream(seed))
    assert_matches_oracle(run_ideal(psi, seed), psi, index, post.amplitudes, prob)


@settings(max_examples=100, deadline=None)
@given(qubit_kets())
def test_enumerate_branches_matches_projector_oracle(psi):
    joint = prepare_joint(psi).amplitudes
    records = enumerate_branches(psi)
    assert len(records) == len(OUTCOME_ORDER)
    for index, (record, projector) in enumerate(zip(records, bell_basis())):
        lifted = np.kron(projector.mat, np.eye(2))
        prob = np.vdot(joint, lifted @ joint).real
        post = lifted @ joint / math.sqrt(prob)
        assert_matches_oracle(record, psi, index, post, prob)


@settings(max_examples=200, deadline=None)
@given(entangled_joint_kets(), seeds)
def test_alice_measure_matches_born_measure_on_entangled_input(joint, seed):
    index, post, _ = born_measure(joint, bell_basis(), (0, 1), seeded_stream(seed))
    outcome, bob = alice_measure(joint, seeded_stream(seed))
    assert outcome is OUTCOME_ORDER[index]
    assert bob.labels == ("3",)
    assert np.abs(bob.amplitudes - oracle_conditional(post.amplitudes, index)).max() <= TOL


def test_born_index_takes_one_draw_or_many():
    probs = np.array([0.125, 0.0, 0.5, 0.375])
    # 1.0 stands for a draw whose product with the total rounds onto it.
    draws = np.array([0.0, 0.124, 0.125, 0.624, 0.625, 0.999, 1.0])
    many = born_index(probs, draws).tolist()
    assert many == [born_index(probs, u) for u in draws.tolist()] == [0, 0, 2, 2, 3, 3, 3]


# Probabilities of any magnitude, so that adding them in another order rounds
# the boundaries or the total differently.
magnitudes = st.floats(0.0, 1.0) | st.builds(lambda m, e: m * 10.0**e, st.floats(0.0, 1.0), st.integers(-17, 0))


@settings(max_examples=300, deadline=None)
@given(st.lists(magnitudes, min_size=4, max_size=4).filter(any))
def test_born_index_one_draw_or_many_agree_at_every_boundary(weights):
    probs = np.array(weights)
    cumsum, total = np.cumsum(probs), probs.sum()
    # numpy adds four values left to right, as the one-draw path does.
    assert cumsum.tolist() == list(accumulate(weights)) and total == cumsum[-1]
    draws = []
    for bound in cumsum / total:
        below = np.nextafter(bound, -np.inf)
        draws += [np.nextafter(below, -np.inf), below, bound, np.nextafter(bound, np.inf)]
    draws = np.clip(draws, 0.0, 1.0)
    assert born_index(probs, draws).tolist() == [born_index(weights, u) for u in draws.tolist()]


def test_alice_measure_rejects_two_particle_state():
    with pytest.raises(ValueError, match="three particles"):
        alice_measure(singlet(), seeded_stream(0))


def test_run_ideal_rejects_multi_qubit_input():
    with pytest.raises(ValueError, match="single-qubit"):
        run_ideal(singlet(), 0)
