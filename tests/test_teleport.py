import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import envmodel, teleport
from teleportsim.envmodel import EnvironmentModel, noisy_teleport
from teleportsim.qcore import (
    I,
    X,
    Z,
    ZX,
    Ket,
    fidelity,
    ket_from_amplitudes,
    to_density,
)
from teleportsim.teleport import (
    CORRECTIONS,
    OUTCOME_ORDER,
    BellOutcome,
    enumerate_branches,
    prepare_joint,
    run_ideal,
)
from teleportsim.qcore import _first_word, seeded_stream

from support import (
    BELL_DRAW_EDGES, BELL_DRAW_STATES, SINGLET, SQRT_HALF, bell_contraction, delivered_pair, listed_conditional,
    qubits, random_qubit,
)

TWO_QUBITS = Ket(SINGLET, ("2", "3"))


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
    assert np.allclose(joint.amplitudes, expected, rtol=0, atol=1e-15)


def test_prepare_joint_one_input():
    joint = prepare_joint(ket_from_amplitudes(0, 1))
    expected = np.zeros(8, dtype=complex)
    expected[0b101] = SQRT_HALF
    expected[0b110] = -SQRT_HALF
    assert np.allclose(joint.amplitudes, expected, rtol=0, atol=1e-15)


def test_prepare_joint_against_kron_oracle():
    rng = np.random.default_rng(30)
    amps = random_qubit(rng)
    joint = prepare_joint(Ket(amps, ("1",)))
    assert np.allclose(joint.amplitudes, np.kron(amps, SINGLET), rtol=0, atol=1e-12)
    assert joint.labels == ("1", "2", "3")


def test_prepare_joint_rejects_multi_qubit_input():
    with pytest.raises(ValueError, match="single-qubit"):
        prepare_joint(TWO_QUBITS)


# ---------------------------------------------------------------- correction table

def test_correction_table_rederived_by_exhaustive_search():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a, b = random_qubit(rng)
        target = np.array([a, b])
        for outcome in BellOutcome:
            conditional = listed_conditional(outcome, a, b)
            winners = [
                gate
                for gate in (I, X, Z, ZX)
                if abs(np.vdot(target, gate.mat @ conditional)) > 1 - 1e-9
            ]
            assert len(winners) == 1 and winners[0] is CORRECTIONS[outcome]


def test_corrections_map_each_outcome_to_its_gate():
    assert CORRECTIONS[BellOutcome.PSI_MINUS] is I
    assert CORRECTIONS[BellOutcome.PSI_PLUS] is Z
    assert CORRECTIONS[BellOutcome.PHI_MINUS] is X
    assert CORRECTIONS[BellOutcome.PHI_PLUS] is ZX
    assert len(CORRECTIONS) == 4


def test_corrections_table_is_read_only():
    # A record derives its corrected pair from this table: a table that took
    # writes could drift from the gates it applies.
    with pytest.raises(TypeError):
        CORRECTIONS[BellOutcome.PSI_MINUS] = X
    with pytest.raises(TypeError):
        del CORRECTIONS[BellOutcome.PSI_MINUS]
    assert CORRECTIONS[BellOutcome.PSI_MINUS] is I


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


@pytest.mark.parametrize("amplitudes", BELL_DRAW_STATES)
def test_run_ideal_picks_the_quarter_its_draw_falls_in(monkeypatch, amplitudes):
    psi = ket_from_amplitudes(*amplitudes)
    for u, index in BELL_DRAW_EDGES:
        # The first word whose draw (w >> 11) * 2^-53 is u.
        monkeypatch.setattr(teleport, "_first_word", lambda seed: int(u * 2**53) << 11)
        assert run_ideal(psi, 0).outcome is OUTCOME_ORDER[index], u


def test_bell_outcome_is_the_top_two_bits_of_the_first_word():
    # numpy's first draw u is (w >> 11) * 2^-53 for the first 64-bit word w,
    # so int(4u) reads w's top two bits, the outcome run_ideal picks.
    rng = random.Random(22)
    edges = [0, 2**64 - 1] + [(k << 62) + d for k in (1, 2, 3) for d in (-1, 0)]
    for w in edges + [rng.getrandbits(64) for _ in range(20_000)]:
        assert int(4.0 * ((w >> 11) * 2.0**-53)) == w >> 62, w


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


def test_enumerate_branches_conditional_states_match_listed_table():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a, b = random_qubit(rng)
        for record in enumerate_branches(Ket(np.array([a, b]), ("1",))):
            listed = listed_conditional(record.outcome, a, b)
            assert np.abs(record.conditional_state.amplitudes - listed).max() <= 1e-12


def test_enumerate_branches_conditional_states_for_basis_input():
    records = enumerate_branches(ket_from_amplitudes(1, 0))
    for record in records:
        expected = listed_conditional(record.outcome, 1.0, 0.0)
        assert np.allclose(record.conditional_state.amplitudes, expected, rtol=0, atol=1e-12)


def test_enumerate_branches_mixture_recovers_input():
    rng = np.random.default_rng(35)
    psi = Ket(random_qubit(rng), ("1",))
    records = enumerate_branches(psi)
    mixture = sum(
        r.probability * np.outer(r.corrected_state.amplitudes, r.corrected_state.amplitudes.conj())
        for r in records
    )
    assert np.allclose(mixture, to_density(psi).mat, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- pinned numbers

# Each input's branch probability, and per branch in OUTCOME_ORDER the
# fidelity and particle 3's pairs before and after the correction, as the
# Bell contraction of all eight amplitudes of psi (x) singlet gives them. The
# pairs are compared with ==, so the sign of a zero part is not pinned.
PINNED = {
    "zero": (
        (1.0, 0.0),
        "0x1.0000000000002p-2",
        [
            ("0x1.0000000000000p+0", (0j, 1 + 0j), (1 + 0j, 0j)),
            ("0x1.0000000000000p+0", (0j, 1 + 0j), (1 + 0j, 0j)),
            ("0x1.0000000000000p+0", (-1 + 0j, 0j), (-1 + 0j, 0j)),
            ("0x1.0000000000000p+0", (-1 + 0j, 0j), (-1 + 0j, 0j)),
        ],
    ),
    "one": (
        (0.0, 1.0),
        "0x1.0000000000002p-2",
        [
            ("0x1.0000000000000p+0", (-1 + 0j, 0j), (0j, 1 + 0j)),
            ("0x1.0000000000000p+0", (1 + 0j, 0j), (0j, 1 + 0j)),
            ("0x1.0000000000000p+0", (0j, 1 + 0j), (0j, -1 + 0j)),
            ("0x1.0000000000000p+0", (0j, -1 + 0j), (0j, -1 + 0j)),
        ],
    ),
    "real": (
        (0.6, 0.8),
        "0x1.0000000000002p-2",
        [
            ("0x1.0000000000000p+0", (-0.7999999999999999 + 0j, 0.6 + 0j), (0.6 + 0j, 0.7999999999999999 + 0j)),
            ("0x1.0000000000000p+0", (0.7999999999999999 + 0j, 0.6 + 0j), (0.6 + 0j, 0.7999999999999999 + 0j)),
            ("0x1.0000000000000p+0", (-0.6 + 0j, 0.7999999999999999 + 0j), (-0.6 + 0j, -0.7999999999999999 + 0j)),
            ("0x1.0000000000000p+0", (-0.6 + 0j, -0.7999999999999999 + 0j), (-0.6 + 0j, -0.7999999999999999 + 0j)),
        ],
    ),
    "imaginary": (
        (0.6, -0.8j),
        "0x1.0000000000002p-2",
        [
            ("0x1.0000000000000p+0", (0.7999999999999999j, 0.6 + 0j), (0.6 + 0j, -0.7999999999999999j)),
            ("0x1.0000000000000p+0", (-0.7999999999999999j, 0.6 + 0j), (0.6 + 0j, -0.7999999999999999j)),
            ("0x1.0000000000000p+0", (-0.6 + 0j, -0.7999999999999999j), (-0.6 + 0j, 0.7999999999999999j)),
            ("0x1.0000000000000p+0", (-0.6 + 0j, 0.7999999999999999j), (-0.6 + 0j, 0.7999999999999999j)),
        ],
    ),
    "random": (
        (0.4194529895202075 + 0.46750422435627526j, 0.6693917172048282 - 0.39675397758456044j),
        "0x1.0000000000003p-2",
        [
            (
                "0x1.0000000000002p+0",
                (-0.6693917172048282 + 0.3967539775845603j, 0.41945298952020743 + 0.4675042243562752j),
                (0.41945298952020743 + 0.4675042243562752j, 0.6693917172048282 - 0.3967539775845603j),
            ),
            (
                "0x1.0000000000002p+0",
                (0.6693917172048282 - 0.3967539775845603j, 0.41945298952020743 + 0.4675042243562752j),
                (0.41945298952020743 + 0.4675042243562752j, 0.6693917172048282 - 0.3967539775845603j),
            ),
            (
                "0x1.0000000000002p+0",
                (-0.41945298952020743 - 0.4675042243562752j, 0.6693917172048282 - 0.3967539775845603j),
                (-0.41945298952020743 - 0.4675042243562752j, -0.6693917172048282 + 0.3967539775845603j),
            ),
            (
                "0x1.0000000000002p+0",
                (-0.41945298952020743 - 0.4675042243562752j, -0.6693917172048282 + 0.3967539775845603j),
                (-0.41945298952020743 - 0.4675042243562752j, -0.6693917172048282 + 0.3967539775845603j),
            ),
        ],
    ),
    "signed-zero": (
        (complex(-0.0, 0.6), complex(-0.8, -0.0)),
        "0x1.0000000000002p-2",
        [
            ("0x1.0000000000000p+0", (0.7999999999999999 + 0j, 0.6j), (0.6j, -0.7999999999999999 + 0j)),
            ("0x1.0000000000000p+0", (-0.7999999999999999 + 0j, 0.6j), (0.6j, -0.7999999999999999 + 0j)),
            ("0x1.0000000000000p+0", (-0.6j, -0.7999999999999999 + 0j), (-0.6j, 0.7999999999999999 + 0j)),
            ("0x1.0000000000000p+0", (-0.6j, 0.7999999999999999 + 0j), (-0.6j, 0.7999999999999999 + 0j)),
        ],
    ),
}
# The outcome each seed's draw selects; the four probabilities are equal, so
# it does not depend on the input.
PINNED_RUNS = {
    0: BellOutcome.PHI_PLUS,
    7: BellOutcome.PHI_MINUS,
    11: BellOutcome.PSI_PLUS,
    2**63: BellOutcome.PHI_MINUS,
}


@pytest.mark.parametrize("name", PINNED)
def test_protocol_numbers_are_pinned(name):
    pair, probability, branches = PINNED[name]
    psi = Ket(pair, ("1",))
    records = enumerate_branches(psi)
    assert [r.outcome for r in records] == list(OUTCOME_ORDER)
    assert [r.probability.hex() for r in records] == [probability] * 4
    pairs = [(r.fidelity.hex(), r.conditional_state.entries, r.corrected_state.entries) for r in records]
    assert pairs == branches
    for seed, outcome in PINNED_RUNS.items():
        run = run_ideal(psi, seed)
        fid = branches[OUTCOME_ORDER.index(outcome)][0]
        assert (run.outcome, run.probability.hex(), run.fidelity.hex()) == (outcome, probability, fid)


# ---------------------------------------------------------------- branch kernel vs the contraction

TOL = 1e-12
seeds = st.integers(0, 2**62)
qubit_kets = qubits().map(lambda ab: Ket(ab, ("1",)))


def assert_matches_oracle(record, psi, index):
    """``record`` is branch ``index`` of ``psi``: its probability and pairs
    are ``support.bell_contraction``'s, normalized and then corrected by
    the outcome's gate, and its conditional pair is the listed one."""
    a, b = psi.entries
    v0, v1 = bell_contraction(a, b)[index]
    prob = abs(v0) ** 2 + abs(v1) ** 2
    conditional = (v0 / math.sqrt(prob), v1 / math.sqrt(prob))
    (g00, g01), (g10, g11) = CORRECTIONS[OUTCOME_ORDER[index]].rows
    corrected = (g00 * conditional[0] + g01 * conditional[1], g10 * conditional[0] + g11 * conditional[1])
    listed = listed_conditional(OUTCOME_ORDER[index], a, b).tolist()
    assert record.outcome is OUTCOME_ORDER[index]
    assert abs(record.probability - prob) <= TOL
    for got, want in ((record.conditional_state, conditional), (record.corrected_state, corrected),
                      (record.conditional_state, listed)):
        assert max(abs(x - y) for x, y in zip(got.entries, want)) <= TOL
    assert abs(record.fidelity - fidelity(psi, to_density(Ket(corrected, ("3",))))) <= TOL


@settings(max_examples=200, deadline=None)
@given(qubit_kets, seeds)
def test_run_ideal_matches_bell_contraction(psi, seed):
    # The outcome is int(4u) of numpy's first draw u from the seed's stream:
    # every outcome has probability 1/4.
    index = int(4 * seeded_stream(seed).random())
    assert_matches_oracle(run_ideal(psi, seed), psi, index)


@settings(max_examples=100, deadline=None)
@given(qubit_kets)
def test_enumerate_branches_matches_bell_contraction(psi):
    records = enumerate_branches(psi)
    assert len(records) == len(OUTCOME_ORDER)
    for index, record in enumerate(records):
        assert_matches_oracle(record, psi, index)


def test_run_ideal_rejects_multi_qubit_input():
    with pytest.raises(ValueError, match="single-qubit"):
        run_ideal(TWO_QUBITS, 0)


@pytest.mark.parametrize("seed", [-1, None, 1.5])
def test_run_ideal_checks_its_input_before_its_seed(seed):
    with pytest.raises(ValueError, match="single-qubit"):
        run_ideal(TWO_QUBITS, seed)


def test_run_ideal_builds_its_branch_table_after_the_draw(monkeypatch):
    # The draw's 128-bit products are where a run's heap peaks, so the branch
    # table is not built until the outcome is known.
    calls = []
    draw, branches = teleport._first_word, teleport._bell_branches
    monkeypatch.setattr(teleport, "_first_word", lambda seed: calls.append("draw") or draw(seed))
    monkeypatch.setattr(teleport, "_bell_branches", lambda a, b: calls.append("branches") or branches(a, b))
    run_ideal(ket_from_amplitudes(0.6, 0.8j), 12345)
    assert calls == ["draw", "branches"]


# ---------------------------------------------------------------- the seed rule

# The outcome each seeded entry point samples.
_SEEDED_RUNS = {
    "run_ideal": lambda seed: run_ideal(ket_from_amplitudes(0.6, 0.8j), seed).outcome,
    "noisy_teleport": lambda seed: noisy_teleport(
        ket_from_amplitudes(0.6, 0.8j), EnvironmentModel(0.5, 1, 1), seed
    ).branch,
}


@pytest.mark.parametrize("run", _SEEDED_RUNS.values(), ids=_SEEDED_RUNS)
@pytest.mark.parametrize("seed", [True, False, np.int64(12), np.uint8(200), np.uint64(2**64 - 1)])
def test_a_run_takes_a_bool_or_numpy_integer_seed_as_its_int(run, seed):
    expected = OUTCOME_ORDER[np.random.Philox(int(seed)).random_raw() >> 62]
    assert run(seed) is run(int(seed)) is expected


@pytest.mark.parametrize("run", _SEEDED_RUNS.values(), ids=_SEEDED_RUNS)
@pytest.mark.parametrize("seed", [-1, -(2**70), np.int64(-3)])
def test_a_run_rejects_a_negative_seed_with_numpys_message(run, seed):
    with pytest.raises(ValueError) as want:
        np.random.Philox(-1)
    with pytest.raises(ValueError) as got:
        run(seed)
    assert str(got.value) == str(want.value)


# numpy took None (fresh OS entropy, so an unreproducible run) and a sequence
# of ints as seeds; the protocol now rejects them with every other non-integer.
@pytest.mark.parametrize("run", _SEEDED_RUNS.values(), ids=_SEEDED_RUNS)
@pytest.mark.parametrize("seed", [None, 1.5, 7.0, np.float64(7.0), "7", b"7", [1, 2], (7,), np.array([1, 2])])
def test_a_run_rejects_a_non_integer_seed_by_name(run, seed):
    with pytest.raises(TypeError, match=r"^seed must be an integer, not "):
        run(seed)


# ---------------------------------------------------------------- memory

def _traced_bytes(call) -> tuple[int, int]:
    """The fewest heap bytes a warm call's result holds when it returns, and
    the fewest the call holds beyond that result at its traced peak, each
    least of five calls. The interpreter's free lists of floats and tuples
    need a few calls to settle, and their state moves the figures by tens of
    bytes."""
    for _ in range(20):
        call()
    retained, transients = [], []
    for _ in range(5):
        tracemalloc.start()
        try:
            out = call()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del out
        retained.append(current)
        transients.append(peak - current)
    return min(retained), min(transients)


_MEMORY_PSI = ket_from_amplitudes(0.6 - 0.48j, 0.64j)
_MEMORY_ENV = EnvironmentModel(0.3 + 0.4j, 0.7 - 0.2j, 0.5 + 0.9j)
# Built once: the compiler does not fold 2**128, so a call that wrote the sum
# would allocate its seed each time and count it against the protocol.
_MEMORY_LARGE_SEED = 2**128 + 12345


# What a protocol call allocates beyond its result, measured on Python 3.11:
# run_ideal 272 B, where its heap peaks under the cipher's four 128-bit
# products in _first_word (356 B beyond the word it returns), noisy_teleport
# 152 B and enumerate_branches 0 B. Each of these wastes fails a bound on
# its own: two dead words beside the cipher's four products (run_ideal
# 344 B, noisy_teleport 224 B, _first_word 428 B), a dead corrected pair
# beside the fidelity's products (enumerate_branches 72 B), a
# comprehension's function object (enumerate_branches 440 B), the
# SeedSequence pool kept alive under the cipher (run_ideal 432 B), the
# branch table built before the draw, so that it too is alive under the
# cipher (run_ideal 400 B), and the table kept alive under noisy_teleport's
# report (noisy_teleport 280 B). A seed of 2**128 or more peaks in
# _first_word's word loop (run_ideal 336 B), which keeps no list, word or
# hash constant alive under the cipher (they once held run_ideal at 600 B).
# On 3.10 and 3.12 the figures are at most 16 B above 3.11's, and on 3.13 at
# most 3.11's. The bounds are on bytes beyond the result, not on the peak,
# since the result's own size differs between Python versions.
@pytest.mark.parametrize("call, bound", [
    (lambda: enumerate_branches(_MEMORY_PSI), 56),
    (lambda: run_ideal(_MEMORY_PSI, 12345), 304),
    (lambda: noisy_teleport(_MEMORY_PSI, _MEMORY_ENV, 12345), 192),
    (lambda: run_ideal(_MEMORY_PSI, _MEMORY_LARGE_SEED), 448),
    (lambda: noisy_teleport(_MEMORY_PSI, _MEMORY_ENV, _MEMORY_LARGE_SEED), 448),
    (lambda: _first_word(12345), 384),
], ids=["enumerate_branches", "run_ideal", "noisy_teleport", "run_ideal-large-seed", "noisy_teleport-large-seed",
        "_first_word"])
def test_a_protocol_call_holds_little_beyond_what_it_returns(call, bound):
    assert _traced_bytes(call)[1] <= bound


def test_noisy_teleport_releases_its_record_before_the_kernel(monkeypatch):
    # It builds no record, and when the report's work starts it holds,
    # beyond its arguments, only the delivered pair and the outcome (or its
    # index): it builds no branch table and releases the probability, so
    # noisy_teleport peaks where run_ideal does.
    held = []
    report = envmodel._report

    def refuse_record(cls, **fields):
        raise AssertionError(f"built a {cls.__name__}")

    def traced_report(a, b, env, branch):
        held.extend(value for name, value in sys._getframe(1).f_locals.items()
                    if name not in {"psi", "env", "seed"})
        held.append((a, b, branch))
        return report(a, b, env, branch=branch)

    expected, delivered = run_ideal(_MEMORY_PSI, 12345), delivered_pair(_MEMORY_PSI)
    monkeypatch.setattr(teleport, "_stored", refuse_record)
    monkeypatch.setattr(envmodel, "_report", traced_report)
    assert noisy_teleport(_MEMORY_PSI, _MEMORY_ENV, 12345).branch is expected.outcome
    *kept, (a, b, branch) = held
    assert np.array((a, b)).tobytes() == np.array(delivered).tobytes()
    assert branch is expected.outcome
    for value in kept:
        assert value is a or value is b or value is branch or (type(value) is int and OUTCOME_ORDER[value] is branch)


# What a warm result holds, measured on CPython 3.10 to 3.13:
# enumerate_branches' four records 352 to 448 B and run_ideal's one 112 to
# 136 B (plus the test's one-item list): record objects, whose dicts come
# from the interpreter's free lists, and the branch table's complexes. A
# record that also stored its corrected pair, two more complexes, held 608
# to 704 B and 176 to 200 B.
@pytest.mark.parametrize("call, bound", [
    (lambda: enumerate_branches(_MEMORY_PSI), 448),
    (lambda: [run_ideal(_MEMORY_PSI, 12345)], 152),
], ids=["enumerate_branches", "run_ideal"])
def test_a_protocol_record_keeps_only_what_the_receiver_saw(call, bound):
    assert _traced_bytes(call)[0] <= bound
    for record in call():
        assert set(vars(record)) == {"outcome", "_conditional", "fidelity", "probability"}
