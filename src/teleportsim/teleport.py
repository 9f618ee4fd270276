"""The standard two-bit teleportation protocol, step by step.

The sender holds particle 1 in an unknown state a|0> + b|1> and particle 2 of
a shared EPR singlet; the receiver holds particle 3. A Bell measurement on
particles 1 and 2 leaves particle 3 in one of four conditional states, and the
two classical bits select the unitary that restores the original state up to
global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import tensor_product
from .qcore import GATES, Gate, Ket, apply_gate, bell_state_vectors, seeded_stream

__all__ = [
    "BellOutcome",
    "OUTCOME_ORDER",
    "CORRECTIONS",
    "TeleportRecord",
    "singlet",
    "prepare_joint",
    "alice_measure",
    "correction_for",
    "run_ideal",
    "enumerate_branches",
]


class BellOutcome(Enum):
    """Result of the sender's Bell measurement; the enum value is the 2-bit
    classical message (phase bit, parity bit)."""

    PHI_PLUS = (0, 0)
    PHI_MINUS = (1, 0)
    PSI_PLUS = (0, 1)
    PSI_MINUS = (1, 1)

    @property
    def bits(self) -> tuple[int, int]:
        return self.value


# Same order as qcore.bell_basis().
OUTCOME_ORDER = (
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
)

# Outcome -> correction gate, frozen. Each gate is the unique member of
# {I, X, Z, ZX} that maps the corresponding conditional state back to the
# input up to global phase; a regression test re-derives the table by
# exhaustive search.
CORRECTIONS = {
    BellOutcome.PSI_MINUS: "I",
    BellOutcome.PSI_PLUS: "Z",
    BellOutcome.PHI_MINUS: "X",
    BellOutcome.PHI_PLUS: "ZX",
}

# Row i is <bell_i| in qcore.bell_basis() order.
_BELL_ROWS = np.array(bell_state_vectors()).conj()
_BELL_ROWS.flags.writeable = False

_SINGLET_AMPLITUDES = np.array([0, 1, -1, 0]) * np.sqrt(0.5)
_SINGLET_AMPLITUDES.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TeleportRecord:
    """One protocol branch: what the receiver saw and how well the delivered
    state matches the input."""

    input_state: Ket
    outcome: BellOutcome
    conditional_state: Ket
    corrected_state: Ket
    fidelity: float
    probability: float


def singlet() -> Ket:
    """The shared EPR pair (|01> - |10>)/sqrt(2) on particles 2 and 3."""
    return Ket(_SINGLET_AMPLITUDES, ("2", "3"))


def _joint_amplitudes(psi: Ket) -> np.ndarray:
    if psi.dim != 2:
        raise ValueError(f"input must be a single-qubit ket, got dimension {psi.dim}")
    return tensor_product(psi.amplitudes, _SINGLET_AMPLITUDES)


def prepare_joint(psi: Ket) -> Ket:
    """Three-particle state |psi>_1 (x) singlet_23."""
    return Ket(_joint_amplitudes(psi), (psi.labels[0], "2", "3"))


def _bell_branches(joint_amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bell measurement on particles 1 and 2 of a three-particle state, all
    four branches at once.

    Row i of ``v`` is the partial inner product <bell_i|_12 applied to the
    state: particle 3's conditional vector, unnormalized, signs included.
    ``probs[i] = |v_i|^2`` is the Born probability of outcome i, the same
    number ``qcore.born_measure`` gives with the lifted projectors.
    """
    v = _BELL_ROWS @ joint_amplitudes.reshape(4, 2)
    return v, (v * v.conj()).real.sum(axis=1)


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    # qcore.born_measure's sampling rule, so a seed picks the same outcome.
    r = rng.random() * probs.sum()
    return min(int(np.searchsorted(np.cumsum(probs), r, side="right")), len(probs) - 1)


def alice_measure(joint: Ket, rng: np.random.Generator) -> tuple[BellOutcome, Ket]:
    """Bell measurement on particles 1 and 2; returns the sampled outcome and
    the conditional state of particle 3 (signs included)."""
    if joint.dim != 8:
        raise ValueError(f"joint state must have three particles, got dimension {joint.dim}")
    v, probs = _bell_branches(joint.amplitudes)
    index = _draw(probs, rng)
    return OUTCOME_ORDER[index], Ket(v[index] / math.sqrt(probs[index]), (joint.labels[2],))


def correction_for(outcome: BellOutcome) -> Gate:
    """The unitary the receiver applies for a given classical message."""
    return GATES[CORRECTIONS[outcome]]


def _record(psi: Ket, index: int, v: np.ndarray, probs: np.ndarray) -> TeleportRecord:
    # Branch ``index`` of _bell_branches, corrected. ``corrected`` is a unit
    # Ket, so |<psi|corrected>|^2 is the fidelity <psi|rho|psi> of its
    # density matrix.
    outcome = OUTCOME_ORDER[index]
    prob = float(probs[index])
    conditional = Ket(v[index] / math.sqrt(prob), ("3",))
    corrected = apply_gate(conditional, correction_for(outcome), 0)
    fid = float(abs(np.vdot(psi.amplitudes, corrected.amplitudes)) ** 2)
    return TeleportRecord(psi, outcome, conditional, corrected, fid, prob)


def run_ideal(psi: Ket, seed: int) -> TeleportRecord:
    """One full protocol run with a perfect correction step."""
    rng = seeded_stream(seed)
    v, probs = _bell_branches(_joint_amplitudes(psi))
    return _record(psi, _draw(probs, rng), v, probs)


def enumerate_branches(psi: Ket) -> list[TeleportRecord]:
    """All four measurement branches, deterministically, in bell-basis order."""
    v, probs = _bell_branches(_joint_amplitudes(psi))
    return [_record(psi, index, v, probs) for index in range(len(OUTCOME_ORDER))]
