"""The standard two-bit teleportation protocol, step by step.

The sender holds particle 1 in an unknown state a|0> + b|1> and particle 2 of
a shared EPR singlet; the receiver holds particle 3. A Bell measurement on
particles 1 and 2 leaves particle 3 in one of four conditional states, and the
two classical bits select the unitary that restores the original state up to
global phase.

A run is a few dozen operations on eight amplitudes, so it is computed in
Python ``complex`` arithmetic rather than numpy, whose per-call cost on 2- to
8-element arrays exceeds the arithmetic; the states it returns are checked
``Ket`` values all the same. ``qcore.born_measure`` with the lifted Bell
projectors is the oracle the tests compare it against.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

import numpy as np

from .qcore import GATES, Gate, Ket, _first_draw

__all__ = [
    "BellOutcome",
    "OUTCOME_ORDER",
    "CORRECTIONS",
    "TeleportRecord",
    "singlet",
    "prepare_joint",
    "alice_measure",
    "correction_for",
    "born_index",
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

_SQRT_HALF = math.sqrt(0.5)
_SINGLET = (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0)


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
    return Ket(_SINGLET, ("2", "3"))


def _joint_amplitudes(psi: Ket) -> list[complex]:
    if psi.dim != 2:
        raise ValueError(f"input must be a single-qubit ket, got dimension {psi.dim}")
    return [x * s for x in psi.amplitudes.tolist() for s in _SINGLET]


def prepare_joint(psi: Ket) -> Ket:
    """Three-particle state |psi>_1 (x) singlet_23."""
    return Ket(_joint_amplitudes(psi), (psi.labels[0], "2", "3"))


def _bell_branches(j: list[complex]) -> tuple[tuple[tuple[complex, complex], ...], list[float]]:
    """Bell measurement on particles 1 and 2 of a three-particle state, all
    four branches at once, from its 8 amplitudes as Python complexes.

    With J_r = (j[2r], j[2r+1]) particle 3's pair at particles 1 and 2 in
    |r>, ``v[i]`` is the partial inner product <bell_i|_12 applied to the
    state: h(J_0 +- J_3) for Phi+-, h(J_1 +- J_2) for Psi+-, with
    h = sqrt(1/2). It is particle 3's conditional vector, unnormalized, signs
    included. ``probs[i] = |v_i0|^2 + |v_i1|^2`` is the Born probability of
    outcome i, the number ``qcore.born_measure`` gives with the lifted
    projectors.
    """
    h = _SQRT_HALF
    v = (
        (h * (j[0] + j[6]), h * (j[1] + j[7])),
        (h * (j[0] - j[6]), h * (j[1] - j[7])),
        (h * (j[2] + j[4]), h * (j[3] + j[5])),
        (h * (j[2] - j[4]), h * (j[3] - j[5])),
    )
    probs = [(x.real * x.real + x.imag * x.imag) + (y.real * y.real + y.imag * y.imag) for x, y in v]
    return v, probs


def _conditional(v, probs, index: int) -> tuple[complex, complex]:
    # Branch ``index`` normalized. Scaling by the reciprocal rounds as numpy's
    # division of a complex array by a real does.
    x, y = v[index]
    scale = 1.0 / math.sqrt(probs[index])
    return x * scale, y * scale


def born_index(probs, u):
    """``qcore.born_measure``'s sampling rule, so a seed picks the same outcome:
    the index that a uniform draw u in [0, 1) selects, i with probability
    probs[i] / sum(probs). Searching all but the last boundary maps a draw
    that rounds onto the total to the last index.

    A float u (one draw) is searched in plain Python: a running sum and
    ``bisect``, which add left to right as ``np.cumsum`` and ``np.sum`` do on
    four values, so both paths give the same index. An array of draws, as
    ``cmd_teleport`` passes, is searched with ``np.searchsorted``."""
    if isinstance(u, float):
        bounds = list(accumulate(probs))
        return bisect_right(bounds, u * bounds[-1], 0, len(bounds) - 1)
    return np.searchsorted(np.cumsum(probs)[:-1], u * probs.sum(), side="right")


def alice_measure(joint: Ket, rng: np.random.Generator) -> tuple[BellOutcome, Ket]:
    """Bell measurement on particles 1 and 2; returns the sampled outcome and
    the conditional state of particle 3 (signs included)."""
    if joint.dim != 8:
        raise ValueError(f"joint state must have three particles, got dimension {joint.dim}")
    v, probs = _bell_branches(joint.amplitudes.tolist())
    index = born_index(probs, rng.random())
    return OUTCOME_ORDER[index], Ket(_conditional(v, probs, index), (joint.labels[2],))


def correction_for(outcome: BellOutcome) -> Gate:
    """The unitary the receiver applies for a given classical message."""
    return GATES[CORRECTIONS[outcome]]


def _record(psi: Ket, index: int, v, probs: list[float]) -> TeleportRecord:
    # Branch ``index`` of _bell_branches, corrected. The gate's entries are 0
    # and +-1, so applying it to the two complexes is exact. ``corrected`` is
    # a unit Ket, so |<psi|corrected>|^2 is the fidelity <psi|rho|psi> of its
    # density matrix.
    outcome = OUTCOME_ORDER[index]
    c0, c1 = _conditional(v, probs, index)
    (g00, g01), (g10, g11) = correction_for(outcome).mat.tolist()
    d0, d1 = g00 * c0 + g01 * c1, g10 * c0 + g11 * c1
    a, b = psi.amplitudes.tolist()
    fid = abs(a.conjugate() * d0 + b.conjugate() * d1) ** 2
    return TeleportRecord(
        psi, outcome, Ket((c0, c1), ("3",)), Ket((d0, d1), ("3",)), fid, probs[index]
    )


def run_ideal(psi: Ket, seed: int) -> TeleportRecord:
    """One full protocol run with a perfect correction step."""
    v, probs = _bell_branches(_joint_amplitudes(psi))
    return _record(psi, born_index(probs, _first_draw(seed)), v, probs)


def enumerate_branches(psi: Ket) -> list[TeleportRecord]:
    """All four measurement branches, deterministically, in bell-basis order."""
    v, probs = _bell_branches(_joint_amplitudes(psi))
    return [_record(psi, index, v, probs) for index in range(len(OUTCOME_ORDER))]
