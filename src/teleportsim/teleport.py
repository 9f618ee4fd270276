"""The standard two-bit teleportation protocol, step by step.

The sender holds particle 1 in an unknown state a|0> + b|1> and particle 2 of
a shared EPR singlet; the receiver holds particle 3. A Bell measurement on
particles 1 and 2 leaves particle 3 in one of four conditional states, and the
two classical bits select the unitary that restores the original state up to
global phase.

A run reads its branch from the textbook decomposition |psi>_1 |Psi->_23 =
1/2 sum_i |Bell_i>_12 (x) sigma_i |psi>_3: every outcome has probability 1/4
and leaves a signed permutation of (a, b), so a uniform draw u in [0, 1)
picks outcome ``int(4 * u)``. That table is a few operations on two
amplitudes, so it is computed in Python ``complex`` arithmetic rather than
numpy, whose per-call cost on 2-element arrays exceeds the arithmetic.
A record builds its checked ``Ket`` values on first read. The general Bell
measurement, ``qcore.born_measure`` with ``qcore.bell_basis()`` on
``prepare_joint``'s state, is the oracle the tests compare it against.
"""

from __future__ import annotations

import math
from enum import Enum

from .qcore import GATES, _SQRT_HALF, Gate, Ket, _cached, _first_draw, _Frozen

__all__ = [
    "BellOutcome",
    "CORRECTIONS",
    "TeleportRecord",
    "prepare_joint",
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


# Same order as qcore.bell_basis(): the enum's definition order.
OUTCOME_ORDER = tuple(BellOutcome)

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


class TeleportRecord(_Frozen):
    """One protocol branch: what the receiver saw and how well the delivered
    state matches the input. Its two ``Ket`` values, particle 3 before and
    after the correction, are built on first read and cached."""

    def __init__(self, outcome: BellOutcome, conditional, corrected, fidelity: float, probability: float):
        vars(self).update(outcome=outcome, _conditional=conditional, _corrected=corrected,
                          fidelity=fidelity, probability=probability)

    @_cached
    def conditional_state(self) -> Ket:
        return Ket(self._conditional, ("3",))

    @_cached
    def corrected_state(self) -> Ket:
        return Ket(self._corrected, ("3",))

    def __repr__(self) -> str:
        names = ("outcome", "conditional_state", "corrected_state", "fidelity", "probability")
        return f"TeleportRecord({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"


def _corrected_pair(record: TeleportRecord) -> tuple[complex, complex]:
    """The pair ``corrected_state`` is built from, without building it."""
    return record._corrected


def _qubit(psi: Ket) -> tuple[complex, complex]:
    """The sender's (a, b); the protocol's one check of its input."""
    if psi.dim != 2:
        raise ValueError(f"input must be a single-qubit ket, got dimension {psi.dim}")
    return psi.entries


def prepare_joint(psi: Ket) -> Ket:
    """Three-particle state |psi>_1 (x) singlet_23."""
    singlet = (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0)
    return Ket([x * s for x in _qubit(psi) for s in singlet], (psi.labels[0], "2", "3"))


def _bell_branches(psi: Ket) -> tuple[tuple[tuple[complex, complex], ...], float]:
    """Particle 3's normalized pair after each Bell outcome, in
    ``OUTCOME_ORDER``, and the probability every outcome has.

    With h = sqrt(1/2), p = h (a h) and q = h (b h) are the amplitudes that
    <bell_i|_12 picks out of psi (x) singlet, rounded as that contraction
    rounds them. The unnormalized branches are (-q, p), (q, p), (-p, q) and
    (-p, -q) for Phi+, Phi-, Psi+ and Psi-, and |q|^2 + |p|^2, about 1/4, is
    each one's Born probability. Scaling by the reciprocal of its square root
    rounds as numpy's division of a complex array by a real does.
    """
    a, b = _qubit(psi)
    h = _SQRT_HALF
    p, q = h * (a * h), h * (b * h)
    prob = (q.real * q.real + q.imag * q.imag) + (p.real * p.real + p.imag * p.imag)
    scale = 1.0 / math.sqrt(prob)
    p, q = p * scale, q * scale
    return ((-q, p), (q, p), (-p, q), (-p, -q)), prob


def correction_for(outcome: BellOutcome) -> Gate:
    """The unitary the receiver applies for a given classical message."""
    return GATES[CORRECTIONS[outcome]]


def _record(psi: Ket, index: int, branches, prob: float) -> TeleportRecord:
    # Branch ``index`` of _bell_branches, corrected. The gate's entries are 0
    # and +-1, so applying it to the two complexes is exact. (d0, d1) is a
    # unit pair, so |<psi|d>|^2 is the fidelity of its density matrix.
    outcome = OUTCOME_ORDER[index]
    c0, c1 = branches[index]
    (g00, g01), (g10, g11) = correction_for(outcome).rows
    d0, d1 = g00 * c0 + g01 * c1, g10 * c0 + g11 * c1
    a, b = psi.entries
    fid = abs(a.conjugate() * d0 + b.conjugate() * d1) ** 2
    return TeleportRecord(outcome, (c0, c1), (d0, d1), fid, prob)


def run_ideal(psi: Ket, seed: int) -> TeleportRecord:
    """One full protocol run with a perfect correction step. The seed's first
    draw u in [0, 1) picks ``OUTCOME_ORDER[int(4 * u)]``: u is a multiple of
    2^-53, so 4u is exact and each outcome has probability exactly 1/4. The
    seed is an integer at least 0: an int, a bool or a numpy integer (see
    ``qcore._first_draw``)."""
    branches, prob = _bell_branches(psi)
    return _record(psi, int(4.0 * _first_draw(seed)), branches, prob)


def enumerate_branches(psi: Ket) -> list[TeleportRecord]:
    """All four measurement branches, deterministically, in bell-basis order."""
    branches, prob = _bell_branches(psi)
    return [_record(psi, index, branches, prob) for index in range(len(branches))]
