"""The standard two-bit teleportation protocol, step by step.

The sender holds particle 1 in an unknown state a|0> + b|1> and particle 2 of
a shared EPR singlet; the receiver holds particle 3. A Bell measurement on
particles 1 and 2 leaves particle 3 in one of four conditional states, and the
two classical bits select the unitary that restores the original state up to
global phase.

A run reads its branch from the textbook decomposition |psi>_1 |Psi->_23 =
1/2 sum_i |Bell_i>_12 (x) sigma_i |psi>_3: every outcome has probability 1/4
and leaves a signed permutation of (a, b), so the top two bits of the seed's
first 64-bit Philox word w pick outcome ``w >> 62``. That table is a few
operations on two amplitudes, so it is computed in Python ``complex``
arithmetic rather than numpy, whose per-call cost on 2-element arrays exceeds
the arithmetic. Every correction delivers the same pair up to sign, so a
call computes one fidelity for all of its records. A protocol record keeps
the outcome, the conditional pair and the two numbers, derives the corrected
pair from ``CORRECTIONS`` and builds its ``Ket`` values on first read.
``prepare_joint`` with ``qcore.born_measure`` is the general float route to
the same measurement: an oracle no package code calls, left out of ``__all__``.

Every function here that takes psi reads it by ``qcore._qubit`` and checks
nothing of its own: anything but a ``Ket`` raises TypeError "psi must be a
Ket, not tuple", and a ``Ket`` of another dimension ValueError "psi must be
a single-qubit Ket, got dimension 4".
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from types import MappingProxyType

from .qcore import _SQRT_HALF, I, Ket, X, Z, ZX, _first_word, _qubit, _Result, _stored

__all__ = [
    "BellOutcome",
    "CORRECTIONS",
    "TeleportRecord",
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

# Outcome -> the unitary the receiver applies, read-only. Each gate is the
# unique member of {I, X, Z, ZX} that maps the corresponding conditional
# state back to the input up to global phase; a regression test re-derives
# the table by exhaustive search.
CORRECTIONS = MappingProxyType({
    BellOutcome.PSI_MINUS: I,
    BellOutcome.PSI_PLUS: Z,
    BellOutcome.PHI_MINUS: X,
    BellOutcome.PHI_PLUS: ZX,
})


class TeleportRecord(_Result):
    """One protocol branch: what the receiver saw and how well the delivered
    state matches the input, with particle 3's state before and after the
    correction as ``Ket`` values.

    Only the protocol builds a record: it stores the outcome, the
    conditional pair, the fidelity and the probability, and builds the Kets
    through ``Ket``'s check on first read, and caches them. The corrected
    pair is the outcome's correction applied to the conditional pair,
    derived on each read and not stored. Every correction delivers the same
    pair (p, q) up to sign (see ``_bell_branches``), so the four records of
    one input share one fidelity, bit for bit, and a noisy report on that
    pair does not depend on the outcome."""

    _fields = ("outcome", "conditional_state", "corrected_state", "fidelity", "probability")

    @property
    def _corrected(self) -> tuple[complex, complex]:
        # The gate's entries are 0 and +-1, so applying it is exact.
        (g00, g01), (g10, g11) = CORRECTIONS[self.outcome].rows
        c0, c1 = self._conditional
        return g00 * c0 + g01 * c1, g10 * c0 + g11 * c1

    @cached_property
    def conditional_state(self) -> Ket:
        return Ket(self._conditional, ("3",))

    @cached_property
    def corrected_state(self) -> Ket:
        return Ket(self._corrected, ("3",))


def prepare_joint(psi: Ket) -> Ket:
    """Three-particle state |psi>_1 (x) singlet_23: an oracle, not exported."""
    singlet = (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0)
    return Ket([x * s for x in _qubit(psi) for s in singlet], (psi.labels[0], "2", "3"))


def _delivered(a: complex, b: complex) -> tuple[complex, complex, float]:
    """The pair (p, q) that every correction delivers up to sign, and the
    probability every outcome has, for the sender's checked (a, b).

    With h = sqrt(1/2), h (a h) and h (b h) are the amplitudes that
    <bell_i|_12 picks out of psi (x) singlet, rounded as that contraction
    rounds them, and the sum of their squared moduli, about 1/4, is each
    outcome's Born probability. (p, q) is that pair scaled by the reciprocal
    of the probability's square root, which rounds as numpy's division of a
    complex array by a real does.
    """
    h = _SQRT_HALF
    p, q = h * (a * h), h * (b * h)
    prob = (q.real * q.real + q.imag * q.imag) + (p.real * p.real + p.imag * p.imag)
    scale = 1.0 / math.sqrt(prob)
    return p * scale, q * scale, prob


def _bell_branches(a: complex, b: complex) -> tuple[tuple[tuple[complex, complex], ...], float, float]:
    """Particle 3's normalized pair after each Bell outcome, in
    ``OUTCOME_ORDER``, the fidelity every branch delivers and the
    probability every outcome has, for the sender's checked (a, b).

    The pairs are (-q, p), (q, p), (-p, q) and (-p, -q) for Phi+, Phi-, Psi+
    and Psi-, with (p, q) from ``_delivered``. Each outcome's correction
    maps its pair to (p, q) or (-p, -q), exactly up to the sign of a zero
    part: the gates' entries are 0 and +-1, and negation is exact. So every
    branch has the one fidelity |<psi|(p, q)>|^2, the fidelity of the unit
    pair's density matrix, and ``noisy_teleport``'s report, the coupling's
    on (p, q), does not depend on the outcome.
    """
    p, q, prob = _delivered(a, b)
    # Negation is exact, so one -p and one -q serve every pair.
    mp, mq = -p, -q
    return ((mq, p), (q, p), (mp, q), (mp, mq)), abs(a.conjugate() * p + b.conjugate() * q) ** 2, prob


def _record(index: int, branches, fid: float, prob: float) -> TeleportRecord:
    # Branch ``index`` of a _bell_branches table, with the table's fidelity.
    return _stored(TeleportRecord, outcome=OUTCOME_ORDER[index], _conditional=branches[index], fidelity=fid,
                   probability=prob)


def _draw(psi: Ket, seed: int) -> tuple[complex, complex, int]:
    """A seeded run's ``(a, b, index)``: the sender's checked pair and the
    index into ``OUTCOME_ORDER`` of the outcome the seed draws. The input is
    checked before the seed, and nothing is derived from the pair until the
    caller has the outcome, so none of it is alive under the cipher's
    products."""
    a, b = _qubit(psi)
    return a, b, _first_word(seed) >> 62


def run_ideal(psi: Ket, seed: int) -> TeleportRecord:
    """One full protocol run with a perfect correction step. The top two bits
    of the seed's first Philox word w pick ``OUTCOME_ORDER[w >> 62]``, so each
    outcome has probability exactly 1/4. That is the outcome numpy's first
    draw u = (w >> 11) * 2^-53 picks as ``int(4 * u)``: 4u is exact and its
    integer part is w's top two bits. The seed is an integer at least 0: an
    int, a bool or a numpy integer (see ``qcore._first_word``)."""
    a, b, index = _draw(psi, seed)
    return _record(index, *_bell_branches(a, b))


def enumerate_branches(psi: Ket) -> list[TeleportRecord]:
    """All four measurement branches, deterministically, in bell-basis order.
    The four records share one fidelity and one probability."""
    branches, fid, prob = _bell_branches(*_qubit(psi))
    # Four explicit calls, not a comprehension: before Python 3.12 (PEP 709)
    # each call of a comprehension allocates a function object and a range
    # iterator, about 390 B, four times the heap of a record it returns.
    return [_record(0, branches, fid, prob), _record(1, branches, fid, prob),
            _record(2, branches, fid, prob), _record(3, branches, fid, prob)]
