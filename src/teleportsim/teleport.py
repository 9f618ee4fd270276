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
the arithmetic. A protocol record keeps the outcome and the conditional
pair, derives the corrected pair from ``CORRECTIONS`` and builds its ``Ket``
values on first read.
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

    Only the protocol builds a record: it stores the outcome and the
    conditional pair, whose Kets are built through ``Ket``'s check on first
    read, and cached. The corrected pair is the outcome's correction applied
    to the conditional pair, derived on each read and not stored."""

    _fields = ("outcome", "conditional_state", "corrected_state", "fidelity", "probability")

    @property
    def _corrected(self) -> tuple[complex, complex]:
        return _correct(CORRECTIONS[self.outcome].rows, self._conditional)

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


def _bell_branches(a: complex, b: complex) -> tuple[tuple[tuple[complex, complex], ...], float]:
    """Particle 3's normalized pair after each Bell outcome, in
    ``OUTCOME_ORDER``, and the probability every outcome has, for the
    sender's checked (a, b).

    With h = sqrt(1/2), p = h (a h) and q = h (b h) are the amplitudes that
    <bell_i|_12 picks out of psi (x) singlet, rounded as that contraction
    rounds them. The unnormalized branches are (-q, p), (q, p), (-p, q) and
    (-p, -q) for Phi+, Phi-, Psi+ and Psi-, and |q|^2 + |p|^2, about 1/4, is
    each one's Born probability. Scaling by the reciprocal of its square root
    rounds as numpy's division of a complex array by a real does.
    """
    h = _SQRT_HALF
    p, q = h * (a * h), h * (b * h)
    prob = (q.real * q.real + q.imag * q.imag) + (p.real * p.real + p.imag * p.imag)
    scale = 1.0 / math.sqrt(prob)
    p, q = p * scale, q * scale
    # Negation is exact, so one -p and one -q serve every pair.
    mp, mq = -p, -q
    return ((mq, p), (q, p), (mp, q), (mp, mq)), prob


def _correct(rows, pair: tuple[complex, complex]) -> tuple[complex, complex]:
    """The pair (c0, c1) after the gate whose ``rows`` are given. The gate's
    entries are 0 and +-1, so applying it to the two complexes is exact."""
    (g00, g01), (g10, g11) = rows
    c0, c1 = pair
    return g00 * c0 + g01 * c1, g10 * c0 + g11 * c1


# Each outcome's correction rows, by index into OUTCOME_ORDER, read from
# CORRECTIONS once.
_CORRECTION_ROWS = tuple(CORRECTIONS[outcome].rows for outcome in OUTCOME_ORDER)


def _record(a: complex, b: complex, index: int, branches, prob: float) -> TeleportRecord:
    # Branch ``index`` of _bell_branches for the input (a, b). Its corrected
    # pair (d0, d1) is formed only for the fidelity: it is a unit pair, so
    # |<psi|d>|^2 is the fidelity of its density matrix. Each product is
    # written over the factor it consumes, so no dead pair is alive beside
    # both products. The record keeps the branch's own pair and derives
    # (d0, d1) again when it is read.
    conditional = branches[index]
    d0, d1 = _correct(_CORRECTION_ROWS[index], conditional)
    d0 = a.conjugate() * d0
    d1 = b.conjugate() * d1
    fid = abs(d0 + d1) ** 2
    return _stored(TeleportRecord, outcome=OUTCOME_ORDER[index], _conditional=conditional, fidelity=fid,
                   probability=prob)


def _draw(psi: Ket, seed: int) -> tuple[complex, complex, int, tuple, float]:
    """A seeded run's ``(a, b, index, branches, prob)``: the sender's checked
    pair, the index into ``OUTCOME_ORDER`` of the outcome the seed draws, and
    ``_bell_branches(a, b)``. The input is checked before the seed, and the
    branch table is built after the draw, so none of it is alive under the
    cipher's products."""
    a, b = _qubit(psi)
    index = _first_word(seed) >> 62
    branches, prob = _bell_branches(a, b)
    return a, b, index, branches, prob


def run_ideal(psi: Ket, seed: int) -> TeleportRecord:
    """One full protocol run with a perfect correction step. The top two bits
    of the seed's first Philox word w pick ``OUTCOME_ORDER[w >> 62]``, so each
    outcome has probability exactly 1/4. That is the outcome numpy's first
    draw u = (w >> 11) * 2^-53 picks as ``int(4 * u)``: 4u is exact and its
    integer part is w's top two bits. The seed is an integer at least 0: an
    int, a bool or a numpy integer (see ``qcore._first_word``)."""
    return _record(*_draw(psi, seed))


def enumerate_branches(psi: Ket) -> list[TeleportRecord]:
    """All four measurement branches, deterministically, in bell-basis order."""
    a, b = _qubit(psi)
    branches, prob = _bell_branches(a, b)
    # Four explicit calls, not a comprehension: before Python 3.12 (PEP 709)
    # each call of a comprehension allocates a function object and a range
    # iterator, about 390 B, four times the heap of a record it returns.
    return [_record(a, b, 0, branches, prob), _record(a, b, 1, branches, prob),
            _record(a, b, 2, branches, prob), _record(a, b, 3, branches, prob)]
