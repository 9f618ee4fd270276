"""Qubit-level building blocks: kets, density matrices, gates, fidelity, purity.

Subsystem ordering is big-endian throughout: the leftmost label is the slowest
tensor index. All values are immutable after construction; only the
caller-supplied random stream carries state.

``Ket`` and ``DensityMatrix`` keep their checked entries as Python complexes
(``Ket.entries``, ``DensityMatrix.rows``), which the protocol and the point
path read. ``Gate(name)`` keeps its name's exact table (``Gate.rows``). Their
ndarrays (``.amplitudes``, ``.mat``) are read-only complex128 copies of those
entries, built on first access and cached, so a value that numpy never reads
allocates no array, and importing this module builds none. Construction runs
each class's ``__post_init__`` once: it is the one check, and the hook a
tracer can wrap, so a traced hook call is a check. Every ``Ket`` and
``DensityMatrix`` the package returns has passed that check but a report's
rho3, which ``_stored``, the package's one store, keeps unchecked.

Each kind of argument has one reader here, which ``teleport`` and
``envmodel`` call instead of checks of their own: ``_qubit`` a one-qubit
ket, ``_density_rows`` a state, ``_matrix_entries`` a 2x2 matrix and
``_check_normalized`` the sender's pair (a, b).

A protocol run's one random number is ``_first_word(seed)``: the first 64-bit
word of the seed's Philox stream, ``seeded_stream(seed)``'s, computed bit for
bit in Python integers, so a run imports no ``numpy.random``. The many draws
of ``teleport --shots`` still stream from numpy through ``seeded_stream``.

``Projector``, ``bell_basis``, ``apply_gate`` and ``born_measure`` are the
float route's projective measurement: an oracle no package code calls, left
out of ``__all__`` and imported by module path.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .linalg import tensor_product

__all__ = [
    "Ket",
    "DensityMatrix",
    "Gate",
    "ket_from_amplitudes",
    "to_density",
    "fidelity",
    "purity",
    "seeded_stream",
]

NORM_TOL = 1e-12
DENSITY_TOL = 1e-10

_SQRT_HALF = math.sqrt(0.5)


def _frozen_complex(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


def _seed(seed) -> int:
    """The package's one seed rule: read with ``operator.index`` (an int, a
    bool or a numpy integer), at least 0. Any other type is a TypeError that
    names it; a negative seed raises numpy's ``SeedSequence`` message."""
    try:
        s = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}") from None
    if s < 0:
        raise ValueError("expected non-negative integer")  # numpy's SeedSequence message
    return s


def seeded_stream(seed: int) -> np.random.Generator:
    """Counter-based random stream; distinct seeds give independent,
    bit-reproducible streams. The seed follows ``_seed``'s rule, as a
    protocol run's does, so its first 64-bit word is ``_first_word(seed)``."""
    return np.random.Generator(np.random.Philox(_seed(seed)))


def _first_word(seed: int) -> int:
    """``np.random.Philox(seed).random_raw()``, the first 64-bit output of
    ``seeded_stream(seed)``, bit for bit, with no numpy; its first draw
    ``seeded_stream(seed).random()`` is numpy's next_double of it,
    (w >> 11) * 2**-53. The seed follows ``_seed``'s rule, as
    ``seeded_stream``'s does: an int, a bool or a numpy integer, at least 0.

    w comes from the two algorithms numpy runs for it: numpy's
    ``SeedSequence`` (after O'Neill's ``seed_seq``, see numpy's
    ``bit_generator.pyx``) hashes the seed's 32-bit words into a 4-word pool
    and derives Philox's 128-bit key from it, and Philox4x64-10 (Salmon,
    Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3",
    SC '11) encrypts the counter (1, 0, 0, 0) under that key. The literals
    are the two algorithms' published constants, folded: ``tests/support.py``
    holds the loop form and a test re-derives each one.

    The pool words, the last hash and the word loop's hash constant are
    deleted once the key is formed, the loop keeps no list, and its last
    word is overwritten by the cipher's first product, so none of them is
    alive under the cipher's 128-bit products, where a protocol run's heap
    peaks for a seed below 2**128 (a larger seed's peaks in the word loop).
    Nor is a word the cipher has already multiplied: its registers rotate
    (see the rounds)."""
    s = _seed(seed)
    m = 0xFFFFFFFF
    m64 = 0xFFFFFFFFFFFFFFFF

    # SeedSequence.mix_entropy. Hash the seed's 32-bit words 0 to 3, least
    # significant first, into the pool (p0, p1, p2, p3); a word past the
    # seed's top is 0. Hash k XORs with INIT_A * MULT_A**k and multiplies by
    # INIT_A * MULT_A**(k + 1), mod 2**32.
    h = (s & m ^ 0x43b0d7e5) * 0xae5a53a9 & m
    p0 = h ^ h >> 16
    h = (s >> 32 & m ^ 0xae5a53a9) * 0x8488043d & m
    p1 = h ^ h >> 16
    h = (s >> 64 & m ^ 0x8488043d) * 0x5a9057e1 & m
    p2 = h ^ h >> 16
    h = (s >> 96 & m ^ 0x5a9057e1) * 0x9205b1d5 & m
    p3 = h ^ h >> 16
    # Mix every pool word into every other (hashes 4 to 15): the source's
    # hash h enters its destination p as MIX_MULT_L * p - MIX_MULT_R * h,
    # written + (2**32 - MIX_MULT_R) * h, equal mod 2**32 and never negative.
    h = (p0 ^ 0x9205b1d5) * 0xe9096e59 & m
    p1 = (0xca01f9dd * p1 + 0xb68c08eb * (h ^ h >> 16)) & m
    p1 ^= p1 >> 16
    h = (p0 ^ 0xe9096e59) * 0x8d5cb6ad & m
    p2 = (0xca01f9dd * p2 + 0xb68c08eb * (h ^ h >> 16)) & m
    p2 ^= p2 >> 16
    h = (p0 ^ 0x8d5cb6ad) * 0x9bb16511 & m
    p3 = (0xca01f9dd * p3 + 0xb68c08eb * (h ^ h >> 16)) & m
    p3 ^= p3 >> 16

    h = (p1 ^ 0x9bb16511) * 0x00c238c5 & m
    p0 = (0xca01f9dd * p0 + 0xb68c08eb * (h ^ h >> 16)) & m
    p0 ^= p0 >> 16
    h = (p1 ^ 0x00c238c5) * 0x4d029a09 & m
    p2 = (0xca01f9dd * p2 + 0xb68c08eb * (h ^ h >> 16)) & m
    p2 ^= p2 >> 16
    h = (p1 ^ 0x4d029a09) * 0xcc132e1d & m
    p3 = (0xca01f9dd * p3 + 0xb68c08eb * (h ^ h >> 16)) & m
    p3 ^= p3 >> 16

    h = (p2 ^ 0xcc132e1d) * 0x83a97b41 & m
    p0 = (0xca01f9dd * p0 + 0xb68c08eb * (h ^ h >> 16)) & m
    p0 ^= p0 >> 16
    h = (p2 ^ 0x83a97b41) * 0xfa8ddcb5 & m
    p1 = (0xca01f9dd * p1 + 0xb68c08eb * (h ^ h >> 16)) & m
    p1 ^= p1 >> 16
    h = (p2 ^ 0xfa8ddcb5) * 0xac4c06b9 & m
    p3 = (0xca01f9dd * p3 + 0xb68c08eb * (h ^ h >> 16)) & m
    p3 ^= p3 >> 16

    h = (p3 ^ 0xac4c06b9) * 0x26ff5a8d & m
    p0 = (0xca01f9dd * p0 + 0xb68c08eb * (h ^ h >> 16)) & m
    p0 ^= p0 >> 16
    h = (p3 ^ 0x26ff5a8d) * 0x0e554a71 & m
    p1 = (0xca01f9dd * p1 + 0xb68c08eb * (h ^ h >> 16)) & m
    p1 ^= p1 >> 16
    h = (p3 ^ 0x0e554a71) * 0x78c50da5 & m
    p2 = (0xca01f9dd * p2 + 0xb68c08eb * (h ^ h >> 16)) & m
    p2 ^= p2 >> 16
    # Words 4 and up, for a seed of 2**128 or more: each is hashed into every
    # pool word in turn, continuing the hash constants from hash 16. A step
    # mixes into p0 and rotates the pool, so after four steps the words are
    # back in order and no list holds them. No iteration for a smaller seed.
    rest = s >> 128
    k = 0x78c50da5
    while rest:
        for p in (p0, p1, p2, p3):
            h = rest & m ^ k
            k = k * 0x931e8875 & m
            h = h * k & m
            p = (0xca01f9dd * p + 0xb68c08eb * (h ^ h >> 16)) & m
            p0, p1, p2, p3 = p1, p2, p3, p ^ p >> 16
        rest >>= 32

    # SeedSequence.generate_state(2, np.uint64): pool word i XORs with
    # INIT_B * MULT_B**i and multiplies by INIT_B * MULT_B**(i + 1); the
    # four 32-bit results, little-endian, are Philox's key (k0, k1).
    h = (p0 ^ 0x8b51f9dd) * 0x464a0a99 & m
    k0 = h ^ h >> 16
    h = (p1 ^ 0x464a0a99) * 0x819d14a5 & m
    k0 |= (h ^ h >> 16) << 32
    h = (p2 ^ 0x819d14a5) * 0xd369fdc1 & m
    k1 = h ^ h >> 16
    h = (p3 ^ 0xd369fdc1) * 0x501638ad & m
    k1 |= (h ^ h >> 16) << 32
    del p0, p1, p2, p3, h, k

    # Philox4x64-10 on the counter (1, 0, 0, 0), numpy's first block. A round
    # maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    # hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)), and round r + 1 adds r * (W0, W1) to
    # the key; the offsets below are those sums mod 2**64. Round 1 gives
    # (k0, 0, k1, M0) with no multiply. The low halves are kept as the
    # unmasked products, which are only XORed and then masked. Four
    # registers p, q, u and v rotate, so no dead value is alive under the
    # products: a round writes each product over the word it multiplies, and
    # each new word over the last round's product whose low half it XORs in.
    # Round 2's products overwrite p, the word loop's last word for a seed of
    # 2**128 or more. Round 10 computes word 0 alone, from round 9's word 2
    # and its M1 product, so round 9 computes no word 0.
    p, q = 0xd2e7470ee14c6c93 * k0, 0xca5a826395121157 * k1
    u = (q >> 64 ^ k0 + 0x9e3779b97f4a7c15) & m64
    v = (p >> 64 ^ 0xd2e7470ee14c6c93 ^ k1 + 0xbb67ae8584caa73b) & m64
    u, v = 0xd2e7470ee14c6c93 * u, 0xca5a826395121157 * v
    q = (v >> 64 ^ q ^ k0 + 0x3c6ef372fe94f82a) & m64
    p = (u >> 64 ^ p ^ k1 + 0x76cf5d0b09954e76) & m64
    q, p = 0xd2e7470ee14c6c93 * q, 0xca5a826395121157 * p
    v = (p >> 64 ^ v ^ k0 + 0xdaa66d2c7ddf743f) & m64
    u = (q >> 64 ^ u ^ k1 + 0x32370b908e5ff5b1) & m64
    v, u = 0xd2e7470ee14c6c93 * v, 0xca5a826395121157 * u
    p = (u >> 64 ^ p ^ k0 + 0x78dde6e5fd29f054) & m64
    q = (v >> 64 ^ q ^ k1 + 0xed9eba16132a9cec) & m64
    p, q = 0xd2e7470ee14c6c93 * p, 0xca5a826395121157 * q
    u = (q >> 64 ^ u ^ k0 + 0x1715609f7c746c69) & m64
    v = (p >> 64 ^ v ^ k1 + 0xa906689b97f54427) & m64
    u, v = 0xd2e7470ee14c6c93 * u, 0xca5a826395121157 * v
    q = (v >> 64 ^ q ^ k0 + 0xb54cda58fbbee87e) & m64
    p = (u >> 64 ^ p ^ k1 + 0x646e17211cbfeb62) & m64
    q, p = 0xd2e7470ee14c6c93 * q, 0xca5a826395121157 * p
    v = (p >> 64 ^ v ^ k0 + 0x538454127b096493) & m64
    u = (q >> 64 ^ u ^ k1 + 0x1fd5c5a6a18a929d) & m64
    v, u = 0xd2e7470ee14c6c93 * v, 0xca5a826395121157 * u
    q = (v >> 64 ^ q ^ k1 + 0xdb3d742c265539d8) & m64
    return ((0xca5a826395121157 * q) >> 64 ^ u ^ k0 + 0x8ff34785799e5cbd) & m64


def _matrix_entries(mat, name: str) -> tuple[tuple[complex, complex], ...]:
    """The entries of a 2x2 input as two rows of two Python complexes, read
    through ``np.asarray(mat, dtype=np.complex128)``; that array is not kept.
    The package's one reader of a 2x2 matrix: it checks the shape, then
    finiteness, and each ValueError names ``name``."""
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {arr.shape}")
    (m00, m01), (m10, m11) = arr.tolist()
    if not (cmath.isfinite(m00) and cmath.isfinite(m01) and cmath.isfinite(m10) and cmath.isfinite(m11)):
        raise ValueError(f"{name} contains non-finite entries")
    return (m00, m01), (m10, m11)


class _Frozen:
    """Assignment and deletion raise, as on a frozen dataclass: a value writes
    its ``__dict__`` once, when built or first read. The ``repr`` names each
    of ``_fields``, as ``Name(field=value, ...)``."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _stored(cls, **fields):
    """The package's one store: an instance of ``cls`` whose ``__dict__`` is
    the call's keyword dict ``fields``. No ``__init__``, hook or check runs,
    so the caller vouches for every field."""
    self = object.__new__(cls)
    object.__setattr__(self, "__dict__", fields)
    return self


class _Result(_Frozen):
    """A result the package builds with ``_stored``, never a caller's input:
    calling the class raises."""

    def __init__(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is built by the package, not by a caller")


class Ket(_Frozen):
    """Normalized pure state over one to three labelled qubits (2, 4 or 8
    amplitudes).

    ``entries`` holds the amplitudes as a tuple of Python complexes;
    ``amplitudes`` is the read-only complex128 ndarray of the same values,
    built on first access and cached. Any input is read through
    ``np.asarray(amplitudes, dtype=np.complex128)``, only for its entries.

    ``Ket(amplitudes, labels)`` runs one check, in Python float arithmetic:
    every part finite, and the norm within NORM_TOL of 1. The norm is the
    square root of the squared parts added left to right (an explicit loop:
    ``sum`` of floats is compensated from Python 3.12). It is not BLAS's
    ``vdot``: over 200 000 random vectors the two differ by up to 2 ulps at
    2 amplitudes and 3 ulps at 8, so a norm that close to 1 +- NORM_TOL may
    be judged differently from numpy's."""

    def __init__(self, amplitudes, labels: tuple[str, ...]):
        self.__post_init__(amplitudes, labels)

    def __post_init__(self, amplitudes, labels):
        arr = np.asarray(amplitudes, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"amplitudes must be a vector, got shape {arr.shape}")
        entries = tuple(arr.tolist())
        labels = tuple(labels)
        if not 1 <= len(labels) <= 3:
            raise ValueError(f"expected 1 to 3 subsystem labels, got {labels!r}")
        if len(entries) != 2 ** len(labels):
            raise ValueError(
                f"dimension {len(entries)} does not match {len(labels)} two-level subsystems"
            )
        total = 0.0
        for z in entries:
            if not cmath.isfinite(z):
                raise ValueError("amplitudes contain non-finite entries")
            total += z.real * z.real
            total += z.imag * z.imag
        norm = math.sqrt(total)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"ket is not normalized: |amplitudes| = {norm!r}")
        state = vars(self)
        state["entries"] = entries
        state["labels"] = labels

    @cached_property
    def amplitudes(self) -> np.ndarray:
        return _frozen_complex(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Ket({self.entries!r}, {self.labels!r})"


def _check_normalized(a: complex, b: complex) -> tuple[complex, complex]:
    """The sender's pair (a, b) as Python complexes, by ``Ket``'s norm rule
    for two amplitudes: the squared parts added left to right (inf or nan
    past float64), their square root within NORM_TOL of 1. Straight-line,
    not ``Ket``'s loop, since a point query checks its pair three times."""
    a, b = complex(a), complex(b)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    norm_sq = ar * ar + ai * ai + br * br + bi * bi
    if not abs(math.sqrt(norm_sq) - 1.0) <= NORM_TOL:
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValueError("amplitudes contain non-finite entries")
        raise ValueError(f"(a, b) is not normalized: |a|^2 + |b|^2 = {norm_sq!r}")
    return a, b


def _qubit(psi) -> tuple[complex, complex]:
    """A one-qubit ket's amplitudes (a, b): the package's one rule for a
    qubit argument. Anything but a ``Ket`` is a TypeError that names its
    type, and a ``Ket`` of another dimension a ValueError."""
    if not isinstance(psi, Ket):
        raise TypeError(f"psi must be a Ket, not {type(psi).__name__}")
    if psi.dim != 2:
        raise ValueError(f"psi must be a single-qubit Ket, got dimension {psi.dim}")
    return psi.entries


class DensityMatrix(_Frozen):
    """A qubit's state: a Hermitian, unit-trace, positive-semidefinite 2x2
    matrix. Any other shape is rejected.

    ``rows`` holds the entries as two rows of two Python complexes; ``mat`` is
    the read-only complex128 ndarray of the same values, built on first access
    and cached. Any input is read by ``_matrix_entries``, through
    ``np.asarray(mat, dtype=np.complex128)``, only for its entries.

    ``DensityMatrix(mat)`` runs one check, in Python complex arithmetic:
    ``_matrix_entries``' shape and finiteness; a skew (|m01 - conj(m10)| and
    twice each diagonal imaginary part) within DENSITY_TOL; a trace within
    DENSITY_TOL of 1, summed from 0j like ``np.trace``; and the lower
    eigenvalue mean - sqrt(mean^2 - det) at least -DENSITY_TOL. The skew's
    modulus is libm's hypot, which numpy's array loop may round one ulp
    apart. This check is the class's one constructor (``envmodel._report``
    keeps the one unchecked state)."""

    def __init__(self, mat):
        self.__post_init__(mat)

    def __post_init__(self, mat):
        rows = _matrix_entries(mat, "density matrix")
        (m00, m01), (m10, m11) = rows
        try:
            skew = abs(m01 - m10.conjugate())
        except OverflowError:  # the modulus of finite parts exceeds float64
            skew = math.inf
        if max(2.0 * abs(m00.imag), 2.0 * abs(m11.imag), skew) > DENSITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = 0j + m00 + m11  # summed from 0 like np.trace, so a zero trace prints as 0j
        if abs(tr - 1.0) > DENSITY_TOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        mean = 0.5 * (m00.real + m11.real)
        det = (m00 * m11 - m01 * m10).real
        low = mean - math.sqrt(max(mean * mean - det, 0.0))
        if low < -DENSITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {low!r}")
        vars(self)["rows"] = rows

    @cached_property
    def mat(self) -> np.ndarray:
        return _frozen_complex(self.rows)

    def __repr__(self) -> str:
        return f"DensityMatrix({self.rows!r})"


def _density_rows(rho) -> tuple[tuple[complex, complex], ...]:
    """A ``DensityMatrix``'s rows: the package's one rule for a state
    argument. Anything else, an array too, is a TypeError that names its
    type, as ``_qubit``'s does."""
    if not isinstance(rho, DensityMatrix):
        raise TypeError(f"rho must be a DensityMatrix, not {type(rho).__name__}")
    return rho.rows


# The receiver's corrections, exact: entries 0 and +-1 as Python complexes.
# ZX means "apply X first, then Z"; its lower-right zero is -0.0, as numpy's
# Z @ X gave it, so the products a correction forms keep their zero signs.
_GATE_ROWS = {
    "I": ((1 + 0j, 0j), (0j, 1 + 0j)),
    "X": ((0j, 1 + 0j), (1 + 0j, 0j)),
    "Z": ((1 + 0j, 0j), (0j, -1 + 0j)),
    "ZX": ((0j, 1 + 0j), (-1 + 0j, complex(-0.0, 0.0))),
}


class Gate(_Frozen):
    """One of the receiver's corrections I, X, Z and ZX, named: ``Gate(name)``
    holds that name's exact table as ``rows``, two rows of two Python
    complexes. ``mat`` is their read-only complex128 ndarray, built on first
    access and cached. The one check: the name is one of the four."""

    def __init__(self, name: str):
        self.__post_init__(name)

    def __post_init__(self, name):
        if not (isinstance(name, str) and name in _GATE_ROWS):
            raise ValueError(f"unknown gate name {name!r}")
        state = vars(self)
        state["name"] = name
        state["rows"] = _GATE_ROWS[name]

    @cached_property
    def mat(self) -> np.ndarray:
        return _frozen_complex(self.rows)

    def __repr__(self) -> str:
        return f"Gate({self.name!r})"


I, X, Z, ZX = map(Gate, _GATE_ROWS)


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector with a human-readable label."""

    mat: np.ndarray
    label: str

    def __post_init__(self):
        mat = _frozen_complex(self.mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"projector must be square, got shape {mat.shape}")
        if np.abs(mat - mat.conj().T).max() > NORM_TOL:
            raise ValueError(f"projector {self.label!r} is not Hermitian")
        if np.abs(mat @ mat - mat).max() > NORM_TOL:
            raise ValueError(f"projector {self.label!r} is not idempotent")
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


BELL_LABELS = ("Phi+", "Phi-", "Psi+", "Psi-")


@cache
def bell_state_vectors() -> tuple[np.ndarray, ...]:
    """Unit vectors of the four maximally entangled two-qubit states, in the
    order Phi+, Phi-, Psi+, Psi-. Built on the first call."""
    h = _SQRT_HALF
    return tuple(map(_frozen_complex, ((h, 0, 0, h), (h, 0, 0, -h), (0, h, h, 0), (0, h, -h, 0))))


@cache
def bell_basis() -> tuple[Projector, ...]:
    """Projectors onto the four Bell states, same order as
    ``bell_state_vectors``. Mutually orthogonal, summing to the identity.
    Built once: ``born_measure`` caches its lifted operators by projector
    identity, so every call with ``bell_basis()`` reuses them."""
    return tuple(
        Projector(np.outer(v, v.conj()), label)
        for v, label in zip(bell_state_vectors(), BELL_LABELS)
    )


_SQUARE_SAFE = (2.0**-500, 2.0**500)


def normalized_amplitudes(a: complex, b: complex) -> tuple[complex, complex]:
    """The unit pair (a, b) / sqrt(|a|^2 + |b|^2) naming the ray a|0> + b|1>:
    the one check and normalization of the sender's amplitudes, which accepts
    any finite (a, b) but (0, 0) at any scale. Where the largest part lies
    outside _SQUARE_SAFE, whose squares would overflow or fall to subnormals,
    both are first scaled exactly by a power of two. Ordinary inputs are not:
    libm's hypot is not exactly scale-equivariant; unscaled, they keep the
    sweep's bits."""
    a, b = complex(a), complex(b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ValueError("amplitudes contain non-finite entries")
    big = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag))
    if big == 0.0:
        raise ValueError("amplitudes (0, 0) do not define a state")
    if not _SQUARE_SAFE[0] <= big <= _SQUARE_SAFE[1]:
        shift = -math.frexp(big)[1]
        a, b = (complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift)) for z in (a, b))
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return complex(a.real / norm, a.imag / norm), complex(b.real / norm, b.imag / norm)


def ket_from_amplitudes(a: complex, b: complex) -> Ket:
    """Single-qubit ket a|0> + b|1>, normalized by ``normalized_amplitudes``."""
    return Ket(normalized_amplitudes(a, b), ("1",))


def _pure_density(a: complex, b: complex) -> tuple[float, float, float, float]:
    """|psi><psi| for psi = a|0> + b|1> in real arithmetic, never fused, as
    the parts (r00, r11, r01_re, r01_im) that ``_qubit_rows`` lays out. The
    one rho1 formula, for ``to_density`` and ``envmodel``."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return ar * ar + ai * ai, br * br + bi * bi, ar * br + ai * bi, ai * br - ar * bi


def _qubit_rows(d00: float, d11: float, re: float, im: float) -> tuple[tuple[complex, complex], ...]:
    """((d00, re + i im), (re - i im, d11)): the rows of a qubit's 2x2 state
    as tuples of Python complexes, as ``DensityMatrix`` stores them, the
    one layout for ``to_density`` and ``envmodel``. The lower
    imaginary part is 0.0 - im, not -im, so a zero stays +0.0 there."""
    return (complex(d00), complex(re, im)), (complex(re, 0.0 - im), complex(d11))


def to_density(psi: Ket) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| of a one-qubit ket."""
    return DensityMatrix(_qubit_rows(*_pure_density(*_qubit(psi))))


def _lift(op: np.ndarray, before: int, after: int) -> np.ndarray:
    """I_before (x) op (x) I_after, with a factor of dimension 1 left out."""
    if before > 1:
        op = tensor_product(np.eye(before), op)
    if after > 1:
        op = tensor_product(op, np.eye(after))
    return op


def apply_gate(psi: Ket, g: Gate, target: int) -> Ket:
    """Apply a single-qubit gate to one subsystem of a ket."""
    n = len(psi.labels)
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for labels {psi.labels!r}")
    return Ket(_lift(g.mat, 2**target, 2 ** (n - target - 1)) @ psi.amplitudes, psi.labels)


@lru_cache(maxsize=32)
def _lifted_projectors(
    projectors: tuple[Projector, ...], targets: tuple[int, ...], n_subsystems: int
) -> tuple[np.ndarray, ...]:
    # Validates the set once per (projectors, targets) pair; projectors are
    # immutable, so caching the checked, lifted operators is sound.
    d_target = 2 ** len(targets)
    for p in projectors:
        if p.dim != d_target:
            raise ValueError(
                f"projector {p.label!r} has dimension {p.dim}, expected {d_target}"
            )
    total = sum(p.mat for p in projectors)
    if np.abs(total - np.eye(d_target)).max() > DENSITY_TOL:
        raise ValueError("projectors do not form a complete set on the targeted factor")
    before, after = 2 ** targets[0], 2 ** (n_subsystems - targets[-1] - 1)
    return tuple(_lift(p.mat, before, after) for p in projectors)


def born_measure(psi: Ket, projectors, targets, rng: np.random.Generator):
    """Projective measurement on a contiguous run of subsystems.

    The outcome index is sampled from the caller's stream with probability
    <psi|P|psi>; the returned probability is that exact value, not a sampled
    frequency. The post-measurement ket is P|psi> renormalized.

    Returns (outcome index, post-measurement Ket, probability).
    """
    targets = tuple(targets)
    if not targets or any(
        targets[i + 1] != targets[i] + 1 for i in range(len(targets) - 1)
    ):
        raise ValueError(f"targets must be a contiguous ascending run, got {targets!r}")
    if targets[0] < 0 or targets[-1] >= len(psi.labels):
        raise ValueError(f"targets {targets!r} out of range for labels {psi.labels!r}")
    lifted = _lifted_projectors(tuple(projectors), targets, len(psi.labels))
    amps = psi.amplitudes
    probs = np.array([max(np.vdot(amps, op @ amps).real, 0.0) for op in lifted])
    r = rng.random() * probs.sum()
    outcome = int(np.searchsorted(np.cumsum(probs), r, side="right"))
    outcome = min(outcome, len(probs) - 1)
    post = lifted[outcome] @ amps
    post = post / math.sqrt(np.vdot(post, post).real)
    return outcome, Ket(post, psi.labels), float(probs[outcome])


def _fidelity_of(rho1, d00, d11, re, im):
    """The one fidelity formula, <psi|rho|psi> for rho1 = |psi><psi| as ``_pure_density``'s
    parts and rho's d01 = re + i im. Broadcasts; built in place in a product it allocates,
    bit for bit (r00 d00 + r11 d11) + 2.0 * (r01_re re + r01_im im)."""
    r00, r11, r01_re, r01_im = rho1
    f = r01_re * re
    f += r01_im * im
    f *= 2.0
    f += r00 * d00 + r11 * d11
    return f


def _purity_of(d00, d11, re, im):
    """The one purity formula, d00^2 + d11^2 + 2 |d01|^2 for d01 = re + i im;
    broadcasts and is built in place like ``_fidelity_of``."""
    p = re * re
    p += im * im
    p *= 2.0
    p += d00 * d00 + d11 * d11
    return p


def fidelity(pure: Ket, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi>: probability the state rho passes a test for psi.
    Read from rho's real diagonal and upper off-diagonal: within its skew of the full product."""
    rho1 = _pure_density(*_qubit(pure))
    (m00, m01), (_, m11) = _density_rows(rho)
    return _fidelity_of(rho1, m00.real, m11.real, m01.real, m01.imag)


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2): 1 for pure states, 1/2 for a maximally mixed qubit. Read
    like ``fidelity``, within about DENSITY_TOL of the full product."""
    (m00, m01), (_, m11) = _density_rows(rho)
    return _purity_of(m00.real, m11.real, m01.real, m01.imag)
