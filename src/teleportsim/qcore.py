"""Qubit-level building blocks: kets, density matrices, gates, Bell projectors,
Born-rule measurement, and fidelity.

Subsystem ordering is big-endian throughout: the leftmost label is the slowest
tensor index. All values are immutable after construction; only the
caller-supplied random stream carries state.

``Ket`` and ``DensityMatrix`` keep their checked entries as Python complexes
(``Ket.entries``, ``DensityMatrix.rows``), which the protocol and the point
path read. Their ndarrays (``.amplitudes``, ``.mat``) are read-only
complex128 copies of those entries, built on first access and cached, so a
value that numpy never reads allocates no array. A ``Gate`` keeps both
forms from the start. Construction runs each class's ``__post_init__``
once: it is the one check, and the hook a tracer can wrap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .linalg import tensor_product

__all__ = [
    "Ket",
    "DensityMatrix",
    "Gate",
    "Projector",
    "bell_basis",
    "ket_from_amplitudes",
    "to_density",
    "apply_gate",
    "born_measure",
    "fidelity",
    "purity",
    "seeded_stream",
]

NORM_TOL = 1e-12
UNITARITY_TOL = 1e-12
DENSITY_TOL = 1e-10

_SQRT_HALF = math.sqrt(0.5)


def _frozen_complex(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


def seeded_stream(seed: int) -> np.random.Generator:
    """Counter-based random stream; distinct seeds give independent,
    bit-reproducible streams."""
    return np.random.Generator(np.random.Philox(seed))


def _first_draw(seed: int) -> float:
    """``seeded_stream(seed).random()`` without building a Generator: numpy's
    next_double on Philox's first 64-bit output, so it equals that draw bit for
    bit and raises the same errors."""
    return (int(np.random.Philox(seed).random_raw()) >> 11) * 2.0**-53


# Inputs a Ket or DensityMatrix checks as Python numbers: a flat tuple or list
# (rows of them for a matrix) of exactly these types. Anything else takes the
# ndarray route, whose conversion to complex128 accepts what it always has.
_SEQUENCES = (tuple, list)
_NUMBERS = frozenset((int, float, complex))


def _number_rows(mat) -> bool:
    """True for two tuples or lists of two ints, floats or complexes each."""
    if type(mat) not in _SEQUENCES or len(mat) != 2:
        return False
    top, bottom = mat
    return (type(top) in _SEQUENCES and type(bottom) in _SEQUENCES and len(top) == len(bottom) == 2
            and _NUMBERS.issuperset(map(type, (*top, *bottom))))


class _cached(cached_property):
    """``cached_property`` without the lock it takes on a first read before Python 3.12."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = vars(instance)[self.attrname] = self.func(instance)
        return value


class _Frozen:
    """Assignment and deletion raise, as on a frozen dataclass: a value writes
    its ``__dict__`` once, when built or first read."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Ket(_Frozen):
    """Normalized pure state over one to three labelled qubits (2, 4 or 8
    amplitudes).

    ``entries`` holds the amplitudes as a tuple of Python complexes;
    ``amplitudes`` is the read-only complex128 ndarray of the same values,
    built on first access and cached. A flat tuple or list of int, float and
    complex is read directly; any other input is converted with ``np.array``
    first, and that array is the one cached.

    One check, in Python float arithmetic: every part finite, and the norm
    within NORM_TOL of 1. The norm is the square root of the squared parts
    added left to right (an explicit loop: ``sum`` of floats is compensated
    from Python 3.12). It is not BLAS's ``vdot``: over 200 000 random vectors
    the two differ by up to 2 ulps at 2 amplitudes and 3 ulps at 8, so a norm
    that close to 1 +- NORM_TOL may be judged differently from numpy's."""

    def __init__(self, amplitudes, labels: tuple[str, ...]):
        self.__post_init__(amplitudes, labels)

    def __post_init__(self, amplitudes, labels):
        arr = None
        if type(amplitudes) in _SEQUENCES and _NUMBERS.issuperset(map(type, amplitudes)):
            entries = tuple(map(complex, amplitudes))
        else:
            arr = _frozen_complex(amplitudes)
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
        if arr is not None:
            state["amplitudes"] = arr

    @_cached
    def amplitudes(self) -> np.ndarray:
        return _frozen_complex(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Ket({self.entries!r}, {self.labels!r})"


class DensityMatrix(_Frozen):
    """A qubit's state: a Hermitian, unit-trace, positive-semidefinite 2x2
    matrix. Any other shape is rejected.

    ``rows`` holds the entries as two rows of two Python complexes; ``mat`` is
    the read-only complex128 ndarray of the same values, built on first access
    and cached. Two tuples or lists of two ints, floats or complexes are read
    directly; any other input is converted with ``np.array`` first, and that
    array is the one cached.

    One check, in Python complex arithmetic: finite entries; a skew
    (|m01 - conj(m10)| and twice each diagonal imaginary part) within
    DENSITY_TOL; a trace within DENSITY_TOL of 1, summed from 0j like
    ``np.trace``; and the lower eigenvalue mean - sqrt(mean^2 - det) at least
    -DENSITY_TOL. The skew's modulus is libm's hypot, which numpy's array loop
    may round one ulp apart."""

    def __init__(self, mat):
        self.__post_init__(mat)

    def __post_init__(self, mat):
        arr = None
        if _number_rows(mat):
            (m00, m01), (m10, m11) = mat
            m00, m01, m10, m11 = complex(m00), complex(m01), complex(m10), complex(m11)
        else:
            arr = _frozen_complex(mat)
            if arr.shape != (2, 2):
                raise ValueError(f"density matrix must be 2x2, got shape {arr.shape}")
            (m00, m01), (m10, m11) = arr.tolist()
        if not (cmath.isfinite(m00) and cmath.isfinite(m01) and cmath.isfinite(m10) and cmath.isfinite(m11)):
            raise ValueError("density matrix contains non-finite entries")
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
        state = vars(self)
        state["rows"] = ((m00, m01), (m10, m11))
        if arr is not None:
            state["mat"] = arr

    @_cached
    def mat(self) -> np.ndarray:
        return _frozen_complex(self.rows)

    def __repr__(self) -> str:
        return f"DensityMatrix({self.rows!r})"


@dataclass(frozen=True, eq=False)
class Gate:
    """Named single-qubit unitary; the receiver's corrections use I, X, Z, ZX.

    ``mat`` is the read-only complex128 ndarray the unitarity check runs on;
    ``rows`` holds the same entries as two rows of two Python complexes."""

    name: str
    mat: np.ndarray

    def __post_init__(self):
        if self.name not in ("I", "X", "Z", "ZX"):
            raise ValueError(f"unknown gate name {self.name!r}")
        mat = _frozen_complex(self.mat)
        if mat.shape != (2, 2):
            raise ValueError(f"gate must be 2x2, got shape {mat.shape}")
        if np.abs(mat.conj().T @ mat - np.eye(2)).max() > UNITARITY_TOL:
            raise ValueError(f"gate {self.name!r} is not unitary within tolerance")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "rows", tuple(map(tuple, mat.tolist())))


I = Gate("I", np.eye(2))
X = Gate("X", np.array([[0, 1], [1, 0]]))
Z = Gate("Z", np.array([[1, 0], [0, -1]]))
# ZX means "apply X first, then Z".
ZX = Gate("ZX", Z.mat @ X.mat)

GATES = {g.name: g for g in (I, X, Z, ZX)}


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector with a human-readable label."""

    mat: np.ndarray
    label: str

    def __post_init__(self):
        mat = _frozen_complex(self.mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"projector must be square, got shape {mat.shape}")
        if np.abs(mat - mat.conj().T).max() > 1e-12:
            raise ValueError(f"projector {self.label!r} is not Hermitian")
        if np.abs(mat @ mat - mat).max() > 1e-12:
            raise ValueError(f"projector {self.label!r} is not idempotent")
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


BELL_LABELS = ("Phi+", "Phi-", "Psi+", "Psi-")

_BELL_VECTORS = (
    _frozen_complex(np.array([1, 0, 0, 1]) * _SQRT_HALF),
    _frozen_complex(np.array([1, 0, 0, -1]) * _SQRT_HALF),
    _frozen_complex(np.array([0, 1, 1, 0]) * _SQRT_HALF),
    _frozen_complex(np.array([0, 1, -1, 0]) * _SQRT_HALF),
)


def bell_state_vectors() -> tuple[np.ndarray, ...]:
    """Unit vectors of the four maximally entangled two-qubit states, in the
    order Phi+, Phi-, Psi+, Psi-."""
    return _BELL_VECTORS


@cache
def bell_basis() -> tuple[Projector, ...]:
    """Projectors onto the four Bell states, same order as
    ``bell_state_vectors``. Mutually orthogonal, summing to the identity.
    Built once: ``born_measure`` caches its lifted operators by projector
    identity, so every call with ``bell_basis()`` reuses them."""
    return tuple(
        Projector(np.outer(v, v.conj()), label)
        for v, label in zip(_BELL_VECTORS, BELL_LABELS)
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


def _qubit_rows(d00: float, d11: float, re: float, im: float) -> list[list[complex]]:
    """[[d00, re + i im], [re - i im, d11]] as nested Python numbers: the one
    layout of a qubit's 2x2 state, for ``to_density`` and ``envmodel``. The
    lower imaginary part is 0.0 - im, not -im, so a zero stays +0.0 there."""
    return [[d00, complex(re, im)], [complex(re, 0.0 - im), d11]]


def to_density(psi: Ket) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| of a one-qubit ket."""
    if psi.dim != 2:
        raise ValueError(f"density matrix must be 2x2, got shape {(psi.dim, psi.dim)}")
    return DensityMatrix(_qubit_rows(*_pure_density(*psi.entries)))


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
    if np.abs(total - np.eye(d_target)).max() > 1e-10:
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


def fidelity(pure: Ket, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi>: probability the state rho passes a test for psi."""
    if pure.dim != 2:
        raise ValueError(f"dimension mismatch: ket {pure.dim} vs matrix 2")
    amps = pure.amplitudes
    return float(np.vdot(amps, rho.mat @ amps).real)


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2): 1 for pure states, 1/2 for a maximally mixed qubit."""
    return float(np.trace(rho.mat @ rho.mat).real)
