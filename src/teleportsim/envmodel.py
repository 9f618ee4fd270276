"""Environment coupling in the receiver's correction step.

The correction unitary is realized by a physical apparatus, so the receiver's
qubit couples to environment states |E0>, |E1>:

    |E0> (x) (a|0> + b|1>)  ->  C0 a |E0>|0> + C1 b |E1>|1>

Only the overlap gamma = <E1|E0> survives into the qubit's reduced state, so a
two-dimensional environment is fully general. |gamma| = 1 leaves the state
pure; gamma = 0 dephases it completely.

Two routes to the reduced state are provided on purpose:

* ``reduced_state`` is the canonical form: the environment traced out of the
  joint state above (renormalized). In closed form,

      rho3 = [[|c0 a|^2, c0 c1* a b* gamma], [c.c., |c1 b|^2]] / N,
      N = |c0 a|^2 + |c1 b|^2,

  a phase-damping channel followed by a local filter. One kernel,
  ``closed_form``, evaluates it together with delta, fidelity and purity and
  broadcasts over an array of overlaps; every metric in the package comes
  from it. ``evolve`` builds the joint state explicitly and is kept as the
  independent oracle that the kernel is tested against (with
  ``linalg.partial_trace``).
* ``reduced_state_paper_literal`` evaluates a printed closed-form variant
  verbatim. Its normalization disagrees with the partial trace away from
  |gamma| = 1 (it is generally not unit-trace); the CLI's ``paper-check``
  reports the divergence instead of silently preferring either side.

The model is invariant under (c0, c1) -> k (c0, c1). The kernel and ``evolve``
scale (c0, c1) to unit max-modulus before any other arithmetic, so the
invariance holds in floating point at any k. The printed form is not scale
invariant and uses (c0, c1) as given; where it overflows it is rejected.

The deviation delta is the entrywise-quadratic distance between the delivered
reduced state and the sender's pure-state density matrix.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qcore import NORM_TOL, DensityMatrix, Ket, normalized_amplitudes
from .teleport import BellOutcome, run_ideal

__all__ = [
    "DegenerateModelError",
    "EnvironmentModel",
    "DeviationReport",
    "ClosedForm",
    "closed_form",
    "embed_environment",
    "evolve",
    "reduced_state",
    "reduced_state_paper_literal",
    "dephased_limit",
    "deviation",
    "deviation_closed_form_paper",
    "printed_deviation",
    "replica_fidelity",
    "direct_report",
    "noisy_teleport",
]

OVERLAP_TOL = 1e-12
# Largest accepted | |a|^2 + |b|^2 - 1 | for an input state (a, b).
AMPLITUDE_TOL = 1e-10
# Smallest norm of the coupled state, with (c0, c1) at unit max-modulus.
DEGENERATE_TOL = 1e-12


class DegenerateModelError(ValueError):
    """Raised when the coupled state has zero norm (both branches suppressed)."""


@dataclass(frozen=True)
class EnvironmentModel:
    """Parameters of the coupling: overlap gamma = <E1|E0> and branch
    coefficients c0, c1."""

    gamma: complex
    c0: complex
    c1: complex

    def __post_init__(self):
        gamma = complex(self.gamma)
        c0 = complex(self.c0)
        c1 = complex(self.c1)
        for name, value in (("gamma", gamma), ("c0", c0), ("c1", c1)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} is not finite: {value!r}")
        try:
            modulus = abs(gamma)
        except OverflowError:  # finite parts whose modulus exceeds float64
            modulus = math.inf
        if modulus > 1.0 + OVERLAP_TOL:
            raise ValueError(f"|gamma| = {modulus!r} exceeds 1")
        if c0 == 0 and c1 == 0:
            raise ValueError("c0 and c1 cannot both be zero")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Delivered state and its quality metrics at one parameter point.

    ``branch`` is the sampled measurement outcome, or None for a direct
    evaluation that bypasses the protocol."""

    rho3: DensityMatrix
    delta: float
    fidelity: float
    purity: float
    branch: BellOutcome | None = None


def _check_normalized(a: complex, b: complex) -> tuple[complex, complex]:
    a = complex(a)
    b = complex(b)
    try:
        norm_sq = abs(a) * abs(a) + abs(b) * abs(b)
    except OverflowError:  # the modulus of finite parts exceeds float64
        norm_sq = math.inf
    if not abs(norm_sq - 1.0) <= AMPLITUDE_TOL:
        raise ValueError(f"(a, b) is not normalized: |a|^2 + |b|^2 = {norm_sq!r}")
    if abs(norm_sq - 1.0) > NORM_TOL:
        # Accepted, but off by more than a Ket allows: rescale. Closer inputs
        # pass through unchanged, so results match a Ket built from them.
        a, b = normalized_amplitudes(a, b)
    return a, b


def _unit_scaled(c0: complex, c1: complex) -> tuple[complex, complex]:
    try:
        scale = max(abs(c0), abs(c1))
    except OverflowError:
        # Finite parts whose modulus exceeds float64: halving is exact and
        # brings every modulus back in range.
        c0, c1 = c0 * 0.5, c1 * 0.5
        scale = max(abs(c0), abs(c1))
    if scale == 0:
        raise DegenerateModelError("c0 and c1 cannot both be zero")
    return c0 / scale, c1 / scale


def _frobenius(diffs):
    """sqrt(sum re^2 + im^2) over (re, im) pairs, summed in the given order.

    The one deviation formula: ``deviation`` and ``closed_form`` both use it,
    so a sweep's delta equals ``deviation(reduced_state(...), rho1)`` bit for
    bit."""
    total = 0.0
    for re, im in diffs:
        total = total + (re * re + im * im)
    return np.sqrt(total)


class ClosedForm(NamedTuple):
    """rho3 = [[rho00, rho01], [conj(rho01), rho11]] and its metrics, from
    ``closed_form``. Fields that depend on gamma (the off-diagonal and the
    metrics) have gamma's shape; the diagonal is a float."""

    rho00: float
    rho11: float
    rho01_re: float | np.ndarray
    rho01_im: float | np.ndarray
    delta: float | np.ndarray
    fidelity: float | np.ndarray
    purity: float | np.ndarray

    def matrix(self) -> np.ndarray:
        """rho3 as a 2x2 complex matrix (for a scalar gamma)."""
        off = complex(self.rho01_re, self.rho01_im)
        return np.array(
            [[self.rho00, off], [off.conjugate(), self.rho11]], dtype=np.complex128
        )


def closed_form(a: complex, b: complex, c0: complex, c1: complex, gamma) -> ClosedForm:
    """The canonical reduced state and its delta, fidelity and purity.

    ``gamma`` is a complex scalar or array; the result broadcasts over it,
    element for element bit-identical to scalar calls (real arithmetic only).
    (a, b) must be normalized within AMPLITUDE_TOL; (c0, c1) are scaled to
    unit max-modulus before any other arithmetic. gamma and (c0, c1) are not
    checked here: EnvironmentModel checks one point and the sweep's config a
    batch. Raises DegenerateModelError when the coupled state has zero norm.
    """
    a, b = _check_normalized(a, b)
    c0, c1 = _unit_scaled(complex(c0), complex(c1))
    x0 = c0 * a
    x1 = c1 * b
    p0 = x0.real * x0.real + x0.imag * x0.imag
    p1 = x1.real * x1.real + x1.imag * x1.imag
    n = p0 + p1
    if math.sqrt(n) < DEGENERATE_TOL:
        raise DegenerateModelError("coupled state has zero norm: both c0*a and c1*b vanish")
    rho00 = p0 / n
    rho11 = p1 / n
    w = x0 * x1.conjugate()
    w_re = w.real / n
    w_im = w.imag / n
    g_re, g_im = gamma.real, gamma.imag
    off_re = w_re * g_re - w_im * g_im
    off_im = w_re * g_im + w_im * g_re

    # The sender's |psi><psi| exactly as ``to_density`` forms it.
    psi = np.array([a, b], dtype=np.complex128)
    (r00, r01), (r10, r11) = np.outer(psi, psi.conj()).tolist()
    delta = _frobenius((
        (rho00 - r00.real, r00.imag),
        (off_re - r01.real, off_im - r01.imag),
        (off_re - r10.real, -off_im - r10.imag),
        (rho11 - r11.real, r11.imag),
    ))
    # <psi|rho3|psi>: r10 = conj(a) b, so the off-diagonal terms give 2 Re(r10 rho01).
    fidelity = r00.real * rho00 + r11.real * rho11 + 2.0 * (r10.real * off_re - r10.imag * off_im)
    purity = rho00 * rho00 + rho11 * rho11 + 2.0 * (off_re * off_re + off_im * off_im)
    return ClosedForm(rho00, rho11, off_re, off_im, delta, fidelity, purity)


def embed_environment(env: EnvironmentModel) -> tuple[Ket, Ket]:
    """Concrete two-dimensional environment states (e0, e1) with
    <e1|e0> equal to the model's gamma."""
    g = env.gamma
    e0 = Ket(np.array([1.0, 0.0]), ("E",))
    residual = np.sqrt(max(1.0 - abs(g) ** 2, 0.0))
    e1 = Ket(np.array([np.conj(g), residual]), ("E",))
    return e0, e1


def evolve(a: complex, b: complex, env: EnvironmentModel) -> Ket:
    """Joint environment (x) qubit state after the coupling,
    C0 a e0|0> + C1 b e1|1>, renormalized.

    The explicit route that ``closed_form`` is tested against. (c0, c1) are
    scaled to unit max-modulus first, so neither the state nor the
    degeneracy threshold depends on their scale."""
    a, b = _check_normalized(a, b)
    c0, c1 = _unit_scaled(env.c0, env.c1)
    e0, e1 = embed_environment(env)
    vec = np.zeros(4, dtype=np.complex128)
    vec[0::2] = c0 * a * e0.amplitudes
    vec[1::2] = c1 * b * e1.amplitudes
    norm = np.linalg.norm(vec)
    if norm < DEGENERATE_TOL:
        raise DegenerateModelError(
            "coupled state has zero norm: both c0*a and c1*b vanish"
        )
    return Ket(vec / norm, ("E", "3"))


def reduced_state(a: complex, b: complex, env: EnvironmentModel) -> DensityMatrix:
    """The delivered qubit's state: environment traced out of the normalized
    coupled state, from ``closed_form``. Diagonal proportional to
    (|c0 a|^2, |c1 b|^2); upper off-diagonal proportional to
    c0 conj(c1) a conj(b) gamma."""
    return DensityMatrix(closed_form(a, b, env.c0, env.c1, env.gamma).matrix())


def _rejects_overflow(printed):
    """Turn a float64 overflow in a printed-form evaluation into a ValueError.

    The printed form uses (c0, c1) as given, since it is not scale invariant,
    so its squared terms overflow at scales where the canonical form is
    exact. One point is evaluated in Python float/complex arithmetic, where an
    overflow gives inf or nan, or raises OverflowError from ``**`` and
    ``abs``. Only ``printed_deviation`` takes a batch: gamma, its last
    argument, as an array, evaluated in numpy with its overflow warnings off."""

    @functools.wraps(printed)
    def checked(*args):
        try:
            if isinstance(args[-1], np.ndarray):
                with np.errstate(over="ignore", invalid="ignore"):
                    value = printed(*args)
                finite = np.isfinite(value).all()
            else:
                value = printed(*args)
                finite = all(map(cmath.isfinite, np.ravel(value).tolist()))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                f"{printed.__name__} overflows float64 at this (c0, c1) scale; the "
                "printed form is not scale invariant (the canonical form is)"
            )
        return value

    return checked


@_rejects_overflow
def reduced_state_paper_literal(a: complex, b: complex, env: EnvironmentModel) -> np.ndarray:
    """The printed closed form for the delivered state, evaluated verbatim:
    diagonal (1 + |gamma|^2)(|c0 a|^2, |c1 b|^2) and doubled off-diagonals.

    Returned as a raw matrix: away from |gamma| = 1 it is not unit-trace, so
    it is not a valid density matrix. ``paper-check`` prints it next to the
    canonical form.
    """
    a = complex(a)
    b = complex(b)
    c0, c1, g = env.c0, env.c1, env.gamma
    g_sq = abs(g) ** 2
    d00 = abs(c0 * a) ** 2 * (1.0 + g_sq)
    d01 = 2.0 * c0 * c1.conjugate() * a * b.conjugate() * g
    d10 = 2.0 * c1 * c0.conjugate() * b * a.conjugate() * g.conjugate()
    d11 = abs(c1 * b) ** 2 * (1.0 + g_sq)
    return np.array([[d00, d01], [d10, d11]], dtype=np.complex128)


def dephased_limit(a: complex, b: complex, c0: complex, c1: complex) -> np.ndarray:
    """Fully dephased (orthogonal-environment) reduced state:
    diag(|c0 a|^2, |c1 b|^2), exactly as printed."""
    return np.diag(
        [abs(complex(c0) * complex(a)) ** 2, abs(complex(c1) * complex(b)) ** 2]
    ).astype(np.complex128)


def deviation(rho3, rho1: DensityMatrix) -> float:
    """Entrywise-quadratic distance sqrt(sum |rho3_nm - rho1_nm|^2) between the
    delivered state and the sender's original."""
    if isinstance(rho3, DensityMatrix):
        mat3 = rho3.mat
    else:
        mat3 = np.asarray(rho3, dtype=np.complex128)
        if not np.isfinite(mat3).all():
            raise ValueError("rho3 contains non-finite entries")
    if mat3.shape != rho1.mat.shape:
        raise ValueError(f"shape mismatch: {mat3.shape} vs {rho1.mat.shape}")
    diff = (mat3 - rho1.mat).ravel().tolist()
    return float(_frobenius((d.real, d.imag) for d in diff))


def _mod_sq_affine(k: complex, x_re, x_im, m: complex):
    """|k x - m|^2 for x = x_re + i x_im, in real arithmetic."""
    re = k.real * x_re - k.imag * x_im - m.real
    im = k.real * x_im + k.imag * x_re - m.imag
    return re * re + im * im


@_rejects_overflow
def printed_deviation(a: complex, b: complex, c0: complex, c1: complex, gamma):
    """The printed four-term expansion of the deviation, applied to the
    printed reduced state; kept verbatim for comparison with
    ``deviation(reduced_state_paper_literal(...), rho1)``. Broadcasts over
    gamma like ``closed_form``."""
    a, b, c0, c1 = complex(a), complex(b), complex(c0), complex(c1)
    batch = isinstance(gamma, np.ndarray)
    if not batch:
        gamma = complex(gamma)
    g_re, g_im = gamma.real, gamma.imag
    g_sq = g_re * g_re + g_im * g_im
    c0a_sq = abs(c0 * a) ** 2
    c1b_sq = abs(c1 * b) ** 2
    t00 = (c0a_sq + c0a_sq * g_sq - abs(a) ** 2) ** 2
    t01 = _mod_sq_affine(2.0 * c0 * c1.conjugate() * a * b.conjugate(), g_re, g_im, a * b.conjugate())
    t10 = _mod_sq_affine(2.0 * c1 * c0.conjugate() * b * a.conjugate(), g_re, -g_im, b * a.conjugate())
    t11 = (c1b_sq + c1b_sq * g_sq - abs(b) ** 2) ** 2
    total = t00 + t01 + t10 + t11
    return np.sqrt(total) if batch else math.sqrt(total)


def deviation_closed_form_paper(a: complex, b: complex, env: EnvironmentModel) -> float:
    """``printed_deviation`` at one parameter point."""
    return float(printed_deviation(a, b, env.c0, env.c1, env.gamma))


def replica_fidelity(a: complex, b: complex, env: EnvironmentModel) -> float:
    """<psi|rho3|psi> for the canonical reduced state. For c0 = c1 and real
    gamma = s this is 1 - 2|a|^2|b|^2(1 - s)."""
    return direct_report(a, b, env).fidelity


def _report(a: complex, b: complex, env: EnvironmentModel,
            branch: BellOutcome | None) -> DeviationReport:
    form = closed_form(a, b, env.c0, env.c1, env.gamma)
    return DeviationReport(
        rho3=DensityMatrix(form.matrix()),
        delta=float(form.delta),
        fidelity=float(form.fidelity),
        purity=float(form.purity),
        branch=branch,
    )


def direct_report(a: complex, b: complex, env: EnvironmentModel) -> DeviationReport:
    """Metrics at one parameter point without running the protocol."""
    return _report(a, b, env, branch=None)


def noisy_teleport(psi: Ket, env: EnvironmentModel, seed: int) -> DeviationReport:
    """Full protocol run whose correction step couples to the environment.

    The ideal branch delivers the input amplitudes up to global phase; the
    coupling then degrades them, so the reported metrics are independent of
    the sampled branch.
    """
    record = run_ideal(psi, seed)
    a, b = record.corrected_state.amplitudes
    return _report(a, b, env, branch=record.outcome)
