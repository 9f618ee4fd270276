"""Environment coupling in the receiver's correction step.

The correction unitary is realized by a physical apparatus, so the receiver's
qubit couples to environment states |E0>, |E1>:

    |E0> (x) (a|0> + b|1>)  ->  C0 a |E0>|0> + C1 b |E1>|1>

Only the overlap gamma = <E1|E0> survives into the qubit's reduced state, so a
two-dimensional environment is fully general. gamma = 0 dephases it
completely. With p = |a|^2 and q = |b|^2 on a normalized (a, b),
1 - F = p q (|c0 - c1 gamma*|^2 + |c1|^2 (1 - |gamma|^2)) / (|c0|^2 p + |c1|^2 q)
and 1 - purity = 2 rho00 rho11 (1 - |gamma|^2). So the replica is exact
(rho3 = rho1) if and only if p q = 0, or |gamma| = 1 and c0 = c1 gamma*; and
pure if and only if |gamma| = 1 or rho00 rho11 = 0.

Two routes to the reduced state are provided on purpose:

* ``reduced_state`` is the canonical form: the environment traced out of the
  joint state above (renormalized). In closed form,

      rho3 = [[|c0 a|^2, c0 c1* a b* gamma], [c.c., |c1 b|^2]] / N,
      N = |c0 a|^2 + |c1 b|^2,

  a phase-damping channel followed by a local filter. One kernel,
  ``closed_form``, evaluates it together with delta, fidelity and purity and
  broadcasts over an array of overlaps; every metric in the package comes
  from it.
* ``reduced_state_paper_literal`` evaluates a printed closed-form variant.
  Its normalization disagrees with the partial trace away from |gamma| = 1
  (it is generally not unit-trace); the CLI's ``paper-check`` reports the
  divergence instead of silently preferring either side. One formula gives
  its entries, and ``printed_deviation`` is that matrix's distance from rho1
  by the canonical delta formula: it equals
  ``deviation(reduced_state_paper_literal(...), rho1)`` bit for bit.

The model is invariant under (c0, c1) -> k (c0, c1). The kernel and ``evolve``
scale (c0, c1) to unit max-modulus before any other arithmetic, so the
invariance holds in floating point at any k. The printed form is not scale
invariant and uses (c0, c1) as given; where it overflows it is rejected.

Arguments are read by ``qcore``'s rules; this module checks no kind of its
own. Both forms take (a, b) by ``qcore._check_normalized``, a Ket's norm
rule for two amplitudes: a pair a Ket accepts is used unchanged, and any
other raises the Ket's ValueError, "amplitudes are not normalized: ..." or
"amplitudes contain non-finite entries". ``noisy_teleport`` reads psi
by ``qcore._qubit``, as ``run_ideal`` does. ``deviation`` takes a
``DensityMatrix`` as it is and reads any other argument by
``qcore._matrix_entries``: ValueError "rho3 must be 2x2, got shape ...", then
"rho3 contains non-finite entries" (likewise rho1). c0 = c1 = 0 raises
DegenerateModelError "c0 and c1 cannot both be zero" from the model and the
kernel alike.

Left out of ``__all__``: ``closed_form`` and ``printed_deviation``, which
check neither gamma nor (c0, c1) (``EnvironmentModel`` checks one point and
``SweepConfig.validate`` a batch), and the float oracle ``embed_environment``
and ``evolve``, which build the joint state and which no package code calls.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

import numpy as np

from .qcore import (
    DensityMatrix, Ket, _check_normalized, _fidelity_of, _Frozen, _matrix_entries, _pure_density, _purity_of,
    _qubit_rows, _Result, _stored,
)
from .teleport import OUTCOME_ORDER, BellOutcome, _delivered, _draw

__all__ = [
    "DegenerateModelError",
    "EnvironmentModel",
    "DeviationReport",
    "reduced_state",
    "reduced_state_paper_literal",
    "deviation",
    "deviation_closed_form_paper",
    "direct_report",
    "noisy_teleport",
]

OVERLAP_TOL = 1e-12
# Smallest norm of the coupled state, with (c0, c1) at unit max-modulus,
# about 1.5e-154: the squared norm must be a normal float. Above it any
# (c0, c1) ratio is computed; below it the squared norm has lost precision to
# subnormals or underflowed to zero, and the state is rejected.
DEGENERATE_TOL = math.sqrt(sys.float_info.min)


class DegenerateModelError(ValueError):
    """Raised where the model defines no coupled state: c0 = c1 = 0, by the
    model or the kernel alike, or a coupled state whose norm, with (c0, c1)
    at unit max-modulus, is below DEGENERATE_TOL: its square is zero or
    subnormal in float64, whether both branches vanish or only underflow."""


class EnvironmentModel(_Frozen):
    """Parameters of the coupling: overlap gamma = <E1|E0> and branch
    coefficients c0, c1, kept as Python complexes.

    A value like a frozen dataclass: ``==`` and ``hash`` compare
    (gamma, c0, c1), and assignment and deletion raise. Construction runs
    ``__post_init__`` once: the one check, and the hook a tracer can wrap."""

    _fields = ("gamma", "c0", "c1")

    def __init__(self, gamma: complex, c0: complex, c1: complex):
        self.__post_init__(gamma, c0, c1)

    def __post_init__(self, gamma, c0, c1):
        gamma = complex(gamma)
        c0 = complex(c0)
        c1 = complex(c1)
        if not (cmath.isfinite(gamma) and cmath.isfinite(c0) and cmath.isfinite(c1)):
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
            raise DegenerateModelError("c0 and c1 cannot both be zero")
        state = vars(self)
        state["gamma"] = gamma
        state["c0"] = c0
        state["c1"] = c1

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.gamma, self.c0, self.c1) == (other.gamma, other.c0, other.c1)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.gamma, self.c0, self.c1))


class DeviationReport(_Result):
    """Delivered state and its quality metrics at one parameter point, built
    only by ``direct_report`` and ``noisy_teleport``.

    ``branch`` is the sampled measurement outcome, or None for a direct
    evaluation that bypasses the protocol. Equality is identity."""

    _fields = ("rho3", "delta", "fidelity", "purity", "branch")


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


def _frobenius(m00, m01, m10, m11):
    """sqrt of the sum of a 2x2 difference's four squared moduli, given in
    row order and summed in that order.

    The one deviation formula: ``deviation`` and ``_delta`` both use it.
    It sums into ``m00`` and takes the root there, so an array ``m00`` is
    overwritten: it must be a temporary of the calling kernel, never an
    array a caller of the kernel holds. A float ``m00`` is only rebound,
    and ``m01`` to ``m11`` are only read."""
    m00 += m01
    m00 += m10
    m00 += m11
    return np.sqrt(m00, out=m00) if isinstance(m00, np.ndarray) else math.sqrt(m00)


def _delta(rho1, d00, d11, off_re, off_im):
    """Distance of [[d00, off], [conj(off), d11]] from rho1, the parts
    from ``_pure_density``; broadcasts over array entries.

    The one delta formula, for the canonical and the printed form. It takes
    the entries in ``deviation``'s order, so each delta equals ``deviation``
    of its matrix bit for bit. The lower entry's imaginary difference,
    ``r01_im - off_im``, is exactly ``-(off_im - r01_im)`` and enters only
    squared, so one difference serves both entries, as the real one does:
    the squared modulus ``off`` is formed once and passed for both.

    ``d00`` and ``d11`` are overwritten, squared in place: each is a float
    or an array ``_printed_entries`` built for this call, never one a caller
    holds. ``off_re`` and ``off_im`` are only read: ``closed_form`` returns
    them."""
    r00, r11, r01_re, r01_im = rho1
    d00 -= r00
    d00 *= d00
    d11 -= r11
    d11 *= d11
    off = off_re - r01_re
    off *= off
    im = off_im - r01_im
    im *= im
    off += im
    return _frobenius(d00, off, off, d11)


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

    def rows(self) -> tuple[tuple[complex, complex], ...]:
        """rho3's rows as tuples of Python complexes (for a scalar gamma)."""
        return _qubit_rows(self.rho00, self.rho11, self.rho01_re, self.rho01_im)


def closed_form(a: complex, b: complex, c0: complex, c1: complex, gamma) -> ClosedForm:
    """The canonical reduced state and its delta, fidelity and purity.

    ``gamma`` is a complex scalar or array; the result broadcasts over it,
    element for element bit-identical to scalar calls (real arithmetic only).
    (a, b) must pass a Ket's norm check; (c0, c1) are scaled to
    unit max-modulus before any other arithmetic. gamma and (c0, c1) are not
    checked here: EnvironmentModel checks one point and the sweep's config a
    batch. Raises DegenerateModelError when the coupled state's norm is below
    DEGENERATE_TOL.

    Every array field is new: each is built in place in a product allocated
    here, never in gamma or in another field.
    """
    a, b = _check_normalized(a, b)
    c0, c1 = _unit_scaled(complex(c0), complex(c1))
    x0 = c0 * a
    x1 = c1 * b
    p0 = x0.real * x0.real + x0.imag * x0.imag
    p1 = x1.real * x1.real + x1.imag * x1.imag
    n = p0 + p1
    norm = math.sqrt(n)
    if norm < DEGENERATE_TOL:
        raise _degenerate(norm)
    rho00 = p0 / n
    rho11 = p1 / n
    w = x0 * x1.conjugate()
    w_re = w.real / n
    w_im = w.imag / n
    g_re, g_im = gamma.real, gamma.imag
    # In place, in products allocated here.
    off_re = w_re * g_re
    off_re -= w_im * g_im
    off_im = w_re * g_im
    off_im += w_im * g_re

    # The sender's |psi><psi| exactly as ``to_density`` forms it.
    rho1 = _pure_density(a, b)
    delta = _delta(rho1, rho00, rho11, off_re, off_im)
    return ClosedForm(rho00, rho11, off_re, off_im, delta, _fidelity_of(rho1, rho00, rho11, off_re, off_im),
                      _purity_of(rho00, rho11, off_re, off_im))


def embed_environment(env: EnvironmentModel) -> tuple[Ket, Ket]:
    """Concrete two-dimensional environment states (e0, e1) with
    <e1|e0> equal to the model's gamma: an oracle, not exported."""
    g = env.gamma
    e0 = Ket(np.array([1.0, 0.0]), ("E",))
    residual = np.sqrt(max(1.0 - abs(g) ** 2, 0.0))
    e1 = Ket(np.array([np.conj(g), residual]), ("E",))
    return e0, e1


def evolve(a: complex, b: complex, env: EnvironmentModel) -> Ket:
    """Joint environment (x) qubit state C0 a e0|0> + C1 b e1|1> after the
    coupling, renormalized: an oracle, not exported. (c0, c1) are scaled to
    unit max-modulus first, so neither the state nor the degeneracy threshold
    depends on their scale."""
    a, b = _check_normalized(a, b)
    c0, c1 = _unit_scaled(env.c0, env.c1)
    e0, e1 = embed_environment(env)
    vec = np.zeros(4, dtype=np.complex128)
    vec[0::2] = c0 * a * e0.amplitudes
    vec[1::2] = c1 * b * e1.amplitudes
    norm = np.linalg.norm(vec)
    if norm < DEGENERATE_TOL:
        raise _degenerate(norm)
    return Ket(vec / norm, ("E", "3"))


def reduced_state(a: complex, b: complex, env: EnvironmentModel) -> DensityMatrix:
    """The delivered qubit's state: environment traced out of the normalized
    coupled state, from ``closed_form``. Diagonal proportional to
    (|c0 a|^2, |c1 b|^2); upper off-diagonal proportional to
    c0 conj(c1) a conj(b) gamma."""
    return DensityMatrix(closed_form(a, b, env.c0, env.c1, env.gamma).rows())


def _printed_entries(a: complex, b: complex, c0: complex, c1: complex, gamma):
    """The printed form's entries (d00, d11, d01_re, d01_im), unchecked:
    diagonal (1 + |gamma|^2)(|c0 a|^2, |c1 b|^2) and upper off-diagonal
    2 c0 conj(c1) a conj(b) gamma. Broadcasts over gamma in real arithmetic
    like ``closed_form``. (c0, c1) are used as given, so at large scales the
    entries overflow to inf or nan; the callers check what they return.

    Each entry, and ``|gamma|^2``, is built in place in a product allocated
    here (a float for a scalar gamma); gamma is never written. ``|gamma|^2``
    has gamma's real dtype, so each diagonal is a new product rather than
    ``|gamma|^2`` scaled in place: an integer or bool one cannot hold the
    float product. Every array returned is new, so ``_delta`` may overwrite
    the diagonal."""
    try:
        p0 = abs(c0 * a) ** 2
        p1 = abs(c1 * b) ** 2
    except OverflowError:  # a modulus or its square beyond float64
        p0 = p1 = math.inf
    # The printed order, c0 conj(c1) first: where that product exceeds float64
    # the entry overflows, even if a conj(b) would scale it back into range.
    w = 2.0 * c0 * c1.conjugate() * a * b.conjugate()
    g_re, g_im = gamma.real, gamma.imag
    g_sq = g_re * g_re
    g_sq += g_im * g_im
    # p0 * g_sq + p0 is the printed p0 + p0 |gamma|^2: the same addition.
    d00 = p0 * g_sq
    d00 += p0
    d11 = p1 * g_sq
    d11 += p1
    d01_re = w.real * g_re
    d01_re -= w.imag * g_im
    d01_im = w.real * g_im
    d01_im += w.imag * g_re
    return d00, d11, d01_re, d01_im


def _degenerate(norm: float) -> DegenerateModelError:
    return DegenerateModelError(
        f"coupled state's norm computes to {float(norm)!r}, below DEGENERATE_TOL = {DEGENERATE_TOL!r} "
        "with (c0, c1) at unit max-modulus: its square is zero or subnormal in float64"
    )


def _overflow(name: str) -> ValueError:
    return ValueError(
        f"{name} overflows float64 at this (c0, c1) scale; the printed form is "
        "not scale invariant (the canonical form is)"
    )


def reduced_state_paper_literal(a: complex, b: complex, env: EnvironmentModel) -> np.ndarray:
    """The printed closed form for the delivered state: diagonal
    (1 + |gamma|^2)(|c0 a|^2, |c1 b|^2) and doubled off-diagonals.

    Returned as a raw matrix: away from |gamma| = 1 it is not unit-trace, so
    it is not a valid density matrix. ``paper-check`` prints it next to the
    canonical form. Raises ValueError for an unnormalized (a, b) and where an
    entry overflows float64.
    """
    a, b = _check_normalized(a, b)
    d00, d11, re, im = _printed_entries(a, b, env.c0, env.c1, env.gamma)
    if not (math.isfinite(d00) and math.isfinite(d11) and math.isfinite(re) and math.isfinite(im)):
        raise _overflow("reduced_state_paper_literal")
    return np.array(_qubit_rows(d00, d11, re, im), dtype=np.complex128)


def _state_rows(rho, name: str):
    """The rows of a ``DensityMatrix``, or of a 2x2 array read by
    ``qcore._matrix_entries`` under ``name``."""
    return rho.rows if isinstance(rho, DensityMatrix) else _matrix_entries(rho, name)


def deviation(rho3, rho1) -> float:
    """Entrywise-quadratic distance sqrt(sum |rho3_nm - rho1_nm|^2) between the
    delivered state and the sender's original, each a ``DensityMatrix`` or a
    finite 2x2 array."""
    (x00, x01), (x10, x11) = _state_rows(rho3, "rho3")
    (y00, y01), (y10, y11) = _state_rows(rho1, "rho1")
    d00, d01, d10, d11 = x00 - y00, x01 - y01, x10 - y10, x11 - y11
    return _frobenius(d00.real * d00.real + d00.imag * d00.imag, d01.real * d01.real + d01.imag * d01.imag,
                      d10.real * d10.real + d10.imag * d10.imag, d11.real * d11.real + d11.imag * d11.imag)


def printed_deviation(a: complex, b: complex, c0: complex, c1: complex, gamma):
    """The sweep's batch kernel for the printed reduced state's deviation
    from rho1 = |psi><psi|: the entries of ``reduced_state_paper_literal``
    and ``closed_form``'s delta formula, so each value equals
    ``deviation(reduced_state_paper_literal(...), rho1)`` bit for bit.
    Broadcasts over gamma like ``closed_form``; raises ValueError for an
    unnormalized (a, b) and where a value overflows float64. gamma and
    (c0, c1) are not checked here: EnvironmentModel checks one point and the
    sweep's config a batch."""
    a, b = _check_normalized(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = _delta(_pure_density(a, b), *_printed_entries(a, b, complex(c0), complex(c1), gamma))
    if not np.isfinite(delta).all():
        raise _overflow("printed_deviation")
    return delta


def deviation_closed_form_paper(a: complex, b: complex, env: EnvironmentModel) -> float:
    """``printed_deviation`` at one parameter point, in Python floats."""
    a, b = _check_normalized(a, b)
    delta = _delta(_pure_density(a, b), *_printed_entries(a, b, env.c0, env.c1, env.gamma))
    if not math.isfinite(delta):
        raise _overflow("printed_deviation")
    return delta


def _report(a: complex, b: complex, env: EnvironmentModel,
            branch: BellOutcome | None) -> DeviationReport:
    """The report at one point, kept by ``_stored`` with its rho3 unchecked:
    ``DensityMatrix``'s check would add about a quarter to a point query, and
    rho3 passes it by construction once the model, (a, b) and the coupled
    norm are checked. Its trace is 1 up to rounding, its layout is exactly
    Hermitian, and its determinant rho00 rho11 (1 - |gamma|^2), with
    |gamma| <= 1 + OVERLAP_TOL, puts the lower eigenvalue above about -1e-12."""
    rho00, rho11, re, im, delta, fid, pur = closed_form(a, b, env.c0, env.c1, env.gamma)
    return _stored(DeviationReport, rho3=_stored(DensityMatrix, rows=_qubit_rows(rho00, rho11, re, im)),
                   delta=delta, fidelity=fid, purity=pur, branch=branch)


def direct_report(a: complex, b: complex, env: EnvironmentModel) -> DeviationReport:
    """Metrics at one parameter point without running the protocol."""
    return _report(a, b, env, branch=None)


def noisy_teleport(psi: Ket, env: EnvironmentModel, seed: int) -> DeviationReport:
    """Full protocol run whose correction step couples to the environment.

    Every outcome's correction delivers the same pair (p, q) up to sign (see
    ``teleport._bell_branches``), and rho3 does not see that sign, so the
    report is the coupling's on (p, q): its rho3 and metrics are the same,
    bit for bit, whatever outcome the seed draws, and only ``branch`` tells
    the outcomes apart. ``seed`` follows ``run_ideal``'s rule.
    """
    a, b, index = _draw(psi, seed)
    # No record, no branch table and no correction: only the delivered pair
    # and the outcome's index are alive under the report's work.
    a, b = _delivered(a, b)[:2]
    return _report(a, b, env, branch=OUTCOME_ORDER[index])
