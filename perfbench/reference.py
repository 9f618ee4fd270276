"""Closed-form reference for the receiver's reduced state, written apart from
the package (plain Python complex arithmetic, no numpy, no teleportsim).

For a sender state a|0> + b|1> (normalized), branch coefficients c0, c1 and
environment overlap gamma = <E1|E0>:

    N        = |c0 a|^2 + |c1 b|^2
    rho3     = [[|c0 a|^2, c0 c1* a b* gamma], [c.c., |c1 b|^2]] / N
    printed  = [[(1+|gamma|^2)|c0 a|^2, 2 c0 c1* a b* gamma], [c.c., (1+|gamma|^2)|c1 b|^2]]
    delta    = Frobenius distance to rho1 = |psi><psi|
    fidelity = <psi|rho3|psi>,  purity = tr(rho3^2)

The canonical state is invariant under (c0, c1) -> k (c0, c1), so it is
evaluated on (c0, c1) scaled to unit max-modulus; that keeps it exact at
scales where the squared moduli would underflow or overflow. The printed
form is not scale invariant and uses (c0, c1) as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TOL = 1e-12
CLI_TOL = 1e-9


def close(x: complex, ref: complex, tol: float = TOL) -> bool:
    """|x - ref| within tol, relative once |ref| exceeds 1."""
    return abs(x - ref) <= tol * max(1.0, abs(ref))


def matrices_close(m, ref, tol: float = TOL) -> bool:
    return all(close(m[i][j], ref[i][j], tol) for i in range(2) for j in range(2))


def normalize(a: complex, b: complex) -> tuple[complex, complex]:
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / n, b / n


def _frobenius(m, ref) -> float:
    return math.sqrt(sum(abs(m[i][j] - ref[i][j]) ** 2 for i in range(2) for j in range(2)))


@dataclass(frozen=True)
class Point:
    """Every reference quantity at one parameter point."""

    rho1: tuple
    rho3: tuple
    n: float | None
    delta: float
    fidelity: float
    purity: float
    printed: tuple | None
    printed_trace: float | None
    delta_printed: float | None


def evaluate(a: complex, b: complex, c0: complex, c1: complex, gamma: complex,
             printed: bool = True) -> Point:
    """Reference values at a normalized (a, b); ``printed=False`` skips the
    printed form (it overflows where the canonical form does not)."""
    a, b, c0, c1, gamma = complex(a), complex(b), complex(c0), complex(c1), complex(gamma)
    rho1 = ((abs(a) ** 2, a * b.conjugate()), (b * a.conjugate(), abs(b) ** 2))

    k = max(abs(c0), abs(c1))
    x0, x1 = (c0 / k) * a, (c1 / k) * b
    p0, p1 = abs(x0) ** 2, abs(x1) ** 2
    n = p0 + p1
    off = x0 * x1.conjugate() * gamma / n
    rho3 = ((p0 / n, off), (off.conjugate(), p1 / n))
    psi = (a, b)
    fid = sum(psi[i].conjugate() * rho3[i][j] * psi[j] for i in range(2) for j in range(2)).real
    pur = sum(abs(rho3[i][j]) ** 2 for i in range(2) for j in range(2))

    raw_n = lit = lit_trace = lit_delta = None
    if printed:
        g2 = abs(gamma) ** 2
        q0, q1 = abs(c0 * a) ** 2, abs(c1 * b) ** 2
        d01 = 2.0 * c0 * c1.conjugate() * a * b.conjugate() * gamma
        lit = ((q0 * (1.0 + g2), d01), (d01.conjugate(), q1 * (1.0 + g2)))
        raw_n = q0 + q1
        lit_trace = (1.0 + g2) * raw_n
        lit_delta = _frobenius(lit, rho1)
    return Point(rho1, rho3, raw_n, _frobenius(rho3, rho1), fid, pur, lit, lit_trace, lit_delta)


def printed_from_canonical(rho3, gamma: complex, n: float):
    """The printed form predicted from the canonical one: diagonal scaled by
    (1 + |gamma|^2) N, off-diagonal by 2 N."""
    d = (1.0 + abs(gamma) ** 2) * n
    return ((rho3[0][0] * d, rho3[0][1] * 2 * n), (rho3[1][0] * 2 * n, rho3[1][1] * d))


def self_check() -> list[str]:
    """Check the reference against the paper's stated limits; returns the
    failures (empty when the reference is sound)."""
    s = 1 / math.sqrt(2)
    failures = []
    states = [normalize(0.6, 0.8j), normalize(1 + 2j, -0.5 + 0.1j), (1.0, 0.0), normalize(0.3, 1.0)]
    for a, b in states:
        one = evaluate(a, b, s, s, 1.0)
        if not (close(one.delta, 0.0) and close(one.delta_printed, 0.0)):
            failures.append(f"delta != 0 at gamma = 1, c0 = c1 = 1/sqrt2 for {(a, b)}")
        zero = evaluate(a, b, s, s, 0.0)
        if not (zero.rho3[0][1] == 0 and zero.rho3[1][0] == 0):
            failures.append(f"rho3 not diagonal at gamma = 0 for {(a, b)}")
        if not close(zero.printed_trace, 0.5):
            failures.append(f"printed trace {zero.printed_trace} != 1/2 at gamma = 0 for {(a, b)}")
        for g in (0.0, 0.37, 1.0):
            pt = evaluate(a, b, 0.4 - 0.9j, 0.4 - 0.9j, g)
            expect = 1 - 2 * abs(a) ** 2 * abs(b) ** 2 * (1 - g)
            if not close(pt.fidelity, expect):
                failures.append(f"fidelity identity fails at gamma = {g} for {(a, b)}")
    return failures
