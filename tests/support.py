"""Constants, random draws, hypothesis strategies and independent oracles
shared by the test modules."""

import cmath
import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from teleportsim.envmodel import EnvironmentModel
from teleportsim.teleport import BellOutcome

SQRT_HALF = np.sqrt(0.5)
# The shared EPR pair (|01> - |10>)/sqrt(2).
SINGLET = np.array([0, 1, -1, 0]) * SQRT_HALF

# A draw u in [0, 1) picks Bell outcome int(4u): each quarter's first draw,
# the last draw before it, and the largest draw below 1, with their outcomes.
_STEP = 2.0**-53  # the spacing of the draws
BELL_DRAW_EDGES = (
    (0.0, 0), (0.25 - _STEP, 0), (0.25, 1), (0.5 - _STEP, 1),
    (0.5, 2), (0.75 - _STEP, 2), (0.75, 3), (1.0 - _STEP, 3),
)
# Inputs whose rounded branch probability p is 1/4 moved by -2, -1, 0, 1, 2
# and 3 ulps, in that order. At p = 1/4 - 2 ulps, a search over the running
# sums of (p, p, p, p) picks outcome 3 at u = 3/4 - 2^-53, not int(4u) = 2.
BELL_DRAW_STATES = ((1.7, 2.5), (0.9, 1.8), (0.1, 0.4), (1, 1), (0.6, 0.8j), (0.1, 2.1))


def random_qubit(rng):
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return amps / np.linalg.norm(amps)


def random_model(rng):
    gamma = rng.random() * np.exp(2j * np.pi * rng.random())
    c0 = rng.standard_normal() + 1j * rng.standard_normal()
    c1 = rng.standard_normal() + 1j * rng.standard_normal()
    return EnvironmentModel(gamma, c0, c1)


unit = st.floats(-1.0, 1.0)
phases = st.floats(0.0, 2 * math.pi)
coefficients = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
overlaps = st.builds(cmath.rect, st.floats(0.0, 1.0), phases)


@st.composite
def qubits(draw):
    """A normalized (a, b) from four parts in [-1, 1]."""
    re0, im0, re1, im1 = draw(st.tuples(unit, unit, unit, unit))
    norm = math.hypot(re0, im0, re1, im1)
    assume(norm > 1e-3)
    return complex(re0, im0) / norm, complex(re1, im1) / norm


def listed_conditional(outcome, a, b):
    """Receiver-side conditional states, written out independently."""
    return {
        BellOutcome.PSI_MINUS: np.array([-a, -b]),
        BellOutcome.PSI_PLUS: np.array([-a, b]),
        BellOutcome.PHI_MINUS: np.array([b, a]),
        BellOutcome.PHI_PLUS: np.array([-b, a]),
    }[outcome]


def trace_out_first_factor(rho, dim_a, dim_b):
    """Index-summation oracle for ``partial_trace(..., keep="B")``."""
    out = np.zeros((dim_b, dim_b), dtype=complex)
    for i in range(dim_b):
        for j in range(dim_b):
            for k in range(dim_a):
                out[i, j] += rho[k * dim_b + i, k * dim_b + j]
    return out


def traced_over_environment(joint_amplitudes):
    """The qubit's state from environment-first joint amplitudes: the outer
    product, then the environment index summed out."""
    return trace_out_first_factor(np.outer(joint_amplitudes, joint_amplitudes.conj()), 2, 2)
