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


# ---------------------------------------------------------------- numpy's first Philox draw, in loop form
#
# numpy's SeedSequence (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq) and Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random
# numbers: as easy as 1, 2, 3", SC '11), written as their sources loop. The
# unrolled ``qcore._first_word`` folds these constants into literals; the
# tests re-derive each literal from them and check both forms against numpy.

MASK32 = 2**32 - 1
MASK64 = 2**64 - 1
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
POOL_SIZE = 4
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # M0, M1
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # W0, W1: the golden ratio, sqrt(3) - 1


def seed_words(seed):
    """A non-negative int as 32-bit words, least significant first; 0 is [0]."""
    words = [seed & MASK32]
    seed >>= 32
    while seed:
        words.append(seed & MASK32)
        seed >>= 32
    return words


def seed_sequence_pool(seed):
    """SeedSequence(seed).pool: the seed's words hashed into four words, each
    mixed into every other, then any words past the fourth mixed in."""
    words = seed_words(seed)
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * MULT_A & MASK32
        value = value * const & MASK32
        return value ^ value >> XSHIFT

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> XSHIFT

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL_SIZE, len(words)):
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    return pool


def generate_state(pool, n_words):
    """SeedSequence.generate_state(n_words, np.uint32) from its pool."""
    const = INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % len(pool)] ^ const
        const = const * MULT_B & MASK32
        value = value * const & MASK32
        state.append(value ^ value >> XSHIFT)
    return state


def philox_key(seed):
    """np.random.Philox(seed)'s key: two uint64 words of the seed's state,
    read little-endian from four uint32 words."""
    w = generate_state(seed_sequence_pool(seed), 4)
    return w[0] | w[1] << 32, w[2] | w[3] << 32


def philox4x64(counter, key, rounds=10):
    """One Philox4x64 block: ``rounds`` rounds, the key bumped by (W0, W1)
    before each round after the first."""
    (c0, c1, c2, c3), (k0, k1) = counter, key
    m0, m1 = PHILOX_M
    for r in range(rounds):
        if r:
            k0, k1 = (k0 + PHILOX_W[0]) & MASK64, (k1 + PHILOX_W[1]) & MASK64
        prod0, prod1 = m0 * c0, m1 * c2
        c0, c1, c2, c3 = prod1 >> 64 ^ c1 ^ k0, prod1 & MASK64, prod0 >> 64 ^ c3 ^ k1, prod0 & MASK64
    return c0, c1, c2, c3


def philox_words(seed, n_blocks):
    """The first 4 * n_blocks words of np.random.Philox(seed).random_raw():
    numpy increments the counter before each block, so block n is
    philox4x64((n, 0, 0, 0), key)."""
    key = philox_key(seed)
    return [w for n in range(1, n_blocks + 1) for w in philox4x64((n, 0, 0, 0), key)]
