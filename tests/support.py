"""Constants, random draws, hypothesis strategies and independent oracles
shared by the test modules."""

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from teleportsim.envmodel import DEGENERATE_TOL, EnvironmentModel
from teleportsim.qcore import _first_word
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


# With (a, b) = (NEAR_DEGENERATE, 1) and (c0, c1) = (1, NEAR_DEGENERATE), the
# two branches have equal weight, each square is subnormal, and the coupled
# norm is sqrt(2) * 0.8 = 1.13 times DEGENERATE_TOL: just above the threshold.
NEAR_DEGENERATE = 0.8 * DEGENERATE_TOL


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


def exact_rho3(a, b, c0, c1, gamma):
    """(rho00, rho11, rho01_re, rho01_im) in exact rational arithmetic on the
    given floats: the closed form with no rounding and no scaling."""
    a, b, c0, c1, gamma = map(_exact, (a, b, c0, c1, gamma))
    x0, x1 = _mul(c0, a), _mul(c1, b)
    p0 = x0[0] ** 2 + x0[1] ** 2
    p1 = x1[0] ** 2 + x1[1] ** 2
    n = p0 + p1
    off = _mul(_mul(x0, (x1[0], -x1[1])), gamma)
    return p0 / n, p1 / n, off[0] / n, off[1] / n


def exact_point(a, b, c0, c1, gamma):
    """The exact values ``closed_form`` rounds, as Fractions: rho3's parts
    (rho00, rho11, rho01_re, rho01_im), delta^2, fidelity and purity.

    rho3 does not depend on the scale of (a, b); rho1 is taken on the exactly
    normalized ray, with |a|^2 / (|a|^2 + |b|^2) on its diagonal, so the
    float pair's own distance from norm 1 counts as the kernel's error."""
    rho00, rho11, re, im = exact_rho3(a, b, c0, c1, gamma)
    (ar, ai), (br, bi) = _exact(a), _exact(b)
    s = ar * ar + ai * ai + br * br + bi * bi
    r00, r11 = (ar * ar + ai * ai) / s, (br * br + bi * bi) / s
    r01_re, r01_im = (ar * br + ai * bi) / s, (ai * br - ar * bi) / s  # a conj(b)
    delta_sq = (rho00 - r00) ** 2 + (rho11 - r11) ** 2 + 2 * ((re - r01_re) ** 2 + (im - r01_im) ** 2)
    fidelity = r00 * rho00 + r11 * rho11 + 2 * (r01_re * re + r01_im * im)
    purity = rho00 ** 2 + rho11 ** 2 + 2 * (re ** 2 + im ** 2)
    return (rho00, rho11, re, im), delta_sq, fidelity, purity


def exact_replica_terms(a, b, c0, c1, gamma):
    """The pieces of the identity 1 - F = p q (m + l) / n, exactly, as
    Fractions (p, q, m, l, n): p = |a|^2 / s and q = |b|^2 / s on the exactly
    normalized ray, as ``exact_point`` takes rho1; the mismatch
    m = |c0 - c1 conj(gamma)|^2; the loss l = |c1|^2 (1 - |gamma|^2); and
    n = |c0|^2 p + |c1|^2 q. Neither term of m + l is negative where
    |gamma| <= 1."""
    (ar, ai), (br, bi), c0, c1, (g_re, g_im) = map(_exact, (a, b, c0, c1, gamma))
    s = ar * ar + ai * ai + br * br + bi * bi
    p, q = (ar * ar + ai * ai) / s, (br * br + bi * bi) / s
    d_re, d_im = _mul(c1, (g_re, -g_im))
    m = (c0[0] - d_re) ** 2 + (c0[1] - d_im) ** 2
    c1_sq = c1[0] ** 2 + c1[1] ** 2
    l = c1_sq * (1 - g_re * g_re - g_im * g_im)
    n = (c0[0] ** 2 + c0[1] ** 2) * p + c1_sq * q
    return p, q, m, l, n


def exact_printed(a, b, c0, c1, gamma):
    """The exact values the printed form rounds, as Fractions: its entries
    (d00, d11, d01_re, d01_im), diagonal (1 + |gamma|^2)(|c0 a|^2, |c1 b|^2)
    and upper off-diagonal 2 c0 conj(c1) a conj(b) gamma, and delta^2, its
    squared distance from rho1 = |psi><psi|.

    The printed form is not scale invariant and takes every number as given,
    so rho1 is formed from (a, b) as given, as ``printed_deviation`` forms it."""
    a, b, c0, c1, gamma = map(_exact, (a, b, c0, c1, gamma))
    x0, x1 = _mul(c0, a), _mul(c1, b)
    g_sq = gamma[0] ** 2 + gamma[1] ** 2
    d00 = (1 + g_sq) * (x0[0] ** 2 + x0[1] ** 2)
    d11 = (1 + g_sq) * (x1[0] ** 2 + x1[1] ** 2)
    re, im = _mul(_mul(x0, (x1[0], -x1[1])), gamma)
    re, im = 2 * re, 2 * im
    (ar, ai), (br, bi) = a, b
    r00, r11 = ar * ar + ai * ai, br * br + bi * bi
    r01_re, r01_im = ar * br + ai * bi, ai * br - ar * bi  # a conj(b)
    delta_sq = (d00 - r00) ** 2 + (d11 - r11) ** 2 + 2 * ((re - r01_re) ** 2 + (im - r01_im) ** 2)
    return (d00, d11, re, im), delta_sq


def exact_sqrt(x: Fraction) -> Fraction:
    """sqrt(x) to 50 significant digits, taken with ``decimal``."""
    with localcontext() as ctx:
        ctx.prec = 50
        return Fraction((Decimal(x.numerator) / Decimal(x.denominator)).sqrt())


def _exact(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _mul(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def listed_conditional(outcome, a, b):
    """Receiver-side conditional states, written out independently."""
    return {
        BellOutcome.PSI_MINUS: np.array([-a, -b]),
        BellOutcome.PSI_PLUS: np.array([-a, b]),
        BellOutcome.PHI_MINUS: np.array([b, a]),
        BellOutcome.PHI_PLUS: np.array([-b, a]),
    }[outcome]


def trace_out(rho, dim_a, dim_b, keep):
    """Index-summation oracle for ``partial_trace(rho, dim_a, dim_b, keep)``:
    the kept factor's indices (i, j) with the other's index k summed, the
    first factor the slow one."""
    dim = dim_a if keep == "A" else dim_b
    other = dim_b if keep == "A" else dim_a

    def index(kept, k):
        return kept * dim_b + k if keep == "A" else k * dim_b + kept

    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            for k in range(other):
                out[i, j] += rho[index(i, k), index(j, k)]
    return out


def traced_over_environment(joint_amplitudes):
    """The qubit's state from environment-first joint amplitudes: the outer
    product, then the environment index summed out."""
    return trace_out(np.outer(joint_amplitudes, joint_amplitudes.conj()), 2, 2, "B")


def coupled_joint(a, b, c0, c1, gamma):
    """C0 a |e0>|0> + C1 b |e1>|1>, renormalized, as environment-first
    amplitudes (index 2 e + qubit), with e0 = |0> and
    e1 = conj(gamma)|0> + sqrt(1 - |gamma|^2)|1>, so <e1|e0> = gamma.
    (c0, c1) are first divided by their larger modulus, so that a common
    scale neither overflows nor underflows."""
    scale = max(abs(complex(c0)), abs(complex(c1)))
    x0, x1 = complex(c0) / scale * complex(a), complex(c1) / scale * complex(b)
    gamma = complex(gamma)
    joint = np.array([x0, x1 * gamma.conjugate(), 0, x1 * math.sqrt(max(1.0 - abs(gamma) ** 2, 0.0))])
    return joint / np.linalg.norm(joint)


# The Bell states on particles 1 and 2 (index 2 i1 + i2), each times
# sqrt(1/2), in the protocol's outcome order Phi+, Phi-, Psi+, Psi-.
BELL_COEFFICIENTS = ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))


def bell_contraction(a, b):
    """Particle 3's unnormalized pair after each Bell outcome, in outcome
    order: <bell_k|_12 (psi (x) singlet_23), contracted over the joint
    state's eight amplitudes psi[i1] singlet[2 i2 + i3] (index
    4 i1 + 2 i2 + i3) in Python complexes. The squared norm of pair k is
    outcome k's Born probability. The Bell coefficients are real, so the
    bra needs no conjugate."""
    h = math.sqrt(0.5)
    singlet = (0.0, h, -h, 0.0)  # (|01> - |10>) / sqrt(2)
    joint = [x * s for x in (complex(a), complex(b)) for s in singlet]
    return [
        tuple(sum(h * u * joint[2 * j + i3] for j, u in enumerate(bell)) for i3 in (0, 1))
        for bell in BELL_COEFFICIENTS
    ]


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


def _first_draw(seed):
    """``seeded_stream(seed).random()`` with no numpy: numpy's next_double,
    (w >> 11) * 2**-53, on the word w that ``run_ideal`` reads its outcome
    from, so the seed rule is tested on the protocol's own path."""
    return (_first_word(seed) >> 11) * 2.0**-53


def philox_words(seed, n_blocks):
    """The first 4 * n_blocks words of np.random.Philox(seed).random_raw():
    numpy increments the counter before each block, so block n is
    philox4x64((n, 0, 0, 0), key)."""
    key = philox_key(seed)
    return [w for n in range(1, n_blocks + 1) for w in philox4x64((n, 0, 0, 0), key)]
