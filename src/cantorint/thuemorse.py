"""The Thue-Morse sequence, its difference sequence, and derived data.

Provides the generators tau (binary) and lambda = (tau_i - tau_{i-1})
over {-1,0,1}, the doubling block words built from lambda prefixes, exact
zero-density formulas, the base constant alpha_KL solving
``sum (1+lambda_i) alpha^i = 1`` inside (1/3, 1/2), and the four-block
subshift machinery used for the interval-of-dimensions regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import sub
from typing import Optional

from . import exactnum, graph
from .words import (
    TERNARY,
    Alphabet,
    EPSeq,
    FiniteWord,
    LazySeq,
    reflect,
)

BIT01 = Alphabet(0, 2)


def tau(i: int) -> int:
    """tau_i: parity of the binary digit sum of i (tau_0 = 0)."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return i.bit_count() & 1


def lam(i: int) -> int:
    """lambda_i = tau_i - tau_{i-1}, defined for i >= 1."""
    if i < 1:
        raise ValueError("index must be positive")
    return tau(i) - tau(i - 1)


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _tau_bytes(n: int) -> bytes:
    """tau_0 ... tau_(n-1), built by the doubling tau <- tau + (1 - tau),
    where + joins words and 1 - tau flips every bit."""
    t = b"\x00"
    while len(t) < n:
        t += t.translate(_FLIP)
    return t[:n]


def tau_prefix(n: int) -> FiniteWord:
    """First n digits tau_0 ... tau_{n-1}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return FiniteWord(tuple(_tau_bytes(n)), BIT01)


def lambda_prefix(n: int) -> FiniteWord:
    """lambda_1 ... lambda_n over {-1,0,1}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    t = _tau_bytes(n + 1)
    return FiniteWord(tuple(map(sub, t[1:], t)), TERNARY)


def lambda_seq() -> LazySeq:
    return LazySeq(lam, TERNARY, "lambda")


def w_word(n: int) -> FiniteWord:
    """w_n = lambda_1 ... lambda_{2^n}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return lambda_prefix(2**n)


def zeta(n: int) -> FiniteWord:
    """zeta_n = 0 lambda_1 ... lambda_{2^n - 1}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return FiniteWord((0,) + lambda_prefix(2**n - 1).digits, TERNARY)


def eta(n: int) -> FiniteWord:
    """eta_n = (-1) lambda_1 ... lambda_{2^n - 1}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return FiniteWord((-1,) + lambda_prefix(2**n - 1).digits, TERNARY)


def dw(n: int) -> Fraction:
    """Exact zero density of w_n: (1 - (-1/2)^n) / 3.

    Equals the counted density; the identity with direct counts is exercised
    by the test suite.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return (1 - Fraction(-1, 2)**n) / 3


def zero_count_recursion_check(n: int) -> bool:
    """Verify the doubling zero-count identity at level n (n >= 2).

    zeros(w_n) = 2 * zeros(w_{n-1}) - 1 for even n, + 1 for odd n,
    checked by direct counting.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    count_n = sum(1 for i in range(1, 2**n + 1) if lam(i) == 0)
    count_prev = sum(1 for i in range(1, 2**(n - 1) + 1) if lam(i) == 0)
    delta = -1 if n % 2 == 0 else 1
    return count_n == 2 * count_prev + delta


# ---------------------------------------------------------------------------
# alpha_KL: the root of F(a) = sum_{i>=1} (1 + lambda_i) a^i - 1 in (1/3, 1/2)
# ---------------------------------------------------------------------------

_AKL_BRACKET = [Fraction(1, 3), Fraction(1, 2)]
_AKL_CHECKED = [False]
_SERIES_CAP = 200_000


def series_sign_at(a: Fraction, cap: int = _SERIES_CAP) -> int:
    """Certified sign of F(a) for rational a in (0, 1).

    Uses partial sums of the series with the geometric tail bound
    0 <= tail <= 2 a^(N+1) / (1-a); the coefficients 1 + lambda_i lie in
    [0, 2].  F has no rational zero in (1/3, 1/2) (its unique zero there is
    transcendental), so the loop terminates for the inputs we feed it.
    """
    a = Fraction(a)
    if not 0 < a < 1:
        raise ValueError("series sign needs a in (0, 1)")
    partial = Fraction(0)
    power = Fraction(1)
    i = 0
    while i < cap:
        i += 1
        power *= a
        partial += (1 + lam(i)) * power
        tail_hi = 2 * power * a / (1 - a)
        if partial - 1 > 0:
            return 1
        if partial - 1 + tail_hi < 0:
            return -1
    raise exactnum.IterationLimit("series sign undecided at cap")


def alpha_kl_enclosure(width) -> tuple:
    """Rational interval of width <= ``width`` certified to contain alpha_KL.

    Bisection on F, which is strictly increasing in a (all series
    coefficients are nonnegative, infinitely many positive).  Successive
    calls refine a module-level bracket, so enclosures are nested.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if not _AKL_CHECKED[0]:
        if series_sign_at(_AKL_BRACKET[0]) >= 0 or series_sign_at(_AKL_BRACKET[1]) <= 0:
            raise exactnum.ExactnumError("alpha_KL bracket invalid")
        _AKL_CHECKED[0] = True
    lo, hi = _AKL_BRACKET
    steps = 0
    while hi - lo > width:
        steps += 1
        if steps > 10_000:
            raise exactnum.IterationLimit("alpha_KL bisection exceeded cap")
        mid = (lo + hi) / 2
        if series_sign_at(mid) < 0:
            lo = mid
        else:
            hi = mid
    _AKL_BRACKET[0], _AKL_BRACKET[1] = lo, hi
    return (lo, hi)


_AKL_REAL: list = []


def alpha_kl_real() -> exactnum.SeriesReal:
    """alpha_KL as a SeriesReal (module singleton).

    The digit stream is the binary expansion of alpha_KL, extracted lazily
    from the bisection enclosure, so the generic partial-sum machinery
    reproduces rigorous enclosures of the constant.
    """
    if not _AKL_REAL:
        digits = exactnum.binary_digit_source(alpha_kl_enclosure)
        _AKL_REAL.append(exactnum.SeriesReal(
            digits, Fraction(1, 2), 0, 1, description="alpha_KL"))
    return _AKL_REAL[0]


def is_alpha_kl(x) -> bool:
    """Whether x is the :func:`alpha_kl_real` singleton itself; a number
    that merely carries the same description is not alpha_KL."""
    return bool(_AKL_REAL) and x is _AKL_REAL[0]


exactnum.register_constant("akl", alpha_kl_real)


# ---------------------------------------------------------------------------
# the four-block subshift driving the interval-of-dimensions regime
# ---------------------------------------------------------------------------

SFT_MATRIX = ((0, 1, 1, 0),
              (0, 0, 1, 0),
              (1, 0, 0, 1),
              (1, 0, 0, 0))


@dataclass(frozen=True)
class SftBlocks:
    n: int
    zeta: FiniteWord
    eta: FiniteWord
    zeta_bar: FiniteWord
    eta_bar: FiniteWord
    matrix: tuple
    omega1: FiniteWord
    omega2: FiniteWord
    d_omega1: Fraction
    d_omega2: Fraction

    @property
    def blocks(self):
        return (self.zeta, self.eta, self.zeta_bar, self.eta_bar)

    @property
    def density_interval(self):
        """Achievable zero-frequency interval [min, max] of the two words."""
        return (min(self.d_omega1, self.d_omega2),
                max(self.d_omega1, self.d_omega2))


def sft_blocks(n: int) -> SftBlocks:
    z, e = zeta(n), eta(n)
    zb, eb = reflect(z), reflect(e)
    omega1 = z.concat(zb)
    omega2 = z.concat(e).concat(zb)
    d1 = Fraction(omega1.zeros(), len(omega1))
    d2 = Fraction(omega2.zeros(), len(omega2))
    return SftBlocks(n, z, e, zb, eb, SFT_MATRIX, omega1, omega2, d1, d2)


def sft_cycle_words(n: int, blocks: Optional[SftBlocks] = None) -> list:
    """Periodic digit sequences for every simple block cycle of the
    transition graph, plus splices of each pair of cycles at a shared
    block.  These are the certificates checked by
    :func:`find_smallest_sft_n`."""
    if blocks is None:
        blocks = sft_blocks(n)
    bw = [tuple(b.digits) for b in blocks.blocks]
    cycles = graph.simple_cycles(graph.successors(SFT_MATRIX))
    block_cycles = list(cycles)
    for ci, cj in combinations(cycles, 2):
        shared = set(ci) & set(cj)
        if shared:
            i, j = ci.index(min(shared)), cj.index(min(shared))
            block_cycles.append(ci[i:] + ci[:i] + cj[j:] + cj[:j])
    words = []
    for cyc in block_cycles:
        period = tuple(d for b in cyc for d in bw[b])
        words.append(EPSeq((), period, TERNARY))
    return words


class NotFoundUnderCap(Exception):
    pass


def find_smallest_sft_n(alpha, n_cap: int = 8, depth_cap: int = 4096) -> int:
    """Smallest n <= n_cap whose four-block subshift lies in the univoque set.

    The base must verifiably satisfy 1/3 < alpha < alpha_KL.  Certification
    is by the lexicographic uniqueness test on every cyclic block word from
    :func:`sft_cycle_words` (a finite heuristic verification bound; the
    depth cap used is recorded in the raised error on failure).
    """
    from . import expansions  # deferred: expansions depends on this module

    if exactnum.compare(alpha, Fraction(1, 3)) is not exactnum.Comparison.GREATER:
        raise expansions.OutOfDomain("alpha must exceed 1/3")
    if exactnum.compare(alpha, alpha_kl_real(),
                        precision=Fraction(1, 2**64)) is not exactnum.Comparison.LESS:
        raise expansions.OutOfDomain("alpha must lie below alpha_KL")

    sys = expansions.BaseSystem(alpha, TERNARY)
    for n in range(1, n_cap + 1):
        ok = True
        for word in sft_cycle_words(n):
            res = expansions.is_unique_expansion(sys, word, depth_cap=depth_cap)
            if res.status is not expansions.UniqStatus.UNIQUE:
                ok = False
                break
        if ok:
            return n
    raise NotFoundUnderCap(
        f"no subshift level n <= {n_cap} certified at depth cap {depth_cap}")
