"""The Thue-Morse sequence, its difference sequence, and derived data.

Provides the generators tau (binary) and lambda = (tau_i - tau_{i-1})
over {-1,0,1}, the doubling words built from lambda prefixes (w_n, zeta_n,
eta_n and the periodic block word (w_n reflect(w_n))^inf), exact
zero-density formulas, the base constant alpha_KL solving
``sum (1+lambda_i) alpha^i = 1`` inside (1/3, 1/2), and the four-block
subshift of the interval-of-dimensions regime with its level search
against a base's delta.  It builds on :mod:`exactnum`, :mod:`words` and
:mod:`graph` only; the layers above pass it their delta.

``lambda_prefix``, ``tm_block_word``, ``sft_blocks`` and ``sft_max_word``,
which queries ask for again, are built once per process, one immutable
object for every caller, in an ``lru_cache`` sized to the levels their
callers reach; no word past 2^16 digits is kept.  ``w_word``, ``zeta`` and
``eta`` are built at each call.

alpha_KL is bisected on the sign of F(a) = sum (1+lambda_i) a^i - 1, read
off the Thue-Morse product P(a) = prod_(k>=0) (1 - a^(2^k)), the
generating function of (-1)^(tau_i) that Allouche and Cosnard use to prove
the Komornik-Loreti constant transcendental: 2 (1 - a) F(a) = (3a - 1) -
(1 - a)^2 P(a).  P is bounded on ints at B bits, every lower bound floored
and every upper one ceiled, its factors taken until a^(2^K) is at most
2^-B, the rest in [1 - a^(2^K) / (1 - a), 1].  B doubles from 64 while the
sign is open, up to ``_SERIES_BITS_CAP``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, wraps
from typing import NamedTuple

from . import exactnum, graph
from .words import (
    BINARY,
    TERNARY,
    EPSeq,
    FiniteWord,
    LazySeq,
    Lex,
    lex_compare,
    reflect,
)


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
    """First n digits tau_0 ... tau_{n-1}, the bytes of :func:`_tau_bytes`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return FiniteWord(_tau_bytes(n), BINARY)


# signed digits as bytes: 0x01 = 1, 0x00 = 0, 0xff = -1; d -> -d
_REFLECT = bytes.maketrans(b"\x01\x00\xff", b"\xff\x00\x01")
_PREFIXES_MAX = 4  # lambda_prefix lengths kept at once
_BLOCK_LEVELS = 12  # the block-word levels kept, all dimension.n_star tests
_SFT_N_CAP = 8  # highest subshift level find_smallest_sft_n tries


def _memo(top: int, maxsize: int | None = None):
    """Keep the words of n <= ``top`` in an ``lru_cache`` of ``maxsize``
    entries (``top`` if None), behind a plain function of n, which
    perfbench's tracer spans as it spans plain functions only.  A larger n
    is built anew at each call: one of 2^20 digits is an 8 MB tuple, which
    ``cantor tm`` asks for once per process."""
    def wrap(build):
        cached = lru_cache(maxsize or top)(build)
        word = wraps(build)(lambda n: cached(n) if n <= top else build(n))
        word.cache_info, word.cache_clear = (cached.cache_info,
                                             cached.cache_clear)
        return word
    return wrap


def _lambda_bytes(n: int) -> bytearray:
    """The signed-digit string of w = lambda_1 ... lambda_(2^k), 2^k the
    least power of 2 >= n, built by doubling: w_(k+1) is w_k reflect(w_k)
    with its last digit raised by one.  A level is one ``translate`` and
    one append on a ``bytearray``."""
    w = bytearray(b"\x01")
    while len(w) < n:
        w += w.translate(_REFLECT)
        w[-1] = (w[-1] + 1) & 0xFF  # -1 + 1 = 0 wraps from 0xff
    return w


@_memo(2**16, _PREFIXES_MAX)
def lambda_prefix(n: int) -> FiniteWord:
    """lambda_1 ... lambda_n over {-1,0,1}: the first n signed digits of
    the doubling word of :func:`_lambda_bytes`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return FiniteWord(_lambda_bytes(n)[:n], TERNARY)


def lambda_seq() -> LazySeq:
    return LazySeq(lam, TERNARY, "lambda")


def w_word(n: int) -> FiniteWord:
    """w_n = lambda_1 ... lambda_{2^n}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return FiniteWord(_lambda_bytes(2**n), TERNARY)


@_memo(_BLOCK_LEVELS)
def tm_block_word(n: int) -> EPSeq:
    """The periodic word (w_n reflect(w_n))^inf over {-1,0,1}: its period
    joins the signed-digit string of :func:`_lambda_bytes` and its
    reflection, the one caller that reads it."""
    if n < 1:
        raise ValueError("n must be at least 1")
    w = _lambda_bytes(2**n)
    return EPSeq(b"", w + w.translate(_REFLECT), TERNARY)


def zeta(n: int) -> FiniteWord:
    """zeta_n = 0 lambda_1 ... lambda_{2^n - 1}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return FiniteWord(b"\x00" + _lambda_bytes(2**n)[:-1], TERNARY)


def eta(n: int) -> FiniteWord:
    """eta_n = (-1) lambda_1 ... lambda_{2^n - 1}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return FiniteWord(b"\xff" + _lambda_bytes(2**n)[:-1], TERNARY)


def dw(n: int) -> Fraction:
    """Exact zero density of w_n: (1 - (-1/2)^n) / 3.

    Equals the counted density; the identity with direct counts is exercised
    by the test suite.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return (1 - Fraction(-1, 2)**n) / 3


# ---------------------------------------------------------------------------
# alpha_KL: the root of F(a) = sum_{i>=1} (1 + lambda_i) a^i - 1 in (1/3, 1/2)
# ---------------------------------------------------------------------------

_AKL_CELL: dict = {}  # level s -> the finest checked cell around alpha_KL
_SERIES_BITS_CAP = 1 << 18  # the last B an undecided sign is tried at


def _tm_product(N: int, D: int, B: int) -> tuple:
    """Ints lo <= P(a) 2^B <= hi for a = N/D in (0, 1) and the Thue-Morse
    product P(a) = prod_(k>=0) (1 - a^(2^k)).

    Fixed point at B bits, rounded outward: a lower bound is floored and an
    upper one ceiled, both of x_k = a^(2^k), squared from a, and of the
    partial product P_K of the factors 1 - x_k, k < K.  The squaring stops
    at the first K whose x_K is at most one unit.  The tail
    prod_(k>=K) (1 - x_k) lies in [1 - x_K / (1 - a), 1], as
    sum_(k>=K) x_k <= sum_(i>=2^K) a^i, and above 0.  An a within two units
    of 1, whose square would not shrink, takes no factor: its bounds are
    0 and 1.
    """
    one = 1 << B
    xl, xu = (N << B) // D, -(-(N << B) // D)
    lo = hi = one
    while 1 < xu < one - 1:
        lo = lo * (one - xu) >> B
        hi = -(-hi * (one - xl) >> B)
        xl, xu = xl * xl >> B, -(-xu * xu >> B)
    tail = one - -(-xu * D // (D - N))  # 1 - x_K / (1 - a), floored
    return lo * max(tail, 0) >> B, hi


def series_sign_at(a: Fraction) -> int:
    """Certified sign of F(a) = sum_(i>=1) (1 + lambda_i) a^i - 1 for
    rational a in (0, 1), from the Thue-Morse product.

    With P(x) = prod_(k>=0) (1 - x^(2^k)) = sum_(i>=0) (-1)^(tau_i) x^i and
    T(x) = sum_(i>=0) tau_i x^i = (1/(1 - x) - P(x)) / 2, the lambda series
    is sum_(i>=1) lambda_i x^i = (1 - x) T(x) = (1 - (1 - x) P(x)) / 2, so
    2 (1 - a) F(a) = (3a - 1) - (1 - a)^2 P(a).  F has the sign of that
    G(a).  At a = N/D, :func:`_tm_product`'s bounds on P(a) 2^B bound
    G(a) D^2 2^B on ints; the sign is taken once both ends agree, at
    B = 64, 128, 256, ... .  F is strictly increasing on (0, 1) and its one
    zero is transcendental, so every rational a ends; ``IterationLimit``
    past B = ``_SERIES_BITS_CAP``, a resource guard.
    """
    N, D = a.as_integer_ratio()
    if not 0 < N < D:
        raise ValueError("series sign needs a in (0, 1)")
    lin, sq = (3 * N - D) * D, (D - N)**2  # (3a - 1) D^2, (1 - a)^2 D^2
    B = 64
    while B <= _SERIES_BITS_CAP:
        lo, hi = _tm_product(N, D, B)
        if lin << B > sq * hi:
            return 1
        if lin << B < sq * lo:
            return -1
        B *= 2
    raise exactnum.IterationLimit("series sign undecided at the bits cap")


def alpha_kl_enclosure(width) -> tuple:
    """Rational interval of width <= ``width`` certified to contain alpha_KL.

    It is the level-s cell of the dyadic grid of [1/3, 1/2], of width
    1 / (6 2^s), that holds alpha_KL, s the least level whose cell is at most
    ``width`` wide, whatever was asked before.  ``_AKL_CELL`` keeps the
    finest cell found yet, from [1/3, 1/2], its end signs checked once: a
    coarser one is its ancestor, which takes no series sign, and
    ``exactnum._bisect`` on F halves on from it to a finer one; F is
    strictly increasing (its coefficients are nonnegative, infinitely many
    positive).
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    s = exactnum.grid_level(1, 6, width)
    if not _AKL_CELL:
        lo, hi = Fraction(1, 3), Fraction(1, 2)
        if series_sign_at(lo) >= 0 or series_sign_at(hi) <= 0:
            raise exactnum.ExactnumError("alpha_KL bracket invalid")
        exactnum._remember(_AKL_CELL, 0, (lo, hi), 1)
    ((level, (lo, hi)),) = _AKL_CELL.items()
    if level < s:  # series_sign_at is looked up at each midpoint N/M, so
        # a wrapper installed on this module sees every call
        return exactnum._remember(_AKL_CELL, s, exactnum._bisect(
            lambda N, M: series_sign_at(Fraction(N, M)), lo, hi, width,
            up=False), 1)
    # the level-s ancestor, on a grid 1/3 is on: [j, j + 1] / (6 2^s)
    j = lo.numerator * (6 << s) // lo.denominator
    return (Fraction(j, 6 << s), Fraction(j + 1, 6 << s))


@cache
def alpha_kl_real() -> exactnum.EnclosedReal:
    """alpha_KL as an ``EnclosedReal`` (the process's one) whose enclosure
    at width w is ``alpha_kl_enclosure(w)``, the bisection on F itself.
    It holds no fact, so ``exactnum.forget`` keeps it."""
    return exactnum.EnclosedReal(alpha_kl_enclosure, "alpha_KL")


def is_alpha_kl(x) -> bool:
    """Whether x is the :func:`alpha_kl_real` singleton itself; a number
    that merely carries the same description is not alpha_KL."""
    return x is alpha_kl_real()


# ---------------------------------------------------------------------------
# the four-block subshift driving the interval-of-dimensions regime
# ---------------------------------------------------------------------------

SFT_MATRIX = ((0, 1, 1, 0),
              (0, 0, 1, 0),
              (1, 0, 0, 1),
              (1, 0, 0, 0))


class SftBlocks(NamedTuple):
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


@_memo(_SFT_N_CAP)
def sft_blocks(n: int) -> SftBlocks:
    z, e = zeta(n), eta(n)
    zb, eb = reflect(z), reflect(e)
    omega1 = z.concat(zb)
    omega2 = z.concat(e).concat(zb)
    d1 = Fraction(omega1.zeros(), len(omega1))
    d2 = Fraction(omega2.zeros(), len(omega2))
    return SftBlocks(n, z, e, zb, eb, SFT_MATRIX, omega1, omega2, d1, d2)


def _sft_graph(n: int) -> list:
    """The level-n subshift: a node per block digit, labelling its edges."""
    blocks = [b.digits for b in sft_blocks(n).blocks]
    size = len(blocks[0])
    return [[(b * size + i + 1, d)] if i + 1 < size else
            [(c * size, d) for c, _ in out]
            for b, out in enumerate(graph.successors(SFT_MATRIX))
            for i, d in enumerate(blocks[b])]


@_memo(_SFT_N_CAP)
def sft_max_word(n: int) -> EPSeq:
    """The lexicographically largest sequence of the level-n subshift."""
    return EPSeq(*graph.max_path(_sft_graph(n)), TERNARY)


class NotFoundUnderCap(exactnum.CantorintError):
    pass


def find_smallest_sft_n(delta, depth_cap: int) -> int:
    """Smallest n <= ``_SFT_N_CAP`` whose four-block subshift lies in the
    univoque set of the base with quasi-greedy sequence ``delta``, or
    ``NotFoundUnderCap``, as at every base above alpha_KL.

    Level n is certified when its largest sequence, :func:`sft_max_word`,
    is LESS than delta within ``depth_cap`` digits, else skipped (Parry's
    criterion).  ``SFT_MATRIX`` is unchanged when zeta, eta swap with
    zeta-bar, eta-bar, so the mirror adds nothing.  The criterion is sharp:
    if m = max X >= delta starts in block b, a predecessor of b holds a
    digit other than +1, and the element of X starting there reaches m
    after a prefix not all +1.
    """
    for n in range(1, _SFT_N_CAP + 1):
        if lex_compare(sft_max_word(n), delta, depth_cap) is Lex.LESS:
            return n
    raise NotFoundUnderCap(
        f"no subshift level n <= {_SFT_N_CAP} certified at depth cap {depth_cap}")
