"""Exact and rigorously enclosed real arithmetic.

Three number kinds are supported:

* ``Fraction`` -- exact rationals,
* ``AlgebraicReal`` -- an integer polynomial together with a rational
  isolating interval containing exactly one of its real roots,
* ``EnclosedReal`` -- a number known only through its own nested
  enclosures: alpha_KL, through its bisection brackets.

Comparisons between any two of these either return a certified sign or an
explicit ``Comparison.UNDECIDED`` below ``DEFAULT_PRECISION`` = 2^-128, the
one cutoff; a rational against an algebraic number takes one polynomial
sign and never narrows the ``AlgebraicReal``.  ``parse_real`` reads them as
text.  The module also provides arithmetic in the number field Q(alpha) for
alpha rational or algebraic, which backs every exact test in the expansion
algorithms.  Q(alpha) is one object, ``QAlphaContext``, and has one
representation: a state, an integer vector over 1, alpha, ..., alpha^(n-1)
with a denominator.  A ``QAlphaElement`` is a handle on one state, ordered
only by the sign of a difference, and the follower-value closures s ->
s/alpha - d step on the states themselves.

Each exact fact has one routine: ``enclosure`` encloses every number kind
and every ``QAlphaElement``, and one search on Descartes' rule of signs
isolates and counts the real roots of a polynomial's squarefree part,
which a gcd modulo one prime proves is the polynomial itself, or
``poly_gcd`` divides out.  Every polynomial is a primitive int list:
rational coefficients are cleared where they enter, and one int
pseudo-division serves every gcd.  One int evaluator signs every
polynomial at a rational, and ``log_enclosure`` encloses ln x by atanh
series summed on ints.  One bisection defines every bracket, alpha_KL's
too: halving gives it, and a polynomial root reaches it at once through an
integer Newton estimate's cell, checked by two signs.
``QAlphaContext`` does all Q(alpha) arithmetic on ints, and its
fixed-point filter decides every sign and enclosure: an undecided sign
doubles K from 64 bits up to a cap.  The one invariant it relies on is
checked where it is built: alpha's polynomial is proven irreducible over
Q by reduction modulo a prime below 50, or it raises ``UnsupportedBase``.
So Q(alpha) is a field, the zero vector is the only exact 0, and every
other vector has a nonzero value, which the doubling filter certifies.
``field`` keeps one context per base and process, so each base's proof,
tables, -ln alpha and range facts are derived once, and the context holds
the base's ``expansions.BaseSystem`` of each alphabet, which go with it.
"""

from __future__ import annotations

import re
from copy import copy
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import gcd, lcm, log2
from operator import mul
from typing import Callable, Optional, Union

DEFAULT_PRECISION = Fraction(1, 2**128)
_BISECTION_CAP = 100_000
_NEWTON_STEPS = 64  # the most steps _newton takes
_NEWTON_GUARD = 16  # bits its estimate carries below _bisect's grid
_DECIMAL_DIGITS = 12  # decimal places decimal_string rounds to
FIELDS_MAX = 64  # the most field contexts, and checked roots, a process keeps
NUMBER_DIGITS_MAX = 4000  # under Python's 4300-digit int-to-str limit
_SQUAREFREE_PRIME = 2**61 - 1  # a Mersenne prime


class CantorintError(Exception):
    """The root of every error the library raises; the CLI exits 1 on it."""


class ExactnumError(CantorintError):
    pass


class IterationLimit(ExactnumError):
    """A refinement loop exceeded its configured cap."""


class UnsupportedBase(ExactnumError):
    """Q(alpha) arithmetic requested for a base that does not support it."""


class NonIsolatingInterval(ExactnumError):
    """The given interval does not isolate exactly one real root."""


class UndecidedComparison(ExactnumError):
    """An algorithm needed a sign that could not be certified."""


class NumberTooLarge(ExactnumError):
    """Number text past ``NUMBER_DIGITS_MAX``, refused before parsing."""


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNDECIDED = "undecided"


_ORDER = (Comparison.LESS, Comparison.EQUAL, Comparison.GREATER)  # by sign


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients listed low degree first)
# ---------------------------------------------------------------------------

def poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_pseudo_divmod(a, b):
    """Pseudo-division of int polynomials (Knuth, TAOCP 4.6.1, Algorithm R):
    (q, r) with c a = q b + r and deg r < deg b, for c = |lead b|^k > 0.

    Each step scales q and r by |lead b| and cancels r's top term, so no
    fraction arises and the positive factor c keeps every sign of r.
    """
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = poly_trim(a)
    quot = [0] * max(0, len(rem) - len(b) + 1)
    scale, sg = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        t = sg * rem[-1]  # scale * rem[-1] = t * lead b
        rem = [scale * c for c in rem]
        quot = [scale * c for c in quot]
        quot[shift] = t
        for i, c in enumerate(b):
            rem[shift + i] -= t * c
        rem = poly_trim(rem)
    return poly_trim(quot), rem


def poly_gcd(a, b) -> list:
    """A greatest common divisor of two int polynomials, primitive, by
    Euclid's algorithm on pseudo-remainders."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(poly_pseudo_divmod(a, b)[1])
    return a


def _rem_mod(a, b, p: int) -> list:
    """a mod b in F_p[x], b's lead a unit mod p: long division by the monic
    b / lead, each quotient term taken mod p, so the ints stay small."""
    inv, n, r = pow(b[-1], -1, p), len(b) - 1, [c % p for c in a]
    for k in range(len(r) - 1, n - 1, -1):
        t = r[k] * inv % p
        if t:
            for i in range(n):
                r[k - n + i] -= t * b[i]
    return poly_trim([c % p for c in r[:n]])


def _coprime_mod(a, b, p: int) -> bool:
    """Whether gcd(a, b) = 1 in F_p[x], a's lead a unit mod p (Euclid)."""
    b = _rem_mod(b, a, p)
    while b:
        a, b = b, _rem_mod(a, b, p)
    return len(a) == 1


def _primitive(coeffs) -> list:
    """The primitive int polynomial c p, c > 0, of an int or rational p."""
    coeffs = poly_trim(coeffs)
    D = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (D // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


def poly_normalize(coeffs):
    """Integer-primitive form with positive leading coefficient.

    Used as the canonical key when deciding whether two algebraic reals
    carry the same defining polynomial.
    """
    ints = _primitive(coeffs)
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _scaled_value(coeffs, N: int, M: int) -> int:
    """M^n p(N/M) = sum c_i N^i M^(n-i) for an integer polynomial p of
    degree n, by Horner's rule on ints; for M > 0 it has the sign of p."""
    acc, m = coeffs[-1], 1
    for c in coeffs[-2::-1]:
        m *= M
        acc = acc * N + c * m
    return acc


def _newton(coeffs, a: int, b: int, M: int) -> int:
    """An unchecked N in [a, b] with N/M near the root of p in [a/M, b/M]:
    Newton's method on ints at the one denominator M, from the midpoint,
    where a step N/M - p/p' is (N - A/B)/M for A = M^n p(N/M) and B =
    M^(n-1) p'(N/M), until a step moves N by at most 1.  A step that leaves
    the bracket the signs keep, or fails to halve the step before it,
    halves the bracket instead (rtsafe, Press et al., Numerical Recipes
    9.4)."""
    dp = poly_derivative(coeffs)
    up, x, last = _scaled_value(coeffs, a, M) > 0, (a + b) // 2, b - a
    for _ in range(_NEWTON_STEPS):
        A, B = _scaled_value(coeffs, x, M), _scaled_value(dp, x, M)
        a, b = (x, b) if (A > 0) == up else (a, x)
        step = A // B if B else b - a
        if a <= x - step <= b and 2 * abs(step) <= last:
            x -= step
            if -1 <= step <= 1:
                break
        else:
            step, x = (b - a) // 2, (a + b) // 2
        last = abs(step)
    return x


def _value_at(coeffs, x) -> int:
    """An int with the sign of p(x) for a rational x."""
    return _scaled_value(coeffs, x.numerator, x.denominator)


def _squarefree(coeffs) -> tuple:
    """p / gcd(p, p'), primitive with a positive lead: p's roots, simple.
    A square factor f^2 of p leaves f, of its degree, dividing p and p'
    modulo a prime P prime to p's lead; so gcd(p, p') = 1 in F_P[x], P =
    2^61 - 1, proves p squarefree, and ``poly_gcd`` runs only if it fails."""
    p = poly_normalize(coeffs)
    dp = poly_derivative(p)
    if p[-1] % _SQUAREFREE_PRIME and _coprime_mod(p, dp, _SQUAREFREE_PRIME):
        return p
    return poly_normalize(poly_pseudo_divmod(p, poly_gcd(p, dp))[0])


def _variations(q, a: int, b: int, M: int) -> int:
    """Sign variations of T(y) = (1 + y)^n M^n q((a + b y)/(M (1 + y))),
    n = deg q: by Descartes' rule of signs, 0 leave q no root in (a/M, b/M)
    and 1 exactly one, simple (Vincent 1836; Collins and Akritas 1976).
    One Horner pass builds R(t) = M^n q((b + (a - b) t)/M) on ints; w^n
    R(1/w), R reversed, is T at y = w - 1, which one Taylor shift gives."""
    acc, m = [q[-1]], 1
    for c in q[-2::-1]:
        m *= M
        acc = [b * x + (a - b) * y for x, y in zip(acc + [0], [0] + acc)]
        acc[0] += c * m
    acc.reverse()
    for i in range(len(acc) - 1):
        for j in range(len(acc) - 2, i - 1, -1):
            acc[j] += acc[j + 1]
    signs = [x > 0 for x in acc if x]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _pieces(q, lo: Fraction, hi: Fraction):
    """Pieces (a, b, M) of (lo, hi) with one root each of the squarefree q,
    rightmost first: a piece of 0 variations is dropped, of 1 yielded, any
    other split at the first of (a + b)/(2 M), (a + 2 b)/(3 M), ... that is
    no root of q; small pieces have at most 1, so the search ends."""
    M = lcm(lo.denominator, hi.denominator)
    stack = [(lo.numerator * (M // lo.denominator),
              hi.numerator * (M // hi.denominator), M)] if lo < hi else []
    while stack:
        a, b, M = stack.pop()
        v = _variations(q, a, b, M)
        if v == 1:
            yield a, b, M
        elif v:
            k = 2  # the split point (a + (k - 1) b)/(k M) must be no root
            while _scaled_value(q, a + (k - 1) * b, k * M) == 0:
                k += 1
            m = a + (k - 1) * b
            stack += [(k * a, m, k * M), (m, k * b, k * M)]


def root_count(coeffs, lo: Fraction, hi: Fraction) -> int:
    """The number of distinct real roots of ``coeffs`` in [lo, hi]."""
    q = _squarefree(coeffs)
    return sum(1 for _ in _pieces(q, lo, hi)) + \
        sum(_value_at(q, x) == 0 for x in {lo, hi})


def isolate_largest_root(coeffs, lo: Fraction, hi: Fraction) -> "AlgebraicReal":
    """Isolate the largest real root of p = ``coeffs`` in (lo, hi], whose
    ends must be no roots, or raise ``NonIsolatingInterval``.  q = p /
    gcd(p, p') (:func:`_squarefree`), of p's roots, all simple, defines the
    ``AlgebraicReal``, on the first piece of :func:`_pieces`: q changes sign
    there, and no piece right of it holds a root.  Its midpoint splits keep
    the dyadic grid of (lo, hi) that ``_bisect`` refines on."""
    q = _squarefree(coeffs)
    if _value_at(q, lo) == 0 or _value_at(q, hi) == 0:
        raise NonIsolatingInterval("endpoint is a root; shift the interval")
    piece = next(_pieces(q, lo, hi), None)
    if piece is None:
        raise NonIsolatingInterval("no real root in the given interval")
    a, b, M = piece
    x = AlgebraicReal.__new__(AlgebraicReal)
    x.coeffs, x._lo, x._hi = q, Fraction(a, M), Fraction(b, M)
    return x


def grid_level(R: int, Q: int, width: Fraction) -> int:
    """The least level s whose cells R / (Q 2^s) are at most ``width``."""
    cells = -(-R * width.denominator // (width.numerator * Q))  # ceil
    return (cells - 1).bit_length()


def _bisect(value, lo: Fraction, hi: Fraction, width: Fraction, up=None,
            poly=None):
    """Halve a bracket [lo, hi] on the one sign change of f until it is at
    most ``width`` wide; a point where f is 0 collapses it onto the point.

    ``value(N, M)`` is an int with the sign of f(N/M), M > 0, and ``up``
    whether f > 0 at lo (None evaluates it).  Every midpoint lies on the
    grid lo + (hi - lo) j / 2^s: with lo = P/Q and hi - lo = R/Q it is
    (P 2^s + R j) / (Q 2^s), so the halvings run on ints.  The last level
    s is known at once, and an s over ``_BISECTION_CAP`` raises.  For f the
    int polynomial ``poly``, its one zero in (lo, hi), an integer Newton
    estimate names the level-s cell, and opposite signs at its ends, or a 0
    at an inner end, give the halvings' bracket; they run only should that
    fail.
    """
    if hi - lo <= width:
        return (lo, hi)
    Q = lcm(lo.denominator, hi.denominator)
    P = lo.numerator * (Q // lo.denominator)
    R = hi.numerator * (Q // hi.denominator) - P
    s = grid_level(R, Q, width)
    if s > _BISECTION_CAP:
        raise IterationLimit("bisection exceeded cap")
    if poly is not None:
        G = s + _NEWTON_GUARD
        N = _newton(poly, P << G, (P + R) << G, Q << G)
        j = ((N >> _NEWTON_GUARD) - (P << s)) // R
        if 0 <= j < 1 << s:
            N, M = (P << s) + R * j, Q << s
            a, b = value(N, M), value(N + R, M)
            if a == 0 < j or b == 0 and j + 1 < 1 << s:
                g = Fraction(N if a == 0 < j else N + R, M)
                return (g, g)
            if a and b and (a > 0) != (b > 0):
                return (Fraction(N, M), Fraction(N + R, M))
    if up is None:
        up = value(P, Q) > 0
    j, scale = 0, 1  # 2^level
    for _ in range(s):
        j *= 2
        scale *= 2
        N = P * scale + R * (j + 1)
        v = value(N, Q * scale)
        if v == 0:
            mid = Fraction(N, Q * scale)
            return (mid, mid)
        if (v > 0) == up:
            j += 1
    N, M = P * scale + R * j, Q * scale
    return (Fraction(N, M), Fraction(N + R, M))


@lru_cache(maxsize=FIELDS_MAX)
def _check_isolating(coeffs: tuple, lo: Fraction, hi: Fraction) -> None:
    """Raise ``NonIsolatingInterval`` unless (lo, hi) holds one root of
    ``coeffs``, where it changes sign; once per process per argument."""
    if len(coeffs) < 2:
        raise NonIsolatingInterval("polynomial must be nonconstant")
    if not lo < hi:
        raise NonIsolatingInterval("empty interval")
    vlo, vhi = _value_at(coeffs, lo), _value_at(coeffs, hi)
    if vlo == 0 or vhi == 0:
        raise NonIsolatingInterval(
            "interval endpoint is itself a root; use the rational directly")
    n = root_count(coeffs, lo, hi)
    if n != 1:
        raise NonIsolatingInterval(
            f"interval ({lo}, {hi}) contains {n} roots, need exactly 1")
    if (vlo > 0) == (vhi > 0):
        raise NonIsolatingInterval(
            "no sign change over the interval (even multiplicity?); "
            "pass the squarefree part of the polynomial")


class AlgebraicReal:
    """A real algebraic number: integer polynomial + isolating interval.

    The interval must contain exactly one real root of the polynomial
    (verified by ``root_count`` at construction, once per argument, or,
    for ``isolate_largest_root``, by the search that isolated the root).
    Refinement takes the bisection bracket, reached through a checked
    Newton cell; the cached interval only ever shrinks, so the denoted root
    never changes.
    """

    __slots__ = ("coeffs", "_lo", "_hi")

    def __init__(self, coeffs, lo, hi):
        self.coeffs = poly_normalize(coeffs)
        self._lo, self._hi = Fraction(lo), Fraction(hi)
        _check_isolating(self.coeffs, self._lo, self._hi)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def interval(self):
        return (self._lo, self._hi)

    def refine(self, width: Fraction):
        """Shrink the isolating interval to the requested width, through
        ``_bisect``'s checked Newton cell."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        c = self.coeffs
        self._lo, self._hi = _bisect(partial(_scaled_value, c), self._lo,
                                     self._hi, width, poly=c)
        return (self._lo, self._hi)

    def __float__(self):
        lo, hi = self.refine(Fraction(1, 10**17) * max(Fraction(1), abs(self._hi)))
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"AlgebraicReal({list(self.coeffs)}, {self._lo}, {self._hi})"

    def __eq__(self, other):
        if not isinstance(other, AlgebraicReal):
            return NotImplemented
        return compare(self, other) is Comparison.EQUAL

    def __hash__(self):
        raise TypeError("AlgebraicReal is not hashable; compare explicitly")


class EnclosedReal:
    """A real known by ``enclose(width)``, nested rational enclosures each at
    most ``width`` wide: alpha_KL, through the bisection's brackets on a
    monotone function with signs certified at rational points."""

    __slots__ = ("enclosure", "description")

    def __init__(self, enclose: Callable[[Fraction], tuple], description: str):
        self.enclosure = enclose
        self.description = description

    def __repr__(self):
        return f"{type(self).__name__}<{self.description}>"


RealNumber = Union[Fraction, AlgebraicReal, EnclosedReal]


def enclosure(x, width) -> tuple:
    """Rational enclosure, at most ``width`` wide, of a ``RealNumber`` or a
    ``QAlphaElement``."""
    width = Fraction(width)
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return (x, x)
    if isinstance(x, AlgebraicReal):
        return x.refine(width)
    if isinstance(x, QAlphaElement):
        return x.ctx.enclosure(x.state, width)
    if isinstance(x, EnclosedReal):
        return x.enclosure(width)
    raise TypeError(f"not a RealNumber: {x!r}")


_LOG_BITS = 128  # log_enclosure sums each atanh series on ints at 2^-128


def _atanh_sum(a: int, b: int) -> tuple:
    """(S, E) with 2^_LOG_BITS atanh(a/b) in [S, S + E], for 0 <= a/b <= 1/3.
    Each power z^(2k+1), floored from the last, is under 1/(1 - z^2) <= 9/8
    low, so each term, floored once more, is under 3 low; the tail after
    the first power that floors to 0 is under (9/8)^2 < 2."""
    a2, b2 = a * a, b * b
    p, s, k = (a << _LOG_BITS) // b, 0, 1
    while p:
        s, p, k = s + p // k, p * a2 // b2, k + 2
    return s, 3 * (k // 2) + 2


_ATANH_THIRD = _atanh_sum(1, 3)  # ln 2 = 2 atanh(1/3)


def log_enclosure(x) -> tuple:
    """Fraction interval holding ln x, for a rational x > 0.  With x = 2^e m,
    m in [2/3, 4/3] and z = (m - 1)/(m + 1), ln x = 2 (e atanh(1/3) +
    atanh(z)) and |z| <= 1/5 (Brent and Zimmermann, Modern Computer
    Arithmetic, 4.2); m and z stay on ints."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log needs x > 0")
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    n, d = (n, d << e) if e >= 0 else (n << -e, d)
    if 3 * n > 4 * d:
        d, e = 2 * d, e + 1
    elif 3 * n < 2 * d:
        n, e = 2 * n, e - 1
    s, err = _atanh_sum(abs(n - d), n + d)
    s = s if n >= d else -s - err  # atanh(-z) = -atanh(z)
    t, terr = _ATANH_THIRD
    lo, hi = e * t + s + min(0, e * terr), e * t + s + err + max(0, e * terr)
    scale = 1 << (_LOG_BITS - 1)  # ln x is twice the sums over 2^_LOG_BITS
    return Fraction(lo, scale), Fraction(hi, scale)


def _log_interval(lo: Fraction, hi: Fraction) -> tuple:
    """ln over [lo, hi], lo > 0, from one log, as ln(1 + x) <= x."""
    log_lo, log_hi = log_enclosure(lo)
    return log_lo, log_hi + (hi - lo) / lo


def _iroot(X: int, h: int) -> int:
    """floor(X^(1/h)) for X >= 1: Newton's method on ints from a float
    estimate; every step from x > 0 lands at or above the root (AM-GM),
    and the first step that does not go down ends it."""
    L = log2(X) / h
    e = max(0, int(L) - 60)  # so 2^(L - e) is no float overflow

    def step(x):
        return ((h - 1) * x + X // x ** (h - 1)) // h
    x = step(int(2.0 ** (L - e)) << e)
    while (y := step(x)) < x:
        x = y
    return x


def _root_interval(lo: Fraction, hi: Fraction, h: int, k: int) -> tuple:
    """(P/2^k, Q/2^k) holding [lo^(1/h), hi^(1/h)], lo >= 1, at most two
    steps of 2^-k wider: the floor h-th roots of lo 2^(kh) and, one step
    up, of the integer below hi 2^(kh)."""
    P = _iroot((lo.numerator << k * h) // lo.denominator, h)
    Q = _iroot(-(-(hi.numerator << k * h) // hi.denominator) - 1, h) + 1
    return Fraction(P, 1 << k), Fraction(Q, 1 << k)


def _neg_log(alpha) -> tuple:
    """Fraction interval holding -ln alpha, for a real alpha > 0, from one
    enclosure of alpha 10^-20 wide: a rational or algebraic alpha's is its
    field's ``log_cell``, and its interval is narrowed to that cell."""
    if isinstance(alpha, (int, Fraction, AlgebraicReal)):
        (lo, hi), neg_log = field(alpha).log_cell
        if isinstance(alpha, AlgebraicReal) and \
                alpha._lo <= lo <= hi <= alpha._hi:
            alpha._lo, alpha._hi = lo, hi
        return neg_log
    log_lo, log_hi = _log_interval(*enclosure(alpha, Fraction(1, 10**20)))
    return -log_hi, -log_lo


def compare(a: RealNumber, b: RealNumber) -> Comparison:
    """Certified three-way comparison, UNDECIDED below ``DEFAULT_PRECISION``.

    LESS/EQUAL/GREATER are always correct.  EQUAL is only produced when it
    can be proved: identical rationals, or two algebraic reals sharing a
    defining polynomial whose isolating intervals overlap on a stretch
    containing a single root.  Rational-vs-rational and rational-vs-algebraic
    are always decided.
    """
    if a is b:
        return Comparison.EQUAL
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)

    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return _ORDER[1 + (a > b) - (a < b)]
    if isinstance(a, Fraction) and isinstance(b, AlgebraicReal):
        return _ORDER[1 + _rat_minus_alg_sign(a, b)]
    if isinstance(a, AlgebraicReal) and isinstance(b, Fraction):
        return _ORDER[1 - _rat_minus_alg_sign(b, a)]

    if isinstance(a, AlgebraicReal) and isinstance(b, AlgebraicReal):
        (alo, ahi), (blo, bhi) = a.interval(), b.interval()
        if a.coeffs == b.coeffs and ahi > blo and bhi > alo and \
                root_count(a.coeffs, min(alo, blo), max(ahi, bhi)) == 1:
            return Comparison.EQUAL
        # else separate by intervals

    return _compare_by_enclosure(a, b)


def _in_unit_interval(alpha) -> bool:
    return compare(alpha, Fraction(0)) is Comparison.GREATER and \
        compare(alpha, Fraction(1)) is Comparison.LESS


def _above_half(alpha) -> bool:
    return compare(alpha, Fraction(1, 2)) is Comparison.GREATER


def _rat_minus_alg_sign(q: Fraction, x: AlgebraicReal) -> int:
    """The sign of q - x, with x left as it is.  The root lies in the open
    interval (lo, hi), where x's polynomial p changes sign, or is lo once
    ``_bisect`` has collapsed it; inside, it is p's only zero, and p(q)
    with the sign of p(lo) puts q below it."""
    lo, hi = x.interval()
    if q == lo == hi:
        return 0
    if q <= lo:
        return -1
    if q >= hi:
        return 1
    v = _value_at(x.coeffs, q)
    if v == 0:
        return 0
    return -1 if (v > 0) == (_value_at(x.coeffs, lo) > 0) else 1


def _compare_by_enclosure(a, b) -> Comparison:
    """Separate a and b by enclosures 1/16, 1/256, ... wide.  An
    ``AlgebraicReal`` is narrowed in a copy, so neither argument changes."""
    a, b = (copy(x) if isinstance(x, AlgebraicReal) else x for x in (a, b))
    width = Fraction(1, 16)
    while True:
        alo, ahi = enclosure(a, width)
        blo, bhi = enclosure(b, width)
        if ahi < blo:
            return Comparison.LESS
        if bhi < alo:
            return Comparison.GREATER
        if width <= DEFAULT_PRECISION / 4:
            return Comparison.UNDECIDED
        width = width / 16


# ---------------------------------------------------------------------------
# Q(alpha) arithmetic
# ---------------------------------------------------------------------------

FILTER_BITS = 64  # K, the fixed-point precision of the sign filter
SIGN_BITS_CAP = 2048  # the last K an undecided sign is tried at
_PROOF_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _irreducible_mod(P, p: int) -> bool:
    """Whether the int polynomial P, of degree n with p prime to its lead,
    is irreducible in F_p[x].  A reducible P, repeated factors included,
    has an irreducible factor of some degree i <= n/2, which divides
    x^(p^i) - x; so gcd(x^(p^i) - x, P) = 1 for every such i proves P
    irreducible (the distinct-degree test, Knuth TAOCP 4.6.2)."""
    inv = pow(P[-1], -1, p)
    f = [c * inv % p for c in P]  # monic, so x^e mod f is exact
    for i in range(1, (len(P) - 1) // 2 + 1):
        h = [1]
        for bit in bin(p**i)[2:]:  # x^(p^i) mod f, by binary powering
            h = _rem_mod(poly_mul(h, h), f, p)
            if bit == "1":
                h = _rem_mod([0] + h, f, p)
        h += [0] * (2 - len(h))
        h[1] -= 1
        if not _coprime_mod(f, h, p):
            return False
    return True


def _proven_irreducible(P) -> bool:
    """Whether P, a primitive int polynomial, is irreducible mod some prime
    p < 50 prime to its lead, which proves it irreducible over Q: factors
    over Q give factors over Z (Gauss's lemma) that keep their degrees mod
    p.  Some irreducible P, like x^4 - 10 x^2 + 1, split mod every prime."""
    return any(P[-1] % p and _irreducible_mod(P, p) for p in _PROOF_PRIMES)


def _filter_sign(S: int, E: int) -> int:
    """The sign of S when the margin |S| > E proves it, else 0."""
    if S > E:
        return 1
    if S < -E:
        return -1
    return 0


def _reduced(v, D: int) -> tuple:
    g = gcd(D, *v)
    if g == 1:
        return (*v, D)
    return (*(x // g for x in v), D // g)


class QAlphaContext:
    """The field Q(alpha) for alpha rational or algebraic: integer
    arithmetic on its states, for the follower values s -> s/alpha - d
    above all, and the one place where a sign or an enclosure in Q(alpha)
    is decided.

    A state is a tuple ``(v_0, ..., v_(n-1), D)`` of ints, n the degree of
    alpha, standing for sum v_i alpha^i / D, with D > 0 and gcd(v_0, ...,
    v_(n-1), D) = 1.  The form is canonical: equal values have equal
    tuples, so states are dict keys.  Every :class:`QAlphaElement` holds
    one.  ``element``, ``embed``, ``one`` and ``alpha_element`` build
    elements; ``state``, ``reduce``, ``add``, ``neg``, ``mul``,
    ``inverse``, ``sign``, ``enclosure`` and ``children`` work on the
    states themselves, which is what the closures under s -> s/alpha - d
    step on.  A rational alpha has degree 1, where a state is a plain
    rational (N, D).

    Step.  Let a_0 + a_1 x + ... + a_n x^n be the primitive integer
    minimal polynomial of alpha with a_n > 0, and write c = |a_0| and r_i
    = sign(a_0) a_(i+1), so that 1/alpha = -(r_0 + r_1 alpha + ... +
    r_(n-1) alpha^(n-1)) / c.  Then s/alpha has the numerator w_i = c
    v_(i+1) - v_0 r_i (with v_n = 0) over c D, and s/alpha - d subtracts
    d c D from w_0; one gcd reduces the pair.  For alpha = p/q this is
    (q N - d p D, p D).  When 1/alpha is an algebraic integer, c = 1, so D
    never grows.  Products reduce modulo the polynomial on ints, and an
    inverse solves a linear system by fraction-free Gauss-Jordan.

    Sign.  D > 0, so a state has the sign of w = sum v_i alpha^i.  The
    ints B_i lie within 1 of alpha^i 2^K, with B_0 = 2^K exactly, so S =
    sum v_i B_i differs from 2^K w by at most E = sum_(i>=1) |v_i|.  If |S|
    > E, 2^K w lies strictly on the side of 0 that S does, which proves
    the sign.  K starts at 64; a sign left undecided, counted in
    ``fallbacks``, doubles K up to ``SIGN_BITS_CAP``, a bound on the work
    only, and then raises ``UndecidedComparison``.  The zero vector has
    sign 0 with no fallback.  That is exact because the constructor
    proves alpha's polynomial irreducible (``_proven_irreducible``), or
    raises ``UnsupportedBase``: 1, alpha, ..., alpha^(n-1) are then
    independent over Q, so only v = 0 gives w = 0, and every nonzero state
    has an inverse.  Degree 1 needs no proof and no filter: the sign is
    that of v_0.  When 1/alpha is a Pisot number, Garsia's separation
    lemma (Garsia 1962) keeps nonzero values with bounded integer
    coefficients away from 0, so the 64-bit filter decides all but the
    exact zeros of a follower-value closure.  The same sums enclose s in
    [(S - E) / (2^K D), (S + E) / (2^K D)], exact for a rational value (E
    = 0).

    Each B_i rounds the midpoint of an enclosure of alpha^i 2^K at most 1
    wide, so it is within 1/2 + 1/2 of alpha^i 2^K.  The enclosures are
    the powers of the bisection cells of alpha's ``interval`` as built,
    computed at the first sign that needs them, once per K.  ``field``
    keeps one context per base and process.
    """

    def __init__(self, alpha: RealNumber):
        if isinstance(alpha, int):
            alpha = Fraction(alpha)
        if isinstance(alpha, Fraction):
            self.degree = 1
            self.key = ("rat", alpha)
            a = (-alpha.numerator, alpha.denominator)
            self.interval = (alpha, alpha)
        elif isinstance(alpha, AlgebraicReal):
            self.degree = alpha.degree
            self.key = ("alg", alpha.coeffs)
            a = alpha.coeffs
            self.interval = alpha.interval()
        else:
            raise UnsupportedBase(
                "Q(alpha) arithmetic requires a rational or algebraic base")
        if a[0] == 0:
            raise UnsupportedBase("the polynomial of alpha must have a "
                                  "nonzero constant term")
        if self.degree > 1 and not _proven_irreducible(a):
            raise UnsupportedBase("alpha's polynomial is not proven "
                                  "irreducible over Q: it is reducible, or "
                                  "it splits modulo every prime below 50")
        self.alpha = alpha
        self.poly = a  # a_0 .. a_n, a_n > 0
        sg = 1 if a[0] > 0 else -1
        self.c = sg * a[0]
        self.r = tuple(sg * x for x in a[1:])  # r_0 .. r_(n-1)
        self._B: dict = {}  # K -> (B_0, ..., B_(n-1))
        self.fallbacks = 0
        # alphabet -> the expansions.BaseSystem on this field, oldest first
        self.systems: dict = {}

    # -- elements ------------------------------------------------------------

    def element(self, coeffs) -> "QAlphaElement":
        """sum coeffs[i] alpha^i, for any number of rational coeffs."""
        coeffs = [Fraction(c) for c in coeffs]
        D = lcm(*(c.denominator for c in coeffs))
        return QAlphaElement(self, self.reduce(
            [c.numerator * (D // c.denominator) for c in coeffs], D))

    def embed(self, value) -> "QAlphaElement":
        return QAlphaElement(self, self.state(value))

    @property
    def one(self):
        return self.embed(1)

    @property
    def alpha_element(self):
        return self.element([0, 1])

    def __repr__(self):
        return f"QAlphaContext({self.alpha!r})"

    # -- states --------------------------------------------------------------

    def state(self, x) -> tuple:
        """The state of a rational, of alpha as an :class:`AlgebraicReal`,
        or of a :class:`QAlphaElement` of this field: its context is this
        one, or one on the same alpha.  Two roots of one polynomial share a
        key, so only then are the roots compared.  Any other number,
        another root of alpha's polynomial too, raises ValueError."""
        if isinstance(x, QAlphaElement):
            other = x.ctx
            if other is not self and (other.key != self.key or (
                    self.degree > 1 and compare(other.alpha, self.alpha)
                    is not Comparison.EQUAL)):
                raise ValueError("elements from different Q(alpha) contexts")
            return x.state
        if isinstance(x, AlgebraicReal) and self.key == ("alg", x.coeffs):
            if compare(x, self.alpha) is Comparison.EQUAL:
                return self.reduce([0, 1], 1)
            raise ValueError(f"{x!r} is not alpha: of the roots of its "
                             "polynomial only alpha has a state")
        try:
            x = Fraction(x)
        except TypeError:
            raise ValueError(f"{x!r} has no state in Q(alpha): only a "
                             "rational or an element of the field has one") \
                from None
        return (x.numerator, *(0,) * (self.degree - 1), x.denominator)

    def reduce(self, u, D: int) -> tuple:
        """The state of sum u_i alpha^i / D for any number of ints u_i and
        D > 0: Horner's rule on ints from the top n coefficients down, each
        step v -> v alpha + u_j reduced modulo alpha's polynomial."""
        lead = self.poly[-1]
        k = max(len(u) - self.degree, 0)
        v = list(u[k:]) + [0] * (self.degree + k - len(u))
        S = 1  # v / S = u_j + u_(j+1) alpha + ..., j the last index done
        for c in reversed(u[:k]):
            S *= lead
            v = self._times_alpha(v)
            v[0] += c * S
        return _reduced(v, S * D)

    def _times_alpha(self, v) -> list:
        """a_n alpha v for an int vector v: a shift, with a_n alpha^n =
        -(a_0 + a_1 alpha + ... + a_(n-1) alpha^(n-1))."""
        a, top = self.poly, v[-1]
        return [-top * a[0]] + [a[-1] * v[i - 1] - top * a[i]
                                for i in range(1, self.degree)]

    def _shift(self, s):
        """Numerator and denominator of s/alpha, unreduced."""
        n, c, r = self.degree, self.c, self.r
        v0 = s[0]
        w = [c * s[i + 1] - v0 * r[i] for i in range(n - 1)]
        w.append(-v0 * r[n - 1])
        return w, c * s[n]

    def add(self, a, b) -> tuple:
        n = self.degree
        aD, bD = a[n], b[n]
        return _reduced([a[i] * bD + b[i] * aD for i in range(n)], aD * bD)

    def neg(self, s) -> tuple:
        return (*(-x for x in s[:-1]), s[-1])

    def mul(self, a, b) -> tuple:
        n = self.degree
        prod = [0] * (2 * n - 1)
        for i in range(n):
            x = a[i]
            if x:
                for j in range(n):
                    prod[i + j] += x * b[j]
        return self.reduce(prod, a[n] * b[n])

    def inverse(self, s) -> tuple:
        """The state of 1/s.  For s = u/D it solves u y = D: with u alpha^j
        = c_j / a_n^j, sum_j z_j c_j = D e_0 for z_j = y_j / a_n^j, by
        fraction-free Gauss-Jordan (Bareiss), whose divisions are exact; u
        != 0 in the field Q(alpha) is invertible, so a pivot always exists."""
        n, lead = self.degree, self.poly[-1]
        u = list(s[:n])
        if not any(u):
            raise ZeroDivisionError("division by zero in Q(alpha)")
        cols = [u]
        for _ in range(n - 1):
            cols.append(self._times_alpha(cols[-1]))
        rows = [[col[i] for col in cols] + [s[n] if i == 0 else 0]
                for i in range(n)]
        prev = 1
        for k in range(n):
            p = next(i for i in range(k, n) if rows[i][k])
            rows[k], rows[p] = rows[p], rows[k]
            pivot_row = rows[k]
            pivot = pivot_row[k]
            for i in range(n):
                if i != k:
                    f = rows[i][k]
                    rows[i] = [(pivot * x - f * y) // prev
                               for x, y in zip(rows[i], pivot_row)]
            prev = pivot
        sg = -1 if prev < 0 else 1
        return _reduced([sg * rows[j][n] * lead**j for j in range(n)],
                        sg * prev)

    # -- signs and enclosures ------------------------------------------------

    def _cell(self, width: Fraction) -> tuple:
        """alpha's bisection bracket from ``interval``, at most width wide."""
        return _bisect(partial(_scaled_value, self.poly), *self.interval,
                       width, poly=self.poly)

    @cached_property
    def log_cell(self) -> tuple:
        """(alpha's cell 10^-20 wide, -ln alpha as Fractions from it)."""
        cell = self._cell(Fraction(1, 10**20))
        log_lo, log_hi = _log_interval(*cell)
        return cell, (-log_hi, -log_lo)

    @cached_property
    def in_unit_interval(self) -> bool:
        """Whether 0 < alpha < 1, by ``compare`` once per field."""
        return _in_unit_interval(self.alpha)

    @cached_property
    def above_half(self) -> bool:
        """Whether alpha > 1/2, by ``compare`` once per field."""
        return _above_half(self.alpha)

    def _fixed_point(self, K: int) -> tuple:
        B = self._B.get(K)
        if B is None:
            one = 1 << K
            width = Fraction(1, one << 4)
            while True:
                lo, hi = self._cell(width)
                if lo >= 0 or hi <= 0:  # alpha^i is then monotone on [lo, hi]
                    pows = [(lo**i, hi**i) for i in range(1, self.degree)]
                    if all(abs(h - l) * one <= 1 for l, h in pows):
                        break
                width /= 16
            B = self._B[K] = (one, *(round((l + h) * one / 2)
                                     for l, h in pows))
        return B

    def _sign_vector(self, u) -> int:
        """The sign of sum u_i alpha^i for ints u_i."""
        if self.degree == 1:
            return (u[0] > 0) - (u[0] < 0)
        B = self._fixed_point(FILTER_BITS)
        sg = _filter_sign(sum(map(mul, u, B)), sum(map(abs, u[1:])))
        return sg or self._undecided_sign(u)

    def _undecided_sign(self, u) -> int:
        """The sign of sum u_i alpha^i that the filter left undecided at
        K = 64: 0 for u = 0, else the filter at K = 128, 256, ..."""
        if not any(u):
            return 0
        self.fallbacks += 1
        E = sum(map(abs, u[1:]))
        K = FILTER_BITS
        while K < SIGN_BITS_CAP:
            K *= 2
            sg = _filter_sign(sum(map(mul, u, self._fixed_point(K))), E)
            if sg:
                return sg
        raise UndecidedComparison(f"sign not certified at {K} bits")

    def sign(self, s) -> int:
        return self._sign_vector(s[:self.degree])

    def enclosure(self, s, width) -> tuple:
        """[(S - E) / (2^K D), (S + E) / (2^K D)] at the least K that makes
        it at most ``width`` wide."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        n, D = self.degree, s[self.degree]
        E = sum(map(abs, s[1:n]))
        if E == 0:
            x = Fraction(s[0], D)
            return (x, x)
        K = FILTER_BITS
        while 2 * E * width.denominator > (width.numerator * D) << K:
            K *= 2
        S = sum(map(mul, s[:n], self._fixed_point(K)))
        return (Fraction(S - E, D << K), Fraction(S + E, D << K))

    def children(self, lo, hi, digits) -> Callable[[tuple], list]:
        """The function s -> [(s/alpha - d, d) for d in digits, kept where
        lo <= s/alpha - d <= hi].  ``lo`` and ``hi`` are states, or any
        (v..., D) tuples with D > 0; digits keep their order."""
        n, c = self.degree, self.c
        lD, hD = lo[n], hi[n]
        if n == 1:
            r0, l0, h0 = self.r[0], lo[0], hi[0]

            def kids(s):
                w, Dq = -r0 * s[0], c * s[1]
                lb, hb = l0 * Dq, h0 * Dq
                out = []
                for d in digits:
                    x = w - d * Dq
                    if x * lD < lb or x * hD > hb:
                        continue
                    g = gcd(x, Dq)
                    out.append(((x // g, Dq // g), d))
                return out
            return kids

        B = self._fixed_point(FILTER_BITS)
        one = B[0]
        lv, hv = lo[:n], hi[:n]
        undecided = self._undecided_sign

        def kids(s):
            w, Dq = self._shift(s)
            # numerators of child - lo over lD Dq and of hi - child over
            # hD Dq at d = 0; a digit d moves their constant terms by
            # -d lD Dq and +d hD Dq
            ul = [lD * x - Dq * y for x, y in zip(w, lv)]
            uh = [Dq * y - hD * x for x, y in zip(w, hv)]
            El, Eh = sum(map(abs, ul[1:])), sum(map(abs, uh[1:]))
            Sl, Sh = sum(map(mul, ul, B)), sum(map(mul, uh, B))
            ml, mh = lD * Dq, hD * Dq
            out = []
            for d in digits:
                sg = _filter_sign(Sl - d * ml * one, El)
                if sg == 0:
                    sg = undecided([ul[0] - d * ml] + ul[1:])
                if sg < 0:
                    continue
                sg = _filter_sign(Sh + d * mh * one, Eh)
                if sg == 0:
                    sg = undecided([uh[0] + d * mh] + uh[1:])
                if sg < 0:
                    continue
                x = [w[0] - d * Dq] + w[1:]
                out.append((_reduced(x, Dq), d))
            return out
        return kids


_FIELDS: dict = {}  # _field_key(alpha) -> context, oldest first


def _field_key(alpha) -> tuple:
    """(p, q) of a rational alpha; an algebraic one's polynomial and its
    interval's ends as ints, which hash faster than Fractions."""
    if isinstance(alpha, AlgebraicReal):
        lo, hi = alpha._lo, alpha._hi
        return (alpha.coeffs, lo.numerator, lo.denominator, hi.numerator,
                hi.denominator)
    return (alpha.numerator, alpha.denominator)


def _registered(alpha) -> Optional[QAlphaContext]:
    """The registered context of alpha's field, or None: found by value, or
    by polynomial and an interval that holds alpha's or lies in it, as two
    such isolating intervals of one polynomial hold one root.  A base with
    no field, such as alpha_KL, has none."""
    if not isinstance(alpha, (int, Fraction, AlgebraicReal)):
        return None
    ctx = _FIELDS.get(_field_key(alpha))
    if ctx is None and isinstance(alpha, AlgebraicReal):
        key, lo, hi = ("alg", alpha.coeffs), alpha._lo, alpha._hi
        ctx = next((c for c in _FIELDS.values() if c.key == key and (
            c.interval[0] <= lo <= hi <= c.interval[1]
            or lo <= c.interval[0] <= c.interval[1] <= hi)), None)
    return ctx


def field(alpha) -> QAlphaContext:
    """The process's one ``QAlphaContext`` of a rational or algebraic alpha,
    so its proof, tables, range facts and -ln alpha are derived once (see
    :func:`_registered`).  Its facts depend on its key alone: one dropped
    past ``FIELDS_MAX`` is rebuilt the same, and the base systems in its
    ``systems`` are dropped with it."""
    ctx = _registered(alpha)
    if ctx is None:
        ctx = QAlphaContext(copy(alpha))
        if len(_FIELDS) >= FIELDS_MAX:
            del _FIELDS[next(iter(_FIELDS))]
        _FIELDS[_field_key(alpha)] = ctx
    return ctx


def in_unit_interval(alpha) -> bool:
    """Whether 0 < alpha < 1: the cached fact of alpha's registered field,
    else derived by ``compare``, with no field built (alpha_KL, or a base
    seen first, which may have no field at all, such as 0)."""
    ctx = _registered(alpha)
    return _in_unit_interval(alpha) if ctx is None else ctx.in_unit_interval


def above_half(alpha) -> bool:
    """Whether alpha > 1/2, as :func:`in_unit_interval` reads its fact."""
    ctx = _registered(alpha)
    return _above_half(alpha) if ctx is None else ctx.above_half


class QAlphaElement:
    """Element of Q(alpha): a handle on a canonical state of its
    :class:`QAlphaContext`, which does its arithmetic with elements of the
    same field and with rationals, and decides its sign and enclosures; it
    has no ordering (take the ``sign()`` of a difference) and no float.
    ``QAlphaElement(ctx, s)`` wraps a state s.  Immutable and hashable."""

    __slots__ = ("ctx", "state")

    def __init__(self, ctx: QAlphaContext, state: tuple):
        self.ctx = ctx
        self.state = state

    @property
    def coeffs(self) -> tuple:
        """The coefficients over 1, alpha, ..., alpha^(n-1), as Fractions."""
        D = self.state[-1]
        return tuple(Fraction(v, D) for v in self.state[:-1])

    def _coerce(self, other):
        if isinstance(other, (QAlphaElement, int, Fraction)):
            return self.ctx.embed(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QAlphaElement(self.ctx, self.ctx.add(self.state, o.state))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        return QAlphaElement(ctx, ctx.add(self.state, ctx.neg(o.state)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QAlphaElement(self.ctx, self.ctx.neg(self.state))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QAlphaElement(self.ctx, self.ctx.mul(self.state, o.state))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * QAlphaElement(self.ctx, self.ctx.inverse(o.state))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sign(self) -> int:
        return self.ctx.sign(self.state)

    # canonical states: equal values have equal states
    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.state == o.state

    def __hash__(self):
        return hash((self.ctx.key, self.state))

    def __repr__(self):
        return f"QAlpha{list(self.coeffs)}"


# ---------------------------------------------------------------------------
# text formats:  rat:p/q   alg:c0,c1,...,ck@[lo,hi]   akl
# ---------------------------------------------------------------------------

_ALG_RE = re.compile(r"^alg:(?P<coeffs>[^@]+)@\[(?P<lo>[^,\]]+),(?P<hi>[^,\]]+)\]$")


def _bounded(text: str) -> str:
    """``text``, refused when its digits plus its exponent E pass
    ``NUMBER_DIGITS_MAX``, as Fraction builds 10^|E| unchecked and int
    converts no more than 4300 digits; the message quotes 20 characters."""
    exp = text.lower().partition("e")[2].replace("_", "").strip().lstrip("+-0")
    size = digits = sum(map(str.isdecimal, text))  # an E of 5+ is >= 10**4
    size += min(int(exp[:5]), NUMBER_DIGITS_MAX) if exp.isdecimal() else 0
    if size > NUMBER_DIGITS_MAX:
        shown = text[:20] + "..." * (len(text) > 20)
        raise NumberTooLarge(f"number text {shown!r} of {digits} digits needs "
                             f"more digits than the bound NUMBER_DIGITS_MAX = "
                             f"{NUMBER_DIGITS_MAX}")
    return text


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refused first by :func:`_bounded`."""
    return Fraction(_bounded(text))


_ALG_TEXTS: dict = {}  # alg: text -> its checked (polynomial, lo, hi)


def parse_real(text: str) -> RealNumber:
    """Parse ``rat:p/q``, ``alg:c0,...,ck@[lo,hi]``, a bare rational, or
    ``akl``: the ``thuemorse.alpha_kl_real()`` singleton itself, which
    ``thuemorse.is_alpha_kl`` recognises.  An ``alg:`` text is read once
    per process (``FIELDS_MAX`` kept), and each parse is a new root with
    the interval as written, which ``refine`` narrows in place."""
    text = text.strip()
    if text == "akl":
        from . import thuemorse  # deferred: thuemorse builds on this module
        return thuemorse.alpha_kl_real()
    if text.startswith("rat:"):
        return parse_fraction(text[4:])
    written = _ALG_TEXTS.get(text)
    if written is None:
        m = _ALG_RE.match(text)
        if not m:  # a bare rational literal, as a convenience
            try:
                return parse_fraction(text)
            except ValueError:
                raise ExactnumError(
                    f"cannot parse real number {text!r}") from None
        coeffs = [int(_bounded(c)) for c in m.group("coeffs").split(",")]
        lo, hi = parse_fraction(m.group("lo")), parse_fraction(m.group("hi"))
        written = (poly_normalize(coeffs), lo, hi)
        _check_isolating(*written)  # raises NonIsolatingInterval
        if len(_ALG_TEXTS) >= FIELDS_MAX:
            del _ALG_TEXTS[next(iter(_ALG_TEXTS))]
        _ALG_TEXTS[text] = written
    else:
        _check_isolating(*written)  # memoized: once per interval
    x = AlgebraicReal.__new__(AlgebraicReal)
    x.coeffs, x._lo, x._hi = written
    return x


def format_real(x: RealNumber) -> str:
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return f"rat:{x.numerator}/{x.denominator}"
    if isinstance(x, AlgebraicReal):
        lo, hi = x.interval()
        cs = ",".join(str(c) for c in x.coeffs)
        return f"alg:{cs}@[{lo},{hi}]"
    if isinstance(x, EnclosedReal):
        return x.description
    raise TypeError(f"not a RealNumber: {x!r}")


def decimal_string(x) -> str:
    """Decimal rendering backed by a certified enclosure.

    The string is the shortest float repr of the enclosure midpoint rounded
    to ``_DECIMAL_DIGITS`` places; the enclosure is narrower than one unit
    in the last of them, so the rendering never feeds back into
    computation.  A value that rounds to zero renders as ``-0.0`` exactly
    when its certified sign is negative, so the string depends on the value
    alone.
    """
    lo, hi = enclosure(x, Fraction(1, 10**(_DECIMAL_DIGITS + 2)))
    r = round(float((lo + hi) / 2), _DECIMAL_DIGITS)
    if r == 0:
        if isinstance(x, QAlphaElement):
            negative = x.sign() < 0
        else:
            negative = compare(x, Fraction(0)) is Comparison.LESS
        r = -0.0 if negative else 0.0
    return repr(r)
