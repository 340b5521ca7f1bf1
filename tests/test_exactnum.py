import decimal
import json
import math
import os
import random
import subprocess
import sys
import time
from copy import copy
from fractions import Fraction as F
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from cantorint import exactnum as X
from cantorint.exactnum import (
    AlgebraicReal,
    Comparison,
    QAlphaContext,
    QAlphaElement,
    compare,
    parse_real,
)
from cantorint import thuemorse as T
from cantorint import acceptance as A
from cantorint import dimension as D
from cantorint import expansions as E
from cantorint.dimension import char_poly, liouville_witness
from cantorint.expansions import (
    BaseSystem,
    build_expansion_automaton,
    golden_threshold,
)
from cantorint.words import BINARY, TERNARY


ALPHA_CUBIC = [-1, 1, 2, 2]  # 2x^3 + 2x^2 + x - 1, root ~ 0.44062
SQRT2_MINUS_1 = [-1, 2, 1]   # x^2 + 2x - 1, root ~ 0.41421


def alg_cubic():
    return AlgebraicReal(ALPHA_CUBIC, F(2, 5), F(1, 2))


def zero(ctx):
    """The zero of ``ctx``'s field."""
    return ctx.embed(0)


def midpoint(x, width=F(1, 10**17)):
    """The float at the middle of x's enclosure ``width`` wide."""
    lo, hi = X.enclosure(x, width)
    return float((lo + hi) / 2)


def is_zero(x):
    """Whether a Q(alpha) element is 0: its state's vector is."""
    return not any(x.state[:-1])


class TestCompare:
    def test_rational_below_cubic_root(self):
        # 2*(0.4)^3 + 2*(0.4)^2 + 0.4 - 1 = -0.152 < 0, so the root is above
        assert compare(F(2, 5), alg_cubic()) is Comparison.LESS

    def test_identical_rationals(self):
        assert compare(F(1, 2), F(1, 2)) is Comparison.EQUAL

    def test_alpha_kl_against_decimal(self):
        # the constant is usually quoted as ~0.39433; the certified
        # enclosure sits just below 39433/100000 (0.3943298447...)
        assert compare(T.alpha_kl_real(), F(39433, 100000)) \
            is Comparison.LESS

    def test_rational_vs_algebraic_always_decided(self):
        a = alg_cubic()
        for q in (F(2, 5), F(1, 2), F(44, 100), F(441, 1000), F(7, 16)):
            assert compare(q, a) in (Comparison.LESS, Comparison.GREATER)

    def test_same_root_two_intervals(self):
        a = AlgebraicReal(SQRT2_MINUS_1, F(1, 3), F(1, 2))
        b = AlgebraicReal(SQRT2_MINUS_1, F(2, 5), F(9, 20))
        assert compare(a, b) is Comparison.EQUAL

    def test_different_roots_same_poly(self):
        # x^2 - 3x + 1 has roots (3 +/- sqrt5)/2; overlapping-interval
        # equality certification must not fire for distinct roots
        small = AlgebraicReal([1, -3, 1], F(1, 3), F(1, 2))
        large = AlgebraicReal([1, -3, 1], F(5, 2), F(3, 1))
        assert compare(small, large) is Comparison.LESS

    def test_random_rationals_cross_multiplication(self):
        rng = random.Random(11)
        for _ in range(300):
            a = F(rng.randrange(-50, 50), rng.randrange(1, 50))
            b = F(rng.randrange(-50, 50), rng.randrange(1, 50))
            got = compare(a, b)
            sign = (a.numerator * b.denominator
                    - b.numerator * a.denominator)
            want = Comparison.LESS if sign < 0 else \
                Comparison.GREATER if sign > 0 else Comparison.EQUAL
            assert got is want


def reference_compare_rat_alg(q, x):
    """compare(q, x) as it bisected x until q fell outside the interval,
    narrowing x as it went."""
    lo, hi = x.interval()
    if lo < hi:
        if X._value_at(x.coeffs, q) == 0 and lo < q < hi:
            return Comparison.EQUAL
        while lo <= q <= hi and lo < hi:
            lo, hi = x.refine((hi - lo) / 4)
    if lo == hi and q == lo:
        return Comparison.EQUAL
    return Comparison.LESS if q < lo else Comparison.GREATER


def collapsed_half():
    """2x - 1 on (0, 1), refined: the first midpoint is the root, so the
    interval collapses onto [1/2, 1/2]."""
    x = AlgebraicReal([-1, 2], 0, 1)
    x.refine(F(1, 4))
    return x


# factories, so that every comparison meets a fresh number
COMPARE_CASES = (
    lambda: AlgebraicReal(SQRT2_MINUS_1, F(2, 5), F(1, 2)),
    lambda: AlgebraicReal([1, -3, 1], F(1, 3), F(1, 2)),  # decreasing
    lambda: AlgebraicReal([-2, 0, 1], -2, -1),  # -sqrt(2), decreasing
    alg_cubic,
    lambda: AlgebraicReal([-1, 2, 2], F(1, 3), F(1, 2)),
    lambda: AlgebraicReal([-2, 0, 0, 1], 1, 2),  # cube root of 2
    lambda: AlgebraicReal([-1, 2], 0, 1),
    collapsed_half,
)


class TestCompareReference:
    @pytest.mark.parametrize("case", range(len(COMPARE_CASES)))
    def test_matches_bisection_and_leaves_x_alone(self, case):
        make = COMPARE_CASES[case]
        x = make()
        lo, hi = x.interval()
        rng = random.Random(case)
        qs = [lo, hi, lo - 1, hi + F(1, 7), (lo + hi) / 2,
              lo - F(1, 10**9), hi + F(1, 10**9)]
        qs += [lo + (hi - lo) * F(rng.randrange(1, 1000), 1000)
               for _ in range(20)]
        if lo < hi:  # the root itself, within 1e-30, from both sides
            r_lo, r_hi = make().refine(F(1, 10**30))
            qs += [r_lo, r_hi]
        seen = set()
        for q in qs:
            want = reference_compare_rat_alg(q, make())
            assert compare(q, x) is want
            flipped = {Comparison.LESS: Comparison.GREATER,
                       Comparison.GREATER: Comparison.LESS}.get(want, want)
            assert compare(x, q) is flipped
            assert x.interval() == (lo, hi)
            seen.add(want)
        assert {Comparison.LESS, Comparison.GREATER} <= seen
        if case >= len(COMPARE_CASES) - 2:  # 2x - 1 meets 1/2
            assert Comparison.EQUAL in seen

    def test_algebraic_pair_left_alone(self):
        from cantorint.expansions import golden_threshold
        x = parse_real("alg:-1,2,2@[1/3,1/2]")
        g = golden_threshold()
        texts = X.format_real(x), X.format_real(g)
        assert compare(x, g) is Comparison.LESS
        assert compare(g, x) is Comparison.GREATER
        assert compare(x, T.alpha_kl_real()) is Comparison.LESS
        assert (X.format_real(x), X.format_real(g)) == texts
        assert texts[0] == "alg:-1,2,2@[1/3,1/2]"

    def test_collapsed_interval(self):
        x = collapsed_half()
        assert x.interval() == (F(1, 2), F(1, 2))
        assert compare(F(1, 2), x) is Comparison.EQUAL
        assert compare(F(1, 3), x) is Comparison.LESS
        assert compare(x, F(2, 3)) is Comparison.LESS


class TestRefine:
    def test_sqrt2_minus_one(self):
        a = AlgebraicReal(SQRT2_MINUS_1, F(2, 5), F(1, 2))
        lo, hi = a.refine(F(1, 10**6))
        assert hi - lo <= F(1, 10**6)
        assert lo <= F(414214, 1000000) + F(1, 10**6)
        assert hi >= F(414213, 1000000)

    def test_constant_series(self):
        third = SeriesReal(lambda i: 3, F(1, 10), 3, 3, "1/3")
        lo, hi = third.enclosure(F(1, 1000))
        assert lo <= F(1, 3) <= hi
        assert hi - lo <= F(1, 1000)

    def test_alpha_kl_inside_bracket(self):
        lo, hi = T.alpha_kl_enclosure(F(1, 10**5))
        assert F(39432, 100000) <= lo and hi <= F(39434, 100000)

    def test_nesting(self):
        a = alg_cubic()
        lo1, hi1 = a.refine(F(1, 100))
        lo2, hi2 = a.refine(F(1, 10**8))
        assert lo1 <= lo2 and hi2 <= hi1

    def test_alpha_kl_nested_and_as_wide_as_asked(self):
        akl = T.alpha_kl_real()
        outer = (F(0), F(1))
        for k in range(8, 101):
            lo, hi = X.enclosure(akl, F(1, 2**k))
            assert outer[0] <= lo < hi <= outer[1]
            assert hi - lo <= F(1, 2**k)
            outer = (lo, hi)
        assert compare(akl, F(394329, 1000000)) is Comparison.GREATER
        assert compare(akl, F(39433, 100000)) is Comparison.LESS
        assert compare(F(394329, 1000000), akl) is Comparison.LESS
        assert compare(F(39433, 100000), akl) is Comparison.GREATER

    def test_series_nesting_eps_over_ten(self):
        akl = T.alpha_kl_real()
        for eps in (F(1, 10**3), F(1, 10**5)):
            lo1, hi1 = akl.enclosure(eps)
            lo2, hi2 = akl.enclosure(eps / 10)
            assert lo1 <= lo2 and hi2 <= hi1


class TestQAlpha:
    def test_rational_base_collapses(self):
        el = QAlphaContext(F(2, 5)).element([0, -1])
        assert el.coeffs == (F(-2, 5),)

    def test_sum_neg_alpha_closed_form(self):
        # sum (-alpha)^i = -alpha/(1+alpha) for the cubic base
        ctx = QAlphaContext(alg_cubic())
        a = ctx.alpha_element
        closed = -a / (ctx.one + a)
        # partial sums converge to it; check the defining relation instead:
        # t(1 + alpha) = -alpha
        assert closed * (ctx.one + a) == -a

    def test_example52_element_arithmetic(self):
        ctx = QAlphaContext(AlgebraicReal(SQRT2_MINUS_1, F(2, 5), F(1, 2)))
        a = ctx.alpha_element
        a3 = a * a * a
        t = ctx.one / (a * (a3 - ctx.one)) + ctx.one / (a * a * (ctx.one - a3))
        # denominators cleared via the defining polynomial: the element is a
        # plain coefficient vector and evaluates consistently (~3.6754)
        lo, hi = X.enclosure(t, F(1, 10**9))
        assert F(36, 10) < lo and hi < F(37, 10)
        # and the corrected closed form matches the coded value exactly
        t2 = a / (a3 - ctx.one) + a * a / (ctx.one - a3)
        assert t2 == -(a * a + a3) / (ctx.one - a3)

    def test_minimal_polynomial_annihilates(self):
        ctx = QAlphaContext(alg_cubic())
        a = ctx.alpha_element
        assert is_zero(2 * a * a * a + 2 * a * a + a - ctx.one)

    def test_field_inverse(self):
        ctx = QAlphaContext(alg_cubic())
        a = ctx.alpha_element
        el = 3 * a * a - a + 2
        assert (el * (ctx.one / el)) == ctx.one

    def test_sign_certification(self):
        ctx = QAlphaContext(alg_cubic())
        a = ctx.alpha_element
        assert (a - F(44, 100)).sign() == 1
        assert (a - F(45, 100)).sign() == -1
        assert (a - a).sign() == 0

    def test_series_base_rejected(self):
        with pytest.raises(X.UnsupportedBase):
            QAlphaContext(T.alpha_kl_real())

    def test_reducible_base_rejected_on_division(self):
        # (x-1)(x-2) with the root 1 isolated: the ring would have zero
        # divisors, so the field is refused before any division
        base = AlgebraicReal([2, -3, 1], F(1, 2), F(3, 2))
        with pytest.raises(X.UnsupportedBase, match="irreducible"):
            QAlphaContext(base)


class TestParsing:
    def test_roundtrip_rational(self):
        assert parse_real("rat:3/7") == F(3, 7)
        assert X.format_real(F(3, 7)) == "rat:3/7"

    def test_algebraic_format(self):
        a = parse_real("alg:-1,1,2,2@[2/5,1/2]")
        assert isinstance(a, AlgebraicReal)
        assert compare(a, F(44, 100)) is Comparison.GREATER

    def test_named_constant(self):
        akl = parse_real("akl")
        assert T.is_alpha_kl(akl)
        assert X.format_real(akl) == "alpha_KL"

    def test_akl_is_the_singleton_in_a_fresh_interpreter(self):
        # is_alpha_kl tests identity, so the parsed base must be the very
        # object thuemorse hands out, whatever was imported first
        code = ("import cantorint.exactnum as X\n"
                "a = X.parse_real('akl')\n"
                "from cantorint import thuemorse\n"
                "assert a is thuemorse.alpha_kl_real()\n"
                "assert thuemorse.is_alpha_kl(a)\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path))
        assert out.returncode == 0, out.stderr

    def test_non_isolating_rejected(self):
        # x^2 - 3x + 1 has no root in [1, 2]
        with pytest.raises(X.NonIsolatingInterval):
            parse_real("alg:1,-3,1@[1,2]")
        # and two roots in [0, 3]
        with pytest.raises(X.NonIsolatingInterval):
            parse_real("alg:1,-3,1@[0,3]")

    def test_garbage_rejected(self):
        with pytest.raises(X.ExactnumError):
            parse_real("definitely-not-a-number")

    def test_digit_bound(self):
        # the text's digits, the exponent's too, plus |E|: 1e-3995 is at
        # the bound, and every path from text to a Fraction is checked
        assert X.parse_fraction("1e-3995") == F(1, 10**3995)
        assert X.parse_fraction("-2_5e+0_3") == -25_000
        for text in ("1e-3996", "1E99999999", "12e3995", "1" * 4001,
                     "1e" + "9" * 5000):
            with pytest.raises(X.NumberTooLarge,
                               match="NUMBER_DIGITS_MAX = 4000"):
                X.parse_fraction(text)
        for text in ("rat:1e-3996", "1e-3996", "alg:-1,2,1@[1e-3996,1/2]"):
            with pytest.raises(X.NumberTooLarge):
                parse_real(text)
        # text Fraction would refuse keeps Fraction's own error
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            X.parse_fraction("1e5x")


class TestPolynomials:
    def test_sturm_counts(self):
        # (x-1)(x-2)(x-3): the Descartes count on the closed interval, and
        # the Sturm count on (lo, hi] where lo is no root
        p = [-6, 11, -6, 1]
        assert X.root_count(p, F(0), F(4)) == 3
        assert X.root_count(p, F(3, 2), F(5, 2)) == 1
        assert X.root_count(p, F(1), F(3)) == 3
        assert X.root_count(p, F(2), F(2)) == 1
        assert X.root_count(p, F(7, 2), F(9)) == 0
        for lo, hi in ((F(0), F(4)), (F(3, 2), F(5, 2)), (F(7, 2), F(9))):
            assert X.root_count(p, lo, hi) == reference_sturm_count(p, lo, hi)

    def test_squarefree_part(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2: the root carries the squarefree
        # part (x-1)(x+2) = x^2 + x - 2
        r = X.isolate_largest_root([2, -3, 0, 1], F(0), F(10))
        assert r.coeffs == (-2, 1, 1)
        assert compare(r, F(1)) is Comparison.EQUAL

    def test_isolate_largest_root(self):
        r = X.isolate_largest_root([-6, 11, -6, 1], F(0), F(10))
        lo, hi = r.refine(F(1, 1000))
        assert lo <= 3 <= hi

    def test_alg_base_at_a_repeated_root(self):
        # sqrt(2) - 1 as a root of multiplicity 3 is accepted, as it
        # changes sign, and takes the squarefree polynomial's cells; of
        # multiplicity 2 it is refused as it was under the Sturm count
        cubed = X.poly_mul(X.poly_mul(SQRT2_MINUS_1, SQRT2_MINUS_1),
                           SQRT2_MINUS_1)
        x = parse_real("alg:" + ",".join(map(str, cubed)) + "@[2/5,1/2]")
        assert x.coeffs == tuple(cubed)
        plain = AlgebraicReal(SQRT2_MINUS_1, F(2, 5), F(1, 2))
        for width in (F(1, 10**6), F(1, 10**20)):
            assert x.refine(width) == plain.refine(width)
        assert X.root_count(cubed, F(2, 5), F(1, 2)) == 1
        squared = X.poly_mul(SQRT2_MINUS_1, SQRT2_MINUS_1)
        with pytest.raises(X.NonIsolatingInterval,
                           match=r"no sign change over the interval "
                                 r"\(even multiplicity\?\)"):
            AlgebraicReal(squared, F(2, 5), F(1, 2))
        with pytest.raises(X.NonIsolatingInterval,
                           match=r"interval \(0, 1\) contains 2 roots"):
            AlgebraicReal(X.poly_mul(squared, [-3, 4]), F(0), F(1))


# The Fraction polynomial arithmetic that int pseudo-division and the int
# evaluator replaced.

def frac_eval(coeffs, x):
    acc = F(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def frac_divmod(num, den):
    """Quotient and remainder of two polynomials over the rationals."""
    num = [F(c) for c in X.poly_trim(num)]
    den = [F(c) for c in X.poly_trim(den)]
    quot = [F(0)] * max(0, len(num) - len(den) + 1)
    rem = num[:]
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        q = rem[-1] / den[-1]
        quot[shift] = q
        for i, c in enumerate(den):
            rem[shift + i] -= q * c
        rem = X.poly_trim(rem)
    return X.poly_trim(quot), rem


def fraction_refine(coeffs, lo, hi, width):
    """AlgebraicReal.refine as it bisected in Fractions."""
    if hi - lo <= width:
        return (lo, hi)
    sign_lo = frac_eval(coeffs, lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = frac_eval(coeffs, mid)
        if v == 0:
            return (mid, mid)
        if (v > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


# bases on both sides of the cached fact alpha > 1/2, and 1/2 itself;
# 1/sqrt(2) is alg:-1,0,2@[1/2,1]
RANGE_BASES = ("rat:1/3", "rat:1/2", "rat:3/5", "alg:1,-3,1@[1/3,1/2]",
               "alg:-1,0,2@[1/2,1]")
KERNEL_BASES = ("alg:-1,1,2,2@[2/5,1/2]", "alg:-1,2,1@[2/5,1/2]",
                "alg:1,-3,1@[1/3,1/2]", "alg:-1,2,2@[1/3,1/2]",
                "alg:-2,4,1@[2/5,1/2]")
# (x^2 + 2x - 1)(x - 3) with sqrt(2) - 1 isolated: the ring has zero
# divisors, and alpha^2 + 2 alpha - 1 is a nonzero vector of value 0
REDUCIBLE = "alg:3,-7,-1,1@[2/5,1/2]"
# irreducible bases of degree 8, 10 and 12 in (2/5, 1/2), whose alpha takes
# the integer Newton route at every width the fixed-point tables ask
HIGH_DEGREE_BASES = ("alg:-1,2,0,2,-1,-3,0,-1,1@[2/5,1/2]",
                     "alg:2,-3,-3,-2,-1,-2,-2,2,1,2,2@[2/5,1/2]",
                     "alg:-2,3,3,1,2,-3,3,3,2,0,-3,-2,1@[2/5,1/2]")


def horner_enclosures(el, cap):
    """Enclosures of a Q(alpha) element by Fraction interval Horner over
    alpha enclosed at widths 1/16, 1/16^2, ..., at most ``cap`` of them:
    the sign and enclosure route QAlphaElement had before the integer
    filter."""
    a = el.ctx.alpha
    alpha = AlgebraicReal(a.coeffs, *a.interval())  # refined on its own
    width = F(1, 16)
    for _ in range(cap):
        alo, ahi = alpha.refine(width)
        lo = hi = F(0)
        for c in reversed(el.coeffs):
            p = (lo * alo, lo * ahi, hi * alo, hi * ahi)
            lo, hi = min(p) + c, max(p) + c
        yield lo, hi
        width /= 16


def reference_sign(el):
    if is_zero(el):
        return 0
    if el.ctx.degree == 1:
        return 1 if el.coeffs[0] > 0 else -1
    for lo, hi in horner_enclosures(el, 256):
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise X.UndecidedComparison("reference sign not certified")


def reference_enclosure(el, width):
    if el.ctx.degree == 1:
        return (el.coeffs[0], el.coeffs[0])
    for lo, hi in horner_enclosures(el, 100_000):
        if hi - lo <= width:
            return (lo, hi)


# The Fraction field arithmetic QAlphaContext had before its elements became
# integer states: coefficient vectors over 1, alpha, ..., alpha^(d-1).

def reference_reduce(ctx, coeffs):
    """sum coeffs[i] alpha^i as a vector, by a table of alpha^d, alpha^(d+1),
    ... reduced modulo alpha's monic polynomial."""
    coeffs = [F(c) for c in coeffs]
    if ctx.degree == 1:
        return (frac_eval(coeffs, ctx.alpha),)
    d = ctx.degree
    lead = ctx.alpha.coeffs[-1]
    red = [[F(-c, lead) for c in ctx.alpha.coeffs[:-1]]]  # alpha^d
    while len(red) < len(coeffs) - d:
        prev = red[-1]  # alpha times prev, its alpha^d term reduced
        red.append([x + prev[-1] * y
                    for x, y in zip([F(0)] + prev[:-1], red[0])])
    out = coeffs[:d] + [F(0)] * (d - len(coeffs))
    for j in range(d, len(coeffs)):
        for i in range(d):
            out[i] += coeffs[j] * red[j - d][i]
    return tuple(out)


def reference_mul(ctx, a, b):
    prod = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return reference_reduce(ctx, prod)


def reference_inverse(ctx, a):
    """Extended Euclid over the rationals: u a + v p = gcd(a, p), constant
    exactly when a is no zero divisor modulo alpha's polynomial p."""
    if not any(a):
        raise ZeroDivisionError("division by zero in Q(alpha)")
    if ctx.degree == 1:
        return (1 / a[0],)
    f, g = X.poly_trim(list(a)), [F(c) for c in ctx.alpha.coeffs]
    s0, s1 = [F(1)], []
    while X.poly_trim(g):
        q, r = frac_divmod(f, g)
        f, g = g, r
        qs = X.poly_mul(q, s1)
        n = max(len(s0), len(qs))
        s0, s1 = s1, X.poly_trim([x - y for x, y in
                                  zip(s0 + [0] * (n - len(s0)),
                                      qs + [0] * (n - len(qs)))])
    if len(f) != 1:
        raise X.UnsupportedBase("defining polynomial is not irreducible")
    return reference_reduce(ctx, [x / f[0] for x in s0])


class TestIntegerBisection:
    def test_matches_fraction_loop(self):
        rng = random.Random(41)
        cases = [(parse_real(b).coeffs, *parse_real(b).interval())
                 for b in KERNEL_BASES + HIGH_DEGREE_BASES]
        cases.append(((-1, 2), F(0), F(1)))          # 1/2 is a midpoint
        cases.append(((-1, 0, 0, 3), F(1, 7), F(5, 6)))
        for coeffs, lo, hi in cases:
            x = AlgebraicReal(coeffs, lo, hi)
            for _ in range(12):
                width = F(1, rng.randrange(1, 2**rng.randrange(1, 90)))
                want = fraction_refine(x.coeffs, *x.interval(), width)
                value = partial(X._scaled_value, x.coeffs)
                assert X._bisect(value, *x.interval(), width) == want
                assert x.refine(width) == want
        assert AlgebraicReal((-1, 2), F(0), F(1)).refine(F(1, 4)) == \
            (F(1, 2), F(1, 2))

    def test_cap_raises_before_any_sign(self):
        def value(N, M):
            raise AssertionError("a sign was taken")
        width = F(1, 2**100_001)
        with pytest.raises(X.IterationLimit):
            X._bisect(value, F(0), F(1), width)
        with pytest.raises(X.IterationLimit):
            X._bisect(value, F(0), F(1), width, poly=(-1, 2))

    def test_cap_raises_before_any_series_sign(self, monkeypatch):
        def series_sign_at(a):
            raise AssertionError("a series sign was taken")
        X.forget()
        T.alpha_kl_enclosure(F(1))  # [1/3, 1/2], its end signs checked
        monkeypatch.setattr(T, "series_sign_at", series_sign_at)
        with pytest.raises(X.IterationLimit):
            T.alpha_kl_enclosure(F(1, 2**100_004))  # s = 100 002


NEWTON_WIDTHS = (F(1, 10**12), F(1, 10**20), F(1, 2**68), F(1, 2**80))


def plain_halving(coeffs, lo, hi, width):
    """``_bisect`` with no Newton estimate: the bracket the estimate must
    reach."""
    return X._bisect(partial(X._scaled_value, coeffs), lo, hi, width)


def newton_bracket(coeffs, lo, hi, width, calls=None):
    """``_bisect`` on the Newton route, counting its signs in ``calls``."""
    calls = [] if calls is None else calls

    def value(N, M):
        calls.append((N, M))
        return X._scaled_value(coeffs, N, M)
    return X._bisect(value, lo, hi, width, poly=coeffs)


def random_count_matrix(rng, n):
    """Successor lists of a random n-row count matrix with the intersection
    graph's weights 1 and 2, every row with an edge."""
    return [sorted({rng.randrange(n): rng.choice((1, 2))
                    for _ in range(rng.randrange(1, 4))}.items())
            for _ in range(n)]


def perron_root(succ):
    """The isolated largest root of the characteristic polynomial, as
    ``CountMatrix.perron`` isolates it."""
    cp = char_poly(succ)
    k = next(i for i, c in enumerate(cp) if c)
    hi = F(max(sum(a for _, a in out) for out in succ) + 1)
    return X.isolate_largest_root(cp[k:], F(0), hi)


class TestNewtonCell:
    """The Newton route of ``_bisect`` against its plain halving."""

    def assert_same(self, x, widths):
        """The same bracket, from the two signs at the named cell's ends."""
        for width in widths:
            want = plain_halving(x.coeffs, *x.interval(), width)
            calls = []
            assert newton_bracket(x.coeffs, *x.interval(), width,
                                  calls) == want
            assert len(calls) <= 2
            assert copy(x).refine(width) == want

    def test_kernel_bases(self):
        for b in KERNEL_BASES + HIGH_DEGREE_BASES:
            self.assert_same(parse_real(b), NEWTON_WIDTHS + (F(1, 2**2052),))

    def test_seeded_polynomials_to_degree_24(self):
        rng = random.Random(31)
        done = 0
        while done < 60:
            n = rng.randrange(1, 25)
            coeffs = [rng.randrange(-20, 21) for _ in range(n)] + \
                [rng.randrange(1, 20)]
            bound = F(sum(map(abs, coeffs)), coeffs[-1]) + 1
            try:
                x = X.isolate_largest_root(coeffs, -bound, bound)
            except X.NonIsolatingInterval:
                continue  # no real root
            self.assert_same(x, NEWTON_WIDTHS)
            if done % 10 == 0 and x.degree <= 8:  # halving to 2^-2052 is
                self.assert_same(x, (F(1, 2**2052),))  # slow at degree 24
            done += 1

    def test_pool_sized_count_matrices(self):
        rng = random.Random(32)
        for n in list(range(1, 25)) * 2:
            self.assert_same(perron_root(random_count_matrix(rng, n)),
                             NEWTON_WIDTHS)

    def test_integer_perron_roots_collapse(self):
        # all ones has lambda = 2, a row of weight 3 into it lifts hi to 4
        for succ, g in (([[(0, 1), (1, 1)], [(0, 1), (1, 1)], [(0, 3)]], 2),
                        ([[(0, 2), (1, 1)], [(0, 2), (1, 1)]], 3)):
            x = perron_root(succ)
            assert x.interval() == (F(0), F(4))
            for width in NEWTON_WIDTHS + (F(1, 2**2052),):
                calls = []
                want = plain_halving(x.coeffs, F(0), F(4), width)
                assert want == (g, g)
                assert newton_bracket(x.coeffs, F(0), F(4), width,
                                      calls) == want
                assert len(calls) <= 2  # the cell's ends, no halving

    def test_first_and_last_cells(self):
        for width in NEWTON_WIDTHS + (F(1, 2**2052),):
            s = (1 / width).__ceil__().bit_length()  # 2^-s <= width
            for root in (F(1, 3 << s), 1 - F(1, 3 << s), F(1, 5 << s)):
                x = AlgebraicReal((-root.numerator, root.denominator),
                                  F(0), F(1))
                want = plain_halving(x.coeffs, F(0), F(1), width)
                assert want[0] == 0 or want[1] == 1
                assert newton_bracket(x.coeffs, F(0), F(1), width) == want

    def test_fixed_point_tables_match_halving(self):
        for b in KERNEL_BASES + HIGH_DEGREE_BASES:
            alpha = parse_real(b)
            ctx = QAlphaContext(alpha)
            for K in (64, 128, 256, 512, 1024, 2048):
                one, width = 1 << K, F(1, 1 << (K + 4))
                while True:  # _fixed_point's loop on plain halving
                    lo, hi = plain_halving(alpha.coeffs, *alpha.interval(),
                                           width)
                    pows = [(lo**i, hi**i) for i in range(1, ctx.degree)]
                    if all(abs(h - l) * one <= 1 for l, h in pows):
                        break
                    width /= 16
                want = (one, *(round((l + h) * one / 2) for l, h in pows))
                assert ctx._fixed_point(K) == want

    def test_narrow_brackets_on_the_widest_grid(self):
        # the K = 2048 table's width 2^-2052 asked of a bracket 2^-1028
        # wide: the integer steps start at its midpoint, and the cell is
        # the halving's
        for b in KERNEL_BASES + HIGH_DEGREE_BASES:
            x = parse_real(b)
            x.refine(F(1, 2**1028))
            self.assert_same(x, (F(1, 2**2052),))

    def test_coefficients_past_float_range(self):
        # a coefficient, or the bracket's ends, past the largest float
        # (about 1.8e308): the integer steps never leave the ints, and the
        # cell is the halving's
        big = 10**309
        for coeffs, lo, hi in (((-(2 * big + 1), 0, big), F(1), F(2)),
                               ((-2 * big**2, 0, 1), F(big), F(2 * big))):
            x = AlgebraicReal(coeffs, lo, hi)
            self.assert_same(x, NEWTON_WIDTHS)

    def test_zero_derivative_at_the_midpoint(self):
        # x^3 - 3x - 1 has p' = 0 at the midpoint 1 of [0, 2]: the first
        # integer step halves the bracket there and the steps go on
        x = AlgebraicReal((-1, -3, 0, 1), F(0), F(2))
        assert X._scaled_value(X.poly_derivative(x.coeffs), 1, 1) == 0
        self.assert_same(x, NEWTON_WIDTHS)

    def test_fallbacks_give_the_halving_bracket(self, monkeypatch):
        # (3x - 1)^3: Newton gains only a third of the distance to a triple
        # root a step, so 64 steps leave the estimate short of 2^-84, its
        # check fails and the halvings run
        x = AlgebraicReal((-1, 9, -27, 27), F(0), F(1))
        width = F(1, 2**68)
        calls = []
        want = plain_halving(x.coeffs, F(0), F(1), width)
        assert newton_bracket(x.coeffs, F(0), F(1), width, calls) == want
        assert len(calls) == 2 + 1 + 68  # the check, the sign at lo, 68
        # halvings; an estimate a cell or two off fails its check too, and
        # one outside [lo, hi] is not checked
        x = parse_real(KERNEL_BASES[0])
        lo, hi = x.interval()
        newton = X._newton
        for estimate, checked in (
                (lambda c, a, b, M: newton(c, a, b, M)
                 + (M * width).__ceil__(), 2),
                (lambda c, a, b, M: -M, 0)):
            monkeypatch.setattr(X, "_newton", estimate)
            calls = []
            want = plain_halving(x.coeffs, lo, hi, width)
            assert newton_bracket(x.coeffs, lo, hi, width, calls) == want
            s = len(calls) - checked - 1  # then the sign at lo, s halvings
            assert (hi - lo) / 2**s <= width < (hi - lo) / 2**(s - 1)


# The Fraction loops that the integer Sturm evaluation and the integer
# series sum replaced, and the integer Sturm chain that the Descartes search
# replaced.

def reference_chain(coeffs):
    """The Sturm chain of p, built in Fractions with no rescaling of its
    members."""
    chain = [X.poly_trim([F(c) for c in coeffs])]
    d = X.poly_trim(X.poly_derivative(chain[0]))
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            _, rem = frac_divmod(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


def reference_sign_variations(coeffs, x):
    """Sign variations at x of reference_chain(p), evaluated in Fractions."""
    signs = []
    for p in reference_chain(coeffs):
        v = frac_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def reference_isolate(coeffs, lo, hi):
    """isolate_largest_root's bisection on reference_sign_variations: the
    squarefree polynomial and the isolating interval."""
    def count(a, b):
        return (reference_sign_variations(coeffs, a)
                - reference_sign_variations(coeffs, b))

    if frac_eval(coeffs, lo) == 0 or frac_eval(coeffs, hi) == 0:
        raise X.NonIsolatingInterval("endpoint is a root")
    total = count(lo, hi)
    if total == 0:
        raise X.NonIsolatingInterval("no root")
    while total > 1:
        k = 2  # the first of (lo + (k - 1) hi) / k that is no root
        while frac_eval(coeffs, (lo + (k - 1) * hi) / k) == 0:
            k += 1
        mid = (lo + (k - 1) * hi) / k
        upper = count(mid, hi)
        if upper >= 1:
            lo, total = mid, upper
        else:
            hi = mid
            total = count(lo, hi)
    p = [F(c) for c in coeffs]
    g = X.poly_trim(p)
    dp = X.poly_trim(X.poly_derivative(g))
    while dp:  # gcd(p, p') by Euclid
        g, dp = dp, frac_divmod(g, dp)[1]
    return X.poly_normalize(frac_divmod(p, g)[0]), (lo, hi)


def reference_sturm_chain(coeffs):
    """p, p', then the negated pseudo-remainders of Euclid's algorithm on
    them, each a primitive int polynomial: the signs of the classical Sturm
    sequence, with gcd(p, p') last, up to a positive factor."""
    chain = [X._primitive(coeffs)]
    d = X._primitive(X.poly_derivative(chain[0]))
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            _, rem = X.poly_pseudo_divmod(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(X._primitive([-c for c in rem]))
    return chain


def reference_sturm_variations(chain, N, M):
    """Sign variations of the chain at N/M, M > 0."""
    signs = [v > 0 for v in (X._scaled_value(p, N, M) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def reference_sturm_count(coeffs, lo, hi):
    """The number of distinct real roots in (lo, hi], by Sturm's theorem."""
    if hi <= lo:
        return 0
    chain = reference_sturm_chain(coeffs)
    return (reference_sturm_variations(chain, lo.numerator, lo.denominator)
            - reference_sturm_variations(chain, hi.numerator,
                                         hi.denominator))


def reference_sturm_isolate(coeffs, lo, hi):
    """isolate_largest_root as one integer Sturm chain isolated it: split
    at the first of (a + b)/2, (a + 2 b)/3, ... that is no root, keep the
    upper piece while it holds a root, stop at one root; the chain's last
    member divides out of p for the squarefree part."""
    chain = reference_sturm_chain(coeffs)
    p = chain[0]
    if X._value_at(p, lo) == 0 or X._value_at(p, hi) == 0:
        raise X.NonIsolatingInterval("endpoint is a root")
    M = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (M // lo.denominator), \
        hi.numerator * (M // hi.denominator)
    va = reference_sturm_variations(chain, a, M)
    vb = reference_sturm_variations(chain, b, M)
    total = va - vb if lo < hi else 0
    if total == 0:
        raise X.NonIsolatingInterval("no root")
    while total > 1:
        k = 2
        while X._scaled_value(p, a + (k - 1) * b, k * M) == 0:
            k += 1
        m = a + (k - 1) * b
        a, b, M = k * a, k * b, k * M
        vm = reference_sturm_variations(chain, m, M)
        if vm > vb:
            a, va, total = m, vm, vm - vb
        else:
            b, vb, total = m, vm, va - vm
    squarefree = X.poly_normalize(X.poly_pseudo_divmod(p, chain[-1])[0])
    return squarefree, (F(a, M), F(b, M))


def assert_same_root(got, coeffs, lo, hi):
    """The Descartes root ``got`` against the Sturm chain's on (lo, hi]:
    the same squarefree polynomial and root count, a piece inside the
    chain's interval, and the identical 10^-20 cell."""
    want, (slo, shi) = reference_sturm_isolate(coeffs, lo, hi)
    assert got.coeffs == want
    assert X.root_count(coeffs, lo, hi) == reference_sturm_count(coeffs,
                                                                 lo, hi)
    assert slo <= got.interval()[0] < got.interval()[1] <= shi
    width = F(1, 10**20)
    assert got.refine(width) == AlgebraicReal(want, slo, shi).refine(width)


def reference_series(digits, ratio, low, high):
    """The enclosure of ``sum d_i * ratio^i``, i >= 1, at a width, as the
    number kind ``SeriesReal`` summed it in Fractions: the terms only grow,
    so a width asked after a smaller one gets the deeper sum."""
    n, partial_sum, power = 0, F(0), F(1)

    def enclose(width):
        nonlocal n, partial_sum, power
        while True:
            geo = power * ratio / (1 - ratio)
            t_lo, t_hi = low * geo, high * geo
            if high == low or t_hi - t_lo <= width:
                return (partial_sum + t_lo, partial_sum + t_hi)
            n += 1
            power *= ratio
            partial_sum += digits(n) * power

    return enclose


def reference_series_enclosure(digits, ratio, low, high, widths):
    """The enclosures that one series returns for ``widths`` asked in
    turn."""
    enclose = reference_series(digits, ratio, low, high)
    return [enclose(width) for width in widths]


class SeriesReal(X.EnclosedReal):
    """The digit series ``sum d_i * ratio^i``, i >= 1, as an
    ``EnclosedReal`` enclosed by ``reference_series``; described as
    ``series`` when no description is given, as that number kind was."""

    __slots__ = ()

    def __init__(self, digits, ratio, low, high, description=""):
        super().__init__(reference_series(digits, F(ratio), low, high),
                         description or "series")


def poly_from_roots(roots, quadratics=()):
    """Integer coefficients of prod (b x - a) over roots a/b, times the
    given integer quadratics."""
    p = [F(1)]
    for r in roots:
        p = X.poly_mul(p, [-F(r).numerator, F(r).denominator])
    for q in quadratics:
        p = X.poly_mul(p, q)
    return [int(c) for c in p]


# (x - 1)^2 (x - 3) (x^2 - 2): on (0, 6] the first midpoint 3 is a root,
# which forces the nudge to (lo + 2 hi) / 3
NUDGED = poly_from_roots([1, 1, 3], [[-2, 0, 1]])
# (x - 1) (x - 3) (x - 4) (x^2 - 2): on (0, 6] both 3 and 4 are roots, so
# the split goes on to (lo + 3 hi) / 4
NUDGED_TWICE = poly_from_roots([1, 3, 4], [[-2, 0, 1]])


class TestIntegerSturm:
    def seeded_polys(self):
        rng = random.Random(53)
        polys = [NUDGED, NUDGED_TWICE, poly_from_roots([2, 2, 2, -1, -1]),
                 poly_from_roots([F(1, 2), F(1, 2), 3], [[1, 0, 1]])]
        for _ in range(30):
            roots = [F(rng.randrange(-12, 13), rng.randrange(1, 4))
                     for _ in range(rng.randrange(1, 5))]
            roots += rng.sample(roots, rng.randrange(0, len(roots) + 1))
            quads = [[rng.randrange(-5, 6), rng.randrange(-3, 4), 1]
                     for _ in range(rng.randrange(0, 2))]
            polys.append([rng.choice((-3, -1, 2)) * c
                          for c in poly_from_roots(roots, quads)])
        return rng, polys

    def test_sign_variations_and_counts_match_fraction_chain(self):
        # the integer chain against the Fraction chain, and the Descartes
        # count against both where lo is no root
        rng, polys = self.seeded_polys()
        for p in polys:
            chain = reference_sturm_chain(p)
            assert all(isinstance(c, int) for q in chain for c in q)
            points = [F(rng.randrange(-60, 61), rng.randrange(1, 9))
                      for _ in range(12)] + [F(1), F(3), F(1, 2)]
            for x in points:
                assert reference_sturm_variations(chain, x.numerator,
                                                  x.denominator) == \
                    reference_sign_variations(p, x)
            for a, b in zip(points, points[1:]):
                lo, hi = min(a, b), max(a, b)
                want = (reference_sign_variations(p, lo)
                        - reference_sign_variations(p, hi)) if lo < hi else 0
                assert reference_sturm_count(p, lo, hi) == want
                if frac_eval(p, lo) != 0:  # else lo may be a multiple root
                    assert X.root_count(p, lo, hi) == want

    def test_isolation_matches_fraction_bisection(self):
        rng, polys = self.seeded_polys()
        cases = [(NUDGED, F(0), F(6)), (NUDGED, F(0), F(10)),
                 (NUDGED_TWICE, F(0), F(6))]
        for p in polys:
            for _ in range(4):
                lo = F(rng.randrange(-80, 0), rng.randrange(1, 7))
                hi = F(rng.randrange(1, 80), rng.randrange(1, 7))
                cases.append((p, lo, hi))
        isolated = 0
        for p, lo, hi in cases:
            try:
                want = reference_isolate(p, lo, hi)
            except X.NonIsolatingInterval:
                for isolate in (reference_sturm_isolate,
                                X.isolate_largest_root):
                    with pytest.raises(X.NonIsolatingInterval):
                        isolate(p, lo, hi)
                continue
            assert reference_sturm_isolate(p, lo, hi) == want
            assert_same_root(X.isolate_largest_root(p, lo, hi), p, lo, hi)
            isolated += 1
        assert isolated >= 100
        # the nudged split: 3 is a root, so (0 + 2 * 6) / 3 = 4 splits
        assert X.isolate_largest_root(NUDGED, F(0), F(6)).interval() == \
            (F(2), F(4))
        # 3 and 4 are roots, so (0 + 3 * 6) / 4 = 9/2 splits first
        assert X.isolate_largest_root(NUDGED_TWICE, F(0), F(6)) \
            .interval() == (F(27, 8), F(9, 2))


def sparse_polys(rng, count):
    """Seeded int polynomials of degree 3 to 8 with about half their
    coefficients 0, so that remainders drop by several degrees."""
    polys = []
    for _ in range(count):
        p = [rng.choice((0, 0, 0, rng.randrange(-9, 10)))
             for _ in range(rng.randrange(3, 9))]
        polys.append(p + [rng.choice((-4, -3, -2, -1, 1, 2, 3, 5))])
    return polys


class TestPseudoDivision:
    def test_pseudo_divmod_scales_fraction_divmod(self):
        # (q, r) = c (q0, r0), with (q0, r0) the rational division and
        # c = |lead b|^k > 0
        rng = random.Random(61)
        for _ in range(300):
            a = [rng.randrange(-20, 21) for _ in range(rng.randrange(0, 9))]
            b = [rng.randrange(-20, 21) for _ in range(rng.randrange(0, 5))]
            b.append(rng.choice((-6, -1, 1, 4, 7)))
            q, r = X.poly_pseudo_divmod(a, b)
            q0, r0 = frac_divmod(a, b)
            assert len(r) < len(b)
            assert all(isinstance(c, int) for c in q + r)
            c = F((q or r or [1])[-1]) / (q0 or r0 or [1])[-1]
            assert c in {abs(b[-1]) ** k for k in range(len(a) + 1)}
            assert q == [c * x for x in q0] and r == [c * x for x in r0]

    def test_poly_gcd(self):
        # gcd(f a, f b) divides both and f divides it; gcd(p, p') is the
        # Sturm chain's last member up to sign; gcd([], q) is q primitive
        rng = random.Random(62)
        for _ in range(200):
            f, a, b = ([rng.randrange(-9, 10) for _ in range(rng.randrange(
                1, 5))] + [rng.choice((-3, 1, 2))] for _ in range(3))
            g = X.poly_gcd(X.poly_mul(f, a), X.poly_mul(f, b))
            for p in (X.poly_mul(f, a), X.poly_mul(f, b)):
                assert X.poly_pseudo_divmod(p, g)[1] == []
            assert X.poly_pseudo_divmod(g, f)[1] == []
        for p in self.chain_polys():
            g = X.poly_gcd(p, X.poly_derivative(p))
            assert X.poly_normalize(g) == \
                X.poly_normalize(reference_sturm_chain(p)[-1])
        assert X.poly_gcd([], [2, 4]) == [1, 2]

    def test_pseudo_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            X.poly_pseudo_divmod([1, 2], [0, 0])

    def chain_polys(self):
        """The Sturm tests' polynomials, sparse ones, and squares of
        non-monic factors times a cofactor, so that g = gcd(p, p') has a
        leading term other than 1."""
        rng, polys = TestIntegerSturm().seeded_polys()
        polys += sparse_polys(rng, 60)
        for _ in range(20):
            f = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 3))]
            f.append(rng.choice((-3, -2, 2, 3, 5)))
            h = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 4))]
            polys.append(X.poly_mul(X.poly_mul(f, f), h + [1]))
        return polys

    def test_chain_is_primitive_fraction_chain(self):
        # the Fraction chain's members scaled to primitive ints, member for
        # member, on chains whose divisors have negative leading terms
        # and remainders that drop one, two and more degrees
        drops, odd_negative = set(), 0
        for p in self.chain_polys():
            chain = reference_sturm_chain(p)
            assert chain == [X._primitive(m) for m in reference_chain(p)]
            drops.update(len(a) - len(b) for a, b in zip(chain[1:],
                                                          chain[2:]))
            # a divisor with a negative leading term, k odd steps: a
            # signed factor lead^k would flip the remainder
            odd_negative += sum(b[-1] < 0 and (len(a) - len(b)) % 2 == 0
                                for a, b in zip(chain, chain[1:]))
        assert {1, 2, 3} <= drops
        assert odd_negative >= 5

    def test_squarefree_part_is_fraction_quotient(self):
        # p over the Fraction chain's last member, gcd(p, p'); where the
        # gcd modulo 2^61 - 1 proves p squarefree, p itself
        repeated = scaled = 0
        for p in self.chain_polys():
            g = reference_chain(p)[-1]
            want = X.poly_normalize(frac_divmod(p, g)[0])
            assert X._squarefree(p) == want
            proven = X._coprime_mod(p, X.poly_derivative(p),
                                    X._SQUAREFREE_PRIME)
            assert proven == (len(g) == 1)
            repeated += len(g) > 1
            scaled += len(g) > 1 and abs(g[-1]) != 1 and len(want) > 2
        assert repeated >= 40 and scaled >= 10

    def test_squarefree_fallbacks(self):
        # the modular proof fails on a squarefree p whose roots meet
        # modulo P = 2^61 - 1, and where P divides p's lead; poly_gcd
        # then finds p squarefree all the same
        P = X._SQUAREFREE_PRIME
        meet = poly_from_roots([3, 3 + P])
        assert not X._coprime_mod(meet, X.poly_derivative(meet), P)
        assert X._squarefree(meet) == tuple(meet)
        lead = [-2, 0, P]
        assert X._squarefree(lead) == tuple(lead)
        assert X._squarefree(X.poly_mul(lead, lead)) == tuple(lead)
        assert X._squarefree([-5]) == (1,)
        root = X.isolate_largest_root(meet, F(0), F(P + 4))
        assert root.coeffs == tuple(meet)
        lo, hi = root.refine(F(1, 10**3))
        assert lo <= 3 + P <= hi and hi - lo <= F(1, 10**3)


def isolation_cases():
    """The Sturm tests' polynomials, repeated roots among them, on seeded
    intervals, and the nudged split."""
    rng, polys = TestIntegerSturm().seeded_polys()
    cases = [(NUDGED, F(0), F(6)), (NUDGED, F(0), F(10)),
             (NUDGED, F(1, 3), F(7, 3)), (NUDGED_TWICE, F(0), F(6))]
    for p in polys + sparse_polys(rng, 30):
        for _ in range(4):
            cases.append((p, F(rng.randrange(-80, 0), rng.randrange(1, 7)),
                          F(rng.randrange(1, 80), rng.randrange(1, 7))))
    return cases


class TestOneChainIsolation:
    """isolate_largest_root bisects on ints and takes one squarefree
    part."""

    def test_matches_fraction_bisection(self):
        # the Fraction chain's bisection, an interval that holds the
        # Descartes piece, and the same cell at 10^-20
        isolated = repeated = narrower = 0
        for p, lo, hi in isolation_cases():
            try:
                want, (slo, shi) = reference_isolate(p, lo, hi)
            except X.NonIsolatingInterval:
                with pytest.raises(X.NonIsolatingInterval):
                    X.isolate_largest_root(p, lo, hi)
                continue
            got = X.isolate_largest_root(p, lo, hi)
            assert got.coeffs == want
            assert all(type(e) is F for e in got.interval())
            assert slo <= got.interval()[0] < got.interval()[1] <= shi
            narrower += got.interval() != (slo, shi)
            width = F(1, 10**20)
            assert got.refine(width) == \
                AlgebraicReal(want, slo, shi).refine(width)
            isolated += 1
            repeated += len(reference_chain(p)[-1]) > 1
        assert isolated >= 150 and repeated >= 50 and narrower >= 20

    def test_equals_public_constructor(self):
        for p, lo, hi in isolation_cases():
            try:
                got = X.isolate_largest_root(p, lo, hi)
            except X.NonIsolatingInterval:
                continue
            want = AlgebraicReal(X._squarefree(p), *got.interval())
            assert (got.coeffs, got.interval()) == \
                (want.coeffs, want.interval())
            assert got.refine(F(1, 10**30)) == want.refine(F(1, 10**30))

    def test_one_squarefree_step_per_root(self, monkeypatch):
        # one squarefree part per root; poly_gcd only where p has a
        # repeated root, as NUDGED has, and the modular proof fails
        calls, gcds = [], []
        squarefree, poly_gcd = X._squarefree, X.poly_gcd
        monkeypatch.setattr(X, "_squarefree",
                            lambda p: calls.append(p) or squarefree(p))
        monkeypatch.setattr(X, "poly_gcd",
                            lambda a, b: gcds.append(a) or poly_gcd(a, b))
        X.isolate_largest_root(NUDGED, F(0), F(6))
        assert calls == [NUDGED] and len(gcds) == 1
        X.isolate_largest_root(SQRT2_MINUS_1, F(0), F(1))
        assert calls[1:] == [SQRT2_MINUS_1] and len(gcds) == 1

    def test_squarefree_part_changes_sign_over_the_piece(self):
        # one sign variation leaves one simple root in the piece, so the
        # squarefree part changes sign over it with no check of its own
        for p, lo, hi in isolation_cases():
            try:
                got = X.isolate_largest_root(p, lo, hi)
            except X.NonIsolatingInterval:
                continue
            a, b = got.interval()
            assert X._value_at(got.coeffs, a) * \
                X._value_at(got.coeffs, b) < 0
            assert X.root_count(got.coeffs, a, b) == 1

    def test_root_on_a_split_point(self):
        # 1 is the one real root of (x - 1)(100 x^2 - 200 x + 101) in
        # (0, 2), and its midpoint.  The Sturm count stops at (0, 2), but
        # the pair 1 +- i/10 leaves 3 variations, so the search splits on,
        # at 4/3 for the root at 1, and again; 1 stays a dyadic point of
        # each piece, so both cells collapse onto it
        p = X.poly_mul([-1, 1], [101, -200, 100])
        assert reference_sturm_isolate(p, F(0), F(2))[1] == (F(0), F(2))
        assert X._variations(p, 0, 2, 1) == 3
        got = X.isolate_largest_root(p, F(0), F(2))
        assert got.interval() == (F(8, 9), F(28, 27))
        assert_same_root(got, p, F(0), F(2))
        assert got.interval() == (F(1), F(1))
        # NUDGED_TWICE on (0, 8): its largest root 4 is the first midpoint,
        # and 3 and 4 are split points on the way down
        got = X.isolate_largest_root(NUDGED_TWICE, F(0), F(8))
        assert got.interval() == (F(32, 9), F(40, 9))
        assert_same_root(got, NUDGED_TWICE, F(0), F(8))
        assert X.root_count(NUDGED_TWICE, F(0), F(8)) == 4
        assert X.root_count(NUDGED_TWICE, F(3), F(4)) == 2


class TestIntegerSeries:
    @pytest.mark.parametrize("ratio", [F(2, 5), F(3, 8), F(7, 20)])
    def test_enclosures_match_fraction_sum(self, ratio):
        rng = random.Random(str(ratio))
        table = [rng.randrange(-1, 3) for _ in range(2000)]

        def digits(i):
            return table[i % len(table)]

        widths = [F(1, 10**k) for k in (3, 40, 7, 120, 120, 2, 300, 60)]
        widths += [F(rng.randrange(1, 100), 2**rng.randrange(1, 900))
                   for _ in range(12)]
        series = SeriesReal(digits, ratio, -1, 2)
        got = [X.enclosure(series, w) for w in widths]
        assert got == reference_series_enclosure(digits, ratio, -1, 2,
                                                  widths)
        # the digits have period 2000, so the value is one ratio of ints
        p, q, n = ratio.numerator, ratio.denominator, len(table)
        value = F(sum(digits(i) * p**i * q**(n - i) for i in range(1, n + 1)),
                  q**n - p**n)
        for (lo, hi), w in zip(got, widths):
            assert hi - lo <= w
            assert lo <= value <= hi

    def test_constant_series_matches_fraction_sum(self):
        third = SeriesReal(lambda i: 3, F(1, 10), 3, 3, "1/3")
        widths = [F(1, 1000), F(1, 10**30), F(1, 2)]
        got = [third.enclosure(w) for w in widths]
        assert got == reference_series_enclosure(lambda i: 3, F(1, 10), 3,
                                                 3, widths)
        assert got[0] == (F(1, 3), F(1, 3))

    def test_series_is_an_enclosed_real_with_its_strings(self):
        # x of the Liouville witness: 1 on each 1 of its control sequence
        liouville = liouville_witness(F(7, 20), 2).t_seq
        reals = [SeriesReal(lambda i: 3, F(1, 10), 3, 3, "1/3"),
                 SeriesReal(lambda i: 1 + T.lam(i), F(2, 5), 0, 2),
                 SeriesReal(lambda i: int(liouville.digit(i) == 1), F(7, 20),
                            0, 1, "liouville-x(7/20)"),
                 T.alpha_kl_real()]
        assert all(isinstance(x, X.EnclosedReal) for x in reals)
        # the strings the two classes printed before SeriesReal inherited
        assert [(repr(x), midpoint(x), X.format_real(x), X.decimal_string(x))
                for x in reals] == [
            ("SeriesReal<1/3>", 0.3333333333333333, "1/3", "0.333333333333"),
            ("SeriesReal<series>", 1.019434003619609, "series",
             "1.01943400362"),
            ("SeriesReal<liouville-x(7/20)>", 0.3671011349997286,
             "liouville-x(7/20)", "0.367101135"),
            ("EnclosedReal<alpha_KL>", 0.3943298447022809, "alpha_KL",
             "0.394329844702")]


class TestStateArithmetic:
    @pytest.mark.parametrize("text", KERNEL_BASES + ("rat:2/5", "rat:3/7"))
    def test_arithmetic_matches_qalpha(self, text):
        ctx = QAlphaContext(parse_real(text))
        k = ctx
        inv = ctx.one / ctx.alpha_element
        rng = random.Random(text)

        def rand_el():
            return ctx.element([F(rng.randrange(-50, 51), rng.randrange(1, 13))
                                for _ in range(ctx.degree)])

        # the step s -> s/alpha - d, every child kept
        wide = k.children(k.state(-10**9), k.state(10**9), range(-2, 3))
        for _ in range(40):
            x, y = rand_el(), rand_el()
            s, r = k.state(x), k.state(y)
            assert QAlphaElement(k, s) == x
            assert s[-1] > 0 and math.gcd(*s) == 1
            assert k.state(QAlphaElement(k, s)) == s
            assert wide(s) == [(k.state(x * inv - d), d) for d in range(-2, 3)]
            assert QAlphaElement(k, k.add(s, r)) == x + y
            assert k.sign(s) == reference_sign(x)
            assert k.sign(k.add(s, k.neg(r))) == reference_sign(x - y)
            lo, hi = (x, y) if reference_sign(x - y) <= 0 else (y, x)
            kids = k.children(k.state(lo), k.state(hi), range(-2, 3))(s)
            assert kids == [(k.state(x * inv - d), d) for d in range(-2, 3)
                            if reference_sign(x * inv - d - lo) >= 0
                            and reference_sign(hi - (x * inv - d)) >= 0]
        assert k.fallbacks == 0

    @pytest.mark.parametrize("text", ["akl", "alg:-1,2,1@[2/5,1/2]"])
    def test_state_of_a_number_outside_the_field_is_refused(self, text):
        with pytest.raises(ValueError, match="no state in Q"):
            QAlphaContext(F(2, 5)).state(parse_real(text))

    @pytest.mark.parametrize("coeffs,lo,hi", [
        (SQRT2_MINUS_1, F(1, 3), F(9, 20)),
        (ALPHA_CUBIC, F(43, 100), F(9, 20))])
    def test_state_of_alpha_itself(self, coeffs, lo, hi):
        # alpha on another isolating interval is still alpha; another root
        # of its polynomial is refused, with no claim that it lies outside
        ctx = QAlphaContext(AlgebraicReal(coeffs, F(2, 5), F(1, 2)))
        assert ctx.state(AlgebraicReal(coeffs, lo, hi)) == \
            ctx.alpha_element.state
        if coeffs == SQRT2_MINUS_1:
            with pytest.raises(ValueError, match="is not alpha") as err:
                ctx.state(AlgebraicReal(coeffs, -3, -2))
            assert "no state in Q" not in str(err.value)

    @pytest.mark.parametrize("text", KERNEL_BASES)
    def test_margin_is_strict(self, text):
        # the zero vector is an exact 0 with no fallback; a sum S equal to
        # its bound E is undecided at K = 64 and doubles K
        k = QAlphaContext(parse_real(text))
        n = k.degree
        assert k.sign((0,) * n + (1,)) == 0 and k.fallbacks == 0
        B = k._fixed_point(X.FILTER_BITS)
        one = 1 << X.FILTER_BITS
        # v_0 + 2^K alpha with v_0 = 1 - B_1: S = 2^K = E, value in (0, 2)
        v = (1 - B[1], one) + (0,) * (n - 2) + (1,)
        assert sum(a * b for a, b in zip(v, B)) == one
        assert 2 * X.FILTER_BITS not in k._B
        assert k.sign(v) == 1 and k.fallbacks == 1
        assert 2 * X.FILTER_BITS in k._B
        assert reference_sign(QAlphaElement(k, v)) == 1

    @pytest.mark.parametrize("text", KERNEL_BASES)
    def test_filter_near_zero_matches_exact_sign(self, text):
        # sums of size about 1 with coefficients about 2^K: the error
        # bound is as large as the value, so the 64-bit filter decides
        # some and doubles K on others, and every sign must be exact
        ctx = QAlphaContext(parse_real(text))
        k = ctx
        n = k.degree
        rng = random.Random(text)
        span = 1 << (X.FILTER_BITS + 2)
        decided = 0
        for _ in range(150):
            v = [0] + [rng.randrange(-span, span) for _ in range(n - 1)]
            lo, _ = reference_enclosure(QAlphaElement(k, (*v, 1)), F(1, 4))
            v[0] = -math.floor(lo) + rng.randrange(-2, 3)
            before = k.fallbacks
            assert k.sign((*v, 1)) == reference_sign(QAlphaElement(k, (*v, 1)))
            decided += k.fallbacks == before
        assert 0 < decided < 150


class TestIntegerField:
    """QAlphaContext.element, * and / on integer states against the Fraction
    reduction, product and extended Euclid they replaced."""

    @pytest.mark.parametrize("text", KERNEL_BASES + ("rat:2/5", "rat:3/7"))
    def test_matches_fraction_field(self, text):
        ctx = QAlphaContext(parse_real(text))
        n = ctx.degree
        rng = random.Random(text + "field")

        def rand_vec(length):  # some zero entries, so pivots must move
            return [F(rng.randrange(-30, 31), rng.randrange(1, 9))
                    if rng.random() < 0.7 else F(0) for _ in range(length)]

        for length in range(2 * n + 2):
            for _ in range(6):
                v = rand_vec(length)
                assert ctx.element(v).coeffs == reference_reduce(ctx, v)
        els = [ctx.alpha_element, ctx.one - ctx.alpha_element,
               ctx.embed(F(-3, 7))]
        els += [ctx.element(rand_vec(n)) for _ in range(30)]
        inv_alpha = reference_inverse(ctx, ctx.alpha_element.coeffs)
        wide = ctx.children(ctx.state(-10**12), ctx.state(10**12), (-1, 0, 2))
        for x in els:
            s = x.state
            assert s[-1] > 0 and math.gcd(*s) == 1
            assert ctx.state(x) is s
            kids = wide(s)
            assert [d for _, d in kids] == [-1, 0, 2]
            for child, d in kids:
                want = list(reference_mul(ctx, x.coeffs, inv_alpha))
                want[0] -= d
                assert QAlphaElement(ctx, child).coeffs == tuple(want)
            y = rng.choice(els)
            assert (x * y).coeffs == reference_mul(ctx, x.coeffs, y.coeffs)
            assert (x * 3).coeffs == tuple(3 * c for c in x.coeffs)
            if is_zero(x):
                continue
            want = reference_mul(ctx, y.coeffs,
                                 reference_inverse(ctx, x.coeffs))
            assert (y / x).coeffs == want
            assert (1 / x).coeffs == reference_inverse(ctx, x.coeffs)
        with pytest.raises(ZeroDivisionError):
            ctx.one / zero(ctx)

    def test_zero_divisor_raises(self):
        # the reducible base is refused where its field would be built, so
        # no zero divisor reaches the inverse; the Euclid reference, on the
        # ring itself, still finds alpha^2 + 2 alpha - 1 a zero divisor
        with pytest.raises(X.UnsupportedBase, match="irreducible"):
            QAlphaContext(parse_real(REDUCIBLE))
        ring = SimpleNamespace(degree=3, alpha=parse_real(REDUCIBLE))
        zero = [F(-1), F(2), F(1)]
        for el in (zero, [-x for x in zero], [5 * x for x in zero],
                   [F(-1), F(1), F(3), F(1)]):  # the last times alpha + 1
            with pytest.raises(X.UnsupportedBase):
                reference_inverse(ring, el)
        x = [F(-2, 5), F(1)]  # prime to the polynomial: invertible
        assert reference_mul(ring, x, reference_inverse(ring, x)) == \
            (1, 0, 0)


class TestFieldIdentity:
    """Which base a context stands for: a negative root, and two roots of
    one polynomial, which share the context key."""

    def test_negative_algebraic_base(self):
        # the powers of alpha behind the sign filter once waited for a
        # bracket with lo >= 0, which a negative alpha never reaches; a
        # fresh interpreter with a timeout keeps such a hang out of the suite
        code = ("from fractions import Fraction as F\n"
                "from cantorint.exactnum import QAlphaContext, enclosure, "
                "parse_real\n"
                "mid = lambda x: float(sum(enclosure(x, F(1, 10**17))) / 2)\n"
                "ctx = QAlphaContext(parse_real('alg:-1,2,1@[-3,-2]'))\n"
                "a = ctx.alpha_element\n"
                "print(a.sign(), (a + F(12, 5)).sign(), (a + F(5, 2)).sign(),"
                " mid(a), mid(1 / (1 - a)))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=path))
        assert out.returncode == 0, out.stderr
        *signs, alpha, inverse = out.stdout.split()
        assert signs == ["-1", "-1", "1"]  # -1 - sqrt(2) ~ -2.41421
        assert float(alpha) == pytest.approx(-1 - math.sqrt(2), abs=1e-15)
        assert float(inverse) == pytest.approx(1 / (2 + math.sqrt(2)),
                                               abs=1e-15)

    def test_roots_of_one_polynomial_do_not_mix(self):
        small = QAlphaContext(parse_real("alg:1,-3,1@[1/3,1/2]"))
        large = QAlphaContext(parse_real("alg:1,-3,1@[2,3]"))
        with pytest.raises(ValueError):
            small.one + large.alpha_element
        with pytest.raises(ValueError):
            small.alpha_element == large.alpha_element
        # 5x^2 - 5x + 1 has both its roots in (0, 1)
        low = BaseSystem(parse_real("alg:1,-5,5@[0,1/2]"), TERNARY)
        high = BaseSystem(parse_real("alg:1,-5,5@[1/2,1]"), TERNARY)
        with pytest.raises(ValueError):
            low.embed(high.ctx.alpha_element)

    def test_one_root_through_two_intervals_mixes(self):
        a = QAlphaContext(parse_real("alg:1,-3,1@[1/3,1/2]"))
        b = QAlphaContext(parse_real("alg:1,-3,1@[3/10,2/5]"))
        assert a.alpha_element == b.alpha_element
        x = a.one + b.alpha_element
        assert x.ctx is a and x.coeffs == (1, 1)
        assert midpoint(x) == pytest.approx((5 - math.sqrt(5)) / 2, abs=1e-15)
        sys_ = BaseSystem(a.alpha, TERNARY)
        assert sys_.embed(b.alpha_element) == sys_.ctx.alpha_element


def pool_bases() -> set:
    """Every base of the benchmark's reference pools but alpha_KL, which
    has no field."""
    ref = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                      / "reference.json").read_text())
    found, todo = set(), [ref]
    while todo:
        o = todo.pop()
        if isinstance(o, dict):
            found.add(o.get("base"))
            todo += o.values()
        elif isinstance(o, list):
            todo += o
    return {b for b in found if isinstance(b, str)} - {"akl"}


class TestFieldRegistry:
    """``field``, the one context per base and process, against a fresh
    ``QAlphaContext``: the same facts, shared where the base is the same,
    and a bounded registry."""

    @pytest.mark.parametrize("text", sorted(set(KERNEL_BASES) | pool_bases()
                                            | set(RANGE_BASES)))
    def test_interned_matches_fresh(self, text):
        ctx, fresh = X.field(parse_real(text)), QAlphaContext(parse_real(text))
        alpha = parse_real(text)
        # the range facts, cached once per field, vs compare afresh
        unit = compare(alpha, F(0)) is Comparison.GREATER and \
            compare(alpha, F(1)) is Comparison.LESS
        half = compare(alpha, F(1, 2)) is Comparison.GREATER
        assert ctx.in_unit_interval is fresh.in_unit_interval is \
            X.in_unit_interval(alpha) is unit
        assert ctx.above_half is fresh.above_half is X.above_half(alpha) is \
            half
        cell = X.enclosure(alpha, F(1, 10**20))
        log_lo, log_hi = X._log_interval(*cell)
        assert ctx.log_cell == fresh.log_cell == (cell, (-log_hi, -log_lo))
        xs = seeded_elements(fresh, random.Random(text + "field"), 20)
        assert [ctx.element(x.coeffs).state for x in xs] == \
            [x.state for x in xs]
        for x in xs:
            assert ctx.sign(x.state) == fresh.sign(x.state)
            for width in (F(1, 10**6), F(1, 2**100)):
                assert ctx.enclosure(x.state, width) == \
                    fresh.enclosure(x.state, width)
        for a, b in zip(xs, xs[1:]):
            assert ctx.sign((a - b).state) == fresh.sign((a - b).state)
        kids, fresh_kids = (c.children(c.state(0), c.state(2), range(2, -1, -1))
                            for c in (ctx, fresh))
        assert [kids(x.state) for x in xs] == [fresh_kids(x.state) for x in xs]

    def test_one_context_per_field(self):
        # two parses, a refined interval inside, a wider one around it, the
        # threshold and both alphabets share one context; the other root
        # of x^2 - 3x + 1 gets its own
        X.forget()
        text = "alg:1,-3,1@[1/3,1/2]"
        a, b, narrow = (parse_real(text) for _ in range(3))
        narrow.refine(F(1, 10**30))
        ctx = X.field(a)
        for x in (b, narrow, parse_real("alg:1,-3,1@[0,1/2]"),
                  golden_threshold()):
            assert X.field(x) is ctx
        assert BaseSystem(a, TERNARY).ctx is BaseSystem(narrow, BINARY).ctx \
            is ctx
        other = X.field(parse_real("alg:1,-3,1@[2,3]"))
        assert other is not ctx and other.interval == (2, 3)
        assert midpoint(other.alpha_element) == \
            pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-15)
        assert X.field(F(2, 5)) is X.field(parse_real("rat:4/10")) is \
            BaseSystem(F(2, 5), BINARY).ctx
        assert len(X._FIELDS) == 3

    def test_registry_is_bounded(self):
        X.forget()
        first = X.field(F(1, 3))
        for k in range(X.FIELDS_MAX + 5):
            X.field(F(1, k + 4))
        assert len(X._FIELDS) == X.FIELDS_MAX
        assert list(X._FIELDS) == [(1, k) for k in range(9, X.FIELDS_MAX + 9)]
        again = X.field(F(1, 3))  # dropped, and rebuilt the same
        assert again is not first and again.log_cell == first.log_cell

    @pytest.mark.parametrize("text", KERNEL_BASES + ("alg:-1,0,2@[1/2,1]",))
    def test_repeated_parse_is_a_new_root(self, text):
        # the text is read once, but refine and -ln alpha narrow a root in
        # place: the next parse still carries the interval as written
        first = parse_real(text)
        assert first is not parse_real(text)
        first.refine(F(1, 10**30))
        narrowed = parse_real(text)
        X._neg_log(narrowed)
        assert narrowed.interval() == X.field(narrowed).log_cell[0]
        for x in (first, narrowed):
            assert x.interval() != parse_real(text).interval()
        written = tuple(map(F, text[text.index("[") + 1:-1].split(",")))
        again = parse_real(text)
        assert again.interval() == written and X.format_real(again) == text

    @pytest.mark.parametrize("text, has_field", [
        ("rat:0", False), ("rat:1", True), ("rat:3/2", True),
        ("rat:-1/3", True), ("alg:-1,2,1@[-3,-2]", True),
        ("alg:2,-3,1@[3/2,5/2]", False),  # (x - 1)(x - 2): reducible
    ])
    def test_out_of_range_base_refused_before_its_field(self, text,
                                                        has_field):
        # refused by compare before any field is built, as 0 and a
        # reducible polynomial have none; then, where the field exists, by
        # its cached fact, with the same error and message
        X.forget()
        message = r"^base must lie strictly between 0 and 1$"
        with pytest.raises(E.OutOfDomain, match=message):
            BaseSystem(parse_real(text), TERNARY)
        assert not X._FIELDS
        if not has_field:
            with pytest.raises(X.UnsupportedBase):
                X.field(parse_real(text))
            return
        ctx = X.field(parse_real(text))
        for alphabet in (TERNARY, BINARY):
            with pytest.raises(E.OutOfDomain, match=message):
                BaseSystem(parse_real(text), alphabet)
        assert vars(ctx)["in_unit_interval"] is False and not ctx.systems

    def test_one_root_check_per_interval(self, monkeypatch):
        calls, count = [], X.root_count
        monkeypatch.setattr(X, "root_count",
                            lambda *args: calls.append(args) or count(*args))
        X.forget()  # the text is parsed and the threshold built here
        for _ in range(3):
            parse_real(KERNEL_BASES[0])
            golden_threshold()
        assert len(calls) == 2

    def test_one_field_per_base(self, monkeypatch):
        # ex51's system, its Perron dimension, which narrows alpha to the
        # field's cell, and the box walk's own system on the narrowed
        # alpha build one context and take one -ln alpha; a second round,
        # from a new parse, builds and takes none
        built, logs, real_log = [], [], X.log_enclosure

        class Counted(QAlphaContext):
            def __init__(self, alpha):
                built.append(alpha)
                super().__init__(alpha)

        def counted_log(x):
            logs.append(x)
            return real_log(x)

        monkeypatch.setattr(X, "QAlphaContext", Counted)
        monkeypatch.setattr(X, "log_enclosure", counted_log)
        X.forget()
        for round_ in (1, 0):
            del built[:], logs[:]
            alpha = parse_real(KERNEL_BASES[0])
            sys_ = BaseSystem(alpha, TERNARY)
            t = A.ex51_translation(sys_)
            auto = build_expansion_automaton(sys_, t)
            D.perron_dimension(D.build_intersection_graph(auto), alpha)
            cell, neg_log = sys_.ctx.log_cell
            assert alpha.interval() == cell and sys_.neg_log == neg_log
            D.box_count_oracle(alpha, t, 4)
            assert len(built) == round_
            assert len([x for x in logs if x < 1]) == round_  # alpha's only


def has_rational_root(coeffs) -> bool:
    """Whether an int polynomial has a rational root, by the rational root
    theorem: each is +-r/s with r | c_0 and s | c_n (c_0 != 0)."""
    def divisors(m):
        return [d for d in range(1, abs(m) + 1) if m % d == 0]
    return any(frac_eval(coeffs, sg * F(r, s)) == 0
               for r in divisors(coeffs[0]) for s in divisors(coeffs[-1])
               for sg in (1, -1))


class TestIrreducibilityProof:
    """QAlphaContext proves alpha's polynomial irreducible modulo a prime
    below 50 (distinct-degree test, then Gauss's lemma), or refuses it."""

    @pytest.mark.parametrize("text, prime", [
        ("alg:-1,2,1@[2/5,1/2]", 3), ("alg:-1,1,2,2@[2/5,1/2]", 3),
        ("alg:-2,4,1@[2/5,1/2]", 7), ("alg:1,-3,1@[1/3,1/2]", 2),
        ("alg:1,-5,5@[0,1/2]", 2), ("alg:-1,1,1@[1/2,1]", 2),
        ("alg:-1,2,2@[1/3,1/2]", 5)])
    def test_every_base_here_is_proven(self, text, prime):
        P = parse_real(text).coeffs
        assert X._proven_irreducible(P)
        assert [p for p in X._PROOF_PRIMES
                if P[-1] % p and X._irreducible_mod(P, p)][0] == prime
        QAlphaContext(parse_real(text))

    # REDUCIBLE and (x - 1)(x - 2) are the reducible-base tests' cases
    @pytest.mark.parametrize("text", [
        "alg:-1,0,1@[1/2,3/2]",         # x^2 - 1
        "alg:1,0,-10,0,1@[3/10,1/3]"])  # irreducible, split mod every p
    def test_unproven_bases_are_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(X.UnsupportedBase, match="irreducible"):
            QAlphaContext(parse_real(text))
        assert time.perf_counter() - start < 1

    def test_proof_against_rational_roots(self):
        # in degrees 2 and 3 a polynomial is reducible exactly when it has
        # a rational root, so a proof must never meet one; and here every
        # root-free one is proven (an irreducible quadratic or cubic stays
        # irreducible modulo a positive density of primes, by Chebotarev)
        rng = random.Random(2024)
        for _ in range(400):
            n = rng.choice((2, 3))
            c = [rng.randint(-30, 30) for _ in range(n + 1)]
            c[0] = c[0] or 1
            c[-1] = c[-1] or 1
            P = list(X.poly_normalize(c))
            assert X._proven_irreducible(P) is not has_rational_root(P), P

    def test_products_are_refused(self):
        rng = random.Random(2025)
        for _ in range(200):
            a, b = ([rng.randint(-9, 9) for _ in range(rng.choice((2, 3)))]
                    for _ in range(2))
            a[-1] = a[-1] or 1
            b[-1] = b[-1] or 1
            P = list(X.poly_normalize(X.poly_mul(a, b)))
            assert not X._proven_irreducible(P), (a, b)


def reference_rem_mod(a, b, p):
    """_rem_mod as it was: an int pseudo-division, then mod p."""
    return X.poly_trim([c % p for c in X.poly_pseudo_divmod(a, b)[1]])


class TestResidueRemainder:
    """_rem_mod divides in F_p[x] by the monic divisor."""

    def test_matches_pseudo_division_up_to_a_unit(self):
        rng = random.Random(4099)
        for _ in range(600):
            p = rng.choice(X._PROOF_PRIMES)
            b = [rng.randrange(-60, 61) for _ in range(rng.randrange(0, 6))]
            b.append(rng.choice([c for c in range(-60, 61) if c % p]))
            a = [rng.randrange(-99, 100) for _ in range(rng.randrange(0, 12))]
            got, want = X._rem_mod(a, b, p), reference_rem_mod(a, b, p)
            assert len(got) < len(b)
            assert all(0 <= c < p for c in got)
            units = {u for u in range(1, p)
                     if [u * c % p for c in want] == got}
            assert units if got else not want

    def test_irreducibility_verdicts_unchanged(self, monkeypatch):
        rng = random.Random(4100)
        polys = [[1, 0, -10, 0, 1], [3, -7, -1, 1]]
        for _ in range(300):
            c = [rng.randint(-20, 20) for _ in range(rng.choice((3, 4, 5)))]
            c[0], c[-1] = c[0] or 1, c[-1] or 1
            polys.append(list(X.poly_normalize(c)))
        got = [X._proven_irreducible(P) for P in polys]
        monkeypatch.setattr(X, "_rem_mod", reference_rem_mod)
        assert got == [X._proven_irreducible(P) for P in polys]
        # x^4 - 10 x^2 + 1 splits mod every prime; (x^2 + 2x - 1)(x - 3)
        # is reducible
        assert got[:2] == [False, False]
        assert 100 <= sum(got) < len(got)


def seeded_elements(ctx, rng, count):
    """Random elements, each also minus a close rational, so that many
    values lie within 2^-64 of 0; and the zero and a rational."""
    out = [zero(ctx), ctx.embed(F(-7, 3))]
    for _ in range(count):
        x = ctx.element([F(rng.randrange(-60, 61), rng.randrange(1, 20))
                         for _ in range(ctx.degree)])
        lo, hi = reference_enclosure(x, F(1, 2**130))
        near = ((lo + hi) / 2).limit_denominator(2**rng.randrange(8, 61))
        out += [x, x - near]
    return out


class TestOneSignRoute:
    """QAlphaElement's sign, enclosure and decimal string, all decided by
    QAlphaContext's integer filter, against the interval-Horner route it replaced."""

    @pytest.mark.parametrize("text", KERNEL_BASES)
    def test_sign_matches_interval_horner(self, text):
        ctx = QAlphaContext(parse_real(text))
        for x in seeded_elements(ctx, random.Random(text + "sign"), 40):
            assert x.sign() == reference_sign(x)
            assert (-x).sign() == -reference_sign(x)
        assert ctx.fallbacks > 0  # some signs needed K = 128

    @pytest.mark.parametrize("text", KERNEL_BASES)
    def test_enclosure_matches_interval_horner(self, text):
        ctx = QAlphaContext(parse_real(text))
        rng = random.Random(text + "enclosure")
        for x in seeded_elements(ctx, rng, 8):
            # a far narrower reference overlaps each enclosure: both hold x
            rlo, rhi = reference_enclosure(x, F(1, 2**232))
            for k in range(8, 201, 8):
                width = F(1, 2**k)
                lo, hi = ctx.enclosure(x.state, width)
                assert lo <= hi and hi - lo <= width
                assert X.enclosure(x, width) == (lo, hi)
                assert lo <= rhi and rlo <= hi
            if x.coeffs[1:] == (0,) * (ctx.degree - 1):  # rational: exact
                assert ctx.enclosure(x.state, F(1, 4)) == (x.coeffs[0],) * 2

    @pytest.mark.parametrize("text", KERNEL_BASES)
    def test_decimal_string_matches_interval_horner(self, text):
        ctx = QAlphaContext(parse_real(text))
        for x in seeded_elements(ctx, random.Random(text + "decimal"), 20):
            lo, hi = reference_enclosure(x, F(1, 10**14))
            want = repr(round(float((lo + hi) / 2), 12))
            if float(want) == 0:  # rounds to zero: the sign decides
                want = "-0.0" if reference_sign(x) < 0 else "0.0"
            assert X.decimal_string(x) == want
            assert abs(midpoint(x) - float(lo)) <= \
                1e-13 * max(1, abs(float(lo)))

    @pytest.mark.parametrize("text", KERNEL_BASES)
    def test_decimal_zero_follows_the_sign(self, text):
        # x - q with q a close rational: |x - q| < 5e-13, so only the
        # certified sign tells 0.0 from -0.0
        ctx = QAlphaContext(parse_real(text))
        assert X.decimal_string(zero(ctx)) == "0.0"
        rng = random.Random(text + "zero")
        signs = set()
        for _ in range(20):  # no zero coefficient: x is irrational
            x = ctx.element([F(rng.choice((-1, 1)) * rng.randrange(1, 61),
                               rng.randrange(1, 20))
                             for _ in range(ctx.degree)])
            lo, hi = reference_enclosure(x, F(1, 2**130))
            tiny = x - ((lo + hi) / 2).limit_denominator(10**9)
            assert 0 < abs(midpoint(tiny)) < 5e-13
            sg = reference_sign(tiny)
            signs.add(sg)
            assert X.decimal_string(tiny) == ("-0.0" if sg < 0 else "0.0")
            assert X.decimal_string(-tiny) == ("0.0" if sg < 0 else "-0.0")
        assert signs == {-1, 1}

    def test_decimal_zero_of_other_kinds(self):
        assert X.decimal_string(F(0)) == X.decimal_string(0) == "0.0"
        assert X.decimal_string(F(-1, 10**20)) == "-0.0"
        assert X.decimal_string(F(1, 10**20)) == "0.0"
        assert X.decimal_string(AlgebraicReal([-1, 10**14], 0, 1)) == "0.0"
        assert X.decimal_string(AlgebraicReal([1, 10**14], -1, 0)) == "-0.0"
        assert X.decimal_string(F(-1, 3)) == "-0.333333333333"

    def test_reducible_base_raises_and_never_signs(self):
        # alpha^2 + 2 alpha - 1 would be 0 in value but not as a vector, a
        # sign no filter decides; the base is refused before any sign
        start = time.perf_counter()
        with pytest.raises(X.UnsupportedBase, match="irreducible"):
            QAlphaContext(parse_real(REDUCIBLE))
        with pytest.raises(X.UnsupportedBase, match="irreducible"):
            BaseSystem(parse_real(REDUCIBLE), TERNARY)
        assert time.perf_counter() - start < 1

    def test_sign_cap_still_raises(self, monkeypatch):
        # p - q alpha for the Pell convergent p/q of sqrt(2) - 1 with q
        # near 2^32 is about 2^-34: S is near 2^30 and E = q, so K = 64
        # leaves it undecided and K = 128 decides it
        ctx = QAlphaContext(parse_real("alg:-1,2,1@[2/5,1/2]"))
        p, q = 0, 1
        while q < 2**32:
            p, q = q, 2 * q + p  # the convergents of [0; 2, 2, 2, ...]
        state = (p, -q, 1)
        want = reference_sign(QAlphaElement(ctx, state))
        assert ctx.sign(state) == want and ctx.fallbacks == 1
        monkeypatch.setattr(X, "SIGN_BITS_CAP", X.FILTER_BITS)
        with pytest.raises(X.UndecidedComparison) as err:
            ctx.sign(state)
        assert "irreducible" not in str(err.value)


LN_CTX = decimal.Context(prec=60)
LN_TOL = F(1, 10**55)  # far above the reference's error, far below 2^-85


def reference_ln(x: F) -> F:
    """ln x at 60 digits, as ln p - ln q so that x itself is not rounded."""
    p, q = (decimal.Decimal(v) for v in (x.numerator, x.denominator))
    return F(LN_CTX.subtract(LN_CTX.ln(p), LN_CTX.ln(q)))


class TestLogEnclosure:
    def assert_encloses(self, x):
        lo, hi = X.log_enclosure(x)
        ref = reference_ln(F(x))
        assert lo - LN_TOL <= ref <= hi + LN_TOL, x
        assert 0 <= hi - lo <= F(1, 2**85), x

    def test_seeded_rationals(self):
        rng = random.Random(22)
        for _ in range(2000):
            self.assert_encloses(F(rng.randrange(1, 10**30),
                                   rng.randrange(1, 10**30)))

    def test_powers_of_two(self):
        lo, hi = X.log_enclosure(1)
        assert lo <= 0 <= hi
        for k in range(1, 121):
            self.assert_encloses(F(2**k))
            self.assert_encloses(F(1, 2**k))

    @pytest.mark.parametrize("x", [F(2, 3), F(4, 3)])
    def test_reduction_edges_and_neighbours(self, x):
        # m = 2/3 and 4/3 are where x = 2^e m changes e
        for k in (1, 10, 40, 100):
            for y in (x, x - F(1, 10**k), x + F(1, 10**k),
                      x * (1 - F(1, 2**k)), x * (1 + F(1, 2**k))):
                self.assert_encloses(y)

    def test_alpha_endpoints(self):
        # the endpoints the dimension values take logs of
        for alpha in (alg_cubic(), T.alpha_kl_real()):
            for end in X.enclosure(alpha, F(1, 10**20)):
                self.assert_encloses(end)

    @pytest.mark.parametrize("x", [0, F(-1, 3), -2])
    def test_nonpositive_raises(self, x):
        with pytest.raises(ValueError):
            X.log_enclosure(x)
