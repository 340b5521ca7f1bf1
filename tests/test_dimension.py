import copy
import decimal
import functools
import hashlib
import json
import math
import pickle
import random
from bisect import insort
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from cantorint import acceptance as A
from cantorint import dimension as D
from cantorint import exactnum as X
from cantorint import expansions as E
from cantorint import graph as G
from cantorint import thuemorse as T
from cantorint import words as W
from cantorint.dimension import (
    CountMatrix,
    DSetKind,
    SelfSimilarStatus,
    box_count_oracle,
    build_intersection_graph,
    char_poly,
    d_set,
    dense_selfsimilar_targets,
    dim_from_frequency,
    freq_upper_bound_over_expansions,
    full_dimension,
    liouville_witness,
    perron_dimension,
    self_similar_check,
)
from cantorint.expansions import BaseSystem, OutOfDomain
from cantorint.words import BINARY, TERNARY, EPSeq
from test_exactnum import (
    KERNEL_BASES,
    NUDGED,
    NUDGED_TWICE,
    assert_same_root,
    reference_series_enclosure,
    reference_sturm_count,
)
from test_expansions import reference_branch_unique
from test_graph import reference_max_cycle_mean


def cubic_base():
    return BaseSystem(X.AlgebraicReal([-1, 1, 2, 2], F(2, 5), F(1, 2)),
                      TERNARY)


def to_fraction(el):
    """The rational value of a Q(alpha) element with no alpha terms."""
    x, *rest = el.coeffs
    assert not any(rest)
    return x


def ex51_setup():
    sys = cubic_base()
    a = sys.ctx.alpha_element
    t = -a / (sys.ctx.one + a)
    auto = E.build_expansion_automaton(sys, t)
    return sys, auto


class TestFrequencyFormula:
    def test_one_third_at_37_100(self):
        dv = dim_from_frequency(BaseSystem(F(37, 100), TERNARY), F(1, 3))
        want = math.log(2) / (-math.log(0.37)) / 3
        assert abs(dv.decimal - want) <= 1e-12
        assert 0.23 < dv.decimal < 0.234

    def test_zero_frequency(self):
        dv = dim_from_frequency(BaseSystem(F(2, 5), TERNARY), F(0))
        assert dv.decimal == 0.0

    def test_full_dimension(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        dv = dim_from_frequency(sys, F(1))
        want = math.log(2) / (-math.log(0.4))
        assert abs(dv.decimal - want) <= 1e-12
        assert full_dimension(sys).decimal == dv.decimal

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            dim_from_frequency(BaseSystem(F(1, 4), TERNARY), F(1, 2))
        with pytest.raises(OutOfDomain):
            dim_from_frequency(BaseSystem(F(1, 2), TERNARY), F(1, 2))

    def test_refuses_an_estimate(self):
        # a prefix's zero proportion is no density, so it gets no enclosure
        sys = BaseSystem(F(2, 5), TERNARY)
        with pytest.raises(W.WordsError, match="only an estimate"):
            dim_from_frequency(sys, W.zero_density_prefix(T.lambda_seq(),
                                                          1000))
        exact = W.zero_density(EPSeq((1,), (0, 1, -1), TERNARY))
        got, want = dim_from_frequency(sys, exact), \
            dim_from_frequency(sys, F(1, 3))
        assert (got.lo, got.hi, got.decimal) == (want.lo, want.hi,
                                                 want.decimal)

    def test_decimal_inside_enclosure(self):
        dv = dim_from_frequency(BaseSystem(F(19, 50), TERNARY), F(1, 3))
        assert dv.lo <= dv.decimal <= dv.hi

    def test_encloses_decimal_reference(self):
        # f ln2 / (-ln alpha) at 60 digits, whose error is far below the
        # width of the float enclosure
        ctx = decimal.Context(prec=60)
        ln2 = ctx.ln(decimal.Decimal(2))
        rng = random.Random(5)
        for k in range(2000):
            q = rng.randint(7, 10**6)
            alpha = F(rng.randint(q // 3 + 1, (q - 1) // 2), q)
            den = rng.randint(1, 10**6)
            f = F(0) if k == 0 else F(1) if k == 1 else \
                F(rng.randint(0, den), den)
            ref = ctx.divide(
                ctx.multiply(ctx.divide(f.numerator, f.denominator), ln2),
                -ctx.ln(ctx.divide(alpha.numerator, alpha.denominator)))
            dv = dim_from_frequency(BaseSystem(alpha, TERNARY), f)
            assert decimal.Decimal(dv.lo) <= ref <= decimal.Decimal(dv.hi)


def reference_log_interval(lo, hi):
    """ln over [lo, hi] as the dimension values took it before -ln alpha
    was cached on the BaseSystem: one log, as ln(1 + x) <= x."""
    log_lo, log_hi = X.log_enclosure(lo)
    return log_lo, log_hi + (hi - lo) / lo


class TestBaseDimensionFacts:
    @pytest.mark.parametrize("base", [
        "rat:2/5", "rat:21/50", "rat:19/50", "rat:1/10", "rat:9/10",
        "alg:-1,1,2,2@[2/5,1/2]", "alg:-1,2,1@[2/5,1/2]", "akl"])
    def test_neg_log_matches_reference(self, base):
        alpha = X.parse_real(base)
        sys = BaseSystem(alpha, TERNARY)
        a, b = reference_log_interval(*X.enclosure(alpha, F(1, 10**20)))
        assert sys.neg_log == (-b, -a)
        assert sys.neg_log is sys.neg_log  # derived once

    @pytest.mark.parametrize("base, inside", [
        ("rat:1/3", False), ("rat:1/2", False), ("rat:1/4", False),
        ("rat:3/4", False), ("rat:1001/3000", True), ("rat:499/1000", True),
        ("alg:-1,1,2,2@[2/5,1/2]", True), ("alg:1,-5,5@[1/2,1]", False),
        ("akl", True)])
    def test_dimension_domain(self, base, inside):
        sys = BaseSystem(X.parse_real(base), TERNARY)
        assert sys.dimension_domain is inside
        if not inside:
            with pytest.raises(OutOfDomain):
                dim_from_frequency(sys, F(1, 2))


def reference_regime(alpha):
    """The regime as the comparison chains decided it before
    ``BaseSystem.regime``: the domain test of the dimension formulas, then
    d_set's chain, alpha_KL before the threshold."""
    if X.compare(alpha, F(1, 3)) is not X.Comparison.GREATER or \
            X.compare(alpha, F(1, 2)) is not X.Comparison.LESS:
        return None
    if T.is_alpha_kl(alpha):
        return DSetKind.COUNTABLE_FAMILY
    pos = X.compare(alpha, T.alpha_kl_real())
    assert pos is not X.Comparison.UNDECIDED
    if pos is X.Comparison.GREATER:
        return DSetKind.FINITE_LIST
    if X.compare(alpha, E.golden_threshold()) in (X.Comparison.LESS,
                                                  X.Comparison.EQUAL):
        return DSetKind.FULL_INTERVAL
    return DSetKind.CONTAINS_INTERVAL


class TestRegime:
    BASES = [
        ("rat:1/3", None), ("rat:1/2", None),
        ("golden", DSetKind.FULL_INTERVAL),  # EQUAL to the threshold
        ("rat:19/50", DSetKind.FULL_INTERVAL),
        ("rat:96/250", DSetKind.CONTAINS_INTERVAL),
        ("rat:39/100", DSetKind.CONTAINS_INTERVAL),
        ("rat:394329/1000000", DSetKind.CONTAINS_INTERVAL),
        # 3.5e-19 below alpha_KL, the nearest base the tests and CI use
        ("rat:394329844702280891/1000000000000000000",
         DSetKind.CONTAINS_INTERVAL),
        ("akl", DSetKind.COUNTABLE_FAMILY),
        ("rat:3944/10000", DSetKind.FINITE_LIST),
        ("rat:21/50", DSetKind.FINITE_LIST),
        ("alg:-1,1,2,2@[2/5,1/2]", DSetKind.FINITE_LIST),
        ("alg:-1,2,1@[2/5,1/2]", DSetKind.FINITE_LIST)]

    @staticmethod
    def base(name):
        return E.golden_threshold() if name == "golden" else \
            X.parse_real(name)

    @pytest.mark.parametrize("name, kind", BASES)
    def test_matches_reference(self, name, kind):
        sys = BaseSystem(self.base(name), TERNARY)
        assert sys.regime is kind
        assert reference_regime(self.base(name)) is kind

    def test_derived_once(self, monkeypatch):
        sys = BaseSystem(F(39, 100), TERNARY)
        assert sys.regime is DSetKind.CONTAINS_INTERVAL
        assert {"regime", "past_threshold"} <= set(vars(sys))
        monkeypatch.setattr(E, "compare", None)  # a second derivation fails
        assert sys.regime is DSetKind.CONTAINS_INTERVAL and sys.past_threshold

    def test_dset_reads_regime(self):
        for name, kind in self.BASES:
            if kind is not None:
                assert d_set(self.base(name)).kind is kind

    def test_undecided_against_alpha_kl(self):
        # a second number with alpha_KL's own enclosures never separates
        twin = X.EnclosedReal(T.alpha_kl_enclosure, "twin")
        with pytest.raises(X.UndecidedComparison,
                           match="relative to alpha_KL undecided"):
            BaseSystem(twin, TERNARY).regime
        with pytest.raises(X.UndecidedComparison):
            d_set(twin)

    def test_undecided_against_threshold(self):
        # a base the threshold's own enclosures never separate from it has
        # no certified regime: it is refused, not taken as the full interval
        gold = E.golden_threshold()
        twin = X.EnclosedReal(lambda w: X.enclosure(gold, w), "twin")
        sys = BaseSystem(twin, TERNARY)
        assert sys.dimension_domain
        text = r"relative to \(3-sqrt\(5\)\)/2 undecided"
        for ask in (lambda: sys.regime, lambda: E.forbidden_zero_run(sys),
                    lambda: d_set(twin)):
            with pytest.raises(X.UndecidedComparison, match=text):
                ask()

    def test_dsetkind_shared(self):
        import cantorint
        assert D.DSetKind is E.DSetKind is cantorint.DSetKind
        assert [k.value for k in DSetKind] == [
            "finite-list", "countable-family", "contains-interval",
            "full-interval"]


class TestPerronFormula:
    """log(lambda)/(-log alpha) against 60-digit references, with lambda
    known in closed form."""

    CTX = decimal.Context(prec=60)

    def neg_ln(self, alpha):
        lo, hi = X.enclosure(alpha, F(1, 10**70))
        mid = (lo + hi) / 2
        return self.CTX.subtract(self.CTX.ln(mid.denominator),
                                 self.CTX.ln(mid.numerator))

    def assert_encloses(self, dv, ln_lambda, neg_ln_alpha):
        ref = self.CTX.divide(ln_lambda, neg_ln_alpha)
        assert decimal.Decimal(dv.lo) <= ref <= decimal.Decimal(dv.hi)
        assert dv.hi - dv.lo <= 1e-11

    def test_golden_four_block_matrix(self):
        # the four-block subshift's matrix has the golden ratio as radius
        ctx = self.CTX
        ln_phi = ctx.ln(ctx.divide(1 + ctx.sqrt(5), 2))
        g = D.IntersectionGraph(CountMatrix(T.SFT_MATRIX))
        rng = random.Random(11)
        alphas = [F(2, 5), F(7, 20), X.AlgebraicReal([-1, 1, 2, 2], F(2, 5),
                                                    F(1, 2))]
        for _ in range(50):
            q = rng.randint(7, 10**6)
            alphas.append(F(rng.randint(q // 3 + 1, (q - 1) // 2), q))
        for alpha in alphas:
            self.assert_encloses(perron_dimension(g, alpha), ln_phi,
                                 self.neg_ln(alpha))

    def test_example52_cube_root_of_four(self):
        # lambda^3 = 4 at alpha = sqrt(2) - 1, where -ln alpha = ln(1 + sqrt 2)
        ctx = self.CTX
        alpha = X.AlgebraicReal([-1, 2, 1], F(2, 5), F(1, 2))
        sys = BaseSystem(alpha, TERNARY)
        auto = E.build_expansion_automaton(sys, A.ex52_translation(sys))
        dv = perron_dimension(build_intersection_graph(auto), alpha)
        self.assert_encloses(dv, ctx.divide(ctx.ln(4), 3),
                             ctx.ln(1 + ctx.sqrt(2)))

    @pytest.mark.parametrize("t", [F(0), F(1, 3), F(1, 7)])
    def test_refused_above_one_half(self, t):
        # above 1/2 Gamma_alpha is an interval whose first-level cylinders
        # overlap: at the golden base the formula read 1.88 at t = 0, a
        # dimension above 1 for a subset of the line.  At 1/2 the cylinders
        # meet in one point, and the dimension 1 stays
        for alpha in (X.AlgebraicReal([-1, 1, 1], F(1, 2), F(1)), F(1, 2)):
            auto = E.build_expansion_automaton(BaseSystem(alpha, TERNARY), t)
            g = build_intersection_graph(auto)
            if alpha != F(1, 2):
                with pytest.raises(OutOfDomain, match="alpha <= 1/2"):
                    perron_dimension(g, alpha)
            else:
                dv = perron_dimension(g, alpha)
                assert not dv.empty and dv.lo <= 1 <= dv.hi


class TestCharPoly:
    def test_companion(self):
        # companion matrix of x^3 - x - 1
        m = ((0, 1, 0), (0, 0, 1), (1, 1, 0))
        assert char_poly(G.successors(m)) == [-1, -1, 0, 1]

    def test_identity(self):
        m = ((1, 0), (0, 1))
        assert char_poly(G.successors(m)) == [1, -2, 1]

    def test_char_poly_matches_numpy(self):
        import random as _r
        rng = _r.Random(7)
        m = [[rng.randrange(0, 4) for _ in range(8)] for _ in range(8)]
        want = np.poly(np.array(m, dtype=float))[::-1]
        assert np.allclose(char_poly(G.successors(m)), want,
                           rtol=1e-9, atol=1e-6)


def record_power(monkeypatch):
    """The count matrices whose ``power_estimate`` or ``rowsum_enclosure``
    runs, in call order."""
    calls = []
    for name in ("power_estimate", "rowsum_enclosure"):
        def recorded(self, *args, method=getattr(CountMatrix, name)):
            calls.append(self)
            return method(self, *args)
        monkeypatch.setattr(CountMatrix, name, recorded)
    return calls


def behind_a_chain(*blocks):
    """A chain of 24 transient rows, its last row leading to the first row
    of each square block: past 24 rows, whatever the blocks."""
    n = 24 + sum(map(len, blocks))
    m = [[0] * n for _ in range(n)]
    for i in range(23):
        m[i][i + 1] = 1
    at = 24
    for b in blocks:
        m[23][at] = 1
        for i, row in enumerate(b):
            m[at + i][at:at + len(b)] = row
        at += len(b)
    return m


def sqrt2_minus_1_graph(q):
    """The intersection graph of sqrt(2) - 1 at t = 1/q."""
    sys = BaseSystem(X.parse_real("alg:-1,2,1@[2/5,1/2]"), TERNARY)
    auto = E.build_expansion_automaton(sys, sys.embed(F(1, q)))
    return build_intersection_graph(auto)


def class_radius(cm):
    """(h, B) per strongly connected component with a cycle, by
    ``graph.cyclic_classes`` and the block product, and the enclosure of
    the largest mu^(1/h), mu the radius of B: the cyclic-class route on
    any number of rows."""
    pairs = []
    for rows in G.sccs(cm.succ):
        classes = G.cyclic_classes(cm.succ, rows)
        if classes:
            b = CountMatrix.from_successors(cm._block_product(classes))
            pairs.append((len(classes), b))
    lo = hi = F(0)
    for h, b in pairs:
        info = D.PerronInfo(b.perron().algebraic, period=h)
        a, c = info.enclosure()
        lo, hi = max(lo, a), max(hi, c)
    return pairs, (lo, hi)


def top_components(cm):
    """How many distinct pairs (h, mu's polynomial) over the components
    have radius enclosures, from their class products' char-poly roots,
    that meet the largest lower end."""
    infos = {(h, b.perron().algebraic.coeffs):
             D.PerronInfo(b.perron().algebraic, h)
             for h, b in class_radius(cm)[0]}
    encs = [t.enclosure() for t in infos.values()]
    return sum(hi >= max(lo for lo, _ in encs) for _, hi in encs)


class TestPerron:
    def test_single_entry_two(self):
        cm = CountMatrix([[2]])
        info = cm.perron()
        lo, hi = info.enclosure()
        assert lo <= 2 <= hi
        assert info.algebraic.coeffs == (-2, 1)  # the one certificate
        assert cm.rowsum_enclosure(cm.power_estimate()) == (2, 2)

    def test_rowsum_bracket_contains_true_value(self):
        cm = CountMatrix(T.SFT_MATRIX)
        lo, hi = cm.rowsum_enclosure(cm.power_estimate())
        phi = (1 + math.sqrt(5)) / 2
        assert float(lo) <= phi <= float(hi)

    def test_periodic_matrix(self):
        # two 3-cycles of weight 2 sharing a state: lambda^3 = 4
        m = ((0, 2, 0, 1, 0), (0, 0, 1, 0, 0), (1, 0, 0, 0, 0),
             (0, 0, 0, 0, 1), (2, 0, 0, 0, 0))
        info = CountMatrix(m).perron()
        lo, hi = info.enclosure(F(1, 10**10))
        assert abs(float((lo + hi) / 2) - 4 ** (1 / 3)) < 1e-9

    def test_repeated_eigenvalue(self):
        # block diagonal with two copies of the same cycle: char poly has a
        # repeated root; the squarefree reduction must keep isolation sound
        m = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        info = CountMatrix(m).perron()
        lo, hi = info.enclosure(F(1, 10**9))
        assert lo <= 1 <= hi

    def test_one_chain_root_matches_two_pass_route(self):
        # the squarefree part by a Fraction gcd, then isolation on it, as
        # the root was found before one Sturm chain did both
        def frac_divmod(num, den):  # over the rationals
            quot, rem = [F(0)] * max(0, len(num) - len(den) + 1), num[:]
            while len(rem) >= len(den):
                shift = len(rem) - len(den)
                quot[shift] = rem[-1] / den[-1]
                for i, c in enumerate(den):
                    rem[shift + i] -= quot[shift] * c
                rem = X.poly_trim(rem)
            return quot, rem

        def two_pass(p, hi):
            p = X.poly_trim([F(c) for c in p])
            a, b = p, X.poly_trim(X.poly_derivative(p))
            while b:
                a, b = b, frac_divmod(a, b)[1]
            return X.isolate_largest_root(frac_divmod(p, a)[0], F(0), hi)

        rng = random.Random(77)
        repeated = 0
        for _ in range(40):
            n = rng.randrange(1, 4)
            block = [[rng.randrange(0, 3) for _ in range(n)] for _ in range(n)]
            block[0][rng.randrange(n)] += 1
            copies = rng.randrange(1, 4)  # diagonal copies repeat eigenvalues
            m = [[0] * (n * copies) for _ in range(n * copies)]
            for c in range(copies):
                for i in range(n):
                    m[c * n + i][c * n:c * n + n] = block[i]
            cm = CountMatrix(m)
            cp = char_poly(cm.succ)
            stripped = cp[next(i for i, c in enumerate(cp) if c):]
            repeated += len(X.poly_gcd(stripped,
                                       X.poly_derivative(stripped))) > 1
            got = reference_char_poly_root(cm)
            want = two_pass(stripped, F(max(map(sum, m)) + 1))
            assert got.coeffs == want.coeffs
            assert got.refine(F(1, 10**12)) == want.refine(F(1, 10**12))
        assert repeated >= 10

    def test_712_state_matrix(self, monkeypatch):
        # sqrt(2)-1 with t = 1/211: one 712-row component of period 424
        # whose C_0 has one row, so lambda^424 is the integer N, exactly
        cm = sqrt2_minus_1_graph(211).count_matrix
        assert cm.n == 712
        # recorded before the graph code moved to cantorint.graph: any
        # reordering of rows changes it
        assert hashlib.sha1(repr(cm.entries).encode()).hexdigest() == \
            "1cec84dff9c16a06dc79dbdd61ae797ab149da6b"
        assert cm.succ == G.successors(cm.entries)
        calls = record_power(monkeypatch)
        info = cm.perron()
        assert calls == [] and info.algebraic is not None
        assert info.period == 424
        N = -info.algebraic.coeffs[0]
        assert info.algebraic.coeffs == (-N, 1) and N.bit_length() == 302
        assert info.exact_str() == f"(largest real root of [{-N},1])^(1/424)"
        lo, hi = info.enclosure()
        assert lo**424 <= N <= hi**424 and hi - lo <= F(1, 10**12)
        # the Noda bracket this matrix took before, from plain float
        # arithmetic in a fixed order, holds N^(1/424)
        nlo = F(7331391921057554, 4476719101222533)
        nhi = F(10055211463208422, 6139946917158333)
        assert nlo**424 <= N <= nhi**424 and max(lo, nlo) <= min(hi, nhi)
        assert round(float(lo), 8) == round(float(hi), 8) == 1.63767075

    def test_root_of_a_two_row_class_product(self):
        # (3 - sqrt(5))/2 at t = -5/9: 28 rows of period 12 whose C_0 has
        # two rows, mu the larger root of x^2 - 154 x + 441; and past a
        # chain, a 4-row component of period 2 whose block product is
        # [[1, 1], [1, 0]], mu the golden ratio: the 1/h powers of mu's
        # cell stay within each width asked for
        sys = BaseSystem(X.parse_real("alg:1,-3,1@[1/3,1/2]"), TERNARY)
        auto = E.build_expansion_automaton(sys, sys.embed(F(-5, 9)))
        golden = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [1, 0, 0, 0]]
        for cm, h, f in [
                (build_intersection_graph(auto).count_matrix, 12,
                 (441, -154, 1)),
                (CountMatrix(behind_a_chain(golden)), 2, (-1, -1, 1))]:
            info = cm.perron()
            assert info.period == h and info.algebraic.coeffs == f
            for width in (F(1, 10**12), F(1, 10**30), F(1, 2**200)):
                lo, hi = info.enclosure(width)
                assert 0 < hi - lo <= width
                assert X._value_at(f, lo**h) < 0 < X._value_at(f, hi**h)

    def test_6824_state_matrix(self):
        # sqrt(2)-1 with t = 1/2003: period 4008, one row in C_0; in
        # process, as its CLI JSON holds the dense 6 824-row matrix
        g = sqrt2_minus_1_graph(2003)
        cm = g.count_matrix
        assert cm.n == 6824
        info = cm.perron()
        N = -info.algebraic.coeffs[0]
        assert info.period == 4008 and info.algebraic.coeffs == (-N, 1)
        lo, hi = info.enclosure()
        assert lo**4008 <= N <= hi**4008 and hi - lo <= F(1, 10**12)
        assert round(float(lo), 8) == 1.62991035
        alpha = X.parse_real("alg:-1,2,1@[2/5,1/2]")
        dv = perron_dimension(g, alpha)
        assert dv.hi - dv.lo <= 1e-15
        want = math.log(float(lo)) / -math.log(float(alpha))
        assert abs(dv.decimal - want) <= 1e-12

    def test_reducible_ex51_shift_is_narrow(self):
        # 25 rows in 12 components; the least row sum of A^k follows the
        # smallest component, which left a bracket about 0.2 wide
        sys = cubic_base()
        t = E.seq_value(sys, W.parse_seq("+++-0+"))
        g = build_intersection_graph(E.build_expansion_automaton(sys, t))
        assert g.count_matrix.n == 25
        assert len(g.count_matrix.power_estimate()) > 1
        dv = perron_dimension(g, sys.alpha)
        assert dv.hi - dv.lo <= 1e-9

    def test_long_periodic_cycle(self):
        # a 30-cycle with one edge of weight 2: period 30, lambda^30 = 2,
        # the one row of C_0 gives the class product [2]
        n = 30
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][(i + 1) % n] = 1
        m[n - 1][0] = 2
        info = CountMatrix(m).perron()
        assert info.period == 30
        assert info.algebraic.coeffs == (-2, 1)
        assert info.exact_str() == "(largest real root of [-2,1])^(1/30)"
        lo, hi = info.enclosure()
        assert lo**30 <= 2 <= hi**30
        assert hi - lo <= F(1, 10**12)

    @staticmethod
    def random_matrix(rng, n, irreducible):
        """A sparse nonnegative integer matrix like the count matrices: a
        cycle through all n rows (irreducible) or through each diagonal
        block of a block-triangular matrix, plus random extra entries,
        with the rows shuffled."""
        cuts = [0, n]
        if not irreducible:
            k = min(n - 1, rng.randrange(1, 6))
            cuts = sorted({0, n, *rng.sample(range(1, n), k)})
        m = [[0] * n for _ in range(n)]
        for a, b in zip(cuts, cuts[1:]):
            for i in range(a, b):
                m[i][i + 1 if i + 1 < b else a] = rng.randrange(1, 3)
            for _ in range(rng.randrange(0, 2 * (b - a))):
                m[rng.randrange(a, b)][rng.randrange(a, b)] += 1
            if b < n:  # an edge to a later block
                m[rng.randrange(a, b)][rng.randrange(b, n)] += 1
        order = rng.sample(range(n), n)
        return [[m[i][j] for j in order] for i in order]

    @classmethod
    def past_24_rows(cls):
        """24 seeded matrices of 25 to 150 rows, irreducible and reducible,
        with numpy's spectral radius, a reference only."""
        rng = random.Random(1971)
        for k in range(24):
            n = rng.randrange(25, 151)
            m = cls.random_matrix(rng, n, irreducible=k % 2 == 0)
            yield m, max(abs(np.linalg.eigvals(np.array(m, dtype=float))))

    def test_noda_bracket_holds_numpy_radius(self):
        # the reference route past 24 rows: the Noda bracket holds numpy's
        # radius, and no fill cap is hit on these matrices
        for m, rho in self.past_24_rows():
            lo, hi = reference_noda_bracket(CountMatrix(m))
            assert lo - 1e-9 <= rho <= hi + 1e-9
            assert hi - lo <= F(1, 10**12) * hi

    def test_class_route_holds_numpy_radius(self):
        # past 24 rows each component gives (h, B), B from its smallest
        # class.  Where every B is within CHARPOLY_MAX_DIM rows, numpy's
        # radius lies in the root's enclosure, 10^-12 wide, which meets the
        # Noda bracket and, up to that many rows of A, the whole matrix's
        # char-poly root; past it, perron refuses and names the first such
        # B's rows and period.  The power iteration's bracket, called
        # directly, holds the radius within 10^-9 rho everywhere.  On A + I
        # the 115-row matrix's next eigenvalues, from 1.3495 +- 0.31 i, are
        # still 0.984 of the first in modulus, so it takes 1 825 of the
        # 2 000 POWER_STEPS
        roots = refused = whole = 0
        for m, rho in self.past_24_rows():
            cm = CountMatrix(m)
            blo, bhi = cm.rowsum_enclosure(cm.power_estimate())
            assert blo - 1e-9 <= rho <= bhi + 1e-9
            assert bhi - blo <= F(1, 10**9) * F(rho)
            classes = [G.cyclic_classes(cm.succ, rows)
                       for rows in G.sccs(cm.succ)]
            big = [(min(map(len, cs)), len(cs)) for cs in classes
                   if cs and min(map(len, cs)) > D.CHARPOLY_MAX_DIM]
            if big:
                with pytest.raises(D.ClassProductTooLarge,
                                   match=r"of %d rows \(period %d\)" % big[0]):
                    cm.perron()
                refused += 1
                continue
            info = cm.perron()
            lo, hi = info.enclosure()
            assert lo - 1e-9 <= rho <= hi + 1e-9 and hi - lo <= F(1, 10**12)
            assert info.exact_str().startswith("largest real root of [")
            nlo, nhi = reference_noda_bracket(cm)
            assert max(lo, nlo, blo) <= min(hi, nhi, bhi)
            if cm.n <= D.CHARPOLY_MAX_DIM:
                rlo, rhi = reference_char_poly_root(cm).refine(F(1, 10**12))
                assert max(lo, rlo) <= min(hi, rhi)
                whole += 1
            roots += 1
        assert (roots, refused, whole) == (11, 13, 4)

    def test_components_of_one_radius(self):
        # past 24 rows: a 2-cycle of weights 2 and 2 (h = 2, mu = 4) and a
        # self-loop of weight 2 (h = 1, mu = 2) share the radius 2, and
        # their enclosures meet, so the root of the least period names it;
        # so do a 2-cycle and a self-loop of weight 1, whose enclosures are
        # the point 1; two 2-cycles of one (h, mu) name their root
        def cycle(*weights):
            n = len(weights)
            return [[w if j == (i + 1) % n else 0 for j in range(n)]
                    for i, w in enumerate(weights)]

        info = CountMatrix(behind_a_chain(cycle(2, 2), cycle(2))).perron()
        assert info.exact_str() == "largest real root of [-2,1]"
        lo, hi = info.enclosure()
        assert lo <= 2 <= hi and hi - lo <= F(1, 10**12)
        info = CountMatrix(behind_a_chain(cycle(1, 1), cycle(1))).perron()
        assert info.exact_str() == "largest real root of [-1,1]"
        info = CountMatrix(behind_a_chain(cycle(2, 2), cycle(1, 4))).perron()
        assert info.exact_str() == "(largest real root of [-4,1])^(1/2)"
        lo, hi = info.enclosure()
        assert lo * lo <= 4 <= hi * hi and hi - lo <= F(1, 10**12)
        # up to 24 rows: blocks of one radius, 2, with periods 1 to 4 or
        # two polynomials keep the root of the least period; a near tie,
        # radii 10^-25 apart, is parted by narrower cells, in either order
        def blocks(*ms):
            n = sum(map(len, ms))
            out, k = [[0] * n for _ in range(n)], 0
            for m in ms:
                for i, row in enumerate(m):
                    out[k + i][k:k + len(m)] = row
                k += len(m)
            return CountMatrix(out)
        a = 10**25
        near = f"largest real root of [-1,-{a},1]"
        cases = [
            ((cycle(4, 1), [[2]]), "largest real root of [-2,1]"),
            ((cycle(8, 1, 1), cycle(4, 1)),
             "(largest real root of [-4,1])^(1/2)"),
            ((cycle(16, 1, 1, 1), cycle(8, 1, 1)),
             "(largest real root of [-8,1])^(1/3)"),
            (([[0, 1], [2, 1]], [[2]]), "largest real root of [-2,-1,1]"),
            (([[a]], [[a, 1], [1, 0]]), near),
            (([[a, 1], [1, 0]], [[a]]), near),
        ]
        for ms, want in cases:
            info = blocks(*ms).perron()
            assert info.algebraic is not None and info.exact_str() == want

    @staticmethod
    def second_route_cases():
        """Count matrices of 1 to 24 rows: seeded irreducible and reducible
        ones of every size, random ones of 2 to 5 rows with no dead rows,
        the four-block subshift, ex51, ex52, the 24-row sqrt(2) - 1 matrix
        and the 7 reducible rows of (sqrt(3) - 1)/2 at t = 5/12."""
        rng = random.Random(2024)
        cases = [CountMatrix(TestPerron.random_matrix(rng, n, irreducible))
                 for n in range(1, 25) for irreducible in (True, False)
                 for _ in range(2)]
        rng = random.Random(55)
        for _ in range(30):
            n = rng.randrange(2, 6)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][rng.randrange(n)] = rng.randrange(1, 3)
                for _e in range(rng.randrange(0, n)):
                    m[i][rng.randrange(n)] += rng.randrange(0, 3)
            cases.append(CountMatrix(m))
        cases.append(CountMatrix(T.SFT_MATRIX))
        cases.append(build_intersection_graph(ex51_setup()[1]).count_matrix)
        sys = BaseSystem(X.parse_real("alg:-1,2,1@[2/5,1/2]"), TERNARY)
        auto = E.build_expansion_automaton(sys, A.ex52_translation(sys))
        cases.append(build_intersection_graph(auto).count_matrix)
        cases.append(sqrt2_24_rows())
        sys = BaseSystem(X.parse_real("alg:-1,2,2@[1/3,1/2]"), TERNARY)
        auto = E.build_expansion_automaton(sys, sys.embed(F(5, 12)))
        cases.append(build_intersection_graph(auto).count_matrix)
        assert cases[-1].n == 7 and len(G.sccs(cases[-1].succ)) > 1
        return cases

    def test_root_against_second_route(self, monkeypatch):
        # the radius from the class route's char-poly roots, one root also
        # where components of one radius meet, lies in the Collatz-Wielandt
        # bracket of the power iteration's vectors on the whole matrix,
        # and the whole char poly's largest root changes sign where the
        # two meet
        calls = record_power(monkeypatch)
        ties = 0
        for cm in self.second_route_cases():
            info = cm.perron()
            assert calls == [] and info.algebraic is not None
            lo, hi = info.enclosure(F(1, 10**12))
            assert hi - lo <= F(1, 10**12)
            blo, bhi = cm.rowsum_enclosure(cm.power_estimate())
            calls.clear()
            a, b = max(lo, blo), min(hi, bhi)
            assert 0 < a <= b
            coeffs = reference_char_poly_root(cm).coeffs
            assert X._value_at(coeffs, a) * X._value_at(coeffs, b) <= 0
            ties += top_components(cm) > 1
        # two reducible cases have components of one radius and two
        # periods, whose roots' enclosures meet
        assert ties == 2

    def test_bracket_without_iteration_holds_root(self):
        # the reference Noda bracket with a fill cap too small for any
        # factorisation leaves v = 1, the row sums: a wider bracket with
        # integer ends, but still certified
        rng = random.Random(1962)
        for k in range(60):
            n = rng.randrange(1, 25)
            cm = CountMatrix(self.random_matrix(rng, n, k % 2 == 0))
            lo, hi = cm.perron().enclosure()
            blo, bhi = reference_noda_bracket(cm, fill_cap=0)
            assert blo <= hi and lo <= bhi
            assert blo.denominator == bhi.denominator == 1

    def test_power_bracket_where_the_fill_cap_bit(self):
        # a seeded sparse irreducible matrix of 139 rows and 500 entries:
        # Noda's factors pass 8 times its entries, so the bracket it took
        # stayed at the row sums, [1, 11]; the power iteration on it, called
        # directly, brackets the radius closely.  Its one primitive block,
        # of period 1, is past CHARPOLY_MAX_DIM rows, so perron refuses it
        rng = random.Random(8)
        n = 139
        m = [[0] * n for _ in range(n)]
        order = rng.sample(range(n), n)
        for a, b in zip(order, order[1:] + order[:1]):
            m[a][b] = 1
        while sum(x > 0 for row in m for x in row) < 500:
            m[rng.randrange(n)][rng.randrange(n)] += 1
        cm = CountMatrix(m)
        assert reference_noda_bracket(cm) == (1, 11)
        rho = max(abs(np.linalg.eigvals(np.array(m, dtype=float))))
        vectors = cm.power_estimate()
        assert [len(rows) for rows, _ in vectors] == [n]
        lo, hi = cm.rowsum_enclosure(vectors)
        assert lo - 1e-12 <= rho <= hi + 1e-12
        assert hi - lo <= F(1, 10**9) * F(rho)
        with pytest.raises(D.ClassProductTooLarge,
                           match=r"of 139 rows \(period 1\) is over the "
                                 r"bound CHARPOLY_MAX_DIM = 64$"):
            cm.perron()

    def test_periodic_block_past_24_rows_takes_a_root(self):
        # a 60-row component of period 2 whose classes have 30 rows each: B
        # is primitive and within CHARPOLY_MAX_DIM rows, so mu is its
        # char-poly root, and the radius its square root, which numpy's
        # radius, the Noda bracket and the whole matrix's char-poly root
        # meet.  B's second eigenvalue is -0.99989 of its first, which left
        # a bracket about 0.1 wide after 1 000 steps on B; on B + I the
        # next one is 0.76 of the first in modulus, and the bracket of the
        # power iteration on B, called directly, is narrow and holds mu
        rng = random.Random(60)
        m = periodic_matrix(rng, 60, blocks=1, periods=(2,))
        cm = CountMatrix(m)
        classes = G.cyclic_classes(cm.succ, G.sccs(cm.succ)[0])
        assert [len(c) for c in classes] == [30, 30]
        info = cm.perron()
        assert info.period == 2 and len(info.algebraic.coeffs) > 2
        cs = ",".join(map(str, info.algebraic.coeffs))
        assert info.exact_str() == f"(largest real root of [{cs}])^(1/2)"
        mlo, mhi = info.mu_enclosure()
        lo, hi = info.enclosure()
        assert lo * lo <= mlo and mhi <= hi * hi and hi - lo <= F(1, 10**12)
        rho = max(abs(np.linalg.eigvals(np.array(m, dtype=float))))
        assert lo - 1e-12 <= rho <= hi + 1e-12
        nlo, nhi = reference_noda_bracket(cm)
        rlo, rhi = reference_char_poly_root(cm).refine(F(1, 10**12))
        assert max(lo, nlo, rlo) <= min(hi, nhi, rhi)
        b = CountMatrix.from_successors(cm._block_product(classes))
        blo, bhi = b.rowsum_enclosure(b.power_estimate())
        assert max(mlo, blo) <= min(mhi, bhi)
        assert bhi - blo <= F(1, 10**9) * F(rho) ** 2

    def test_ex51_shifts_past_24_rows_take_roots(self):
        # seeded small shifts at ex51's base, 63 to 455 states, each one
        # component whose smallest class has 26 to 35 rows: each prints a
        # closed form, with a dimension enclosure at most 10^-15 wide, and
        # its radius meets the Noda bracket
        sys = cubic_base()
        shifts = {F(-3, 10): (455, 12), F(7, 10): (454, 12),
                  F(5, 8): (63, 2), F(1, 8): (69, 2), F(3, 8): (69, 2),
                  F(9, 20): (342, 12), F(-1, 20): (345, 12)}
        for t, (n, h) in shifts.items():
            auto = E.build_expansion_automaton(sys, sys.embed(t))
            g = build_intersection_graph(auto)
            assert g.count_matrix.n == n
            dv = perron_dimension(g, sys.alpha)
            info = dv.perron
            assert info.period == h
            assert info.exact_str().startswith("(largest real root of [")
            assert info.exact_str().endswith(f"])^(1/{h})")
            assert dv.hi - dv.lo <= 1e-15
            lo, hi = info.enclosure()
            nlo, nhi = reference_noda_bracket(g.count_matrix)
            assert max(lo, nlo) <= min(hi, nhi)

    def test_class_route_within_noda_brackets(self):
        # the reference Noda bracket against the cyclic-class route at 712
        # rows and on every pool matrix past 24 rows: they overlap, and
        # the dimension narrows
        graphs = [(sqrt2_minus_1_graph(211),
                   X.parse_real("alg:-1,2,1@[2/5,1/2]"))]
        for alpha, auto in pool_automata(lambda e: e["rows"] > 24):
            graphs.append((build_intersection_graph(auto), alpha))
        assert len(graphs) == 103
        for g, alpha in graphs:
            cm = g.count_matrix
            lo, hi = cm.perron().enclosure()
            nlo, nhi = reference_noda_bracket(cm)
            assert max(lo, nlo) <= min(hi, nhi)
            dv = perron_dimension(g, alpha)
            assert dv.hi - dv.lo <= 1e-12

    def test_pool_within_char_poly_roots(self):
        # every complete pool graph of at most 24 rows against the whole
        # matrix's char-poly root, the second route there: the radius and
        # dimension enclosures meet that route's, no dimension enclosure
        # is wider, and none is a bracket
        graphs = 0
        for alpha, auto in pool_automata(lambda e: 0 < e["rows"] <= 24):
            g = build_intersection_graph(auto)
            cm = g.count_matrix
            info = cm.perron()
            assert info.algebraic is not None
            lo, hi = info.enclosure()
            root = reference_char_poly_root(cm)
            rlo, rhi = root.refine(F(1, 10**12))
            assert max(lo, rlo) <= min(hi, rhi)
            ref = CountMatrix.from_successors(cm.succ)
            ref._perron = D.PerronInfo(root)
            want = perron_dimension(D.IntersectionGraph(ref), alpha)
            dv = perron_dimension(g, alpha)
            assert max(dv.lo, want.lo) <= min(dv.hi, want.hi)
            assert dv.hi - dv.lo <= want.hi - want.lo
            graphs += 1
        assert graphs == 199

    def test_exact_str_past_the_int_str_limit(self):
        # a weight N of 5 001 digits, past Python's 4 300-digit limit on
        # int-to-str conversion: as a 1-row matrix, on a 25-cycle, whose
        # class product is the 1 x 1 matrix [N], in the repr of its
        # dimension, and as a negative int and chunks of zeros
        N = 10**5000 + 7
        text = "1" + "0" * 4999 + "7"
        assert CountMatrix([[N]]).perron().exact_str() == \
            f"largest real root of [-{text},1]"
        cycle = [[0] * 25 for _ in range(25)]
        for i in range(25):
            cycle[i][(i + 1) % 25] = N if i == 0 else 1
        cm = CountMatrix(cycle)
        root = f"(largest real root of [-{text},1])^(1/25)"
        assert cm.perron().period == 25 and cm.perron().exact_str() == root
        dv = perron_dimension(D.IntersectionGraph(cm), F(2, 5))
        assert repr(dv) == ("DimensionValue(log(lambda)/(-log(alpha)), "
                            f"lambda = {root} ~ {dv.decimal:.6f})")
        assert dv.decimal == pytest.approx(
            5000 * math.log(10) / 25 / math.log(5 / 2), rel=1e-12)
        assert D._decimal(-N) == f"-{text}"
        assert D._decimal(10**1200 * N) == text + "0" * 1200

    def test_integer_eigenvalues_at_both_split_points(self):
        # radius 4 and eigenvalue 3 with the search interval (0, 6]: its
        # midpoint 3 and the nudged point 4 are both roots.  The class
        # route sees the two 1-row components [4] and [3] apart, so the
        # root of their product is isolated directly
        cm = CountMatrix([[4, 1], [0, 3]])
        root = X.isolate_largest_root(char_poly(cm.succ), F(0), F(6))
        assert root.coeffs == (12, -7, 1)
        lo, hi = root.refine(F(1, 10**12))
        assert lo < 4 < hi
        assert cm.perron().exact_str() == "largest real root of [-4,1]"
        assert cm.rowsum_enclosure(cm.power_estimate()) == (4, 4)

    def test_acyclic_matrix_gets_no_char_poly(self):
        # nilpotent: radius 0, no component with a cycle and no root
        for m in ([], [[0]], [[0, 1, 2], [0, 0, 3], [0, 0, 0]]):
            info = CountMatrix(m).perron()
            assert info.algebraic is None and info.period == 1
            assert info.enclosure() == (0, 0) and info.exact_str() == "0"

    def test_dominant_component_behind_transient_states(self):
        # block triangular: a self-loop (radius 1) feeds the transient
        # states 1 and 2, which alone lead to the golden block {3, 4};
        # that block drains into a final self-loop
        m = ((1, 1, 0, 0, 0, 0),
             (0, 0, 1, 0, 0, 0),
             (0, 0, 0, 1, 0, 0),
             (0, 0, 0, 1, 1, 0),
             (0, 0, 0, 1, 0, 1),
             (0, 0, 0, 0, 0, 1))
        cm = CountMatrix(m)
        assert sorted(len(rows) for rows, _ in cm.power_estimate()) == \
            [1, 1, 2]
        lo, hi = cm.rowsum_enclosure(cm.power_estimate())
        assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1
        assert hi - lo <= F(1, 10**12)
        info = cm.perron()
        glo, ghi = info.enclosure(F(1, 10**12))
        assert glo * glo - glo - 1 <= 0 <= ghi * ghi - ghi - 1


def reference_char_poly_root(cm):
    """The largest real root of the whole matrix's characteristic
    polynomial in (0, max row sum + 1], narrowed to 10^-12: the Perron
    root as ``CountMatrix.perron`` took it up to 24 rows before every
    size took the cyclic classes, for a matrix with a cycle."""
    cp = char_poly(cm.succ)
    k = next(i for i, c in enumerate(cp) if c)
    top = max(sum(a for _, a in out) for out in cm.succ)
    root = X.isolate_largest_root(cp[k:], F(0), F(top + 1))
    root.refine(F(1, 10**12))
    return root


def reference_char_poly(succ):
    """char_poly as it added into a fresh zero row once per nonzero."""
    n = len(succ)
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cs = []
    for k in range(1, n + 1):
        AM = []
        for i in range(n):
            acc = [0] * n
            for l, a in succ[i]:
                acc = [x + a * y for x, y in zip(acc, M[l])]
            AM.append(acc)
        tr = sum(AM[i][i] for i in range(n))
        assert tr % k == 0
        c = -tr // k
        cs.append(c)
        for i in range(n):
            AM[i][i] += c
        M = AM
    return list(reversed(cs)) + [1]


def reference_rowsum_enclosure(cm, vectors):
    """rowsum_enclosure as it built one Fraction per row."""
    lo = hi = F(0)
    for rows, v in vectors:
        w = dict(zip(rows, v))
        sums = [F(sum(a * w[j] for j, a in cm.succ[i] if j in w), w[i])
                for i in rows]
        lo, hi = max(lo, min(sums)), max(hi, max(sums))
    return lo, hi


# ---------------------------------------------------------------------------
# Noda's shift-and-invert bracket, the Perron route past 24 rows before the
# cyclic classes, kept as a reference
# ---------------------------------------------------------------------------

NODA_TOL = 1e-13        # a component stops once hi - lo <= NODA_TOL * hi
NODA_SHIFT = 1e-3       # sigma exceeds hi by this share of hi - lo,
NODA_SHIFT_MIN = 1e-12  # and by at least this much


def _quotient_range(adj, v):
    """The least and largest (Av)_i / v_i in floats, summed left to right."""
    q = []
    for out, x in zip(adj, v):
        s = 0.0
        for j, a in out:
            s += a * v[j]
        q.append(s / x)
    return min(q), max(q)


def _elimination_pattern(adj, cap):
    """Per row, the columns Gaussian elimination without pivoting
    eliminates and the columns of its row of the upper factor, for the
    pattern of ``adj`` with a full diagonal; None past ``cap`` entries."""
    elim, upper = [], []
    size = 0
    for i, out in enumerate(adj):
        cols = {j for j, _ in out}
        cols.add(i)
        todo = sorted(k for k in cols if k < i)
        ks = []
        while todo:
            k = todo.pop(0)
            ks.append(k)
            for j in upper[k]:
                if j not in cols:
                    cols.add(j)
                    if j < i:
                        insort(todo, j)
        size += len(cols)
        if size > cap:
            return None
        elim.append(ks)
        upper.append(sorted(j for j in cols if j > i))
    return elim, upper


def _shifted_solve(adj, pattern, sigma, v):
    """y with (sigma I - A) y = v by elimination without pivoting; None if
    a pivot is not positive."""
    elim, ucols = pattern
    n = len(adj)
    work = [0.0] * n
    urows, pivots, z = [], [], []
    for i, out in enumerate(adj):
        work[i] = sigma
        for j, a in out:
            work[j] -= a
        zi = v[i]
        for k in elim[i]:
            f = work[k] / pivots[k]
            work[k] = 0.0
            zi -= f * z[k]
            for j, u in urows[k]:
                work[j] -= f * u
        p = work[i]
        if not p > 0:
            return None
        work[i] = 0.0
        urows.append([(j, work[j]) for j in ucols[i]])
        for j in ucols[i]:
            work[j] = 0.0
        pivots.append(p)
        z.append(zi)
    y = [0.0] * n
    for i in range(n - 1, -1, -1):
        yi = z[i]
        for j, u in urows[i]:
            yi -= u * y[j]
        y[i] = yi / pivots[i]
    return y


def _noda_vector(adj, fill_cap):
    """Noda's shift-and-invert iteration (Noda 1971, Numer. Math. 17) from
    v = 1, stopping early as the library's did: factors past ``fill_cap``
    times the entries, a failed solve, a zero entry, or a step that does
    not narrow hi - lo."""
    v = [1.0] * len(adj)
    lo, hi = _quotient_range(adj, v)
    pattern = None
    while hi - lo > NODA_TOL * hi:
        if pattern is None:
            pattern = _elimination_pattern(
                adj, fill_cap * (len(adj) + sum(map(len, adj))))
            if pattern is None:
                break
        sigma = hi + max(NODA_SHIFT_MIN, NODA_SHIFT * (hi - lo))
        y = _shifted_solve(adj, pattern, sigma, v)
        if y is None:
            break
        top = max(map(abs, y))
        w = [abs(x) / top for x in y]
        if not all(x > 0 for x in w):
            break
        width = hi - lo
        v = w
        lo, hi = _quotient_range(adj, v)
        if hi - lo >= width:
            break
    return v


def reference_noda_bracket(cm, fill_cap=8):
    """The Collatz-Wielandt bracket of Noda's vectors, one per component
    with a cycle, as ``CountMatrix.perron`` took it past 24 rows."""
    vectors = []
    for rows in G.sccs(cm.succ):
        local = {r: k for k, r in enumerate(rows)}
        adj = [[(local[j], a) for j, a in cm.succ[r] if j in local]
               for r in rows]
        if any(adj):
            ratios = [x.as_integer_ratio() for x in _noda_vector(adj, fill_cap)]
            den = max(q for _, q in ratios)
            vectors.append((rows, [p * (den // q) for p, q in ratios]))
    return cm.rowsum_enclosure(vectors)


def sqrt2_24_rows():
    """The 24-row count matrix of sqrt(2) - 1 at t = -7/10, one component
    of period 12, whose squarefree char poly is x^24 - 106 x^12 + 9."""
    sys = BaseSystem(X.parse_real("alg:-1,2,1@[2/5,1/2]"), TERNARY)
    auto = E.build_expansion_automaton(sys, sys.embed(F(-7, 10)))
    cm = build_intersection_graph(auto).count_matrix
    assert cm.n == 24
    return cm


def seeded_successors(rng, n):
    """Successor lists with empty rows, self-loops, weights 1 to 3, one to
    three successors per row, and a dense row now and then."""
    succ = []
    for i in range(n):
        kind = rng.randrange(8)
        if kind == 0:
            cols = []
        elif kind == 1:
            cols = list(range(n))
        else:
            cols = rng.sample(range(n), min(n, rng.randrange(1, 4)))
            if kind == 2:
                cols.append(i)
        succ.append(sorted({j: rng.randrange(1, 4) for j in cols}.items()))
    return succ


def periodic_matrix(rng, n, blocks=3, periods=(1, 2, 3, 4)):
    """A block-triangular matrix of 1 to ``blocks`` diagonal blocks, each
    with a cycle through all its rows in class order for a period h from
    ``periods`` that divides its size, and extra entries only from one
    class to the next, so that its period is a multiple of h; plus an edge
    or two to later blocks, with the rows shuffled.  Weights are 1 or 2."""
    m = [[0] * n for _ in range(n)]
    cuts = sorted({0, n, *rng.sample(range(1, n), min(n - 1,
                                                      rng.randrange(blocks)))})
    for a, b in zip(cuts, cuts[1:]):
        s = b - a
        h = rng.choice([d for d in periods if s % d == 0] or [1])
        for i in range(s):
            m[a + i][a + (i + 1) % s] = rng.randrange(1, 3)
        for _ in range(rng.randrange(s)):
            i, j = rng.randrange(s), rng.randrange(s)
            m[a + i][a + (j - (j - i - 1) % h) % s] += 1  # i's class + 1
        if b < n:
            m[rng.randrange(a, b)][rng.randrange(b, n)] += 1
    order = rng.sample(range(n), n)
    return [[m[i][j] for j in order] for i in order]


class TestCyclicClasses:
    """The class-product route, which ``CountMatrix.perron`` takes at every
    size, against the whole matrix up to 24 rows."""

    @staticmethod
    def cases():
        rng = random.Random(4008)
        return [CountMatrix(periodic_matrix(rng, n))
                for n in list(range(1, 25)) * 6]

    def test_class_root_against_char_poly_root(self):
        # the largest mu^(1/h) over the components, each mu the char-poly
        # root of its block product, is the whole matrix's char-poly root:
        # the enclosures meet, both that of ``perron`` and that of the
        # helper, and that root changes sign where they do
        periodic = ties = 0
        for cm in self.cases():
            pairs, (lo, hi) = class_radius(cm)
            periodic += any(h > 1 for h, _ in pairs)
            ties += top_components(cm) > 1
            info = cm.perron()
            assert info.algebraic is not None
            plo, phi = info.enclosure()
            root = reference_char_poly_root(cm)
            rlo, rhi = root.refine(F(1, 10**12))
            a, b = max(lo, plo, rlo), min(hi, phi, rhi)
            assert 0 < a <= b and hi - lo <= F(1, 10**12)
            assert X._value_at(root.coeffs, a) * \
                X._value_at(root.coeffs, b) <= 0
        assert periodic >= 60 and ties == 5

    def test_char_poly_factors_over_the_classes(self):
        # det(xI - A) = x^k prod_c x^(n_c - h_c m_c) f_c(x^(h_c)), with f_c
        # the char poly of component c's block product on its m_c rows of
        # C_0 and k the rows on no cycle
        rng = random.Random(400)
        periodic = 0
        for i in range(400):
            n = rng.randrange(1, 17)
            m = periodic_matrix(rng, n) if i % 2 else \
                TestPerron.random_matrix(rng, n, irreducible=i % 4 == 0)
            cm = CountMatrix(m)
            want = [1]
            for rows in G.sccs(cm.succ):
                classes = G.cyclic_classes(cm.succ, rows)
                if not classes:
                    want = X.poly_mul(want, [0, 1])
                    continue
                h, f = len(classes), char_poly(cm._block_product(classes))
                periodic += h > 1
                spread = [0] * (len(rows) - h * (len(f) - 1))
                for j, c in enumerate(f):
                    spread += [c] + [0] * (h - 1) * (j + 1 < len(f))
                want = X.poly_mul(want, spread)
            assert char_poly(cm.succ) == want
        assert periodic >= 100


def test_descartes_isolation_against_sturm_chain():
    """Each class product's char-poly root, as ``CountMatrix.perron`` takes
    it, and the whole matrix's, of ``TestPerron``'s and
    ``TestCyclicClasses``' seeded matrices and a dense 24-row class product
    of 58-bit entries, and the nudged polynomials' roots: the Descartes
    search against the integer Sturm chain it replaced."""
    rng = random.Random(5)
    dense = CountMatrix.from_successors([[(j, rng.getrandbits(58) + 1)
                                          for j in range(24)]
                                         for _ in range(24)])
    cases = [(NUDGED, F(6)), (NUDGED, F(10)), (NUDGED_TWICE, F(6)),
             (NUDGED_TWICE, F(8))]
    for cm in TestPerron.second_route_cases() + TestCyclicClasses.cases() \
            + [dense]:
        products = [cm.succ]
        for rows in G.sccs(cm.succ):
            cs = G.cyclic_classes(cm.succ, rows)
            if cs:
                k = cs.index(min(cs, key=len))
                products.append(cm._block_product(cs[k:] + cs[:k]))
        for succ in products:
            cp = char_poly(succ)
            cp = cp[next(i for i, c in enumerate(cp) if c):]
            if len(cp) > 1:
                hi = max(sum(a for _, a in out) for out in succ) + 1
                cases.append((cp, F(hi)))
    isolated = repeated = 0
    for p, hi in cases:
        assert_same_root(X.isolate_largest_root(p, F(0), hi), p, F(0), hi)
        isolated += 1
        repeated += len(X.poly_gcd(p, X.poly_derivative(p))) > 1
    assert isolated >= 800 and repeated >= 30
    mu = dense.perron().algebraic
    assert mu.degree == 24 and mu.interval() == \
        X.isolate_largest_root(cases[-1][0], F(0), cases[-1][1]) \
        .refine(F(1, 10**20))


def test_one_radius_as_under_the_sturm_count(monkeypatch):
    """The matrices whose components of other (h, mu) meet at the top, so
    that ``_one_radius`` decides, give the same root and cell when its
    counts come from the Sturm chain."""
    cases = [cm for cm in TestPerron.second_route_cases()
             + TestCyclicClasses.cases() if top_components(cm) > 1]
    got = [(cm.perron().exact_str(), cm.perron().enclosure())
           for cm in cases]
    calls = []

    def sturm_count(p, lo, hi):  # roots in [lo, hi]
        calls.append(p)
        return reference_sturm_count(p, lo, hi) + (X._value_at(p, lo) == 0)
    monkeypatch.setattr(X, "root_count", sturm_count)
    assert len(cases) == 7
    for cm, want in zip(cases, got):
        cm._perron = None
        assert (cm.perron().exact_str(), cm.perron().enclosure()) == want
    assert len(calls) >= 3 * len(cases)


class TestSparseCharPoly:
    def test_matches_dense_loop(self):
        rng = random.Random(2417)
        cases = [seeded_successors(rng, n) for n in range(25)
                 for _ in range(6)]
        cases.append(sqrt2_24_rows().succ)
        for succ in cases:
            assert char_poly(succ) == reference_char_poly(succ)
        want = [9] + [0] * 11 + [-106] + [0] * 11 + [1]
        assert char_poly(sqrt2_24_rows().succ) == want

    def test_integrality_guard_stays(self):
        # a non-integer entry makes a trace that k does not divide
        with pytest.raises(D.VerificationFailed, match="integral"):
            char_poly([[(1, 1)], [(0, F(1, 2))]])


class TestOneChainPerron:
    @pytest.mark.parametrize("make", [
        lambda: build_intersection_graph(ex51_setup()[1]).count_matrix,
        sqrt2_24_rows], ids=["ex51", "sqrt2-24"])
    def test_one_squarefree_step_per_root(self, make, monkeypatch):
        cm = make()
        assert cm.n in (6, 24)
        calls = []
        squarefree = X._squarefree
        monkeypatch.setattr(X, "_squarefree",
                            lambda p: calls.append(p) or squarefree(p))
        info = cm.perron()
        assert info.algebraic is not None and len(calls) == 1

    def test_rowsum_enclosure_matches_fraction_per_row(self):
        rng = random.Random(1913)
        cms = [sqrt2_24_rows(), CountMatrix(T.SFT_MATRIX),
               build_intersection_graph(ex51_setup()[1]).count_matrix]
        for k in range(40):
            n = rng.randrange(1, 40)
            cms.append(CountMatrix(TestPerron.random_matrix(
                rng, n, irreducible=k % 2 == 0)))
        for cm in cms:
            vectors = cm.power_estimate()
            assert all(type(x) is int and x > 0 for _, v in vectors
                       for x in v)
            assert cm.rowsum_enclosure(vectors) == \
                reference_rowsum_enclosure(cm, vectors)
            # coarse positive vectors, so that ties and wide quotients occur
            coarse = [(rows, [rng.randrange(1, 4) for _ in rows])
                      for rows, _ in vectors]
            got = cm.rowsum_enclosure(coarse)
            assert got == reference_rowsum_enclosure(cm, coarse)
            assert all(type(x) is F for x in got)


class TestCountMatrix:
    def test_successor_lists_and_entries(self):
        m = ((0, 2, 0), (1, 0, 3), (0, 0, 0))
        cm = CountMatrix(m)
        assert cm.succ == [[(1, 2)], [(0, 1), (2, 3)], []]
        assert cm.entries == m and cm.n == 3
        assert CountMatrix.from_successors(cm.succ).entries == m
        assert CountMatrix([]).entries == () and CountMatrix([]).succ == []

    def test_rejects_non_square_and_negative(self):
        with pytest.raises(ValueError):
            CountMatrix([[1, 0]])
        with pytest.raises(ValueError):
            CountMatrix([[1, -1], [0, 1]])

    @pytest.mark.parametrize("entry", [1.5, F(5, 2), "2", 2.0],
                             ids=["float", "fraction", "str", "integral-float"])
    def test_rejects_non_integer_entries(self, entry):
        # int() would truncate 1.5 and 5/2 and parse "2"
        with pytest.raises(ValueError, match="integers"):
            CountMatrix([[entry]])

    def test_integer_rows_build(self):
        want = CountMatrix([[0, 2], [1, 1]])
        for rows in ([(0, 2), (1, 1)], np.array([[0, 2], [1, 1]]),
                     [[np.int64(0), np.int32(2)], [np.uint8(1), np.int16(1)]]):
            cm = CountMatrix(rows)
            assert cm.succ == want.succ and cm.entries == want.entries
            assert all(type(a) is int for out in cm.succ for _, a in out)

    def test_graph_lists_are_successors_of_entries(self):
        # build_intersection_graph hands over summed lists: columns
        # ascending, parallel edges summed, zeros dropped
        sys, auto = ex51_setup()
        for t in (X.QAlphaElement(sys.ctx, auto.states[0]), sys.high_tail(),
                  E.seq_value(sys, W.parse_seq("+++-0+"))):
            g = build_intersection_graph(
                E.build_expansion_automaton(sys, t))
            cm = g.count_matrix
            assert cm.succ == G.successors(cm.entries)
            # trimmed: no zero row, so perron_dimension tests g.empty alone
            assert not g.empty and min(map(sum, cm.entries)) >= 1


class TestIntersectionGraph:
    def test_example51_matrix(self):
        sys, auto = ex51_setup()
        g = build_intersection_graph(auto)
        from cantorint.acceptance import _PUBLISHED_MATRIX_51, \
            _permutation_equivalent
        assert _permutation_equivalent(g.count_matrix.entries,
                                       _PUBLISHED_MATRIX_51)

    def test_single_one_loop(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        auto = E.build_expansion_automaton(sys, sys.high_tail())
        g = build_intersection_graph(auto)
        assert g.count_matrix.entries == ((1,),)
        dv = perron_dimension(g, F(2, 5))
        assert dv.decimal == 0.0

    def test_zero_loop_full_dimension(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        auto = E.build_expansion_automaton(sys, F(0))
        g = build_intersection_graph(auto)
        assert g.count_matrix.entries == ((2,),)
        dv = perron_dimension(g, F(2, 5))
        assert abs(dv.decimal - full_dimension(sys).decimal) < 1e-12

    def test_incomplete_rejected(self):
        sys = BaseSystem(F(21, 50), TERNARY)
        auto = E.build_expansion_automaton(sys, F(1, 3), state_cap=5)
        assert not auto.complete
        with pytest.raises(D.IncompleteAutomaton):
            build_intersection_graph(auto)

    def test_empty_intersection(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        auto = E.build_expansion_automaton(sys, sys.high_tail() * 2)
        g = build_intersection_graph(auto)
        dv = perron_dimension(g, F(2, 5))
        assert dv.empty and dv.decimal == 0.0

    @pytest.mark.parametrize("text", ["alg:-1,2,1@[2/5,1/2]", "rat:2/5"])
    def test_radius_one_is_exactly_zero(self, text):
        # shifts pre (per)^inf: lambda = 1 exactly where every cycle of the
        # graph is its component's only one, of weight 1 (then the
        # dimension is 0.0 on both ends), and lambda > 1 otherwise
        alpha = X.parse_real(text)
        sys = BaseSystem(alpha, TERNARY)
        branching = 0
        for k in range(4):
            for pre in product("+-0", repeat=k):
                for per in ("+", "-", "+-", "0"):
                    seq = W.parse_seq("".join(pre) + f"({per})")
                    auto = E.build_expansion_automaton(
                        sys, E.seq_value(sys, seq), state_cap=3000)
                    if not auto.complete:
                        continue
                    g = build_intersection_graph(auto)
                    if g.empty:
                        continue
                    succ = g.count_matrix.succ
                    one = all(
                        [a for v, a in succ[u] if v in c] == [1]
                        for c in map(set, G.sccs(succ)) for u in c
                        if any(v in c for v, _ in succ[u]))
                    dv = perron_dimension(g, alpha)
                    if one:
                        assert (dv.lo, dv.hi) == (0.0, 0.0)
                        branching += max(map(sum, g.count_matrix.entries)) > 1
                    else:
                        assert dv.lo > 0
        assert branching > 0


    # sqrt(2) - 1: over {0,1} the graph was empty (dimension 0), over
    # {0,1,2} perron_dimension raised VerificationFailed, and over {-2..2}
    # the cycle bound read 3/4 where the ternary one is 1/2
    @pytest.mark.parametrize("alphabet, t", [
        (W.Alphabet(0, 2), F(1, 5)), (W.Alphabet(0, 3), F(1, 5)),
        (W.Alphabet(-2, 5), F(1, 3))])
    def test_other_alphabets_refused(self, alphabet, t):
        sys = BaseSystem(X.parse_real("alg:-1,2,1@[2/5,1/2]"), alphabet)
        auto = E.build_expansion_automaton(sys, t)
        assert auto.complete
        with pytest.raises(OutOfDomain, match=r"over \{-1,0,1\}$"):
            build_intersection_graph(auto)
        with pytest.raises(OutOfDomain, match=r"over \{-1,0,1\}$"):
            freq_upper_bound_over_expansions(auto)


class TestFrequencyBound:
    def test_example51(self):
        sys, auto = ex51_setup()
        assert freq_upper_bound_over_expansions(auto) == F(1, 3)

    def test_zero_loop(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        auto = E.build_expansion_automaton(sys, F(0))
        assert freq_upper_bound_over_expansions(auto) == F(1)

    def test_one_loop(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        auto = E.build_expansion_automaton(sys, sys.high_tail())
        assert freq_upper_bound_over_expansions(auto) == F(0)

    def test_perron_dominates_cycle_bound(self):
        # dim >= full * (max cycle-mean zero frequency), strict for ex 5.1
        sys, auto = ex51_setup()
        g = build_intersection_graph(auto)
        dv = perron_dimension(g, sys.alpha)
        bound = freq_upper_bound_over_expansions(auto)
        rhs = dim_from_frequency(sys, bound)
        assert rhs.hi < dv.lo


class TestPerronMeetsFrequency:
    """Two certified routes to dim(Gamma ∩ (Gamma + t)) on one input: for t
    with a unique, eventually periodic expansion of zero frequency f, the
    frequency formula f log 2 / (-log alpha) and the intersection graph's
    log lambda / (-log alpha) must have overlapping enclosures, and the
    graph's one infinite path must spell the expansion."""

    @pytest.mark.parametrize("base", ["alg:-1,2,1@[2/5,1/2]",
                                      "alg:-1,1,2,2@[2/5,1/2]",
                                      "alg:-1,2,2@[1/3,2/5]"])
    def test_enclosures_overlap(self, base):
        sys = BaseSystem(X.parse_real(base), TERNARY)
        rng = random.Random(base)
        kept = 0
        for _ in range(400):
            pre, per = rng.randrange(4), rng.randrange(1, 7)
            seq = EPSeq([rng.choice((-1, 0, 1)) for _ in range(pre)],
                        [rng.choice((-1, 0, 1)) for _ in range(per)])
            uniq = E.is_unique_expansion(sys, seq).status
            if uniq is not E.UniqStatus.UNIQUE:
                continue
            auto = E.build_expansion_automaton(sys, E.seq_value(sys, seq))
            assert auto.complete
            live, state = G.trim(auto.succ), auto.initial
            for d in seq.pre + seq.per * 2:
                [(state, digit)] = live[state]
                assert digit == d
            dv = perron_dimension(build_intersection_graph(auto), sys.alpha)
            fv = dim_from_frequency(sys, W.zero_density(seq))
            assert dv.lo <= fv.hi and fv.lo <= dv.hi, seq
            kept += 1
        assert kept >= 40


# The float walk box_count_oracle had before the exact integer grid: the
# same walk on float intervals, rounded outward by nextafter at each step.

def _ref_iv_add(a, b):
    return (math.nextafter(a[0] + b[0], -math.inf),
            math.nextafter(a[1] + b[1], math.inf))


def _ref_iv_mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (math.nextafter(min(p), -math.inf),
            math.nextafter(max(p), math.inf))


def _ref_iv_of(x, width=F(1, 10**22)):
    lo, hi = X.enclosure(x, width)
    return (math.nextafter(float(lo), -math.inf),
            math.nextafter(float(hi), math.inf))


def reference_box_rows(alpha, t, depth):
    """(rows, slope) of the float walk, witnesses as box_count_oracle's."""
    inf, buf = math.inf, 8  # gamma levels each upper-count probe looks past n
    a_iv, t_iv = _ref_iv_of(alpha), _ref_iv_of(t)
    one_minus = _ref_iv_add((1.0, 1.0), (-a_iv[1], -a_iv[0]))
    recip = (math.nextafter(1.0 / one_minus[1], -inf),
             math.nextafter(1.0 / one_minus[0], inf))
    u_iv = _ref_iv_mul(a_iv, recip)  # alpha/(1-alpha)
    pows = [(1.0, 1.0)]
    for _ in range(depth + buf):
        pows.append(_ref_iv_mul(pows[-1], a_iv))
    tails = [_ref_iv_mul(p, u_iv)[1] for p in pows]
    if isinstance(t, X.QAlphaElement):
        ctx, t_exact = t.ctx, t
    else:
        ctx = X.QAlphaContext(alpha)
        t_exact = ctx.embed(F(t))
    search = E.GammaSearch(BaseSystem(ctx.alpha, W.BINARY))
    a_pows = [ctx.element([0] * k + [1]).state for k in range(depth + 1)]
    uppers = [0] * (depth + 1)
    lowers = [0] * (depth + 1)

    def probe(I, gammas, k):
        stack = [(g, k) for g in gammas]
        while stack:
            part, m = stack.pop()
            if part[0] > I[1] or \
                    math.nextafter(part[1] + tails[m], inf) < I[0]:
                continue
            if m >= k + buf:
                return True
            stack.append((part, m + 1))
            stack.append((_ref_iv_add(part, pows[m + 1]), m + 1))
        return False

    def walk(k, part, gammas, x):
        tail_hi = tails[k]
        I = (part[0], math.nextafter(part[1] + tail_hi, inf))
        kept = []
        for g in gammas:
            if g[0] > I[1] or math.nextafter(g[1] + tail_hi, inf) < I[0]:
                continue
            if g not in kept:
                kept.append(g)
        if not kept or not probe(I, kept, k):
            return
        if k > 0:
            uppers[k] += 1
            lowers[k] += search.membership(x) is E.GammaStatus.IN
        if k == depth:
            return
        pw = pows[k + 1]
        next_g = [h for g in kept for h in (g, _ref_iv_add(g, pw))]
        walk(k + 1, part, next_g, x)
        walk(k + 1, _ref_iv_add(part, pw), next_g, ctx.add(x, a_pows[k + 1]))

    walk(0, (0.0, 0.0), [t_iv], (-t_exact).state)
    rows = [(n, lowers[n], uppers[n]) for n in range(1, depth + 1)]
    half = [(n, u) for (n, _, u) in rows if u > 0]
    half = half[len(half) // 2:]
    if len(half) < 2:
        return rows, 0.0
    neg_log = -math.log((a_iv[0] + a_iv[1]) / 2)
    return rows, D._lsq_slope([n * neg_log for (n, _) in half],
                              [math.log(u) for (_, u) in half])


# The integer probe box_count_oracle ran below every kept node before its
# docstring's lemma showed that it always finds an extension.

def reference_probe(I, gammas, k, pows, tails, buf=8):
    """Is some extension of a gamma prefix ``buf`` levels below level k
    still overlapping I?"""
    stack = [(g, k) for g in gammas]
    while stack:
        part, m = stack.pop()
        if part[0] > I[1] or part[1] + tails[m] < I[0]:
            continue
        if m >= k + buf:
            return True
        stack.append((part, m + 1))
        pw = pows[m + 1]
        stack.append(((part[0] + pw[0], part[1] + pw[1]), m + 1))
    return False


def probe_at_kept_nodes(alpha, t, depth):
    """Walk box_count_oracle's kept filter to ``depth`` and run the probe
    at every node it keeps: (upper counts per depth, kept nodes, probes
    that found no extension)."""
    _, _, t_iv, pows, tails = D._box_grid(alpha, t, depth + 8)
    uppers = [0] * (depth + 1)
    misses = []

    def walk(k, part, gammas):
        I = (part[0], part[1] + tails[k])
        kept = list(dict.fromkeys(g for g in gammas if g[0] <= I[1]
                                  and g[1] + tails[k] >= I[0]))
        if not kept:
            return
        uppers[k] += 1
        if not reference_probe(I, kept, k, pows, tails):
            misses.append((k, part))
        if k == depth:
            return
        p0, p1 = pows[k + 1]
        next_g = [h for g in kept for h in (g, (g[0] + p0, g[1] + p1))]
        walk(k + 1, part, next_g)
        walk(k + 1, (part[0] + p0, part[1] + p1), next_g)

    walk(0, (0, 0), [t_iv])
    return uppers[1:], sum(uppers), misses


def check7_cases():
    """verify-paper check 7's three box-count calls at its own depths."""
    sys = cubic_base()
    a = sys.ctx.alpha_element
    return [(F(2, 5), F(0), 14),
            (sys.alpha, -a / (sys.ctx.one + a), 12),
            (F(2, 5), 2 * F(2, 5) / (1 - F(2, 5)), 8)]


def touching_cases():
    """Gamma + t meeting Gamma in one end point, t = +-alpha/(1 - alpha),
    at depth 8, with the rational shifts also as Fractions."""
    out = []
    for base in ("rat:2/5", "alg:-1,2,1@[2/5,1/2]"):
        u = BaseSystem(X.parse_real(base), TERNARY).tail_unit
        out += [(u.ctx.alpha, u, 8), (u.ctx.alpha, -u, 8)]
        if u.ctx.degree == 1:
            out += [(u.ctx.alpha, to_fraction(u), 8),
                    (u.ctx.alpha, -to_fraction(u), 8)]
    return out


def edge_base_cases():
    """Bases near 1/3 and 1/2, and 1/5 and 3/5, with shifts from 0 past
    the ends of Gamma, at depth 10 (8 for the overlapping 3/5)."""
    out = []
    for alpha in (F(1, 3) + F(1, 1000), F(1, 2) - F(1, 1000), F(1, 5),
                  F(3, 5)):
        u = alpha / (1 - alpha)
        depth = 8 if alpha > F(1, 2) else 10
        for c in (F(0), F(1, 3), F(-1, 2), F(1), F(-1), F(7, 5)):
            out.append((alpha, u * c, depth))
    return out


BOX_BASES = ("rat:2/5", "rat:19/50", "rat:9/25", "rat:3/7", "rat:41/100",
             "alg:-1,1,2,2@[2/5,1/2]", "alg:-1,2,1@[2/5,1/2]",
             "alg:1,-3,1@[1/3,1/2]", "alg:-1,2,2@[1/3,1/2]")


def box_cases():
    """(alpha, t, depth): per base, two rational shifts and two Q(alpha)
    shifts, from seeded digit words and fractions of alpha/(1 - alpha),
    at seeded depths 1 to 9."""
    rng = random.Random(1301)
    out = []
    for text in BOX_BASES:
        sys = BaseSystem(X.parse_real(text), TERNARY)
        u = sys.tail_unit
        for _ in range(2):
            word = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 4))]
            out.append((sys.alpha, E.seq_value(sys, W.FiniteWord(word,
                                                                TERNARY)),
                        rng.randint(1, 9)))
            out.append((sys.alpha, u * F(rng.randrange(-12, 13), 10),
                        rng.randint(1, 9)))
            r = F(rng.randrange(-40, 41), rng.randrange(1, 60))
            out.append((sys.alpha, r, rng.randint(1, 9)))
    return out


class TestBoxCount:
    def test_identity_translation(self):
        rep = box_count_oracle(F(2, 5), F(0), 8)
        assert all(l == 2**n and u == 2**n for (n, l, u) in rep.rows)
        full = full_dimension(BaseSystem(F(2, 5), TERNARY)).decimal
        assert abs(rep.slope - full) < 1e-6

    def test_outside(self):
        rep = box_count_oracle(F(2, 5), F(5, 3), 6)
        assert all(l == 0 and u == 0 for (_, l, u) in rep.rows)
        assert rep.slope == 0.0  # no point to fit

    def test_one_point_has_slope_zero(self):
        assert box_count_oracle(F(2, 5), F(0), 1).slope == 0.0
        assert box_count_oracle(F(2, 5), F(0), 3).slope > 0  # two points

    def test_slope_matches_polyfit(self):
        # the closed form against numpy's least squares on point sets
        # shaped like the oracle's: consecutive depths times -log alpha
        # against the log of the counts
        rng = random.Random(811)
        for _ in range(2000):
            k = rng.randrange(2, 11)
            step = rng.uniform(0.6, 1.2)
            n0 = rng.randrange(1, 12)
            xs = [(n0 + i) * step for i in range(k)]
            a, b = rng.uniform(0.3, 1.5), rng.uniform(-2.0, 2.0)
            ys = [a * x + b + rng.gauss(0.0, 0.02) for x in xs]
            want = float(np.polyfit(np.array(xs), np.array(ys), 1)[0])
            assert abs(D._lsq_slope(xs, ys) - want) <= 1e-12 * abs(want)

    def test_example51_slope(self):
        sys, auto = ex51_setup()
        a = sys.ctx.alpha_element
        t = -a / (sys.ctx.one + a)
        rep = box_count_oracle(sys.alpha, t, 10)
        assert abs(rep.slope - 0.644297) <= 0.08
        # lower counts certify witnesses, so lower <= upper throughout
        assert all(l <= u for (_, l, u) in rep.rows)
        assert rep.rows[-1][1] > 0

    def test_example52_slope_matches_perron(self):
        alpha = X.AlgebraicReal([-1, 2, 1], F(2, 5), F(1, 2))
        sys = BaseSystem(alpha, TERNARY)
        a = sys.ctx.alpha_element
        a3 = a * a * a
        t = a / (a3 - sys.ctx.one) + a * a / (sys.ctx.one - a3)
        auto = E.build_expansion_automaton(sys, t)
        dv = perron_dimension(build_intersection_graph(auto), alpha)
        rep = box_count_oracle(alpha, t, 12)
        assert abs(rep.slope - dv.decimal) <= 0.08

    def test_rows_from_one_half_are_certified(self):
        # Gamma is all of [0, u] for alpha >= 1/2, so every kept cell whose
        # p - t lies in [0, u] is IN at once
        rep = box_count_oracle(F(3, 5), F(0), 8)
        assert rep.rows == [(n, 2**n, 2**n) for n in range(1, 9)]
        sys = BaseSystem(X.parse_real("alg:1,-5,5@[1/2,1]"), TERNARY)
        rep = box_count_oracle(sys.alpha, A.ex51_translation(sys), 1)
        assert rep.rows == [(1, 2, 2)]

    @pytest.mark.parametrize("text, t, rows", [
        ("rat:3/5", F(0), [(n, 2**n, 2**n) for n in range(1, 9)]),
        ("alg:-1,1,1@[1/2,1]", F(0), [(n, 2**n, 2**n) for n in range(1, 9)]),
        ("rat:3/5", F(1, 3), [(1, 1, 2), (2, 3, 4), (3, 6, 7), (4, 13, 14),
                              (5, 26, 27), (6, 53, 54)]),
        ("alg:-1,1,1@[1/2,1]", F(1, 3),
         [(1, 1, 2), (2, 3, 4), (3, 6, 8), (4, 13, 15), (5, 26, 29),
          (6, 53, 56)])])
    def test_no_slope_above_one_half(self, text, t, rows):
        # the cylinders overlap above 1/2, so a fitted slope (1.357 at 3/5,
        # 1.440 at the golden base, t = 0) estimates no dimension
        rep = box_count_oracle(X.parse_real(text), t, len(rows))
        assert rep.rows == rows and rep.slope is None

    def test_slope_at_one_half(self):
        rep = box_count_oracle(F(1, 2), F(0), 8)
        assert rep.rows == [(n, 2**n, 2**n) for n in range(1, 9)]
        assert rep.slope == 1.0

    def test_depth_cap(self):
        with pytest.raises(D.DepthCapExceeded):
            box_count_oracle(F(2, 5), F(0), 25)

    @pytest.mark.parametrize("alpha", [F(3, 2), F(1), F(0), F(-1, 3)])
    def test_base_outside_unit_interval(self, alpha):
        # the grid's tails and powers hold only for 0 < alpha < 1
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            box_count_oracle(alpha, F(0), 4)

    # the rows of the verify-paper box-counting check at its own depths;
    # a fresh membership search per witness gives exactly these
    def test_check7_rows_identity(self):
        rep = box_count_oracle(F(2, 5), F(0), 14)
        assert rep.rows == [(n, 2**n, 2**n) for n in range(1, 15)]

    def test_check7_rows_example51(self):
        sys = cubic_base()
        a = sys.ctx.alpha_element
        rep = box_count_oracle(sys.alpha, -a / (sys.ctx.one + a), 12)
        assert rep.rows == [
            (1, 2, 2), (2, 3, 3), (3, 4, 5), (4, 7, 9), (5, 12, 15),
            (6, 19, 25), (7, 32, 43), (8, 55, 73), (9, 92, 123),
            (10, 155, 209), (11, 264, 355), (12, 447, 601)]
        assert abs(rep.slope - 0.6436137580344715) <= 1e-12


    def test_shift_from_another_field_is_refused(self):
        t = X.QAlphaContext(F(3, 5)).embed(F(1, 7))
        with pytest.raises(ValueError, match="different Q"):
            box_count_oracle(F(2, 5), t, 4)

    @pytest.mark.parametrize("t", ["akl", "alg:-1,2,1@[2/5,1/2]"])
    def test_shift_outside_the_field_is_refused(self, t):
        # no witness search can take an irrational shift at a rational
        # base, so the call is refused rather than left without lower rows
        with pytest.raises(ValueError, match="no state in Q"):
            box_count_oracle(F(2, 5), X.parse_real(t), 4)

    def test_base_without_a_field_is_refused(self):
        with pytest.raises(X.UnsupportedBase):
            box_count_oracle(T.alpha_kl_real(), F(0), 4)

    def test_grid_matches_float_walk(self):
        # the exact grid keeps every row and slope of the float walk
        cases = box_cases()
        witnessed = sloped = 0
        for alpha, t, depth in cases:
            rep = box_count_oracle(alpha, t, depth)
            assert (rep.rows, rep.slope) == reference_box_rows(alpha, t, depth)
            witnessed += rep.rows[-1][1] > 0
            sloped += rep.slope != 0
        assert len(cases) == 54 and witnessed >= 10 and sloped >= 10

    def test_grid_matches_float_walk_check7(self):
        for alpha, t, depth in check7_cases():
            rep = box_count_oracle(alpha, t, depth)
            assert (rep.rows, rep.slope) == reference_box_rows(alpha, t, depth)

    def test_probe_finds_extension_at_every_kept_node(self):
        # the lemma in box_count_oracle's docstring: below a kept node some
        # gamma extension overlaps the cylinder 8 levels further down, so
        # the deleted probe could never prune.  The walk here keeps the
        # oracle's upper counts; 499/1000 skips that comparison, since the
        # oracle's witness searches there run their one path to the depth
        # cap and take seconds
        cases = box_cases() + check7_cases() + touching_cases()
        nodes = 0
        for i, (alpha, t, depth) in enumerate(cases + edge_base_cases()):
            uppers, kept, misses = probe_at_kept_nodes(alpha, t, depth)
            assert misses == []
            if i < len(cases) or alpha != F(499, 1000):
                assert uppers == [u for (_, _, u) in
                                  box_count_oracle(alpha, t, depth).rows]
            nodes += kept
        assert len(cases) == 63 and nodes > 45_000

    def test_inherited_verdicts_under_tiny_depth_cap(self, monkeypatch):
        # a depth cap of 2 leaves many verdicts UNKNOWN; a 0-child inherits
        # only IN/OUT and searches again after UNKNOWN, so the rows equal
        # the walk that searches at every node, and the capped rows differ
        # from the uncapped ones on some cases
        statuses = []

        class Capped(E.GammaSearch):
            def membership(self, x):
                res = super().membership(x)
                statuses.append(res)
                return res

        cases = check7_cases() + box_cases()
        uncapped = [box_count_oracle(*c).rows for c in cases]
        monkeypatch.setattr(E, "_GAMMA_DEPTH_CAP", 2)
        monkeypatch.setattr(E, "GammaSearch", Capped)
        calls = ref_calls = changed = 0
        for case, rows in zip(cases, uncapped):
            statuses.clear()
            rep = box_count_oracle(*case)
            calls += len(statuses)
            unknown = statuses.count(E.GammaStatus.UNKNOWN)
            statuses.clear()
            assert (rep.rows, rep.slope) == reference_box_rows(*case)
            ref_calls += len(statuses)
            changed += unknown > 0 and rep.rows != rows
        assert changed >= 10 and calls < ref_calls

    def test_unknown_verdict_is_searched_again(self, monkeypatch):
        # a search that answers UNKNOWN the first time it is asked about a
        # value, as a capped search can before later facts complete it:
        # the 0-child asks again and gets the certified verdict
        class AskTwice(E.GammaSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.asked = set()

            def membership(self, x):
                if x in self.asked:
                    return super().membership(x)
                self.asked.add(x)
                return E.GammaStatus.UNKNOWN

        monkeypatch.setattr(E, "GammaSearch", AskTwice)
        witnessed = 0
        for case in check7_cases() + box_cases():
            rep = box_count_oracle(*case)
            assert (rep.rows, rep.slope) == reference_box_rows(*case)
            witnessed += rep.rows[-1][1] > 0
        assert witnessed >= 10

    @pytest.mark.parametrize("text", BOX_BASES)
    def test_grid_holds_true_values(self, text):
        # ints that hold 2^64 t and 2^64 alpha^m, a bound on 2^64
        # alpha^(m+1)/(1 - alpha) from above, each at most 2 grid steps
        # off; a far narrower enclosure stands in for the true values
        one = 1 << 64
        alpha = X.parse_real(text)
        sys = BaseSystem(alpha, TERNARY)
        u = sys.tail_unit
        for t in (F(0), F(-7, 3), F(1, 3), u, -u * F(2, 7), u * u - 1):
            alo, ahi, t_iv, pows, tails = D._box_grid(alpha, t, 20)
            assert (alo, ahi) == X.enclosure(alpha, F(1, 2**80))
            lo, hi = X.enclosure(alpha, F(1, 2**200))
            tlo, thi = X.enclosure(t, F(1, 2**200))
            grid = [*t_iv, *tails] + [x for p in pows for x in p]
            assert len(pows) == len(tails) == 21
            assert all(type(x) is int for x in grid)
            assert t_iv[0] <= tlo * one and thi * one <= t_iv[1]
            assert t_iv[1] - t_iv[0] <= 2
            for m, (p0, p1) in enumerate(pows):
                assert p0 <= lo**m * one and hi**m * one <= p1 <= p0 + 2
                tail = hi**(m + 1) / (1 - hi) * one
                assert tail <= tails[m] <= tail + 2

    @pytest.mark.parametrize("base", ["rat:2/5", "alg:-1,2,1@[2/5,1/2]"])
    def test_exact_touching(self, base):
        # Gamma + alpha/(1 - alpha) meets Gamma in its one end point: the
        # cylinder 1...1 is kept, and its prefix value is no witness
        sys = BaseSystem(X.parse_real(base), TERNARY)
        u = sys.tail_unit
        rep = box_count_oracle(sys.alpha, u, 8)
        assert rep.rows == [(n, 0, 1) for n in range(1, 9)]
        if sys.ctx.degree == 1:  # the same shift as a Fraction
            assert box_count_oracle(sys.alpha, to_fraction(u), 8).rows == \
                rep.rows
            # Gamma - alpha/(1 - alpha) meets Gamma in 0, a witness
            rep = box_count_oracle(sys.alpha, -u, 8)
            assert rep.rows == [(n, 1, 1) for n in range(1, 9)]


class TestSelfSimilar:
    def test_family_word(self):
        sys = BaseSystem(F(9, 25), TERNARY)
        seq = EPSeq((), (1, -1, 1, -1, 0, 0, 0), TERNARY)
        res = self_similar_check(sys, seq)
        assert res.status is SelfSimilarStatus.SELF_SIMILAR

    def test_not_unique(self):
        sys = cubic_base()
        res = self_similar_check(sys, EPSeq((), (-1, 1), TERNARY))
        assert res.status is SelfSimilarStatus.NOT_UNIQUE

    def test_not_self_similar(self):
        # unique at 9/25, but (1-|t_i|) = 1 0^inf is not IJ^inf with I <= J
        sys = BaseSystem(F(9, 25), TERNARY)
        seq = EPSeq((0,), (1, -1), TERNARY)
        res = E.is_unique_expansion(sys, seq)
        assert res.status is E.UniqStatus.UNIQUE
        got = self_similar_check(sys, seq)
        assert got.status is SelfSimilarStatus.NOT_SELF_SIMILAR


class TestDenseTargets:
    def test_exact_hits(self):
        targets = [F(j, 10) for j in range(11)]
        seqs = dense_selfsimilar_targets(F(9, 25), targets, F(1, 100))
        for tg, sq in zip(targets, seqs):
            assert abs(W.zero_density(sq).value - tg) <= F(1, 100)

    def test_zero_target(self):
        (sq,) = dense_selfsimilar_targets(F(9, 25), [F(0)], F(1, 100))
        assert W.zero_density(sq).value == 0

    def test_one_target_needs_long_zero_block(self):
        (sq,) = dense_selfsimilar_targets(F(9, 25), [F(1)], F(1, 100))
        assert W.zero_density(sq).value >= F(99, 100)

    def test_domain(self):
        text = (r"^dense self-similar family needs "
                r"alpha in \(1/3, \(3-sqrt\(5\)\)/2\]$")
        for base in ("rat:2/5", "rat:1/3", "rat:1/4", "rat:1/2",
                     "rat:39/100", "akl"):
            with pytest.raises(OutOfDomain, match=text):
                dense_selfsimilar_targets(X.parse_real(base), [F(1, 2)],
                                          F(1, 100))

    def test_threshold_base_admitted(self):
        (sq,) = dense_selfsimilar_targets(E.golden_threshold(), [F(1, 2)],
                                          F(1, 100))
        assert abs(W.zero_density(sq).value - F(1, 2)) <= F(1, 100)

    def test_words_on_a_held_system(self):
        import cantorint
        sys = BaseSystem(F(9, 25), TERNARY)
        targets = [F(j, 10) for j in range(11)]
        assert cantorint.dense_words is D.dense_words
        assert D.dense_words(sys, targets, F(1, 100)) == \
            dense_selfsimilar_targets(F(9, 25), targets, F(1, 100))

    @pytest.mark.parametrize("tol", [F(1, 100), F(1, 37)])
    def test_integer_search_matches_fraction_loop(self, tol):
        n2_cap = int(4 / tol) + 4

        def fraction_search(a):
            for n1 in range(1, 65):
                for n2 in range(0, n2_cap + 1):
                    if abs(F(n2, 2 * n1 + n2) - a) <= tol:
                        return (n1, n2)
            return None

        for a in [F(j, 10) for j in range(11)] + [F(j, 7) for j in range(8)]:
            assert D._family_counts(a, tol, n2_cap) == fraction_search(a)

    def test_closed_form_matches_loop_over_n2(self):
        def loop_search(a, tol, n2_cap):  # every n2 for each n1, as it was
            an, ad = a.numerator, a.denominator
            tn, td = tol.numerator, tol.denominator
            for n1 in range(1, 65):
                for n2 in range(0, n2_cap + 1):
                    m = 2 * n1 + n2
                    if abs(n2 * ad - an * m) * td <= tn * ad * m:
                        return (n1, n2)
            return None

        rng = random.Random(606)
        found = 0
        for _ in range(3000):
            den = rng.randrange(1, 400)
            a = F(rng.randrange(0, den + 1), den)
            tol = F(rng.randrange(1, 4), rng.randrange(4, 80))
            # the search's own cap, or a small one that cuts some off
            n2_cap = rng.choice((int(4 / tol) + 4, rng.randrange(0, 40)))
            want = loop_search(a, tol, n2_cap)
            assert D._family_counts(a, tol, n2_cap) == want
            found += want is not None
        assert 0 < found < 3000


def reference_liouville_approximants(pq, m, digit):
    """p_k/q_k for k < len(m), summed in Fractions: x's digits to m_k, then
    the tail 1 0 1 0 ..., pq^(m_k + 1) / (1 - pq^2)."""
    out = []
    partial, power = F(0), F(1)  # the sum up to m_k, pq^m_k
    for prev, m_k in zip([0] + m, m[:-1]):
        for i in range(prev + 1, m_k + 1):
            power *= pq
            partial += digit(i) * power
        out.append(partial + power * pq / (1 - pq * pq))
    return out


def reference_liouville_min_next(p, q, nk):
    """Minimal n_(k+1) >= 1 with q^e >= p^e q^f, e = 2 sum + 2m + k + 1
    and f = k(2 sum + k + 3), by exact integer powers alone: a float
    estimate seeds the search, and exact steps pin it each way."""
    k, s = len(nk), sum(nk)
    f_exp = k * (2 * s + k + 3)

    def ok(m):
        e = 2 * s + 2 * m + k + 1
        return q**e >= p**e * q**f_exp

    need = f_exp * math.log(q) / (math.log(q) - math.log(p))
    m = max(1, math.ceil((need - (2 * s + k + 1)) / 2) - 2)
    while not ok(m):
        m += 1
    while m > 1 and ok(m - 1):
        m -= 1
    return m


class TestLiouville:
    def test_minimal_growth_two_fifths(self):
        assert liouville_witness(F(2, 5), 3).nk == [1, 4, 20, 121]

    @pytest.mark.parametrize("widen", [0, 10**6])
    def test_min_next_matches_exact_powers(self, monkeypatch, widen):
        # the growth test on log intervals against the exact powers, on
        # seeded (p, q, n_1..n_k); widened by 10^6 each way, every pair of
        # intervals overlaps, so every decision takes the exact route
        log_enclosure = X.log_enclosure
        monkeypatch.setattr(X, "log_enclosure", lambda x: tuple(
            end + d for end, d in zip(log_enclosure(x), (-widen, widen))))
        rng = random.Random(57)
        cases = [(499, 1000, [1, 28, 596]), (2, 5, [1, 4, 20, 121])]
        while len(cases) < 40:
            q = rng.randrange(5, 200)
            pq = F(rng.randrange(q // 3, q // 2 + 1), q)
            if F(1, 3) < pq < F(1, 2):
                nk = [rng.randrange(1, 40) for _ in range(rng.randrange(1, 4))]
                cases.append((pq.numerator, pq.denominator, nk))
        for p, q, nk in cases:
            assert D._liouville_min_next(p, q, nk) == \
                reference_liouville_min_next(p, q, nk)
        assert D._liouville_min_next(499, 1000, [1, 28, 596]) == 18_095

    def test_witness_inequalities(self):
        lw = liouville_witness(F(2, 5), 2)
        # m_k = 2(n_1+..+n_k) + k, the k-th separating zero, for k <= K + 1
        assert lw.m == [2 * sum(lw.nk[:k]) + k for k in (1, 2, 3)]
        xl, xh = lw.x_enclosure
        for k in (1, 2):
            approx = lw.approximants[k - 1]
            qk = approx.denominator
            assert qk <= 5 ** (lw.m[k - 1] + 3)
            assert max(abs(xl - approx), abs(xh - approx)) * qk**k <= 1
            # the approximant never equals x: the stored enclosure separates
            assert not (xl <= approx <= xh)

    def test_free_rule_all_ones(self):
        lw0 = liouville_witness(F(2, 5), 2, free_digit_rule=0)
        lw1 = liouville_witness(F(2, 5), 2, free_digit_rule=1)
        assert lw0.nk[:3] == lw1.nk[:3]
        # the x values differ at the separating slots
        assert lw0.x_enclosure[1] < lw1.x_enclosure[0]

    def test_free_rule_is_a_digit(self):
        for rule in (2, -1, lambda slot: slot % 2):
            with pytest.raises(ValueError):
                liouville_witness(F(2, 5), 1, free_digit_rule=rule)

    def test_t_seq_blocks(self):
        lw = liouville_witness(F(2, 5), 2)
        t = lw.t_seq
        assert [t.digit(i) for i in range(1, 13)] == \
            [1, -1, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0]

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            liouville_witness(F(1, 4), 2)
        with pytest.raises(OutOfDomain):
            liouville_witness(F(1, 2), 2)

    @pytest.mark.parametrize("pq", [F(7, 20), F(2, 5), F(3, 8), F(49, 100),
                                    F(499, 1000), F(2**40 - 1, 2**41)])
    def test_one_enclosure_separates_every_approximant(self, pq):
        # x and p_k/q_k have {0,1} digits that first differ at m_(k+1) or
        # m_(k+1) + 1, so they lie at least gap(k) apart; the enclosure,
        # at most pq^(m_(K+1) + 63) wide, keeps that gap from both its ends
        def gap(lw, k):
            return pq ** (lw.m[k] + 1) * (1 - 2 * pq) / (1 - pq)

        admitted = 0
        for K in range(1, 6):
            try:
                witnesses = [liouville_witness(pq, K, free_digit_rule=rule)
                             for rule in (0, 1)]
            except D.DimensionError:
                break
            admitted = K
            for lw in witnesses:
                xl, xh = lw.x_enclosure
                assert xh - xl <= pq ** (lw.m[K] + 63)
                for k, approx in enumerate(lw.approximants, 1):
                    assert not (xl <= approx <= xh)
                    assert min(abs(xl - approx), abs(xh - approx)) >= \
                        gap(lw, k)
        assert admitted >= 1

    def test_enclosure_holding_an_approximant_fails(self, monkeypatch):
        # p_k/q_k != x stays a checked clause: with the control digits
        # past m_1 = 3 read as 1 -1 1 -1 ..., x's are 1 0 1 0 ..., so x is
        # p_1/q_1 itself, which still meets |x - p_1/q_1| <= 1/q_1
        digit = D._LiouvilleBlocks.digit

        def periodic_past_m1(blocks, i):
            return digit(blocks, i) if i <= 3 else 1 - 2 * (i % 2)

        monkeypatch.setattr(D._LiouvilleBlocks, "digit", periodic_past_m1)
        with pytest.raises(D.VerificationFailed, match="holds p_1/q_1"):
            liouville_witness(F(2, 5), 1)

    def test_one_sum_matches_the_fraction_routes(self):
        # the witness's one running sum on ints vs the Fraction routes it
        # replaced: the approximants summed term by term, and x's
        # enclosure at width pq^(m_(K+1) + 63) by the series tail bound;
        # seeded bases, K up to the digit bound, and both free rules
        rng = random.Random(55)
        cases = [(F(2, 5), 4, 0), (F(499, 1000), 2, 1)]
        while len(cases) < 14:
            q = rng.randrange(5, 60)
            pq = F(rng.randrange(q // 3 + 1, (q + 1) // 2), q)
            if F(1, 3) < pq < F(1, 2):
                cases.append((pq, rng.randrange(1, 5), rng.randrange(2)))
        admitted = 0
        for pq, K, rule in cases:
            try:
                lw = liouville_witness(pq, K, free_digit_rule=rule)
            except D.DimensionError:
                continue
            admitted += 1
            x_digit = {1: 1, -1: 0, 0: rule}

            def digit(i):
                return x_digit[lw.t_seq.digit(i)]

            assert lw.approximants == \
                reference_liouville_approximants(pq, lw.m, digit)
            assert lw.x_enclosure == reference_series_enclosure(
                digit, pq, 0, 1, [pq ** (lw.m[K] + 63)])[0]
        assert admitted == 10

    def test_over_two_to_the_62_stops_at_the_digit_bound(self):
        with pytest.raises(D.DimensionError):
            liouville_witness(F(2**63 - 1, 2**64), 1)


class TestDSet:
    def test_finite_regime(self):
        ds = d_set(F(21, 50))
        assert ds.kind is DSetKind.FINITE_LIST
        assert ds.proper_subset
        assert ds.nstar == 0
        assert len(ds.values) == 2  # {0, full}
        assert ds.excluded_band == (F(1, 2), F(1))

    def test_full_interval_regime(self):
        ds = d_set(F(19, 50))
        assert ds.kind is DSetKind.FULL_INTERVAL
        assert not ds.proper_subset
        assert ds.sft_n == 1
        lo, hi = ds.sft_interval
        full = full_dimension(BaseSystem(F(19, 50), TERNARY)).decimal
        assert abs(lo.decimal - full / 3) < 1e-9
        assert abs(hi.decimal - full / 2) < 1e-9

    def test_contains_interval_regime(self):
        # between the threshold and alpha_KL
        ds = d_set(F(96, 250))  # 0.384
        assert ds.kind is DSetKind.CONTAINS_INTERVAL
        assert ds.proper_subset and ds.sft_n == 1

    def test_alpha_kl_regime(self):
        ds = d_set(T.alpha_kl_real())
        assert ds.kind is DSetKind.COUNTABLE_FAMILY
        assert len(ds.values) == 3

    def test_alpha_kl_lookalike(self):
        # alpha_KL is the singleton, not any number carrying its description
        look = X.EnclosedReal(lambda width: (F(3, 8), F(3, 8)), "alpha_KL")
        assert T.is_alpha_kl(T.alpha_kl_real())
        assert not T.is_alpha_kl(look)
        with pytest.raises(X.UnsupportedBase):
            d_set(look)
        with pytest.raises(X.UnsupportedBase):
            BaseSystem(look, TERNARY).delta_cache()

    def test_values_distinct_and_interior(self):
        # at a base just above alpha_KL several block levels survive
        ds = d_set(F(3944, 10000))
        assert ds.nstar >= 1
        decs = [v.decimal for v in ds.values]
        assert len(set(decs)) == len(decs)
        full = ds.full.decimal
        for v in ds.values[1:-1]:
            assert 0 < v.decimal < full

    def test_two_level_spectrum(self):
        # closer to alpha_KL a second block level survives: the values are
        # 0, full/2 (level 1), full/4 (level 2), full
        alpha = F(394331, 1000000)
        ds = d_set(alpha)
        assert ds.nstar == 2 and not ds.nstar_cap_hit
        full = ds.full.decimal
        decs = [v.decimal for v in ds.values]
        assert decs == [0.0, pytest.approx(full / 2),
                        pytest.approx(full / 4), pytest.approx(full)]

    def test_domain(self):
        with pytest.raises(OutOfDomain, match=r"alpha in \(1/3, 1/2\)"):
            d_set(F(1, 4))
        # the one BaseSystem refuses a base outside (0, 1) first
        for alpha in (F(0), F(3, 2)):
            with pytest.raises(OutOfDomain, match="strictly between 0 and 1"):
                d_set(alpha)

    @pytest.mark.parametrize("base", ["rat:21/50", "rat:19/50", "rat:39/100",
                                      "alg:-1,1,2,2@[2/5,1/2]", "akl"])
    def test_one_log_per_call(self, monkeypatch, base):
        # every value of one call divides by the one cached -ln alpha, and a
        # second call on a base already met takes none: alpha_KL's too, as
        # the process keeps its one system
        calls = []
        real = X.log_enclosure

        def counted(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(X, "log_enclosure", counted)
        X.forget()
        d_set(X.parse_real(base))
        assert len(calls) == 1
        d_set(X.parse_real(base))
        assert len(calls) == 1

    @pytest.mark.parametrize("base", [
        "rat:21/50", "rat:3944/10000", "rat:19/50", "rat:39/100",
        "rat:96/250", "alg:-1,1,2,2@[2/5,1/2]", "akl"])
    def test_one_regime_decision_per_call(self, monkeypatch, base):
        # one call builds at most one threshold and compares alpha with
        # alpha_KL at most once, wherever the module asking for it
        alpha, akl = X.parse_real(base), T.alpha_kl_real()
        built, against_akl = [], []
        real_golden, real_compare = E.golden_threshold, X.compare

        def golden():
            built.append(1)
            return real_golden()

        def compare(a, b, *args, **kwargs):
            if {id(a), id(b)} == {id(alpha), id(akl)}:
                against_akl.append((a, b))
            return real_compare(a, b, *args, **kwargs)

        monkeypatch.setattr(E, "golden_threshold", golden)
        for mod in (X, E, D, T, A):
            if getattr(mod, "compare", None) is real_compare:
                monkeypatch.setattr(mod, "compare", compare)
        d_set(alpha)
        assert len(built) <= 1
        assert len(against_akl) <= 1

    @pytest.mark.parametrize("alpha, calls", [
        (F(39, 100), 1), (F(19, 50), 1), (F(21, 50), 0)])
    def test_level_search_called_by_name(self, monkeypatch, alpha, calls):
        # the interval regime reaches the level search through its public
        # name, the one the per-layer trace times
        seen, real = [], T.find_smallest_sft_n

        def counted(delta, depth_cap):
            seen.append(depth_cap)
            return real(delta, depth_cap)

        monkeypatch.setattr(T, "find_smallest_sft_n", counted)
        d_set(alpha)
        assert seen == [4096] * calls

    @pytest.mark.parametrize("alpha", [F(39, 100), F(394329, 1000000)])
    def test_one_delta_cache(self, monkeypatch, alpha):
        # the subshift level search reads the delta of d_set's BaseSystem,
        # which also gives the excluded band
        built = []

        class Counted(E._DeltaCache):
            def __init__(self, sys):
                built.append(sys)
                super().__init__(sys)

        monkeypatch.setattr(E, "_DeltaCache", Counted)
        X.forget()
        ds = d_set(alpha)
        assert ds.kind is DSetKind.CONTAINS_INTERVAL
        assert ds.sft_n == (1 if alpha == F(39, 100) else 3)
        assert len(built) == 1


# the zero densities of the UNIQUE words pre(per) over {-1, 0, 1}, |pre| <= 1
# and |per| <= 8, at bases on either side of 1/3, (3-sqrt(5))/2, alpha_KL
# and 1/2; with the regime and, in the finite list, n*
UNIQUE_WORD_DENSITIES = {
    "rat:34/100": (DSetKind.FULL_INTERVAL, None, "0 1/8 1/7 1/6 1/5 1/4 2/7 "
                   "1/3 3/8 2/5 3/7 1/2 4/7 3/5 5/8 2/3 5/7 3/4 4/5 5/6 6/7 "
                   "7/8 1"),
    "rat:381/1000": (DSetKind.FULL_INTERVAL, None, "0 1/7 1/5 1/4 1/3 3/7 "
                     "1/2 4/7 3/5 5/8 2/3 5/7 3/4 4/5 5/6 6/7 7/8 1"),
    "alg:1,-3,1@[1/3,1/2]": (DSetKind.FULL_INTERVAL, None, "0 1/7 1/5 1/4 "
                             "1/3 3/7 1/2 3/5 2/3 5/7 3/4 1"),
    "rat:382/1000": (DSetKind.CONTAINS_INTERVAL, None, "0 1/7 1/5 1/4 1/3 "
                     "3/7 1/2 3/5 2/3 5/7 3/4 1"),
    "rat:39/100": (DSetKind.CONTAINS_INTERVAL, None,
                   "0 1/7 1/5 1/4 1/3 3/7 1/2 1"),
    "rat:394329/1000000": (DSetKind.CONTAINS_INTERVAL, None, "0 1/4 1/2 1"),
    "akl": (DSetKind.COUNTABLE_FAMILY, None, "0 1/4 1/2 1"),
    "rat:39432985/100000000": (DSetKind.FINITE_LIST, 3, "0 1/4 1/2 1"),
    "rat:394331/1000000": (DSetKind.FINITE_LIST, 2, "0 1/4 1/2 1"),
    "rat:3944/10000": (DSetKind.FINITE_LIST, 1, "0 1/2 1"),
    "rat:21/50": (DSetKind.FINITE_LIST, 0, "0 1"),
    "rat:49/100": (DSetKind.FINITE_LIST, 0, "0 1"),
}


@functools.cache
def short_ep_words() -> tuple:
    """Every EP word pre(per) over {-1, 0, 1} with |pre| <= 1 and |per| <=
    8, once in its canonical form, shortest period first."""
    return tuple(dict.fromkeys(
        EPSeq(pre, per, TERNARY) for k in range(1, 9)
        for per in product((-1, 0, 1), repeat=k)
        for j in (0, 1) for pre in product((-1, 0, 1), repeat=j)))


class TestDSetAgainstUniqueWords:
    """D_alpha's description against the unique expansions themselves: a
    unique t has dimension d(t) log 2 / (-log alpha), so d_set's
    frequencies hold the zero density of each short unique word.  In the
    finite list they are {0, d(w_1), ..., d(w_n*), 1}, and the level-n block
    word has period 2^(n+1): up to n* = 2 the words find all of them.
    The found sets are recorded, so that a change to the uniqueness test
    or to d_set shows."""

    @pytest.mark.parametrize("base", UNIQUE_WORD_DENSITIES)
    def test_densities_of_unique_words(self, base):
        kind, nstar, recorded = UNIQUE_WORD_DENSITIES[base]
        alpha = X.parse_real(base)
        sys = BaseSystem(alpha, TERNARY)
        found = set()
        for seq in short_ep_words():
            status = E.is_unique_expansion(sys, seq).status
            assert status is not E.UniqStatus.UNDECIDED, seq
            if status is not E.UniqStatus.UNIQUE:
                continue
            density = W.zero_density(seq).value
            if density not in found:
                # the first word of each density is unique by the
                # definition too, a route that reads no delta
                if sys.ctx is not None:
                    assert reference_branch_unique(sys, seq)[0] is status
                found.add(density)
        assert found == set(map(F, recorded.split()))
        ds = d_set(alpha)
        assert (ds.kind, ds.nstar) == (kind, nstar)
        if kind is DSetKind.FINITE_LIST:
            listed = {F(0), F(1), *map(T.dw, range(1, nstar + 1))}
            assert found == listed if nstar <= 2 else found < listed
        elif kind is DSetKind.COUNTABLE_FAMILY:
            # {0, 1/3, 1} and d(w_n) for every n; d(w_n) has denominator
            # 2^n, so periods of at most 8 digits reach n <= 3
            family = {F(0), F(1, 3), F(1), *map(T.dw, range(1, 4))}
            assert found <= family
        if ds.excluded_band:
            lo, hi = ds.excluded_band
            assert not any(lo < f < hi for f in found)


# ---------------------------------------------------------------------------
# the float recipe the dimension values had before exactnum.log_enclosure,
# kept as a reference: each new enclosure lies inside the one it gives
# ---------------------------------------------------------------------------

REFERENCE = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                        / "reference.json").read_text())


def _libm_log_interval(lo, hi):
    """libm's log of [lo, hi], widened by 4 ulps."""
    a = math.log(lo) if lo > 0 else -math.inf
    b = math.log(hi)
    for _ in range(4):
        a, b = math.nextafter(a, -math.inf), math.nextafter(b, math.inf)
    return a, b


def float_recipe(dv, alpha):
    """(lo, hi) as libm's widened logs and quotients rounded to nearest
    gave it for the same exact ingredients."""
    la, lb = _libm_log_interval(*X.enclosure(alpha, F(1, 10**20)))
    if dv.freq is not None:
        l2 = math.log(2)
        num = (float(dv.freq) * math.nextafter(l2, 0),
               float(dv.freq) * math.nextafter(l2, 2))
    else:
        a, b = _libm_log_interval(*dv.perron.enclosure())
        num = (max(a, 0.0), max(b, 0.0))
    quotients = [n / d for n in num for d in (-lb, -la)]
    return min(quotients), max(quotients)


@pytest.fixture
def built_values(monkeypatch):
    """Every DimensionValue the dimension module builds while in use, with
    the base whose -ln alpha its enclosure divides by, or None for a value
    built as 0 directly.  The registries start empty, so each base's
    ``BaseSystem.neg_log`` is derived, and recorded, in the test."""
    X.forget()
    built, bases = [], {}
    real, real_value, real_neg_log = \
        D.DimensionValue, D._dimension_value, X._neg_log

    def record(*args, **kwargs):
        built.append((real(*args, **kwargs), None))
        return built[-1][0]

    def record_neg_log(alpha):
        out = real_neg_log(alpha)
        bases[out] = alpha
        return out

    def dimension_value(neg_log, num, **fields):
        dv = real_value(neg_log, num, **fields)
        built[-1] = (dv, bases[neg_log])
        return dv

    monkeypatch.setattr(D, "DimensionValue", record)
    monkeypatch.setattr(D, "_dimension_value", dimension_value)
    monkeypatch.setattr(X, "_neg_log", record_neg_log)
    return built


def assert_inside_float_recipe(values):
    assert values
    for dv, alpha in values:
        if alpha is None:  # the empty set, or lambda = 1
            assert dv.lo == dv.hi == 0.0
            continue
        lo, hi = float_recipe(dv, alpha)
        assert lo <= dv.lo <= dv.hi <= hi, dv


def pool_translation(sys, text):
    """The shift of an intersect pool entry, as the benchmark reads it."""
    if text == "sum-neg-alpha":
        return A.ex51_translation(sys)
    if text == "ex52":
        return A.ex52_translation(sys)
    if text.startswith("word:"):
        return E.seq_value(sys, W.parse_seq(text[5:]))
    return sys.embed(F(text))


def pool_automata(keep=lambda e: True):
    """(alpha, automaton) for every closed automaton of the intersect pool,
    or for those whose entry ``keep`` passes."""
    pool = [e for v in REFERENCE["intersect"].values()
            if isinstance(v, list) and v and isinstance(v[0], dict)
            for e in v if e["complete"] and keep(e)]
    for e in pool:
        alpha = X.parse_real(e["base"])
        sys = BaseSystem(alpha, TERNARY)
        yield alpha, E.build_expansion_automaton(
            sys, pool_translation(sys, e["t"]))


class TestInsideFloatRecipe:
    def test_intersect_pool(self, built_values):
        for alpha, auto in pool_automata():
            perron_dimension(build_intersection_graph(auto), alpha)
        assert len(built_values) == 517
        assert_inside_float_recipe(built_values)

    def test_verify_paper(self, built_values):
        A.run_all()
        assert_inside_float_recipe(built_values)

    def test_spectrum_bases(self, built_values):
        bases = REFERENCE["spectrum"]["bases"]
        assert len(bases) == 24
        for base in bases:
            d_set(X.parse_real(base))
        assert_inside_float_recipe(built_values)


def system_facts(text):
    """What a ``BaseSystem`` derives once, and the d_set built on it:
    delta to 512 digits, its periodic form, the regime, the threshold
    fact, -ln alpha and the hull's tails, which alpha_KL has none of."""
    sys = BaseSystem(X.parse_real(text), TERNARY)
    tails = sys.ctx and tuple(x.state for x in sys.tails)
    return (E.delta(sys, 512), E.try_ep_form(sys), sys.regime,
            sys.past_threshold, sys.neg_log, tails,
            d_set(X.parse_real(text)))


class TestSystemRegistry:
    """``BaseSystem``, the process's one system of a field and an alphabet,
    against a fresh one built after ``exactnum.forget``, as a new process
    builds it, and its bounds."""

    @pytest.mark.parametrize("text", sorted(REFERENCE["spectrum"]["bases"])
                             + list(KERNEL_BASES) + ["akl"])
    def test_interned_matches_fresh(self, text):
        sys = BaseSystem(X.parse_real(text), TERNARY)
        assert BaseSystem(X.parse_real(text), TERNARY) is sys
        warm = system_facts(text), system_facts(text)
        X.forget()
        fresh = BaseSystem(X.parse_real(text), TERNARY)
        assert fresh is not sys
        assert warm == (system_facts(text),) * 2

    def test_systems_go_with_their_field(self):
        X.forget()
        first = BaseSystem(F(2, 5), TERNARY)
        assert first.ctx.systems == {TERNARY: first}
        assert BaseSystem(F(4, 10), TERNARY) is first
        assert BaseSystem(F(2, 5), BINARY) is not first
        for k in range(X.FIELDS_MAX):
            BaseSystem(F(1, k + 3), TERNARY)
        assert len(X._FIELDS) == X.FIELDS_MAX
        again = BaseSystem(F(2, 5), TERNARY)  # dropped, and rebuilt the same
        assert again is not first and again.ctx is not first.ctx
        assert (again.regime, again.neg_log, E.delta(again, 64)) == \
            (first.regime, first.neg_log, E.delta(first, 64))

    @pytest.mark.parametrize("text", ["rat:2/5", "akl"])
    def test_alphabets_per_base_are_bounded(self, text):
        X.forget()
        alpha = X.parse_real(text)
        alphabets = [W.Alphabet(low, 3) for low in range(E.SYSTEMS_MAX + 2)]
        systems = [BaseSystem(alpha, a) for a in alphabets]
        ctx = BaseSystem(alpha, TERNARY).ctx
        kept = E._AKL_SYSTEMS if ctx is None else ctx.systems
        assert E.SYSTEMS_MAX == 4 and len(kept) == E.SYSTEMS_MAX
        assert list(kept) == alphabets[3:] + [TERNARY]
        assert BaseSystem(alpha, alphabets[-1]) is systems[-1]
        assert BaseSystem(alpha, alphabets[0]) is not systems[0]


def _record_pair(name):
    """Two equal records from the call that makes them: a cached word and
    a fresh build of it, or two calls."""
    sys, seq = BaseSystem(F(9, 25), TERNARY), EPSeq((), (1, -1, 0), TERNARY)
    make = {"lambda_prefix": lambda: T.lambda_prefix(8),
            "lambda_prefix_fresh": lambda: T.lambda_prefix.__wrapped__(8),
            "w_word": lambda: T.w_word(4),
            "sft_blocks": lambda: T.sft_blocks(3),
            "sft_blocks_fresh": lambda: T.sft_blocks.__wrapped__(3),
            "zero_density": lambda: W.zero_density(seq),
            "full_dimension": lambda: full_dimension(sys),
            "box_count_oracle": lambda: box_count_oracle(F(2, 5), F(0), 4),
            "self_similar_check": lambda: self_similar_check(sys, seq)}
    return make[name](), make.get(f"{name}_fresh", make[name])()


class TestRecords:
    """The result records: one that was frozen refuses assignment and
    deletion, and two equal ones compare and hash equal, so each cached
    word stays one immutable object for every caller; a copy and a
    pickled round trip give an equal record."""

    # (call, a field, hashable): a box-count report's rows are a list
    FROZEN = [("lambda_prefix", "digits", True),
              ("w_word", "alphabet", True),
              ("sft_blocks", "zeta", True),
              ("zero_density", "lower", True),
              ("full_dimension", "lo", True),
              ("box_count_oracle", "rows", False),
              ("self_similar_check", "status", True)]

    @pytest.mark.parametrize("name, field, hashable", FROZEN,
                             ids=[c[0] for c in FROZEN])
    def test_frozen(self, name, field, hashable):
        a, b = _record_pair(name)
        assert a == b and a is not b and not a != b
        assert not hashable or hash(a) == hash(b)
        assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
        value = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is value

    @pytest.mark.parametrize("alpha", [F(19, 50), F(96, 250), F(21, 50)])
    def test_d_sets_of_one_base_are_equal(self, alpha):
        a, b = d_set(alpha), d_set(alpha)
        assert a == b and a is not b
        assert a != d_set(F(2, 5))


# ---------------------------------------------------------------------------
# Karp's maximum cycle mean on int pairs against the Fraction reference
# ---------------------------------------------------------------------------

class TestKarpOnIntPairs:
    def test_seeded_graphs_match_reference(self):
        rng = random.Random(1978)
        cyclic = 0
        for _ in range(300):
            n = rng.randint(1, 30)
            succ = [[(rng.randrange(n), rng.randint(-3, 4))
                     for _ in range(rng.randrange(4))] for _ in range(n)]
            want = reference_max_cycle_mean(succ)
            got = G.max_cycle_mean(succ)
            assert got == want and type(got) is type(want)
            cyclic += want is not None
        assert cyclic > 200

    def test_pool_automata_match_reference(self):
        # the zero-indicator graph the frequency bound reads, and the
        # intersection graph's count matrix
        count = 0
        for _, auto in pool_automata():
            zeros = [[(t, int(d == 0)) for t, d in out] for out in auto.succ]
            succ = build_intersection_graph(auto).count_matrix.succ
            for g in (zeros, succ):
                assert G.max_cycle_mean(g) == reference_max_cycle_mean(g)
            count += 1
        assert count == 517
