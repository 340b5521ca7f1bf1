import json
import random
from fractions import Fraction as F
from itertools import islice, product
from math import lcm
from pathlib import Path

import pytest

from cantorint import exactnum as X
from cantorint import expansions as E
from cantorint import graph as G
from cantorint import thuemorse as T
from cantorint import words as W
from cantorint.dimension import liouville_witness
from cantorint.expansions import (
    BaseSystem,
    OutOfDomain,
    OutOfRange,
    UniqStatus,
    golden_threshold,
)
from cantorint.words import (BINARY, TERNARY, Alphabet, EPSeq, FiniteWord,
                             LazySeq)

A012 = Alphabet(0, 3)
A01 = Alphabet(0, 2)


def cubic_base():
    return BaseSystem(X.AlgebraicReal([-1, 1, 2, 2], F(2, 5), F(1, 2)),
                      TERNARY)


def zero(ctx):
    """The zero of ``ctx``'s field."""
    return ctx.embed(0)


def is_zero(x):
    """Whether a Q(alpha) element is 0: its state's vector is."""
    return not any(x.state[:-1])


def shift(seq, n):
    """An EPSeq less its first n digits."""
    if n <= len(seq.pre):
        return EPSeq(seq.pre[n:], seq.per, seq.alphabet)
    k = (n - len(seq.pre)) % len(seq.per)
    return EPSeq((), seq.per[k:] + seq.per[:k], seq.alphabet)


def to_fraction(el):
    """The rational value of a Q(alpha) element with no alpha terms."""
    x, *rest = el.coeffs
    assert not any(rest)
    return x


def reference_admissible_delta(seq, depth_cap=1024):
    """Whether every shift of ``seq`` is lex-<= the sequence itself, shift
    by shift: True or False for an EPSeq, whose distinct shifts are
    finitely many; False or None (no violation among the first
    ``depth_cap`` shifts) for a LazySeq.  Parry's admissibility of delta,
    the condition that ``is_unique_expansion`` compares tails against."""
    if isinstance(seq, EPSeq):
        return all(W.lex_compare(shift(seq, k), seq, depth_cap)
                   is not W.Lex.GREATER
                   for k in range(1, len(seq.pre) + len(seq.per) + 1))
    for k in range(1, depth_cap + 1):
        shifted = LazySeq(lambda i, _k=k: seq.digit(i + _k), seq.alphabet)
        if W.lex_compare(shifted, seq, depth_cap) is W.Lex.GREATER:
            return False
    return None


def fresh_membership(alpha, x):
    """The verdict on x, a rational or a Q(alpha) element, of a fresh
    GammaSearch: one query, no facts shared with another."""
    search = E.GammaSearch(BaseSystem(alpha, BINARY))
    return search.membership(search.ctx.state(x))


def has_unique_infinite_path(auto) -> bool:
    """Whether a closed automaton spells one infinite path: every live
    state, each reachable from the initial one, has one live successor."""
    assert auto.complete
    live = G.trim(auto.succ)
    if auto.initial is None or not live[auto.initial]:
        return False
    return all(len(out) <= 1 for out in live)


def path_words(auto, n) -> set:
    """The digit words of length n spelled from the initial state: one
    (word, end state) pair per path."""
    walk = [((), auto.initial)] if auto.initial is not None else []
    for _ in range(n):
        walk = [(w + (d,), j) for w, i in walk for j, d in auto.succ[i]]
    return {w for w, _ in walk}


class TestGreedy:
    def test_half_ones(self):
        sys = BaseSystem(F(1, 2), A01)
        assert tuple(E.greedy_expansion(sys, 1, 8)) == (1,) * 8

    def test_exact_one_digit(self):
        sys = BaseSystem(F(2, 5), A01)
        assert tuple(E.greedy_expansion(sys, F(2, 5), 6)) == \
            (1, 0, 0, 0, 0, 0)

    def test_threshold_base_of_one(self):
        # At (3-sqrt5)/2 the greedy expansion of 1 is 2 1 1 1 ... : the
        # remainder after the leading 2 is a fixed point, so greedy and
        # quasi-greedy coincide (the greedy expansion is infinite here).
        sys = BaseSystem(golden_threshold(), A012)
        g = E.greedy_expansion(sys, 1, 12)
        q = E.quasi_greedy_expansion(sys, 1, 12)
        assert g.digits[0] == 2
        assert g == q
        assert tuple(g) == (2,) + (1,) * 11

    def test_out_of_range(self):
        sys = BaseSystem(F(2, 5), A01)
        with pytest.raises(OutOfRange):
            E.greedy_expansion(sys, F(3, 2), 4)

    @pytest.mark.parametrize("base,alphabet,gap", [
        ("rat:1/3", A01, F(1, 5)),   # between [0, 1/6] and [1/3, 1/2]
        ("rat:1/4", A012, F(1, 5)),  # between [0, 1/6] and [1/4, 5/12]
        ("alg:-1,2,1@[2/5,1/2]", A01, F(1, 3)),   # sqrt(2) - 1
        ("alg:-1,2,2@[1/3,1/2]", A01, F(1, 4))])  # (sqrt(3) - 1) / 2
    def test_gap_values_are_refused(self, base, alphabet, gap):
        # below 1/(M+1) the set is a Cantor set: a value in a gap between
        # the first cylinders [d alpha, d alpha + alpha M u] has no child,
        # and alpha (M + gap) has one child, the gap value, and then none
        sys = BaseSystem(X.parse_real(base), alphabet)
        assert not sys.whole
        a = sys.ctx.alpha_element
        for x in (sys.embed(gap), a * (sys.M + sys.embed(gap))):
            for fn in (E.greedy_expansion, E.quasi_greedy_expansion):
                with pytest.raises(OutOfRange,
                                   match="value outside the attainable set"):
                    fn(sys, x, 12)

    def test_greedy_dominates_quasi(self):
        rng = random.Random(3)
        for _ in range(40):
            alpha = F(rng.randrange(34, 49), 100)
            sys = BaseSystem(alpha, A012)
            hi = 2 * alpha / (1 - alpha)
            x = F(rng.randrange(1, 99), 100) * hi
            g = tuple(E.greedy_expansion(sys, x, 40))
            q = tuple(E.quasi_greedy_expansion(sys, x, 40))
            assert g >= q


class TestQuasiGreedy:
    def test_threshold_delta_is_one_then_zeros(self):
        sys = BaseSystem(golden_threshold(), A012)
        assert tuple(E.quasi_greedy_expansion(sys, 1, 6)) == \
            (2, 1, 1, 1, 1, 1)

    def test_half(self):
        sys = BaseSystem(F(1, 2), A01)
        assert tuple(E.quasi_greedy_expansion(sys, 1, 6)) == (1,) * 6

    def test_9_20_starts_201(self):
        sys = BaseSystem(F(9, 20), A012)
        assert tuple(E.quasi_greedy_expansion(sys, 1, 3)) == (2, 0, 1)

    def test_infimum_convention(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        lo = to_fraction(sys.low_tail())
        assert tuple(E.quasi_greedy_expansion(sys, lo, 5)) == (-1,) * 5


class TestDelta:
    def test_threshold_ep_form(self):
        sys = BaseSystem(golden_threshold(), A012)
        assert E.try_ep_form(sys) == EPSeq((2,), (1,), A012)

    def test_one_third_regression(self):
        # pinned by the exact rational recurrence: remainder stays at 1
        sys = BaseSystem(F(1, 3), A012)
        assert E.try_ep_form(sys) == EPSeq((), (2,), A012)

    def test_half_binary(self):
        sys = BaseSystem(F(1, 2), A01)
        assert E.try_ep_form(sys) == EPSeq((), (1,), A01)

    def test_two_fifths_regression(self):
        # not eventually periodic at small depth; prefix pinned by the
        # exact recurrence
        sys = BaseSystem(F(2, 5), A012)
        assert tuple(E.delta(sys, 12)) == (2, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1)
        assert E.try_ep_form(sys, depth_cap=256) is None

    def test_ternary_image(self):
        sys = BaseSystem(golden_threshold(), TERNARY)
        assert tuple(E.delta(sys, 8)) == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_alpha_kl_delta_from_lambda(self):
        sys = BaseSystem(T.alpha_kl_real(), A012)
        d = E.delta(sys, 16)
        assert tuple(d) == tuple(1 + T.lam(i) for i in range(1, 17))

    def test_monotone_in_alpha(self):
        # alpha -> delta(alpha) is strictly decreasing (lexicographically)
        rng = random.Random(41)
        for _ in range(25):
            a1 = F(rng.randrange(340, 480), 1000)
            a2 = a1 + F(rng.randrange(1, 15), 1000)
            s1 = BaseSystem(a1, A012)
            s2 = BaseSystem(a2, A012)
            d1 = tuple(E.delta(s1, 64))
            d2 = tuple(E.delta(s2, 64))
            assert d1 >= d2  # equality only when no difference within depth

    def test_admissible(self):
        for a in (F(35, 100), F(40, 100), F(45, 100)):
            sys = BaseSystem(a, A012)
            ep = E.try_ep_form(sys, depth_cap=512)
            if ep is not None:
                assert reference_admissible_delta(ep) is True
            else:
                lazy = LazySeq(lambda i, c=sys.delta_cache(): c.digit(i), A012)
                assert reference_admissible_delta(lazy, depth_cap=128) \
                    is not False

    @pytest.mark.parametrize("M", [1, 2, 3, 5])
    def test_domain_is_one_comparison(self, M):
        # the reference is the sign that decided the domain before:
        # alpha >= 1/(M+1) iff M alpha / (1 - alpha) >= 1
        edge = F(1, M + 1)
        bases = [edge, edge - F(1, 10**9), edge + F(1, 10**9),
                 X.AlgebraicReal([-1, M + 1], 0, 1),  # alg:, equal to edge
                 X.AlgebraicReal([-1, 2, 1], 0, 1)]  # sqrt(2) - 1, 0.414...
        for alpha in bases:
            sys = BaseSystem(alpha, Alphabet(0, M + 1))
            outside = (M * sys.tail_unit - sys.ctx.one).sign() < 0
            try:
                sys.delta_cache()
            except OutOfDomain:
                assert outside, alpha
            else:
                assert not outside, alpha
                assert E.delta(sys, 3).digits[0] >= 1

    @pytest.mark.parametrize("sys", [BaseSystem(F(2, 5), TERNARY),
                                     cubic_base()],
                             ids=["2/5", "ex51"])
    def test_reflected_delta_seq_spells_reflected_delta(self, sys):
        want = tuple(-d for d in E.delta(sys, 2000).digits)
        seq = W.reflect(E.delta_seq(sys))
        for _ in range(2):  # no stored digit to go stale
            assert tuple(map(seq.digit, range(1, 2001))) == want


def fraction_digits(alpha, M, y, length, strict):
    """Reference digit loop over {0..M} in plain Fractions: the largest d
    with y/alpha - d > 0 (quasi-greedy) or >= 0 (greedy), else 0."""
    out = []
    for _ in range(length):
        q = y / alpha
        d = M
        while d and (q - d <= 0 if strict else q - d < 0):
            d -= 1
        out.append(d)
        y = q - d
    return out


def fraction_delta_ep(alpha, M):
    """Eventually periodic form of delta from the Fraction loop, by a
    repeated remainder."""
    y, digits, seen = F(1), [], {F(1): 0}
    while True:
        (d,) = fraction_digits(alpha, M, y, 1, strict=True)
        digits.append(d)
        y = y / alpha - d
        if y in seen:
            k = seen[y]
            return EPSeq(digits[:k], digits[k:], Alphabet(0, M + 1))
        seen[y] = len(digits)


def seeded_bases(rng, M, count):
    """Rational bases in [1/(M+1), 1) with numerator at least 2."""
    out = []
    while len(out) < count:
        den = rng.randrange(3, 300)
        a = F(rng.randrange(2, den), den)
        if a.numerator >= 2 and a * (M + 1) >= 1:
            out.append(a)
    return out


KERNEL_ALPHABETS = (A01, A012, Alphabet(0, 4))


class TestIntegerKernel:
    @pytest.mark.parametrize("alphabet", KERNEL_ALPHABETS)
    def test_delta_matches_fraction_loop(self, alphabet):
        M = alphabet.size - 1
        for a in seeded_bases(random.Random(500 + M), M, 4):
            ref = fraction_digits(a, M, F(1), 1000, strict=True)
            assert list(E.delta(BaseSystem(a, alphabet), 1000)) == ref
            # the remainder after k digits has reduced denominator p^k
            y = F(1)
            for k, d in enumerate(ref[:200], start=1):
                y = y / a - d
                assert y.denominator == a.numerator ** k

    @pytest.mark.parametrize("alphabet", KERNEL_ALPHABETS)
    def test_expansions_match_fraction_loop(self, alphabet):
        M = alphabet.size - 1
        rng = random.Random(600 + M)
        for a in seeded_bases(rng, M, 4):
            sys = BaseSystem(a, alphabet)
            hi = M * a / (1 - a)
            xs = [F(0), hi, a, a * a]
            xs += [hi * F(rng.randrange(0, 1001), 1000) for _ in range(6)]
            # values with finite expansions, where greedy and quasi-greedy
            # part ways
            for _ in range(4):
                word = [rng.randrange(0, M + 1) for _ in range(8)]
                xs.append(sum(d * a ** i for i, d in enumerate(word, 1)))
            for x in xs:
                assert list(E.greedy_expansion(sys, x, 120)) == \
                    fraction_digits(a, M, x, 120, strict=False)
                assert list(E.quasi_greedy_expansion(sys, x, 120)) == \
                    fraction_digits(a, M, x, 120, strict=True)

    @pytest.mark.parametrize("alphabet", KERNEL_ALPHABETS)
    def test_no_periodicity_search_for_p_at_least_2(self, alphabet):
        M = alphabet.size - 1
        # sqrt(3) - 1 has the constant term -2, as a rational p/q has -p
        for a in seeded_bases(random.Random(700 + M), M, 6) + [
                F(2, 3), X.parse_real("alg:-2,2,1@[1/2,1]")]:
            sys = BaseSystem(a, alphabet)
            assert E.try_ep_form(sys) is None
            assert len(sys.delta_cache().digits) == 0

    @pytest.mark.parametrize("alphabet", KERNEL_ALPHABETS)
    def test_reciprocal_integer_bases_periodic(self, alphabet):
        M = alphabet.size - 1
        for q in range(2, M + 2):
            a = F(1, q)
            assert E.try_ep_form(BaseSystem(a, alphabet)) == \
                fraction_delta_ep(a, M)


class TestAdmissible:
    def test_threshold_sequence(self):
        assert reference_admissible_delta(EPSeq((2,), (1,), A012)) is True

    def test_rotated_fails(self):
        assert reference_admissible_delta(EPSeq((), (1, 2), A012)) is False

    def test_lambda_image_no_violation(self):
        seq = LazySeq(lambda i: 1 + T.lam(i), A012, "1+lambda")
        assert reference_admissible_delta(seq, depth_cap=256) is not False


class TestUniqueness:
    def test_example51_coding_not_unique(self):
        sys = cubic_base()
        res = E.is_unique_expansion(sys, EPSeq((), (-1, 1), TERNARY))
        assert res.status is UniqStatus.NOT_UNIQUE

    def test_alternating_pair_family_below_threshold(self):
        sys = BaseSystem(F(9, 25), TERNARY)
        seq = EPSeq((), (1, -1, 1, -1, 0), TERNARY)
        assert E.is_unique_expansion(sys, seq).status is UniqStatus.UNIQUE

    def test_block_word_above_threshold_fails(self):
        # The level-1 block word (1 0 -1 0)^inf is NOT univoque at 0.42:
        # its value 1050/2941 admits a second expansion (checked against
        # the automaton in test_uniqueness_matches_automaton).  This pins
        # the behaviour the acceptance suite relies on for n*.
        sys = BaseSystem(F(21, 50), TERNARY)
        seq = EPSeq((), (1, 0, -1, 0), TERNARY)
        assert E.is_unique_expansion(sys, seq).status is UniqStatus.NOT_UNIQUE

    def test_block_word_below_alpha_kl_passes(self):
        sys = BaseSystem(F(3943, 10000), TERNARY)
        seq = EPSeq((), (1, 0, -1, 0), TERNARY)
        assert E.is_unique_expansion(sys, seq).status is UniqStatus.UNIQUE

    def test_block_words_at_critical_base(self):
        # at alpha_KL every doubling-word level is univoque; the yardstick
        # sequence is generated exactly there, so the verdicts are certified
        from cantorint.thuemorse import tm_block_word
        sys = BaseSystem(T.alpha_kl_real(), TERNARY)
        for n in range(1, 5):
            res = E.is_unique_expansion(sys, tm_block_word(n))
            assert res.status is UniqStatus.UNIQUE

    def test_trivial_sequences(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        for per in ((0,), (1,), (-1,)):
            res = E.is_unique_expansion(sys, EPSeq((), per, TERNARY))
            assert res.status is UniqStatus.UNIQUE

    @pytest.mark.parametrize("seq, kind", [
        (W.parse_seq("+0-"), "FiniteWord"), ((1, 0, -1), "tuple")])
    def test_other_kinds_are_refused(self, seq, kind):
        # a finite word has no tail past its end to scan
        sys = BaseSystem(F(2, 5), TERNARY)
        with pytest.raises(TypeError, match=f"not {kind}$"):
            E.is_unique_expansion(sys, seq)

    def test_reflection_symmetry(self):
        rng = random.Random(71)
        sys = BaseSystem(F(9, 25), TERNARY)
        for _ in range(200):
            pre = tuple(rng.choice((-1, 0, 1))
                        for _ in range(rng.randrange(0, 3)))
            per = tuple(rng.choice((-1, 0, 1))
                        for _ in range(rng.randrange(1, 6)))
            seq = EPSeq(pre, per, TERNARY)
            a = E.is_unique_expansion(sys, seq).status
            b = E.is_unique_expansion(sys, W.reflect(seq)).status
            assert a is b

    def test_uniqueness_matches_automaton(self):
        # for EPSeq over a base where the automaton closes, UNIQUE must
        # coincide with the automaton having exactly one infinite path
        rng = random.Random(101)
        sys = cubic_base()  # reciprocal Pisot: automata close
        for _ in range(40):
            pre = tuple(rng.choice((-1, 0, 1))
                        for _ in range(rng.randrange(0, 2)))
            per = tuple(rng.choice((-1, 0, 1))
                        for _ in range(rng.randrange(1, 5)))
            seq = EPSeq(pre, per, TERNARY)
            res = E.is_unique_expansion(sys, seq)
            t = E.seq_value(sys, seq)
            auto = E.build_expansion_automaton(sys, t, state_cap=50_000)
            if not auto.complete:
                continue
            assert (res.status is UniqStatus.UNIQUE) == \
                has_unique_infinite_path(auto)


def reference_is_unique_expansion(sys, seq, depth_cap=None):
    """is_unique_expansion as it scanned each tail and each reflected tail
    in two copied blocks, through a closure reporting 'ok', 'violation',
    'equal' or 'cap'; a LazySeq whose grammar passes Parry's criterion is
    UNIQUE with no scan."""
    M, low = sys.M, sys.alphabet.low
    dcache = sys.delta_cache()
    ep_delta = dcache.ep_form(512)
    compare_cap = depth_cap if depth_cap is not None else 4096
    if isinstance(seq, LazySeq) and seq.grammar is not None and \
            E.parry_certified(seq.grammar, E.delta_seq(sys), compare_cap):
        return E.UniquenessResult(UniqStatus.UNIQUE, None, 0, compare_cap)
    if isinstance(seq, EPSeq):
        shifts = len(seq.pre) + len(seq.per)
        if ep_delta is not None:
            bound = (max(len(seq.pre), len(ep_delta.pre))
                     + lcm(len(seq.per), len(ep_delta.per)) + 1)
            compare_cap = max(compare_cap, bound)
        eq_bound = None if ep_delta is None else compare_cap
    else:
        shifts = depth_cap if depth_cap is not None else 512
        eq_bound = None

    def check_tail(n, reflected):
        for j in range(1, compare_cap + 1):
            u = seq.digit(n + j) - low
            if reflected:
                u = M - u
            dj = dcache.digit(j)
            if u < dj:
                return ("ok", None)
            if u > dj:
                return ("violation", n + j)
            if eq_bound is not None and j >= eq_bound:
                return ("equal", None)
        return ("cap", None) if eq_bound is None else ("equal", None)

    all_high = all_low = True
    undecided = False
    for n in range(shifts + 1):
        for reflected, exempt in ((False, all_high), (True, all_low)):
            if exempt:
                continue
            kind, pos = check_tail(n, reflected)
            if kind in ("violation", "equal"):
                return E.UniquenessResult(UniqStatus.NOT_UNIQUE, (n, pos),
                                          n, compare_cap)
            undecided = undecided or kind == "cap"
        d_next = seq.digit(n + 1) - low
        all_high = all_high and d_next == M
        all_low = all_low and d_next == 0
    status = UniqStatus.UNDECIDED if isinstance(seq, LazySeq) or undecided \
        else UniqStatus.UNIQUE
    return E.UniquenessResult(status, None, shifts, compare_cap)


# rational bases below and above alpha_KL ~ 0.394330, then sqrt(2) - 1, the
# golden threshold (3 - sqrt(5)) / 2 and Example 5.1's cubic
UNIQUENESS_BASES = ("rat:9/25", "rat:39/100", "rat:3943/10000",
                    "rat:3944/10000", "rat:2/5", "rat:9/20",
                    "alg:-1,2,1@[2/5,1/2]", "alg:1,-3,1@[1/3,1/2]",
                    "alg:-1,1,2,2@[2/5,1/2]")
# the spectrum benchmark's other pool bases, 19717/50000, 39433/100000 and
# 394329/1000000 near alpha_KL, where ties run long.  Its warm batches ask
# block words up to level 6, so these take levels up to 9 and fewer words
POOL_BASES = ("rat:11/25", "rat:17/45", "rat:19/50", "rat:197/500",
              "rat:19717/50000", "rat:21/50", "rat:3/8", "rat:31/80",
              "rat:37/100", "rat:383/1000", "rat:394329/1000000",
              "rat:39433/100000", "rat:41/100", "rat:43/100", "rat:5/13",
              "rat:7/18", "rat:7/20", "rat:77/200")


SQRT2_MINUS_1 = "alg:-1,2,1@[2/5,1/2]"
EX51 = "alg:-1,1,2,2@[2/5,1/2]"


def tie_words():
    """Words with tails that tie delta past the first digit: (+-) is delta
    at sqrt(2) - 1, (+-0-0) is delta at ex51, and the rest spell the first
    50 digits of delta at 2/5."""
    d50 = E.delta(BaseSystem(F(2, 5), TERNARY), 50).digits
    return [W.parse_seq("(+-)"), W.parse_seq("(+-0-0)"),
            W.parse_seq("0(+-0-0)"), EPSeq((0, *d50), (0,), TERNARY),
            EPSeq((), d50, TERNARY)]


def tie_lazies():
    """The tie words and their reflections as LazySeqs, without a grammar
    and with one: the chain through the preperiod into the period's
    cycle, which has every tail as a path."""
    out = []
    for s in tie_words():
        digits = s.pre + s.per
        grammar = [[(i + 1 if i + 1 < len(digits) else len(s.pre), d)]
                   for i, d in enumerate(digits)]
        for g in (None, grammar):
            lazy = LazySeq(s.digit, TERNARY, W.format_seq(s), g)
            out += [lazy, W.reflect(lazy)]
    return out


def wrap_words():
    """Words whose tail ties delta through two turns of its period and a
    digit more: the preperiod is a prefix of delta at 2/5 or 9/20, then
    the period is a block that delta repeats from there, with or without
    a 0 in front, so the tie is read at shift 0 or 1."""
    out = []
    for alpha in (F(2, 5), F(9, 20)):
        d = E.delta(BaseSystem(alpha, TERNARY), 60).digits
        for q in (1, 2, 3):
            for i in range(len(d) - 2 * q):
                if all(d[i + r] == d[i + r % q] for r in range(2 * q + 1)):
                    out += [EPSeq(d[:i], d[i:i + q], TERNARY),
                            EPSeq((0, *d[:i]), d[i:i + q], TERNARY)]
    return list(dict.fromkeys(out))


def dense_family_words():
    """Words ((1 -1)^a 0^b)^inf of the dense family with periods of 134
    to 240 digits."""
    from cantorint.dimension import dense_selfsimilar_targets
    return [s for tol in (F(1, 100), F(1, 120))
            for s in dense_selfsimilar_targets(F(9, 25), [F(199, 200), F(1)],
                                               tol)]


def uniqueness_words(rng, count=60, top=12):
    from cantorint.thuemorse import tm_block_word
    seqs = [tm_block_word(n) for n in range(1, top + 1)] + tie_words()
    seqs += wrap_words() + dense_family_words()
    for _ in range(count):
        pre = [rng.choice((-1, 0, 1)) for _ in range(rng.randrange(0, 4))]
        per = [rng.choice((-1, 0, 1)) for _ in range(rng.randrange(1, 9))]
        seqs.append(EPSeq(pre, per, TERNARY))
    for _ in range(count // 2):  # preperiods longer than their period
        pre = [rng.choice((-1, 0, 1)) for _ in range(rng.randrange(5, 25))]
        per = [rng.choice((-1, 0, 1)) for _ in range(rng.randrange(1, 5))]
        seqs.append(EPSeq(pre, per, TERNARY))
    return [s for seq in seqs for s in (seq, W.reflect(seq))]


class TestUniquenessReference:
    """Every field of every result matches the two-block scan."""

    @pytest.mark.parametrize("base", UNIQUENESS_BASES + POOL_BASES)
    def test_words_match_reference(self, base):
        sys = BaseSystem(X.parse_real(base), TERNARY)
        rng = random.Random(len(base) * 31 + sum(map(ord, base)))
        seen = set()
        seqs = uniqueness_words(rng) if base in UNIQUENESS_BASES else \
            uniqueness_words(rng, 30, 9)
        for seq in seqs:
            for cap in (None, 3, 40):
                got = E.is_unique_expansion(sys, seq, cap)
                assert got == reference_is_unique_expansion(sys, seq, cap)
                seen.add(got.status)
        assert UniqStatus.NOT_UNIQUE in seen and len(seen) >= 2

    @pytest.mark.parametrize("base", UNIQUENESS_BASES)
    def test_tie_lazies_match_reference(self, base):
        sys = BaseSystem(X.parse_real(base), TERNARY)
        for seq in tie_lazies():
            for cap in (3, 40):
                assert E.is_unique_expansion(sys, seq, cap) == \
                    reference_is_unique_expansion(sys, seq, cap)

    @pytest.mark.parametrize("base, text, violation", [
        (SQRT2_MINUS_1, "(+-)", (1, None)), (EX51, "(+-0-0)", (1, 3)),
        (EX51, "0(+-0-0)", (1, None)), ("rat:3/5", "000+-(0)", (1, 4))])
    def test_tails_that_tie_delta(self, base, text, violation):
        # after one digit a tail equals delta, or ties delta's first digit
        # and passes its second, at every cap.  At 3/5, delta = 00--...,
        # so a tail and its reflection both tie its first digit: the tail
        # passes delta at position 4, its reflection at 5, and the tail is
        # scanned first
        sys = BaseSystem(X.parse_real(base), TERNARY)
        for cap in (None, 3, 40):
            res = E.is_unique_expansion(sys, W.parse_seq(text), cap)
            assert (res.status, res.violation) == (UniqStatus.NOT_UNIQUE,
                                                   violation)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_compares_no_digit(self, cap):
        # a cap under 1 compares no digit for a LazySeq, or where delta is
        # not eventually periodic (2/5); where it is (sqrt(2) - 1, ex51),
        # an EPSeq's cap is first raised past the equality bound, so the
        # EPSeq is decided: (+0-) at sqrt(2) - 1 has the violation (3, 5)
        seqs = tie_words()[:3] + [W.parse_seq("(+0-)")] + tie_lazies()[:2]
        for base in ("rat:2/5", SQRT2_MINUS_1, EX51):
            sys = BaseSystem(X.parse_real(base), TERNARY)
            periodic = sys.delta_cache().ep_form(512) is not None
            assert periodic == (base != "rat:2/5")
            for seq in seqs:
                got = E.is_unique_expansion(sys, seq, cap)
                assert got == reference_is_unique_expansion(sys, seq, cap)
                if isinstance(seq, LazySeq) or not periodic:
                    assert got == (UniqStatus.UNDECIDED, None, got[2], cap)
                else:
                    assert got.status is not UniqStatus.UNDECIDED
                    assert got.compare_cap > 1
        got = E.is_unique_expansion(BaseSystem(X.parse_real(SQRT2_MINUS_1),
                                               TERNARY),
                                    W.parse_seq("(+0-)"), cap)
        assert (got.status, got.violation) == (UniqStatus.NOT_UNIQUE, (3, 5))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_with_a_grammar(self, cap):
        # a grammar changes nothing under a cap of 0: no Parry comparison
        # runs either, so the answer is the grammar-less one
        sys = BaseSystem(F(2, 5), TERNARY)
        lazies = tie_lazies()
        for plain, ruled in zip(lazies[:2], lazies[2:4]):
            assert plain.grammar is None and ruled.grammar is not None
            got = E.is_unique_expansion(sys, ruled, cap)
            assert got == E.is_unique_expansion(sys, plain, cap)
            assert got.status is UniqStatus.UNDECIDED
            assert got.compare_cap == cap

    def test_alpha_kl_lazy_inputs_match_reference(self):
        from cantorint.thuemorse import tm_block_word
        sys = BaseSystem(T.alpha_kl_real(), TERNARY)
        rng = random.Random(77)
        lazies = [T.lambda_seq(),
                  LazySeq(lambda i: 1 if i % 3 else -1, TERNARY),
                  LazySeq(lambda i: (i * i) % 3 - 1, TERNARY)]
        for _ in range(4):
            digits = [rng.choice((-1, 0, 1)) for _ in range(200)]
            lazies.append(LazySeq(lambda i, d=digits: d[i % 200], TERNARY))
        seqs = [s for lz in lazies for s in (lz, W.reflect(lz))]
        seqs += [tm_block_word(n) for n in range(1, 4)]
        seen = set()
        for seq in seqs:
            for cap in (1, 6, 24, 64):
                got = E.is_unique_expansion(sys, seq, cap)
                assert got == reference_is_unique_expansion(sys, seq, cap)
                seen.add(got.status)
        assert {UniqStatus.NOT_UNIQUE, UniqStatus.UNDECIDED} <= seen


class TestParryCertificate:
    """parry_certified, and the grammar that certifies the control sequence
    of the Liouville construction."""

    @pytest.mark.parametrize("pq", [F(7, 20), F(19, 50), F(3, 8),
                                    F(37, 100), F(39, 100)])
    def test_control_sequence_unique(self, pq):
        sys = BaseSystem(pq, TERNARY)
        t = liouville_witness(pq, 1).t_seq
        for seq in (t, W.reflect(t)):
            for cap in (None, 256):
                res = E.is_unique_expansion(sys, seq, cap)
                assert res.status is UniqStatus.UNIQUE
                assert res.shifts_checked == 0

    def test_other_alphabet(self):
        t = liouville_witness(F(7, 20), 1).t_seq
        seq = W.substitute_alphabet(t, TERNARY, A012)
        assert seq.grammar == [[(1, 2)], [(2, 0)], [(1, 2), (0, 1)]]
        res = E.is_unique_expansion(BaseSystem(F(7, 20), A012), seq)
        assert res.status is UniqStatus.UNIQUE

    def test_two_fifths_keeps_the_scan(self):
        # the certificate fails, and the scan finds the violation it found
        # before the certificate existed
        sys = BaseSystem(F(2, 5), TERNARY)
        t = liouville_witness(F(2, 5), 1).t_seq
        assert not E.parry_certified(t.grammar, E.delta_seq(sys), 4096)
        for seq in (t, W.reflect(t)):
            assert E.is_unique_expansion(sys, seq) == E.UniquenessResult(
                UniqStatus.NOT_UNIQUE, (1, 5), 1, 4096)
            assert E.is_unique_expansion(sys, seq, 256) == \
                E.UniquenessResult(UniqStatus.NOT_UNIQUE, (1, 5), 1, 256)

    def test_grammar_spells_the_sequence(self):
        t = liouville_witness(F(7, 20), 3).t_seq
        for seq in (t, W.reflect(t)):
            nodes = set(range(len(seq.grammar)))
            for i in range(1, 2001):
                nodes = {v for u in nodes for v, d in seq.grammar[u]
                         if d == seq.digit(i)}
                assert nodes, i

    def test_mirror_is_checked(self):
        # (-1)^inf lies below every delta, its mirror 1^inf above
        delta = E.delta_seq(BaseSystem(F(7, 20), TERNARY))
        assert not E.parry_certified([[(0, -1)]], delta, 64)
        assert E.parry_certified([[(0, 0)]], delta, 64)

    def test_sft_level_matches_max_word(self):
        # SFT_MATRIX is closed under reflection, so the mirror adds nothing
        for alpha in (F(7, 20), F(39, 100), F(3943, 10000)):
            delta = E.delta_seq(BaseSystem(alpha, TERNARY))
            for n in range(1, 9):
                assert E.parry_certified(T._sft_graph(n), delta, 4096) == (
                    W.lex_compare(T.sft_max_word(n), delta, 4096)
                    is W.Lex.LESS)


class TestForbiddenZeroRun:
    def test_9_20(self):
        assert E.forbidden_zero_run(BaseSystem(F(9, 20), TERNARY)) == 0

    def test_77_200(self):
        # delta(77/200) starts 1 0 0 0 (-1): pinned by the exact recurrence
        assert E.forbidden_zero_run(BaseSystem(F(77, 200), TERNARY)) == 3

    def test_endpoint_out_of_domain(self):
        text = r"^alpha must lie in \(\(3-sqrt\(5\)\)/2, 1/2\)$"
        for alpha in (golden_threshold(), F(9, 25), F(1, 3), F(1, 2),
                      F(3, 5), F(1, 10)):
            with pytest.raises(OutOfDomain, match=text):
                E.forbidden_zero_run(BaseSystem(alpha, TERNARY))

    def test_no_alpha_kl_comparison(self, monkeypatch):
        # the run needs alpha past the threshold and below 1/2, nothing of
        # alpha_KL
        def unused():
            raise AssertionError("alpha_KL built")

        monkeypatch.setattr(T, "alpha_kl_real", unused)
        assert E.forbidden_zero_run(BaseSystem(F(77, 200), TERNARY)) == 3
        assert E.forbidden_zero_run(BaseSystem(F(9, 20), TERNARY)) == 0

    def test_alpha_kl_admitted(self):
        # alpha_KL lies past the threshold: its delta is 1 0 (-1) ...
        assert E.forbidden_zero_run(BaseSystem(T.alpha_kl_real(),
                                               TERNARY)) == 1

    def test_delta_prefix_shape(self):
        sys = BaseSystem(F(77, 200), TERNARY)
        k = E.forbidden_zero_run(sys)
        d = tuple(E.delta(sys, k + 2))
        assert d == (1,) + (0,) * k + (-1,)

    def test_long_zero_run_kills_uniqueness(self):
        # any periodic word containing 1 0^(k+1) must fail the test
        # (the converse is not promised: shorter runs may fail for other
        # reasons)
        sys = BaseSystem(F(77, 200), TERNARY)
        k = E.forbidden_zero_run(sys)
        word = EPSeq((), (1,) + (0,) * (k + 1) + (-1,), TERNARY)
        assert E.is_unique_expansion(sys, word).status \
            is UniqStatus.NOT_UNIQUE


INTERSECT_POOL_BASES = sorted(
    {e["base"] for v in json.loads(
        (Path(__file__).resolve().parent.parent / "perfbench"
         / "reference.json").read_text())["intersect"].values()
     if isinstance(v, list) for e in v if isinstance(e, dict)})


def seeded_automata(text, count=12, cap=400):
    """Automata of ``count`` seeded shifts at a base: rationals in
    [-2/5, 2/5], inside [-u, u] from alpha = 3/10 up, and 0."""
    sys = BaseSystem(X.parse_real(text), TERNARY)
    rng = random.Random(text)
    shifts = [F(0)]
    for _ in range(count - 1):
        q = rng.randrange(1, 30)
        shifts.append(F(rng.randrange(-q, q + 1), q) * F(2, 5))
    return [E.build_expansion_automaton(sys, t, state_cap=cap)
            for t in shifts]


class TestAutomaton:
    @pytest.mark.parametrize("text", INTERSECT_POOL_BASES + ["rat:3/10"])
    def test_every_state_reachable_one_edge_per_target(self, text):
        # the closure is breadth-first from the initial state, and the
        # children of a state are distinct canonical states
        for auto in seeded_automata(text):
            seen, todo = {auto.initial}, [auto.initial]
            for u in todo:  # grows while it is walked
                for v, _ in auto.succ[u]:
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            assert len(seen) == len(auto.states)
            assert all(len({v for v, _ in out}) == len(out)
                       for out in auto.succ)

    def test_trim_removes_nothing_from_one_third(self):
        # every state s in [-u, u] has a child once u >= 1/2, alpha >= 1/3:
        # every pool base is; below 1/3 the trim does remove states
        closed = 0
        for text in INTERSECT_POOL_BASES:
            assert X.compare(X.parse_real(text), F(1, 3)) is not \
                X.Comparison.LESS
            for auto in seeded_automata(text):
                if auto.complete and auto.initial is not None:
                    assert G.trim(auto.succ) == auto.succ
                    closed += 1
        assert closed >= 40
        assert any(G.trim(auto.succ) != auto.succ
                   for auto in seeded_automata("rat:3/10"))

    def test_example51_structure(self):
        sys = cubic_base()
        ctx = sys.ctx
        a = ctx.alpha_element
        t = -a / (ctx.one + a)
        auto = E.build_expansion_automaton(sys, t)
        assert len(auto.states) == 6 and auto.complete
        # Figure-1 shape: three 2-cycles chained by single edges
        outs = {i: sorted(auto.succ[i]) for i in range(6)}
        degrees = sorted(len(v) for v in outs.values())
        assert degrees == [1, 1, 1, 1, 2, 2]
        assert not has_unique_infinite_path(auto)
        # recorded before the automaton kept successor lists: states, edge
        # order, initial state and completeness
        assert auto.to_json_dict() == {
            "states": ["-1/2,0,1", "1/2,0,-1", "-1/2,0,-1", "1/2,0,1",
                       "1/2,-2,-1", "-1/2,2,1"],
            "initial": 0,
            "edges": [{"from": f, "digit": d, "to": t} for f, d, t in
                      [(0, -1, 1), (0, 0, 2), (1, 0, 3), (1, 1, 0),
                       (2, -1, 4), (3, 1, 5), (4, -1, 0), (5, 1, 1)]],
            "complete": True,
        }

    @pytest.mark.parametrize("cap", [0, -3])
    def test_state_cap_under_one_raises(self, cap):
        sys = BaseSystem(F(2, 5), TERNARY)
        with pytest.raises(ValueError, match="at least 1"):
            E.build_expansion_automaton(sys, F(1, 3), state_cap=cap)
        auto = E.build_expansion_automaton(sys, F(1, 3), state_cap=1)
        assert len(auto.states) == 1 and not auto.complete

    def test_right_endpoint_single_loop(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        t = sys.high_tail()
        auto = E.build_expansion_automaton(sys, t)
        assert len(auto.states) == 1
        assert auto.edges == [(0, 1, 0)]
        assert has_unique_infinite_path(auto)

    def test_outside_difference_set(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        t = sys.high_tail() * 2
        auto = E.build_expansion_automaton(sys, t)
        assert auto.states == [] and auto.complete
        assert path_words(auto, 3) == set()

    def test_soundness_and_completeness(self):
        # paths of length n stay within alpha^n * u of t, and every digit
        # word satisfying that inequality at every prefix is a path
        sys = cubic_base()
        ctx = sys.ctx
        a = ctx.alpha_element
        t = -a / (ctx.one + a)
        auto = E.build_expansion_automaton(sys, t)
        u = sys.tail_unit
        for n in range(1, 6):
            paths = path_words(auto, n)
            for word in product((-1, 0, 1), repeat=n):
                ok = True
                partial = zero(ctx)
                power = ctx.one
                for i, d in enumerate(word, start=1):
                    power = power * a
                    partial = partial + d * power
                    gap = t - partial
                    bound = power * u
                    if (bound - gap).sign() < 0 or (gap + bound).sign() < 0:
                        ok = False
                        break
                assert ok == (word in paths)

    def test_export_shape(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        auto = E.build_expansion_automaton(sys, F(0))
        d = auto.to_json_dict()
        assert set(d) == {"states", "initial", "edges", "complete"}
        assert d["initial"] == 0 and d["complete"] is True


class TestGammaMembership:
    """Single queries, each on a fresh GammaSearch."""

    def test_zero(self):
        res = fresh_membership(F(2, 5), F(0))
        assert res is E.GammaStatus.IN

    def test_max_point(self):
        u = F(2, 5) / (1 - F(2, 5))
        res = fresh_membership(F(2, 5), u)
        assert res is E.GammaStatus.IN

    def test_beyond_max(self):
        u = F(2, 5) / (1 - F(2, 5))
        assert fresh_membership(F(2, 5), u * 3 / 2) \
            is E.GammaStatus.OUT

    def test_gap_point(self, monkeypatch):
        # 1/2 * u falls in the central gap for alpha < 1/2... only when the
        # pieces separate; at alpha = 2/5 the set is Cantor with gaps:
        # alpha + alpha^2 u < u/2 < u - same margin, so 1/2 u is outside
        monkeypatch.setattr(E, "_GAMMA_DEPTH_CAP", 64)
        u = F(2, 5) / (1 - F(2, 5))
        res = fresh_membership(F(2, 5), u / 2)
        assert res is E.GammaStatus.OUT

    def test_cap_counts_the_steps_taken(self, monkeypatch):
        # 1/11's path ends after k steps: OUT under a cap of k + 1, and
        # UNKNOWN under a cap of k
        sys = BaseSystem(F(2, 5), BINARY)
        k = sum(1 for _ in E._follow(sys, sys.ctx.state(F(1, 11)), False))
        assert k == 6
        monkeypatch.setattr(E, "_GAMMA_DEPTH_CAP", k + 1)
        assert fresh_membership(F(2, 5), F(1, 11)) is E.GammaStatus.OUT
        monkeypatch.setattr(E, "_GAMMA_DEPTH_CAP", k)
        assert fresh_membership(F(2, 5), F(1, 11)) is E.GammaStatus.UNKNOWN

    def test_unknown_at_depth(self, monkeypatch):
        # a rational whose path runs past a cap of 3 steps is UNKNOWN
        monkeypatch.setattr(E, "_GAMMA_DEPTH_CAP", 3)
        res = fresh_membership(F(2, 5), F(1, 5))
        assert res is E.GammaStatus.UNKNOWN


class TestGammaSearch:
    """One search shared across many queries gives every query the
    verdict of a fresh search."""

    @staticmethod
    def _points(sys, t, rng, count=240):
        # x = value of a random {0,1} prefix - t: the box oracle's witnesses
        a = sys.ctx.alpha_element
        out = []
        for _ in range(count):
            x, p = -t, sys.ctx.one
            for _ in range(rng.randint(1, 10)):
                p = p * a
                if rng.random() < 0.5:
                    x = x + p
            out.append(x)
        rng.shuffle(out)
        return out

    @pytest.mark.parametrize("base,seed", [("2/5", 11), ("3/8", 12),
                                           ("ex51", 13)])
    def test_shared_matches_fresh(self, base, seed):
        rng = random.Random(seed)
        if base == "ex51":
            sys = cubic_base()
            a = sys.ctx.alpha_element
            t = -a / (sys.ctx.one + a)
        else:
            sys = BaseSystem(F(base), TERNARY)
            word = [rng.choice((-1, 0, 1)) for _ in range(4)]
            t = E.seq_value(sys, FiniteWord(word, TERNARY))
        search = E.GammaSearch(BaseSystem(sys.alpha, BINARY))
        seen = set()
        for x in self._points(sys, t, rng):
            fresh = fresh_membership(sys.alpha, x)
            assert fresh is not E.GammaStatus.UNKNOWN
            assert search.membership(x.state) is fresh
            seen.add(fresh)
        assert seen == {E.GammaStatus.IN, E.GammaStatus.OUT}

    @pytest.mark.parametrize("base", ["rat:1/2", "rat:3/5",
                                      "alg:-1,1,1@[1/2,1]",
                                      "alg:1,-5,5@[1/2,1]"])
    def test_whole_interval_from_one_half(self, base):
        # for alpha >= 1/2, Gamma is all of [0, u]: u/alpha = u + 1 and
        # u >= 1, so every value in [0, u] keeps a child in [0, u]
        rng = random.Random(base)
        sys = BaseSystem(X.parse_real(base), TERNARY)
        ctx, u = sys.ctx, sys.tail_unit
        inside = [sys.embed(0), u]
        inside += [u * F(rng.randrange(1, 1000), 1000) for _ in range(20)]
        outside = [-u * F(rng.randrange(1, 1000), 1000) for _ in range(5)]
        outside += [u * F(rng.randrange(1001, 3000), 1000) for _ in range(5)]
        kids = ctx.children(ctx.state(0), ctx.state(u), (0, 1))
        for x in inside:
            assert fresh_membership(sys.alpha, x) \
                is E.GammaStatus.IN
            s = x.state
            for _ in range(200):
                step = kids(s)
                assert step
                s = rng.choice(step)[0]
        for x in outside:
            assert fresh_membership(sys.alpha, x) \
                is E.GammaStatus.OUT

    def test_element_of_another_field_is_refused(self):
        # 1/7 embedded at base 3/5 is no value of Q(2/5)'s elements
        x = X.QAlphaContext(F(3, 5)).embed(F(1, 7))
        with pytest.raises(ValueError, match="different Q"):
            fresh_membership(F(2, 5), x)
        assert fresh_membership(F(2, 5), F(1, 7)) \
            is E.GammaStatus.OUT
        with pytest.raises(ValueError, match="over {0,1}"):
            E.GammaSearch(BaseSystem(F(2, 5), TERNARY))

    def test_memo_is_certified_only(self, monkeypatch):
        # a value cut short by the cap is memoised neither way, and every
        # value memoised OUT is OUT for a fresh, deeper search
        monkeypatch.setattr(E, "_GAMMA_DEPTH_CAP", 8)
        search = E.GammaSearch(BaseSystem(F(2, 5), BINARY))
        ctx = search.ctx
        for x in (F(1, 5), F(1, 7), F(1, 11), F(1, 5)):
            expect = E.GammaStatus.UNKNOWN if x == F(1, 5) else \
                E.GammaStatus.OUT
            assert search.membership(ctx.state(x)) is expect
        assert ctx.state(F(1, 5)) not in search.dead | search.live
        assert search.dead
        monkeypatch.undo()
        for s in search.dead:
            v = to_fraction(X.QAlphaElement(ctx, s))
            assert fresh_membership(F(2, 5), v) is E.GammaStatus.OUT
        search = E.GammaSearch(BaseSystem(F(2, 5), BINARY))
        zero = search.ctx.state(F(0))
        assert search.membership(zero) is E.GammaStatus.IN
        assert search.live and search.membership(zero) is E.GammaStatus.IN


class TestSeqValue:
    def test_periodic_value(self):
        sys = BaseSystem(F(2, 5), TERNARY)
        seq = EPSeq((), (1, -1), TERNARY)
        # sum of (alpha - alpha^2)(1 + alpha^2 + ...) = alpha/(1+alpha)
        a = F(2, 5)
        assert to_fraction(E.seq_value(sys, seq)) == a / (1 + a)

    def test_finite_value(self):
        sys = BaseSystem(F(1, 2), TERNARY)
        w = FiniteWord((1, 0, -1), TERNARY)
        assert to_fraction(E.seq_value(sys, w)) == F(1, 2) - F(1, 8)


# ---------------------------------------------------------------------------
# the integer follower-value closures against the Q(alpha) loops they
# replaced
# ---------------------------------------------------------------------------

SHIPPED_ALGEBRAIC = ("alg:-1,1,2,2@[2/5,1/2]",  # Example 5.1
                     "alg:-1,2,1@[2/5,1/2]",    # sqrt(2) - 1
                     "alg:1,-3,1@[1/3,1/2]",    # (3 - sqrt(5)) / 2
                     "alg:-1,2,2@[1/3,1/2]")    # (sqrt(3) - 1) / 2
SQRT6_MINUS_2 = "alg:-2,4,1@[2/5,1/2]"  # 1/alpha is no algebraic integer
KERNEL_BASES = SHIPPED_ALGEBRAIC + (SQRT6_MINUS_2,)


def reference_tail_unit(sys):
    """tail_unit as it divided in Q(alpha): alpha / (1 - alpha)."""
    a = sys.ctx.alpha_element
    return a / (sys.ctx.one - a)


class TestTailUnit:
    """tail_unit = alpha Q(alpha) / P(1), by synthetic division."""

    @pytest.mark.parametrize("base", KERNEL_BASES + (
        "rat:2/5", "rat:19/50", "rat:1/2", "rat:3/5"))
    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY],
                             ids=["01", "-101"])
    def test_state_matches_field_division(self, base, alphabet):
        sys = BaseSystem(X.parse_real(base), alphabet)
        u = sys.tail_unit
        assert u.ctx is sys.ctx
        assert u.state == reference_tail_unit(sys).state
        assert u * (1 - sys.ctx.alpha_element) == sys.ctx.alpha_element


def reference_automaton(sys, t, state_cap):
    """build_expansion_automaton as it stepped in Q(alpha)."""
    t_el = sys.embed(t)
    lo, hi = sys.low_tail(), sys.high_tail()
    if (t_el - lo).sign() < 0 or (hi - t_el).sign() < 0:
        return E.ExpansionAutomaton([], None, [], True, sys.alphabet)
    inv = sys.ctx.one / sys.ctx.alpha_element
    states, index, succ, complete = [t_el], {t_el: 0}, [], True
    for s in states:
        out = []
        q = s * inv
        for d in range(sys.alphabet.low, sys.alphabet.high + 1):
            child = q - d
            if (child - lo).sign() < 0 or (hi - child).sign() < 0:
                continue
            j = index.get(child)
            if j is None:
                if len(states) >= state_cap:
                    complete = False
                    continue
                j = len(states)
                index[child] = j
                states.append(child)
            out.append((j, d))
        succ.append(out)
    return E.ExpansionAutomaton(states, 0, succ, complete, sys.alphabet)


class ReferenceGammaSearch:
    """GammaSearch as it stepped in Q(alpha), keyed by coefficients."""

    def __init__(self, ctx, depth_cap=4096, node_cap=200_000):
        self.ctx, self.depth_cap, self.node_cap = ctx, depth_cap, node_cap
        a = ctx.alpha_element
        self.bound = a / (ctx.one - a)
        self.inv = ctx.one / a
        self.dead, self.live = set(), set()

    def membership(self, x_el):
        bound, inv, dead, live = self.bound, self.inv, self.dead, self.live
        if x_el.sign() < 0 or (bound - x_el).sign() < 0 or \
                x_el.coeffs in dead:
            return E.GammaStatus.OUT
        if x_el.coeffs in live:
            return E.GammaStatus.IN
        frames = [[x_el, 0, False]]
        on_path = {x_el.coeffs}
        nodes = 0
        while frames:
            el, d, taint = frames[-1]
            if d == 2:
                frames.pop()
                on_path.remove(el.coeffs)
                if not taint:
                    dead.add(el.coeffs)
                elif frames:
                    frames[-1][2] = True
                else:
                    return E.GammaStatus.UNKNOWN
                continue
            frames[-1][1] += 1
            child = el * inv - d
            if child.sign() < 0 or (bound - child).sign() < 0:
                continue
            key = child.coeffs
            if key in on_path or key in live:
                live.update(on_path)
                return E.GammaStatus.IN
            if key in dead:
                continue
            nodes += 1
            if len(frames) >= self.depth_cap or nodes > self.node_cap:
                frames[-1][2] = True
                continue
            frames.append([child, 0, False])
            on_path.add(key)
        return E.GammaStatus.OUT


def reference_digits(sys, y, length, strict, stop_at_repeat=False):
    """The algebraic branch of _digit_loop as it stepped in Q(alpha), with
    (preperiod, period) from the first repeated remainder, or None."""
    inv = sys.ctx.one / sys.ctx.alpha_element
    floor = 0 if strict else -1
    out, seen, repeat = [], {y.coeffs: 0}, None
    for _ in range(length):
        y = y * inv
        for d in range(sys.M, -1, -1):
            if d == 0 or (y - d).sign() > floor:
                break
        y = y - d
        out.append(d)
        if repeat is None:
            if y.coeffs in seen:
                repeat = (seen[y.coeffs], len(out) - seen[y.coeffs])
                if stop_at_repeat:  # the rest follows from the period
                    break
            seen[y.coeffs] = len(out)
    return out, repeat


def reference_rational_digits(sys, y, strict):
    """The rational branch of _digit_loop as it tried the digits from M
    down: (digit, key) pairs, endlessly."""
    p, q = sys.ctx.alpha.numerator, sys.ctx.alpha.denominator
    num, scale = y.state
    while True:
        scale *= p
        qn = q * num
        d = sys.M
        if strict:
            while d and qn <= d * scale:
                d -= 1
        else:
            while d and qn < d * scale:
                d -= 1
        num = qn - d * scale
        yield d, num


class TestRationalDigitLoop:
    def test_floor_division_matches_digit_by_digit(self):
        # values in the set: 0, M u and seeded finite words over {0..M}.
        # There the largest d with a child >= 0 (> 0) is the largest with a
        # child in [0, M u], so the clamping reference agrees.  0 has no
        # quasi-greedy expansion, and below 1/(M+1) a finite word is the one
        # expansion of its value, so the quasi-greedy path ends
        rng = random.Random(64)
        for size in range(2, 65):
            sys = BaseSystem(F(rng.randrange(1, 50), 50),
                             Alphabet(0, size))
            ctx = sys.ctx
            xs = [(zero(ctx), True), (sys.M * sys.tail_unit, False)]
            xs += [(ctx.element([0] + [rng.randrange(size)
                                       for _ in range(rng.randint(1, 12))]),
                    True) for _ in range(3)]
            for x, finite in xs:
                for strict in (False, True):
                    got = list(islice(E._digit_loop(sys, x.state, strict),
                                      80))
                    want = islice(reference_rational_digits(sys, x, strict),
                                  len(got))
                    assert got == list(want)
                    ends = strict and finite and \
                        (is_zero(x) or not sys.whole)
                    assert (len(got) < 80) == ends


def closure_cases():
    """(base, seed) pairs: seeded rationals in (1/3, 1/2) and
    ``KERNEL_BASES``."""
    rng = random.Random(900)
    rats = set()
    while len(rats) < 4:
        den = rng.randrange(5, 40)
        a = F(rng.randrange(den // 3 + 1, (den + 1) // 2), den)
        if F(1, 3) < a < F(1, 2) and a.numerator >= 2:
            rats.add(f"rat:{a.numerator}/{a.denominator}")
    bases = sorted(rats) + list(KERNEL_BASES)
    return [(b, 910 + i) for i, b in enumerate(bases)]


class TestFollowerClosures:
    @pytest.mark.parametrize("base,seed", closure_cases())
    def test_automaton_matches_reference(self, base, seed):
        rng = random.Random(seed)
        sys = BaseSystem(X.parse_real(base), TERNARY)
        shifts = [sys.low_tail(), sys.high_tail(), sys.embed(0)]
        for _ in range(3):
            word = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 5))]
            shifts.append(E.seq_value(sys, FiniteWord(word, TERNARY)))
        for t in shifts:
            auto = E.build_expansion_automaton(sys, t, state_cap=150)
            ref = reference_automaton(sys, t, state_cap=150)
            assert auto.to_json_dict() == ref.to_json_dict()
            assert [s.coeffs for s in auto.states] == \
                [s.coeffs for s in ref.states]
            assert auto.complete == ref.complete

    @pytest.mark.parametrize("base,seed", closure_cases())
    def test_shared_search_matches_reference(self, base, seed, monkeypatch):
        rng = random.Random(seed)
        sys = BaseSystem(X.parse_real(base), TERNARY)
        word = [rng.choice((-1, 0, 1)) for _ in range(4)]
        t = E.seq_value(sys, FiniteWord(word, TERNARY))
        points = TestGammaSearch._points(sys, t, rng, count=60)
        points += [sys.embed(0), sys.tail_unit, sys.tail_unit * 2]
        monkeypatch.setattr(E, "_GAMMA_DEPTH_CAP", 64)
        search = E.GammaSearch(BaseSystem(sys.alpha, BINARY))
        ref = ReferenceGammaSearch(sys.ctx, depth_cap=64, node_cap=2000)
        for x in points:
            assert search.membership(x.state) is ref.membership(x)

    def test_interval_end_is_an_exact_zero(self):
        # high_tail is the fixed point u/alpha - 1 = u: each step lands on
        # the interval's end, where hi - child is the zero vector, an
        # exact 0 that needs no fallback
        for base in KERNEL_BASES:
            sys = BaseSystem(X.parse_real(base), TERNARY)
            ctx = sys.ctx
            lo, hi = ctx.state(sys.low_tail()), ctx.state(sys.high_tail())
            kids = ctx.children(lo, hi, (-1, 0, 1))
            assert (hi, 1) in kids(hi) and (lo, -1) in kids(lo)
            for t in (sys.high_tail(), sys.low_tail()):
                auto = E.build_expansion_automaton(sys, t)
                assert auto.to_json_dict() == \
                    reference_automaton(sys, t, 10_000).to_json_dict()
            assert ctx.fallbacks == 0

    def test_no_fallbacks_on_pinned_automata(self):
        sys = cubic_base()
        a = sys.ctx.alpha_element
        auto = E.build_expansion_automaton(sys, -a / (sys.ctx.one + a))
        assert len(auto.states) == 6
        assert sys.ctx.fallbacks == 0
        sys = BaseSystem(X.AlgebraicReal([-1, 2, 1], F(2, 5), F(1, 2)),
                         TERNARY)
        auto = E.build_expansion_automaton(sys, sys.embed(F(1, 211)))
        assert len(auto.states) >= 712 and auto.complete
        assert sys.ctx.fallbacks == 0

    @pytest.mark.parametrize("alphabet", (TERNARY, A01, Alphabet(0, 4)))
    @pytest.mark.parametrize("base", KERNEL_BASES)
    def test_digit_loop_matches_reference(self, base, alphabet):
        sys = BaseSystem(X.parse_real(base), alphabet)
        ctx = sys.ctx
        try:
            cache = sys.delta_cache()
        except OutOfDomain:  # {0,1} needs alpha >= 1/2
            cache = None
        if cache is not None:
            ref, repeat = reference_digits(sys, ctx.one, 2048, strict=True,
                                           stop_at_repeat=True)
            if repeat is not None:
                pre, per = repeat
                ref += [ref[pre + (i - pre) % per]
                        for i in range(len(ref), 2048)]
            low = alphabet.low
            assert list(E.delta(sys, 2048)) == [d + low for d in ref]
            ep = E.try_ep_form(sys)
            assert (ep is None) == (repeat is None)
            if ep is not None:
                assert (len(ep.pre), len(ep.per)) == repeat
        # greedy and quasi-greedy digits of seeded values in the set: 0,
        # M u, finite words over {0..M}, and points of [0, M u] where that
        # interval is the set.  Below 1/(M+1) a finite word is the one
        # expansion of its value, so it has no quasi-greedy one
        rng = random.Random(len(base) + alphabet.size)
        top = sys.M * sys.tail_unit
        points = [top * F(rng.randrange(1, 1000), 1000) for _ in range(3)]
        finite = [ctx.alpha_element]
        finite += [ctx.element([0] + [rng.randrange(sys.M + 1)
                                      for _ in range(rng.randint(1, 8))])
                   for _ in range(3)]
        xs = [zero(ctx), top] + finite + (points if sys.whole else [])
        for x in xs:
            y = x + sys.low_tail()
            for strict, fn in ((False, E.greedy_expansion),
                               (True, E.quasi_greedy_expansion)):
                if strict and is_zero(x):
                    continue  # the all-low convention, no digit loop
                if strict and not sys.whole and x in finite:
                    with pytest.raises(OutOfRange):
                        fn(sys, y, 64)
                    continue
                ref, _ = reference_digits(sys, x, 64, strict)
                assert list(fn(sys, y, 64)) == \
                    [d + alphabet.low for d in ref]
