import json
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from cantorint import words as W
from cantorint import thuemorse as T
from cantorint.words import (
    BINARY,
    TERNARY,
    Alphabet,
    AlphabetMismatch,
    EPSeq,
    FiniteWord,
    LazySeq,
    Lex,
    SizeMismatch,
    format_seq,
    lex_compare,
    parse_seq,
    reflect,
    strongly_eventually_periodic,
    substitute_alphabet,
    zero_density,
    zero_density_prefix,
)


# the digits a comparison with a LazySeq scans; EPSeq pairs decide exactly
CAP = 64


def rand_epseq(rng, alphabet=TERNARY, max_pre=4, max_per=6):
    digits = range(alphabet.low, alphabet.high + 1)
    pre = tuple(rng.choice(digits) for _ in range(rng.randrange(0, max_pre)))
    per = tuple(rng.choice(digits) for _ in range(rng.randrange(1, max_per + 1)))
    return EPSeq(pre, per, alphabet)


class TestCanonicalForm:
    def test_primitive_period(self):
        s = EPSeq((), (1, 0, 1, 0), TERNARY)
        assert s.per == (1, 0)

    def test_preperiod_absorbed(self):
        s = EPSeq((1, 0), (0,), TERNARY)
        assert s.pre == (1,) and s.per == (0,)

    def test_rotation_alignment(self):
        # 10(01)^inf = 1(00 1...)? canonical form keeps pre = 10
        s = EPSeq((1, 0), (0, 1), BINARY)
        assert (s.pre, s.per) == ((1, 0), (0, 1))
        # equality is structural equality of canonical forms
        assert EPSeq((1,), (0, 1), BINARY) == EPSeq((1, 0), (1, 0), BINARY)


def divisor_loop_canonical(pre, per):
    """EPSeq's canonical form as it was first built: the least divisor d
    of len(per) with per a power of per[:d], then the preperiod's tail
    absorbed into rotations of the period."""
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            per = per[:d]
            break
    pre, per = list(pre), list(per)
    while pre and pre[-1] == per[-1]:
        per = [per[-1]] + per[:-1]
        pre.pop()
    return tuple(pre), tuple(per)


class TestPrimitivePeriod:
    LENGTHS = [1, 2, 3, 5, 7, 13, 31, 4, 8, 9, 16, 25, 27, 49, 64, 12, 360,
               8192]

    @staticmethod
    def cases(rng, n):
        """Random periods of length n: free ones, and powers of a random
        root for every divisor d of n."""
        def word(k, size=3):
            return tuple(rng.randrange(size) - 1 for _ in range(k))
        yield word(n)
        yield word(n, 2)
        for d in (d for d in range(1, n) if n % d == 0):
            root = word(d, rng.choice((2, 3)))
            yield root * (n // d)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_divisor_loop(self, n):
        rng = random.Random(7000 + n)
        for per in self.cases(rng, n):
            pre = tuple(rng.randrange(3) - 1 for _ in range(rng.randrange(4)))
            pre += per[-rng.randrange(3):] if rng.random() < 0.5 else ()
            s = EPSeq(pre, per, TERNARY)
            assert (s.pre, s.per) == divisor_loop_canonical(pre, per)

    def test_root_of_a_near_power_is_whole(self):
        # one changed digit breaks every proper period
        for n in (12, 360, 8192):
            per = (1, 0, -1) * (n // 3) if n % 3 == 0 else (1, 0) * (n // 2)
            bent = per[:-1] + (-per[-1] if per[-1] else 1,)
            assert EPSeq((), bent, TERNARY).per == bent
            assert len(EPSeq((), per, TERNARY).per) == (3 if n % 3 == 0 else 2)


class TestDigitCheck:
    def test_one_bad_digit_at_the_end_of_a_long_word(self):
        digits = tuple(T.lambda_prefix(65535)) + (2,)
        with pytest.raises(W.WordsError) as err:
            FiniteWord(digits, TERNARY)
        assert str(err.value) == "digit 2 outside alphabet [-1, 1]"
        with pytest.raises(W.WordsError):
            EPSeq((), digits, TERNARY)

    def test_first_bad_digit_named(self):
        with pytest.raises(W.WordsError) as err:
            FiniteWord((0, 1, 5, -3, 7), TERNARY)
        assert str(err.value) == "digit 5 outside alphabet [-1, 1]"
        with pytest.raises(W.WordsError) as err:
            EPSeq((1, 0), (0, -2, 2), BINARY)
        assert str(err.value) == "digit -2 outside alphabet [0, 1]"
        # pre + per is checked in one pass: pre's bad digit comes first
        for pre, per, bad in [((0, 2), (1,), 2), ((0,), (1, -2), -2),
                              ((5,), (7,), 5), ((), (1, 3, -4), 3)]:
            with pytest.raises(W.WordsError) as err:
                EPSeq(pre, per, TERNARY)
            assert str(err.value) == f"digit {bad} outside alphabet [-1, 1]"

    def test_bounds_and_empty_accepted(self):
        assert FiniteWord((), TERNARY).digits == ()
        assert FiniteWord((-1, 1, 0), TERNARY).digits == (-1, 1, 0)
        assert EPSeq((), (0, 1), BINARY).per == (0, 1)


def signed_bytes(digits):
    """Digits in -128..127 as a bytes string of signed digits."""
    return bytes(d & 0xFF for d in digits)


class TestSignedDigitStrings:
    """Words built from bytes or bytearray strings of signed digits."""

    def test_equal_to_the_tuple_built_word(self):
        rng = random.Random(39)
        for alphabet in (TERNARY, BINARY, Alphabet(-3, 7)):
            for _ in range(200):
                s = rand_epseq(rng, alphabet, max_pre=5, max_per=9)
                pre, per = s.pre, s.per
                if rng.random() < 0.5:  # not canonical as given
                    pre, per = pre + per[:1], (per[1:] + per[:1]) * 2
                for kind in (bytes, bytearray):
                    t = EPSeq(kind(signed_bytes(pre)), kind(signed_bytes(per)),
                              alphabet)
                    assert t == EPSeq(pre, per, alphabet) == s
                    assert hash(t) == hash(s)
                    assert type(t.pre) is type(t.per) is tuple
                    w = FiniteWord(kind(signed_bytes(pre + per)), alphabet)
                    assert w == FiniteWord(pre + per, alphabet)
                    assert hash(w) == hash(FiniteWord(pre + per, alphabet))
                    assert type(w.digits) is tuple
        assert FiniteWord(b"", TERNARY).digits == ()

    @pytest.mark.parametrize("byte, alphabet", [(0x02, TERNARY),
                                                (0xFE, TERNARY),
                                                (0x80, TERNARY),
                                                (0xFF, BINARY)])
    def test_stray_byte_raises_the_tuple_message(self, byte, alphabet):
        d = byte - 256 if byte > 127 else byte
        for make in (lambda x: FiniteWord(x, alphabet),
                     lambda x: EPSeq(x[:2], x[2:], alphabet)):
            with pytest.raises(W.WordsError) as want:
                make((0, 1, d, 1, d, 0))
            with pytest.raises(W.WordsError) as got:
                make(bytes((0, 1, byte, 1, byte, 0)))
            assert str(got.value) == str(want.value) == \
                f"digit {d} outside alphabet [{alphabet.low}, {alphabet.high}]"

    @pytest.mark.parametrize("n", [0, 1, 7, 65536])
    def test_unpack_matches_the_memoryview_cast(self, n):
        # _signed_digits reads a string with one struct.unpack; the cast
        # through a memoryview of signed chars is the second route
        rng = random.Random(n)
        whole = Alphabet(-128, 256)  # every byte a digit
        for alphabet, pool in ((TERNARY, b"\x00\x01\xff"), (BINARY, b"\x00\x01"),
                               (whole, bytes(range(256)))):
            b = bytes(rng.choices(pool, k=n))
            for kind in (bytes, bytearray):
                got = W._signed_digits(kind(b), alphabet)
                assert type(got) is tuple
                assert got == tuple(memoryview(kind(b)).cast("b"))
        for byte in (0x02, 0x80, 0xFE):
            b = bytearray(rng.choices(b"\x00\x01\xff", k=n + 1))
            b[rng.randrange(n + 1)] = byte
            with pytest.raises(W.WordsError) as want:
                W._check_digits(tuple(memoryview(b).cast("b")), TERNARY)
            for kind in (bytes, bytearray):
                with pytest.raises(W.WordsError) as got:
                    W._signed_digits(kind(b), TERNARY)
                assert str(got.value) == str(want.value)

    def test_first_stray_byte_named(self):
        with pytest.raises(W.WordsError) as err:
            FiniteWord(b"\x00\xfe\x02", TERNARY)
        assert str(err.value) == "digit -2 outside alphabet [-1, 1]"
        with pytest.raises(W.WordsError) as err:
            EPSeq(b"\x01\x05", b"\x00\xfe", TERNARY)
        assert str(err.value) == "digit 5 outside alphabet [-1, 1]"
        with pytest.raises(W.WordsError) as err:  # no byte is a digit
            FiniteWord(b"\x00", Alphabet(200, 3))
        assert str(err.value) == "digit 0 outside alphabet [200, 202]"


class TestLexCompare:
    def test_first_digit_decides(self):
        a = EPSeq((-1,), (0,), TERNARY)
        b = EPSeq((1,), (0,), TERNARY)
        assert lex_compare(a, b, CAP) is Lex.LESS

    def test_equal_epseqs(self):
        a = EPSeq((1,), (0,), TERNARY)
        b = EPSeq((1,), (0,), TERNARY)
        assert lex_compare(a, b, CAP) is Lex.EQUAL

    def test_zero_run_comparison(self):
        # 1 0^(k+1) ... beats 1 0^k (-1) ... at position k+2
        for k in range(0, 4):
            a = EPSeq((1,) + (0,) * (k + 1), (1,), TERNARY)
            b = EPSeq((1,) + (0,) * k + (-1,), (1,), TERNARY)
            assert lex_compare(a, b, CAP) is Lex.GREATER
            # they agree through position k+1 and split at k+2
            assert all(a.digit(i) == b.digit(i) for i in range(1, k + 2))
            assert a.digit(k + 2) > b.digit(k + 2)

    def test_lazy_undecided(self):
        lam = T.lambda_seq()
        same = LazySeq(lambda i: T.lam(i), TERNARY, "copy")
        assert lex_compare(lam, same, depth_cap=64) is Lex.UNDECIDED_AT_DEPTH

    def test_lazy_decided(self):
        lam = T.lambda_seq()
        other = LazySeq(lambda i: 0 if i < 5 else 1, TERNARY)
        assert lex_compare(other, lam, depth_cap=64) is Lex.LESS

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            lex_compare(EPSeq((), (1,), TERNARY), EPSeq((), (1,), BINARY), CAP)

    def test_total_order_on_random_epseqs(self):
        rng = random.Random(5)
        seqs = [rand_epseq(rng) for _ in range(40)]
        for a in seqs:
            for b in seqs:
                r = lex_compare(a, b, CAP)
                assert r is not Lex.UNDECIDED_AT_DEPTH
                # antisymmetry
                rr = lex_compare(b, a, CAP)
                if r is Lex.LESS:
                    assert rr is Lex.GREATER
                elif r is Lex.GREATER:
                    assert rr is Lex.LESS
                else:
                    assert rr is Lex.EQUAL and a == b
        # transitivity on sorted triples
        import functools

        def cmp(a, b):
            r = lex_compare(a, b, CAP)
            return -1 if r is Lex.LESS else (1 if r is Lex.GREATER else 0)

        ordered = sorted(seqs, key=functools.cmp_to_key(cmp))
        for x, y in zip(ordered, ordered[1:]):
            assert lex_compare(x, y, CAP) is not Lex.GREATER


class TestReflect:
    def test_ternary_negation(self):
        w = FiniteWord((1, 0, -1, 1), TERNARY)
        assert tuple(reflect(w)) == (-1, 0, 1, -1)

    def test_block_word_doubling(self):
        # w_1 = 10, reflect(w_1) = (-1)0, and w_2 with its last digit
        # decremented equals w_1 reflect(w_1)
        w1 = T.w_word(1)
        assert tuple(w1) == (1, 0)
        assert tuple(reflect(w1)) == (-1, 0)
        w2 = list(T.w_word(2))
        w2[-1] -= 1
        assert tuple(w2) == tuple(w1) + tuple(reflect(w1))

    def test_general_alphabet(self):
        w = FiniteWord((0, 2, 1), Alphabet(0, 3))
        assert tuple(reflect(w)) == (2, 0, 1)

    def test_involutive(self):
        rng = random.Random(9)
        for _ in range(50):
            s = rand_epseq(rng)
            assert reflect(reflect(s)) == s

    def test_reverses_order(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b = rand_epseq(rng), rand_epseq(rng)
            r = lex_compare(a, b, CAP)
            rr = lex_compare(reflect(b), reflect(a), CAP)
            assert r is rr


class TestCanonicalMaps:
    """reflect and substitute_alphabet map a canonical EPSeq digit by digit
    with no second search: the image must be the EPSeq built afresh."""

    # each construction rotated or shortened the period
    SHAPED = [((1, 0), (1, 0, 1, 0)), ((0, 1, -1), (1, -1)),
              ((-1, 0), (0, -1, 0, -1)), ((), (1, 1, 1)), ((1, 1), (0, 1)),
              ((0,), (-1, 0) * 6)]

    MAPS = [
        (TERNARY, reflect, TERNARY, lambda d: -d),
        (TERNARY, lambda s: substitute_alphabet(s, TERNARY, Alphabet(0, 3)),
         Alphabet(0, 3), lambda d: d + 1),
        (Alphabet(2, 4), reflect, Alphabet(2, 4), lambda d: 7 - d),
        (BINARY, lambda s: substitute_alphabet(s, BINARY, Alphabet(5, 2)),
         Alphabet(5, 2), lambda d: d + 5),
    ]

    def test_shaped_words_were_reshaped(self):
        for pre, per in self.SHAPED:
            s = EPSeq(pre, per, TERNARY)
            assert (s.pre, s.per) != (pre, per)

    @pytest.mark.parametrize("k", range(len(MAPS)))
    def test_image_equals_fresh_construction(self, k):
        frm, fn, to, f = self.MAPS[k]
        rng = random.Random(31 + k)
        seqs = [rand_epseq(rng, frm, max_per=8) for _ in range(300)]
        if frm == TERNARY:
            seqs += [EPSeq(pre, per, TERNARY) for pre, per in self.SHAPED]
        for s in seqs:
            got = fn(s)
            fresh = EPSeq(tuple(map(f, s.pre)), tuple(map(f, s.per)), to)
            assert got == fresh and hash(got) == hash(fresh)
            assert (got.pre, got.per, got.alphabet) == \
                (fresh.pre, fresh.per, fresh.alphabet)


class TestZeroDensity:
    def test_w1(self):
        assert zero_density(T.w_word(1)).value == F(1, 2)

    def test_periodic(self):
        assert zero_density(EPSeq((), (1, -1, 0), TERNARY)).value == F(1, 3)

    def test_preperiod_ignored(self):
        a = zero_density(EPSeq((0, 0, 0), (1, -1), TERNARY))
        assert a.value == 0 and a.exact

    def test_lambda_prefix_estimate(self):
        rep = zero_density_prefix(T.lambda_seq(), 2**12)
        assert not rep.exact
        assert abs(rep.lower - F(1, 3)) <= F(1, 3) / 2**12 + F(1, 2**12)

    def test_prefix_counts_its_last_digits(self):
        # lambda_1000 = 0 and lambda_999 = -1, so a prefix that dropped its
        # last two digits would read 333/1000; lambda_i = 0 iff i and i - 1
        # have binary digit sums of one parity
        n = 1000
        zeros = sum(bin(i).count("1") % 2 == bin(i - 1).count("1") % 2
                    for i in range(1, n + 1))
        rep = zero_density_prefix(T.lambda_seq(), n)
        assert rep.lower == F(zeros, n) == F(167, 500)

    def test_reflection_invariant(self):
        rng = random.Random(17)
        for _ in range(100):
            s = rand_epseq(rng)
            assert zero_density(s).value == zero_density(reflect(s)).value

    def test_count_doubling_identities(self):
        # zeros(w_n) = 2 zeros(w_(n-1)) - 1 for even n, + 1 for odd n
        for n in range(2, 11):
            zn = T.w_word(n).zeros()
            zp = T.w_word(n - 1).zeros()
            assert zn == 2 * zp + (-1 if n % 2 == 0 else 1)


class TestSubstitute:
    def test_spec_rule(self):
        s = FiniteWord((2, 1, 0), Alphabet(0, 3))
        assert tuple(substitute_alphabet(s, Alphabet(0, 3), TERNARY)) == \
            (1, 0, -1)

    def test_identity(self):
        s = FiniteWord((1, 0), TERNARY)
        assert substitute_alphabet(s, TERNARY, TERNARY) == s

    def test_roundtrip(self):
        s = EPSeq((2,), (1, 0), Alphabet(0, 3))
        out = substitute_alphabet(substitute_alphabet(s, Alphabet(0, 3),
                                                      TERNARY),
                                  TERNARY, Alphabet(0, 3))
        assert out == s

    def test_order_isomorphic(self):
        rng = random.Random(23)
        for _ in range(60):
            a, b = rand_epseq(rng), rand_epseq(rng)
            a2 = substitute_alphabet(a, TERNARY, Alphabet(5, 3))
            b2 = substitute_alphabet(b, TERNARY, Alphabet(5, 3))
            assert lex_compare(a, b, CAP) is lex_compare(a2, b2, CAP)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            substitute_alphabet(FiniteWord((0, 1), BINARY), BINARY, TERNARY)


def sep_brute_force(s: EPSeq, k_max: int = 16) -> bool:
    """Oracle: try every block length up to k_max, checking a long prefix."""
    horizon = 4 * (len(s.pre) + len(s.per)) * k_max + 4 * k_max + 8
    digits = [s.digit(i) for i in range(1, horizon + 1)]
    for k in range(1, k_max + 1):
        word_i = digits[:k]
        word_j = digits[k:2 * k]
        if word_i > word_j:
            continue
        if all(digits[i] == digits[i - k] for i in range(2 * k, horizon)):
            return True
    return False


def sep_scan_reference(s: EPSeq):
    """The witness of the former scan over every block length 1..p+q."""
    p, q = len(s.pre), len(s.per)
    for k in range(1, p + q + 1):
        check_to = max(k + 1, p) + math.lcm(k, q)
        if all(s.digit(i) == s.digit(i + k) for i in range(k + 1, check_to + 1)):
            word_i = tuple(s.digit(i) for i in range(1, k + 1))
            word_j = tuple(s.digit(i) for i in range(k + 1, 2 * k + 1))
            if word_i <= word_j:
                return word_i, word_j
    return None


class TestStronglyEventuallyPeriodic:
    def test_periodic_is_sep(self):
        got = strongly_eventually_periodic(EPSeq((), (0, 0, 1), BINARY))
        assert got is not None
        i, j = got
        assert tuple(i) == tuple(j) == (0, 0, 1)

    def test_definition_instance(self):
        got = strongly_eventually_periodic(EPSeq((0, 1), (1, 0), BINARY))
        assert got is not None
        i, j = got
        assert tuple(i) <= tuple(j)

    def test_negative_case(self):
        assert strongly_eventually_periodic(
            EPSeq((1, 0), (0, 1), BINARY)) is None

    def test_one_then_zeros(self):
        assert strongly_eventually_periodic(
            EPSeq((1,), (0,), BINARY)) is None
        assert strongly_eventually_periodic(
            EPSeq((0,), (1,), BINARY)) is not None

    def test_against_brute_force(self):
        rng = random.Random(31)
        for _ in range(300):
            s = rand_epseq(rng, BINARY, max_pre=3, max_per=4)
            got = strongly_eventually_periodic(s)
            assert (got is not None) == sep_brute_force(s)
            assert sep_scan_reference(s) == \
                (None if got is None else (got[0].digits, got[1].digits))
        for _ in range(2000):
            s = rand_epseq(rng, BINARY, max_pre=9, max_per=7)
            got = strongly_eventually_periodic(s)
            assert sep_scan_reference(s) == \
                (None if got is None else (got[0].digits, got[1].digits))

    def test_requires_two_letters(self):
        with pytest.raises(W.WordsError):
            strongly_eventually_periodic(EPSeq((), (0,), TERNARY))


class TestTextFormat:
    def test_examples(self):
        s = parse_seq("(+-)")
        assert s == EPSeq((), (1, -1), TERNARY)
        s = parse_seq("+0(0)")
        assert s.digit(1) == 1 and s.digit(2) == 0 and s.digit(100) == 0

    def test_roundtrip(self):
        rng = random.Random(37)
        for _ in range(100):
            s = rand_epseq(rng)
            assert parse_seq(format_seq(s)) == s

    def test_integer_format(self):
        # format_seq writes other alphabets as comma-separated ints, which
        # parse_seq does not read
        s = EPSeq((2, 1), (1,), Alphabet(0, 3))
        assert s == EPSeq((2,), (1,), Alphabet(0, 3))
        assert format_seq(s) == "2(1)"
        assert format_seq(EPSeq((), (2, 1), Alphabet(0, 3))) == "(2,1)"
        assert format_seq(FiniteWord((2, 1, 0), Alphabet(0, 3))) == "2,1,0"
        with pytest.raises(W.WordsError):
            parse_seq("2,1(1)")

    def test_bad_input(self):
        with pytest.raises(W.WordsError):
            parse_seq("abc")
        with pytest.raises(W.WordsError):
            parse_seq("")


_REFERENCE_RE = re.compile(r"^(?P<pre>[+\-0]*)(\((?P<per>[+\-0]+)\))?$")
_REFERENCE_DIGITS = {"+": 1, "-": -1, "0": 0}


def reference_parse_seq(text):
    """parse_seq as it mapped each character through a dict into tuples of
    ints."""
    text = text.strip()
    m = _REFERENCE_RE.match(text)
    if not m:
        raise W.WordsError(f"cannot parse ternary sequence {text!r}")
    pre = tuple(map(_REFERENCE_DIGITS.__getitem__, m.group("pre")))
    per = m.group("per")
    if per is None:
        if not pre:
            raise W.WordsError("empty sequence")
        return FiniteWord(pre, TERNARY)
    return EPSeq(pre, map(_REFERENCE_DIGITS.__getitem__, per), TERNARY)


POOL_WORDS = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                         / "reference.json").read_text())["spectrum"]["words"]


class TestParseReference:
    """parse_seq reads the signed-digit bytes path; the tuple parser is the
    reference."""

    def test_pool_words(self):
        assert len(POOL_WORDS) == 400
        for text in POOL_WORDS:
            finite = text.replace("(", "").replace(")", "")
            for t in (text, f" {text}\n", finite, "0" * 40 + text):
                got, want = parse_seq(t), reference_parse_seq(t)
                assert type(got) is type(want) and got == want
                assert isinstance(got, FiniteWord) or \
                    (got.pre, got.per) == (want.pre, want.per)

    @pytest.mark.parametrize("text", [
        "", "  ", "abc", "()", "+(", "(+", "+0)", "(0)(0)", "(+)-", "+ 0",
        "+(0 )", "+\n0", "(+-\n)", "é", "+0(é)", "2,1(1)", "+-0(+-0", None,
        b"+0(0)", 12])
    def test_malformed_texts(self, text):
        with pytest.raises(Exception) as want:
            reference_parse_seq(text)
        with pytest.raises(Exception) as got:
            parse_seq(text)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestAlphabet:
    @pytest.mark.parametrize("size", [1, 0, -2])
    def test_needs_two_digits(self, size):
        with pytest.raises(W.WordsError, match="at least two digits"):
            Alphabet(0, size)

    def test_equal_when_built_apart(self):
        a, b = Alphabet(-1, 3), Alphabet(low=-1, size=3)
        assert a == b == TERNARY and hash(a) == hash(b) == hash(TERNARY)
        assert len({a, b, TERNARY, Alphabet(0, 3), Alphabet(-1, 2)}) == 3
        assert Alphabet(0, 3) != TERNARY and Alphabet(-1, 2) != TERNARY

    def test_in_is_the_digit_range(self):
        for a in (TERNARY, BINARY, Alphabet(-3, 7), Alphabet(5, 2)):
            for d in range(-10, 11):
                assert (d in a) is (a.low <= d <= a.high)
        assert 3 not in TERNARY and -1 in TERNARY  # the fields are not digits

    def test_repr_and_high(self):
        assert repr(TERNARY) == "Alphabet(low=-1, size=3)"
        assert repr(Alphabet(0, 2)) == "Alphabet(low=0, size=2)"
        assert (TERNARY.high, BINARY.high, Alphabet(-3, 7).high) == (1, 1, 3)
