"""The acceptance gate: one test per reproduction criterion.

Each test asserts the corresponding check from ``cantorint.acceptance``
(also exposed as ``cantor verify-paper``).  Criterion 10 is implemented
as stated and marked as a strict expected failure: its final clause
(uniqueness of the Liouville control sequence at base 2/5) is provably
false because 2/5 lies outside the validity range (1/3, (3-sqrt(5))/2) of
the underlying family; the three exact-inequality clauses are asserted
separately and the full construction is additionally exercised at 7/20,
where every clause holds.
"""

import re
import tracemalloc
from fractions import Fraction as F

import pytest

from cantorint import acceptance as A
from cantorint import dimension, expansions, thuemorse
from cantorint.exactnum import parse_real
from cantorint.expansions import BaseSystem, UniqStatus
from cantorint.words import TERNARY


def _assert_check(result):
    assert result.passed, f"criterion {result.number}: {result.detail}"


def test_criterion_01_alpha_kl_enclosure():
    res = A.check_01_alpha_kl()
    _assert_check(res)
    # the bracket alone: no elapsed time, so two runs print the same table
    assert re.fullmatch(r"\[0\.\d{12}, 0\.\d{12}\]", res.detail), res.detail


def test_criterion_02_tau_lambda_identities():
    _assert_check(A.check_02_tau_lambda_identities())


def test_criterion_03_block_densities():
    _assert_check(A.check_03_block_densities())


_LAMBDA_CHECKS = [A.check_02_tau_lambda_identities, A.check_03_block_densities]


@pytest.fixture(params=[(0, 1), (1, 0)], ids=["0 to 1", "1 to 0"])
def corrupt_lambda(monkeypatch, request):
    """lambda's doubling kernel with its first digit d past index 2^19
    changed to e, (d, e) the param; the cached words of at most 2^16
    digits are unaffected.  Check 3 sees 1 to 0 through d(w_20) alone, as
    that density stays within 10^-6 of 1/3."""
    d, e = request.param
    build = thuemorse._lambda_bytes

    def corrupted(n):
        w = build(n)
        if len(w) > 2**19 + 1:
            w[w.index(d, 2**19 + 1)] = e
        return w
    monkeypatch.setattr(thuemorse, "_lambda_bytes", corrupted)


@pytest.mark.parametrize("check", _LAMBDA_CHECKS)
def test_corrupt_lambda_fails_checks_2_and_3(corrupt_lambda, check):
    assert check().passed is False


def test_wrong_tau_fails_check_2(monkeypatch):
    tau = thuemorse.tau
    monkeypatch.setattr(thuemorse, "tau", lambda i: tau(i) ^ (i == 2**19 + 3))
    assert A.check_02_tau_lambda_identities().passed is False


def test_kernel_that_is_not_lambda_fails_check_2(monkeypatch):
    """The doubling from 1 1 in place of lambda_1 lambda_2 = 1 0 meets
    every identity of check 2; only tau's differences tell it from
    lambda."""
    build = thuemorse._lambda_bytes

    def doubled_from_1_1(n):
        if n <= 16:
            return build(n)
        w = bytearray(b"\x01\x01")
        while len(w) < n:
            w += w.translate(thuemorse._REFLECT)
            w[-1] = (w[-1] + 1) & 0xFF
        return w
    monkeypatch.setattr(thuemorse, "_lambda_bytes", doubled_from_1_1)
    assert A.check_02_tau_lambda_identities().passed is False


@pytest.mark.parametrize("check", _LAMBDA_CHECKS)
def test_lambda_checks_build_no_long_word(monkeypatch, check):
    """Checks 2 and 3 read lambda's 2^20 digits as 1 MB of signed bytes:
    no tuple or list of that length, and no word past 16 digits."""
    lengths, word = [], thuemorse.FiniteWord

    def spy(digits, alphabet):
        lengths.append(len(digits))
        return word(digits, alphabet)
    monkeypatch.setattr(thuemorse, "FiniteWord", spy)
    tracemalloc.start()
    try:
        res = check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_check(res)
    assert peak < 8 * 2**20
    assert max(lengths, default=0) <= 16


def test_criterion_04_delta_threshold():
    _assert_check(A.check_04_delta_threshold())


def test_criterion_05_example51():
    _assert_check(A.check_05_example_51())


def test_rounds_to_is_exact_at_both_ends():
    # d - 10^-k / 2 rounds to d and d + 10^-k / 2 does not, and a float end
    # is taken exactly: 0.15 is 0.1499999999999999944..., which rounds to
    # 0.1 at one place
    half = F(1, 2 * 10**5)
    d = F("1.69562")
    assert A._rounds_to(d - half, d + half - F(1, 10**30), "1.69562")
    assert not A._rounds_to(d - half, d + half, "1.69562")
    assert not A._rounds_to(d - half - F(1, 10**30), d, "1.69562")
    assert A._rounds_to(0.15, 0.15, "0.1")
    assert not A._rounds_to(0.15, 0.15, "0.2")


@pytest.mark.parametrize("base", ["alg:-1,1,2,2@[2/5,1/2]",
                                  "alg:-1,2,1@[2/5,1/2]", "rat:7/18",
                                  "rat:2/5"])
def test_translations_cached_equal_fresh(base):
    # each worked-example shift is derived once per system: a second call
    # returns the same element, equal to a fresh derivation, and t is the
    # closed form: t (1 + alpha) = -alpha, and (alpha^3 - 1) t = alpha -
    # alpha^2 for ex52
    sys_ = BaseSystem(parse_real(base), TERNARY)
    a, one = sys_.ctx.alpha_element, sys_.ctx.one
    for translation in (A.ex51_translation, A.ex52_translation):
        t = translation(sys_)
        assert translation(sys_) is t
        assert t == translation.__wrapped__(sys_)
        assert translation.cache_info().maxsize == expansions.SYSTEMS_MAX
    assert A.ex51_translation(sys_) * (one + a) == -a
    assert A.ex52_translation(sys_) * (a * a * a - one) == a - a * a


def test_criterion_06_example52():
    _assert_check(A.check_06_example_52())


def test_criterion_07_box_counting():
    _assert_check(A.check_07_box_counting())


def test_criterion_08_dimension_spectra():
    _assert_check(A.check_08_dimension_spectra())


def test_criterion_09_self_similarity():
    _assert_check(A.check_09_self_similarity())


def test_criterion_10_exact_clauses():
    """The three exact clauses of criterion 10 hold at 2/5."""
    lw = dimension.liouville_witness(F(2, 5), 3)
    assert lw.nk[:4] == [1, 4, 20, 121]
    xl, xh = lw.x_enclosure
    for k in (1, 2, 3):
        approx = lw.approximants[k - 1]
        qk = approx.denominator
        assert qk <= 5 ** (lw.m[k - 1] + 3)
        assert max(abs(xl - approx), abs(xh - approx)) * qk**k <= 1


@pytest.mark.xfail(strict=True,
                   reason="criterion 10 pins p/q = 2/5, which lies outside "
                          "the family's validity range (1/3, (3-sqrt(5))/2); "
                          "the control sequence provably has a second "
                          "expansion there (see the acceptance module)")
def test_criterion_10_as_stated():
    _assert_check(A.check_10_liouville())


def test_criterion_10_uniqueness_clause_truth():
    """Pin the honest verdict at 2/5 and the passing behaviour in range."""
    lw = dimension.liouville_witness(F(2, 5), 2)
    res = expansions.is_unique_expansion(
        BaseSystem(F(2, 5), TERNARY), lw.t_seq, depth_cap=256)
    assert res.status is UniqStatus.NOT_UNIQUE
    _assert_check(A.check_10b_liouville_in_range())


def test_criterion_11_sft_interval():
    _assert_check(A.check_11_sft_interval())


def test_criterion_12_block_words_below_threshold():
    _assert_check(A.check_12_block_words_below_threshold())
