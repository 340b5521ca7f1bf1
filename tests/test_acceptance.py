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
from fractions import Fraction as F

import pytest

from cantorint import acceptance as A
from cantorint import dimension, expansions
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
