from fractions import Fraction as F

import pytest

from cantorint import exactnum as X
from cantorint import thuemorse as T
from cantorint import words as W


class TestGenerators:
    def test_tau_prefix_16(self):
        assert "".join(str(d) for d in T.tau_prefix(16)) == "0110100110010110"

    def test_tau_prefix_small(self):
        assert tuple(T.tau_prefix(1)) == (0,)
        assert tuple(T.tau_prefix(4)) == (0, 1, 1, 0)

    def test_lambda_prefix_8(self):
        assert tuple(T.lambda_prefix(8)) == (1, 0, -1, 1, -1, 0, 1, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 1023, 4097])
    def test_prefixes_match_per_digit(self, n):
        assert T.lambda_prefix(n).digits == \
            tuple(T.lam(i) for i in range(1, n + 1))
        assert T.tau_prefix(n).digits == tuple(T.tau(i) for i in range(n))

    def test_lambda_prefix_2_is_w1(self):
        assert tuple(T.lambda_prefix(2)) == (1, 0)
        assert tuple(T.w_word(1)) == (1, 0)

    def test_lambda_recursion(self):
        # lambda_1 = 1; lambda_(2^(n+1)) = 1 - lambda_(2^n);
        # lambda_(2^n + i) = -lambda_i for 1 <= i < 2^n
        assert T.lam(1) == 1
        for p in range(1, 12):
            assert T.lam(2**(p + 1)) == 1 - T.lam(2**p)
            for i in range(1, 2**p, max(1, 2**p // 16)):
                assert T.lam(2**p + i) == -T.lam(i)

    def test_tau_defining_recursion(self):
        for i in range(0, 4096):
            assert T.tau(2 * i) == T.tau(i)
            assert T.tau(2 * i + 1) == 1 - T.tau(i)

    def test_last_digit_parity(self):
        # last digit of w_n: 0 for odd n, 1 for even n
        for n in range(1, 12):
            assert T.w_word(n).digit(2**n) == (0 if n % 2 else 1)


class TestDensities:
    def test_dw_small(self):
        assert T.dw(1) == F(1, 2)
        assert T.dw(2) == F(1, 4)
        assert T.dw(3) == F(3, 8)

    def test_dw_matches_counts(self):
        for n in range(1, 13):
            w = T.w_word(n)
            assert F(w.zeros(), len(w)) == T.dw(n)

    def test_zero_count_recursion(self):
        assert T.zero_count_recursion_check(2)
        assert T.zero_count_recursion_check(3)
        assert T.zero_count_recursion_check(10)

    def test_density_limit(self):
        # |density of lambda over 2^n digits - 1/3| = 2^-n / 3 exactly
        for n in (6, 10, 14):
            rep = W.zero_density_prefix(T.lambda_seq(), 2**n)
            assert abs(rep.lower - F(1, 3)) == F(1, 3 * 2**n)


class TestAlphaKL:
    def test_enclosure_location(self):
        lo, hi = T.alpha_kl_enclosure(F(1, 10**4))
        assert F(3942, 10000) <= lo and hi <= F(3944, 10000)

    def test_nesting(self):
        lo1, hi1 = T.alpha_kl_enclosure(F(1, 10**4))
        lo2, hi2 = T.alpha_kl_enclosure(F(1, 10**10))
        assert lo1 <= lo2 and hi2 <= hi1

    def test_sign_oracle_at_two_fifths(self):
        assert T.series_sign_at(F(2, 5)) == 1
        assert T.series_sign_at(F(1, 3)) == -1

    def test_series_real_consistent(self):
        akl = T.alpha_kl_real()
        slo, shi = akl.enclosure(F(1, 10**8))
        blo, bhi = T.alpha_kl_enclosure(F(1, 10**8))
        assert max(slo, blo) <= min(shi, bhi)


class TestSftBlocks:
    def test_n1_blocks(self):
        b = T.sft_blocks(1)
        assert tuple(b.zeta) == (0, 1)
        assert tuple(b.eta) == (-1, 1)
        assert tuple(b.zeta_bar) == (0, -1)
        assert tuple(b.omega1) == (0, 1, 0, -1)
        assert tuple(b.omega2) == (0, 1, -1, 1, 0, -1)
        assert b.d_omega1 == F(1, 2)
        assert b.d_omega2 == F(1, 3)
        assert b.density_interval == (F(1, 3), F(1, 2))

    def test_block_lengths(self):
        for n in (1, 2, 3, 4):
            b = T.sft_blocks(n)
            assert len(b.zeta) == len(b.eta) == 2**n

    def test_density_interval_nondegenerate(self):
        for n in range(1, 11):
            b = T.sft_blocks(n)
            assert b.d_omega1 != b.d_omega2
            lo, hi = b.density_interval
            assert lo < hi

    def test_matrix_char_poly_factorisation(self):
        from cantorint.dimension import CountMatrix, char_poly
        cp = char_poly(T.SFT_MATRIX)
        assert [F(c) for c in cp] == X.poly_mul([1, 1, 1], [-1, -1, 1])
        info = CountMatrix(T.SFT_MATRIX).perron()
        lo, hi = info.enclosure(F(1, 10**12))
        golden = X.AlgebraicReal([-1, -1, 1], F(3, 2), F(5, 3))
        glo, ghi = golden.refine(F(1, 10**12))
        assert abs((lo + hi) / 2 - (glo + ghi) / 2) <= F(1, 10**10)

    def test_cycle_words_include_omegas(self):
        wordset = {s.per for s in T.sft_cycle_words(1)}
        b = T.sft_blocks(1)
        # the omega words appear as periods up to rotation
        def rotations(t):
            return {t[i:] + t[:i] for i in range(len(t))}
        assert any(tuple(b.omega1) in rotations(p) for p in wordset)
        assert any(tuple(b.omega2) in rotations(p) for p in wordset)


class TestFindSmallestSftN:
    def test_values(self):
        assert T.find_smallest_sft_n(F(7, 20)) == 1
        assert T.find_smallest_sft_n(F(17, 50), n_cap=8) == 1

    def test_out_of_domain(self):
        from cantorint.expansions import OutOfDomain
        with pytest.raises(OutOfDomain):
            T.find_smallest_sft_n(F(1, 3))
        with pytest.raises(OutOfDomain):
            T.find_smallest_sft_n(F(42, 100))  # above alpha_KL
