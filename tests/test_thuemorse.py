import hashlib
import inspect
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from cantorint import exactnum as X
from cantorint import expansions as E
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


def parity_lambda(n):
    """lambda_1 ... lambda_n from the digit-sum parity of i, digit by
    digit: the definition the doubling kernel must meet."""
    return tuple(i.bit_count() % 2 - (i - 1).bit_count() % 2
                 for i in range(1, n + 1))


class TestDoublingKernel:
    LAMBDA = parity_lambda(2**16 + 1)

    def test_lambda_prefix_every_n_to_5000(self):
        for n in range(1, 5001):
            assert T.lambda_prefix(n).digits == self.LAMBDA[:n]

    def test_lambda_prefix_around_powers_of_two(self):
        for k in range(17):
            for n in (2**k - 1, 2**k, 2**k + 1):
                if n >= 1:
                    assert T.lambda_prefix(n).digits == self.LAMBDA[:n]

    def test_tau_prefix_against_the_generator(self):
        tau = tuple(map(T.tau, range(2**16 + 1)))
        for n in {*range(1, 301),
                  *(2**k + e for k in range(1, 17) for e in (-1, 0, 1))}:
            word = T.tau_prefix(n)
            assert word.digits == tau[:n] and word.alphabet == W.BINARY

    def test_block_word_period_is_w_then_its_negation(self):
        for n in range(1, 17):
            w = self.LAMBDA[:2**n]
            s = T.tm_block_word(n)
            assert s.pre == () and s.per == w + tuple(-d for d in w)
        with pytest.raises(ValueError):
            T.tm_block_word(0)

    def test_block_word_keeps_its_dimension_name(self):
        # n_star reads this name, as do callers of the dimension namespace
        from cantorint import dimension
        assert dimension.tm_block_word is T.tm_block_word

    def test_w_zeta_eta_definitions(self):
        for n in range(1, 17):
            w = self.LAMBDA[:2**n]
            assert T.w_word(n).digits == w
            assert T.zeta(n).digits == (0,) + w[:-1]
            assert T.eta(n).digits == (-1,) + w[:-1]
            assert T.w_word(n).alphabet == T.zeta(n).alphabet == W.TERNARY
        for f in (T.w_word, T.zeta, T.eta, T.lambda_prefix):
            with pytest.raises(ValueError):
                f(0)

    def test_words_are_built_once_in_bounded_caches(self):
        # each word of n is one object per process, kept in a cache sized
        # to the levels its callers reach, for n up to a top past which no
        # word is kept; each stays a plain function of the module, which
        # perfbench's tracer spans
        bounds = {T.lambda_prefix: (4, 2**16), T.w_word: (4, 16),
                  T.tm_block_word: (12, 12), T.zeta: (8, 8), T.eta: (8, 8),
                  T.sft_blocks: (8, 8), T.sft_max_word: (8, 8)}
        assert T.sft_max_word.cache_info().maxsize == T._SFT_N_CAP
        for f, (size, top) in bounds.items():
            assert inspect.isfunction(f) and f.__module__ == T.__name__
            assert f.cache_info().maxsize == size
            for n in range(1, size + 2):
                f(n)
            assert f.cache_info().currsize == size
            assert f(top) is f(top) and f(1) == f.__wrapped__(1)
            a, b = f(top + 1), f(top + 1)  # built anew: not kept
            assert a is not b and a == b


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
        # zeros(w_n) = 2 zeros(w_(n-1)) - 1 for even n, + 1 for odd n, by
        # direct counts of lambda_i = 0
        def zeros(n):
            return sum(1 for i in range(1, 2**n + 1) if T.lam(i) == 0)
        for n in (2, 3, 10):
            assert zeros(n) == 2 * zeros(n - 1) + (-1 if n % 2 == 0 else 1)

    def test_density_limit(self):
        # |density of lambda over 2^n digits - 1/3| = 2^-n / 3 exactly
        for n in (6, 10, 14):
            rep = W.zero_density_prefix(T.lambda_seq(), 2**n)
            assert abs(rep.lower - F(1, 3)) == F(1, 3 * 2**n)


def reference_series_sign_at(a, cap=200_000):
    """series_sign_at as it summed F(a) + 1 exactly, one term at a time,
    with the tail bound 2 a^(i+1) / (1 - a): at a = N/D the partial sum is
    S / D^i, on ints, where the Fractions it once used reduced each term."""
    N, D = a.numerator, a.denominator
    S, Ni, Di = 0, 1, 1
    for i in range(1, cap + 1):
        Ni, Di = Ni * N, Di * D
        S = S * D + (1 + T.lam(i)) * Ni
        if S > Di:
            return 1
        if S * (D - N) + 2 * Ni * N < Di * (D - N):
            return -1
    raise X.IterationLimit("series sign undecided at cap")


def near_alpha_kl(monkeypatch, rng, bits, count):
    """``count`` seeded points within 2^-bits of alpha_KL, from a fresh
    module bracket, as earlier calls may have narrowed it."""
    monkeypatch.setattr(T, "_AKL_BRACKET", [F(1, 3), F(1, 2)])
    lo, hi = T.alpha_kl_enclosure(F(1, 2**(bits + 10)))
    mid = (lo + hi) / 2
    return [mid + F(rng.randrange(-1000, 1000), 2**(bits + 10))
            for _ in range(count)]


def reference_product(a, B):
    """Ints S_lo <= P(a) 2^B D^n (D - N) <= S_hi for the Thue-Morse
    product P(a) = sum_(i>=0) (-1)^(tau_i) a^i at a = N/D, and that scale
    D^n (D - N): n terms of the series, the rest at most a^(n+1) / (1 - a)
    < 2^-(2B + 16), far below the unit 2^-B of the bounds it checks."""
    N, D = a.numerator, a.denominator
    S, Ni, Dn, n = 1, 1, 1, 0  # S / D^n, the sum of the terms i <= n
    while Ni * N << (2 * B + 16) >= Dn * (D - N):
        n, Ni, Dn = n + 1, Ni * N, Dn * D
        S = S * D + (1 - 2 * T.tau(n)) * Ni
    S, tail = S * (D - N) << B, Ni * N << B
    return S - tail, S + tail, Dn * (D - N)


class TestAlphaKL:
    def test_enclosure_location(self):
        lo, hi = T.alpha_kl_enclosure(F(1, 10**4))
        assert F(3942, 10000) <= lo and hi <= F(3944, 10000)

    def test_nesting(self):
        lo1, hi1 = T.alpha_kl_enclosure(F(1, 10**4))
        lo2, hi2 = T.alpha_kl_enclosure(F(1, 10**10))
        assert lo1 <= lo2 and hi2 <= hi1

    def test_narrow_then_wide_matches_fresh(self, monkeypatch):
        # the answer at a width is the level-s cell of the dyadic grid of
        # [1/3, 1/2], s the least level whose cell fits, whatever was asked
        # before: after a 10^-30 request every coarser one is its ancestor,
        # a fresh call's answer, and takes no series sign; a finer request
        # halves on from the cached cell, one sign per level
        signs = []
        sign = T.series_sign_at
        monkeypatch.setattr(T, "series_sign_at",
                            lambda a: signs.append(a) or sign(a))
        monkeypatch.setattr(T, "_AKL_CHECKED", [True])
        widths = [F(1, 10**6), F(1, 10**30), F(1, 7), F(1, 6), F(1),
                  F(3, 10**12)]
        fresh, levels = {}, {}
        for w in widths:
            monkeypatch.setattr(T, "_AKL_BRACKET", [F(1, 3), F(1, 2)])
            signs.clear()
            lo, hi = fresh[w] = T.alpha_kl_enclosure(w)
            levels[w] = len(signs)
            assert hi - lo == F(1, 6 << levels[w]) <= w
            assert levels[w] == 0 or w < 2 * (hi - lo)
            assert (lo - F(1, 3)) * (6 << levels[w]) % 1 == 0
        T.alpha_kl_enclosure(F(1, 10**30))
        for w in widths:
            signs.clear()
            assert T.alpha_kl_enclosure(w) == fresh[w] and signs == []
        monkeypatch.setattr(T, "_AKL_BRACKET", [F(1, 3), F(1, 2)])
        T.alpha_kl_enclosure(F(1, 10**6))
        signs.clear()
        assert T.alpha_kl_enclosure(F(1, 10**30)) == fresh[F(1, 10**30)]
        assert len(signs) == levels[F(1, 10**30)] - levels[F(1, 10**6)]

    def test_sign_oracle_at_two_fifths(self):
        assert T.series_sign_at(F(2, 5)) == 1
        assert T.series_sign_at(F(1, 3)) == -1

    def test_signs_near_0_and_1(self):
        # within two units of 1 at 64 bits the product takes no factor, and
        # its bounds 0 and 1 decide; near 0 one factor and the tail decide
        assert T._tm_product(2**64 - 1, 2**64, 64) == (0, 2**64)
        for a in (F(2**64 - 1, 2**64), 1 - F(1, 2**300), F(99, 100)):
            assert T.series_sign_at(a) == 1
        for a in (F(1, 2**300), F(1, 10**30), F(1, 100)):
            assert T.series_sign_at(a) == -1
        for a in (F(0), F(1), F(3, 2), F(-1, 2)):
            with pytest.raises(ValueError):
                T.series_sign_at(a)

    def test_series_sign_matches_fraction_sum(self, monkeypatch):
        rng = random.Random(29)
        points = [F(rng.randrange(10**4 + 1, 15_000), 3 * 10**4)
                  for _ in range(140)]  # (1/3, 1/2)
        lo, hi = T.alpha_kl_enclosure(F(1, 10**34))
        mid = (lo + hi) / 2
        points += [mid + F(rng.randrange(-1000, 1000), 2**110)
                   for _ in range(60)]  # within 1e-30 of alpha_KL
        signs = [T.series_sign_at(a) for a in points]
        assert signs == [reference_series_sign_at(a) for a in points]
        assert -1 in signs[140:] and 1 in signs[140:]
        # every midpoint of a halving to 1e-40, and points within 2^-300,
        # whose signs take B = 512 bits at least
        lo, hi, halving = F(1, 3), F(1, 2), []
        while hi - lo > F(1, 10**40):
            halving.append((lo + hi) / 2)
            if T.series_sign_at(halving[-1]) < 0:
                lo = halving[-1]
            else:
                hi = halving[-1]
        assert len(halving) == 131
        near = near_alpha_kl(monkeypatch, rng, 300, 20)
        for group in (halving, near):
            signs = [T.series_sign_at(a) for a in group]
            assert signs == [reference_series_sign_at(a) for a in group]
            assert -1 in signs and 1 in signs

    def test_bits_cap_raises(self, monkeypatch):
        # within 2^-300 of alpha_KL 256 bits leave every sign undecided
        near = near_alpha_kl(monkeypatch, random.Random(31), 300, 4)
        monkeypatch.setattr(T, "_SERIES_BITS_CAP", 256)
        for a in near:
            with pytest.raises(X.IterationLimit):
                T.series_sign_at(a)
        assert T.series_sign_at(F(2, 5)) == 1  # decided at 64 bits

    def test_product_bounds_hold_the_series(self):
        # _tm_product's outward-rounded bounds on P(a) 2^B hold the value
        # of the series sum (-1)^(tau_i) a^i: at dyadic points, where some
        # products are exact and the tail decides, near 0 and 1, at the
        # midpoints of alpha_KL's bisection, and at seeded rationals
        rng = random.Random(37)
        points = [F(1, 2), F(3, 8), F(1, 4), F(5, 16), F(7, 16), F(1, 3),
                  F(9, 10), F(19, 20)]
        # a at most a unit: the squaring stops at once, and the tail decides
        points += [F(1, 2**64), F(3, 2**66), F(1, 2**128), F(5, 2**130),
                   F(1, 2**256)]
        points += [F(rng.randrange(1, 3 * 2**k // 5), 2**k)
                   for k in (6, 12, 20, 33) for _ in range(10)]
        lo, hi = F(1, 3), F(1, 2)
        while hi - lo > F(1, 10**12):
            mid = (lo + hi) / 2
            points.append(mid)
            lo, hi = (mid, hi) if T.series_sign_at(mid) < 0 else (lo, mid)
        points += [F(rng.randrange(1, 3 * q // 5), q)
                   for q in (7, 10**6, 3**80) for _ in range(20)]
        for B in (64, 128, 256):
            for a in points:
                p_lo, p_hi = T._tm_product(a.numerator, a.denominator, B)
                s_lo, s_hi, scale = reference_product(a, B)
                assert 0 <= p_lo <= p_hi
                assert p_lo * scale <= s_hi and s_lo <= p_hi * scale, (a, B)
                assert p_hi - p_lo <= 64

    def test_bisection_meets_the_fraction_halving(self, monkeypatch):
        # a fresh module bracket, as earlier calls may have narrowed it
        monkeypatch.setattr(T, "_AKL_BRACKET", [F(1, 3), F(1, 2)])
        lo, hi = F(1, 3), F(1, 2)
        while hi - lo > F(1, 10**12):
            mid = (lo + hi) / 2
            if reference_series_sign_at(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert T.alpha_kl_enclosure(F(1, 10**12)) == (lo, hi)

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
        from cantorint.graph import successors
        cp = char_poly(successors(T.SFT_MATRIX))
        assert [F(c) for c in cp] == X.poly_mul([1, 1, 1], [-1, -1, 1])
        info = CountMatrix(T.SFT_MATRIX).perron()
        lo, hi = info.enclosure(F(1, 10**12))
        golden = X.AlgebraicReal([-1, -1, 1], F(3, 2), F(5, 3))
        glo, ghi = golden.refine(F(1, 10**12))
        assert abs((lo + hi) / 2 - (glo + ghi) / 2) <= F(1, 10**10)


def brute_max_prefix(n, length):
    """Largest length-digit word over every start position of every block
    path long enough to hold it."""
    blocks = [b.digits for b in T.sft_blocks(n).blocks]
    k = length // 2**n + 1
    paths = [[b] for b in range(4)]
    for _ in range(k - 1):
        paths = [p + [v] for p in paths
                 for v in range(4) if T.SFT_MATRIX[p[-1]][v]]
    best = ()
    for p in paths:
        digits = tuple(d for b in p for d in blocks[b])
        best = max([best] + [digits[i:i + length] for i in range(2**n)])
    return best


def cycle_and_splice_n(alpha):
    """The former certificate, kept as the reference: the smallest n at
    which every simple block cycle of the subshift, and every splice of two
    cycles at their least shared block, is a unique expansion."""
    succ = [[v for v, x in enumerate(row) if x] for row in T.SFT_MATRIX]
    cycles = []

    def extend(path):
        for w in succ[path[-1]]:
            if w == path[0]:
                cycles.append(path)
            elif w > path[0] and w not in path:
                extend(path + [w])

    for s in range(4):
        extend([s])
    block_cycles = list(cycles)
    for ci, cj in combinations(cycles, 2):
        shared = set(ci) & set(cj)
        if shared:
            i, j = ci.index(min(shared)), cj.index(min(shared))
            block_cycles.append(ci[i:] + ci[:i] + cj[j:] + cj[:j])
    sys = E.BaseSystem(alpha, W.TERNARY)
    for n in range(1, T._SFT_N_CAP + 1):
        bw = [b.digits for b in T.sft_blocks(n).blocks]
        words = [W.EPSeq((), tuple(d for b in cyc for d in bw[b]))
                 for cyc in block_cycles]
        if all(E.is_unique_expansion(sys, w, depth_cap=4096).status
               is E.UniqStatus.UNIQUE for w in words):
            return n
    return None


class TestSftMaxWord:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_force(self, n):
        length = 8 * 2**n
        assert tuple(map(T.sft_max_word(n).digit, range(1, length + 1))) \
            == brute_max_prefix(n, length)

    def test_matrix_closed_under_reflection(self):
        swap = (2, 3, 0, 1)  # zeta <-> zeta-bar, eta <-> eta-bar
        m = T.SFT_MATRIX
        assert all(m[swap[i]][swap[j]] == m[i][j]
                   for i in range(4) for j in range(4))

    def test_omega_shifts_below_max(self):
        top = T.sft_max_word(1)
        b = T.sft_blocks(1)
        for omega in (b.omega1, b.omega2):
            d = omega.digits
            for k in range(len(d)):  # the shifts of (omega)^inf
                s = W.EPSeq((), d[k:] + d[:k])
                assert W.lex_compare(s, top, 4096) is not W.Lex.GREATER

    def test_above_lambda_at_alpha_kl(self):
        # delta(alpha_KL) = lambda: no level certifies the critical base
        for n in range(1, T._SFT_N_CAP + 1):
            assert W.lex_compare(T.sft_max_word(n), T.lambda_seq(),
                                 4096) is W.Lex.GREATER


    def test_levels_one_to_eight_pinned(self):
        # the candidate search that graph.max_path replaced gave these words
        words = [(w.pre, w.per) for w in map(T.sft_max_word, range(1, 9))]
        assert hashlib.sha1(repr(words).encode()).hexdigest() == \
            "c6256d9db72a133e91393ab9490b27ff20cf9f7a"
        assert W.format_seq(T.sft_max_word(2)) == "(++-0+0+0-0-0)"


def smallest_sft_n(alpha):
    """The level search against alpha's delta at the default depth cap."""
    delta = E.delta_seq(E.BaseSystem(alpha, W.TERNARY))
    return T.find_smallest_sft_n(delta, 4096)


class TestFindSmallestSftN:
    def test_values(self):
        assert smallest_sft_n(F(7, 20)) == 1
        assert smallest_sft_n(F(17, 50)) == 1

    def test_level_five(self):
        # 3.5e-19 below alpha_KL; no other test reaches a level above 3
        assert smallest_sft_n(F(394329844702280891, 10**18)) == 5

    def test_matches_cycle_and_splice_reference(self):
        # equal, so never below the weaker certificate
        rng = random.Random(6)
        lo, _ = T.alpha_kl_enclosure(F(1, 10**20))
        bases = []
        for _ in range(30):
            q = rng.randint(30, 5000)
            bases.append(F(rng.randint(q // 3 + 1, q * 3943 // 10000), q))
            # just below alpha_KL, where the level rises to 3
            bases.append(lo - F(rng.randint(1, 10**6), 10**rng.randint(8, 18)))
        for alpha in bases:
            assert smallest_sft_n(alpha) == cycle_and_splice_n(alpha)

    def test_undecided_levels_are_skipped(self):
        # both sequences start with +1, so one digit decides no level
        delta = E.delta_seq(E.BaseSystem(F(7, 20), W.TERNARY))
        with pytest.raises(T.NotFoundUnderCap):
            T.find_smallest_sft_n(delta, 1)

    def test_near_alpha_kl(self):
        lo, _ = T.alpha_kl_enclosure(F(1, 10**20))
        assert smallest_sft_n(lo - F(1, 2 * 10**12)) == 3

    def test_no_level_above_alpha_kl(self):
        # delta lies below lambda there, and every level's largest
        # sequence lies above lambda (TestSftMaxWord)
        for alpha in (F(21, 50), F(9, 20), F(1, 2)):
            with pytest.raises(T.NotFoundUnderCap, match="no subshift level"):
                smallest_sft_n(alpha)
