"""Greedy and quasi-greedy digit algorithms, the lexicographic uniqueness
test, and the all-expansions automaton.

Everything works over an arbitrary alphabet of consecutive integers but is
phrased internally over the shifted digits {0, ..., M}; statements for
{0,1,2} transfer to {-1,0,1} by the order-preserving digit shift.  All
comparisons are certified, so every verdict below is exact unless it
explicitly says UNDECIDED.

One fact serves the digit algorithms, delta and Gamma membership (Renyi
1957; Parry 1960): with u = alpha/(1 - alpha), a value has an expansion
over {0..M} iff it has an endless path of children y/alpha - d in [0, M
u].  ``BaseSystem.children`` is that one filter, ``BaseSystem.whole``
says whether all of [0, M u] has paths, and :func:`_follow` takes the
first child (greedy) or the first nonzero one (quasi-greedy).  A path that
ends proves that the value has no expansion.  Paths, the automaton and the
Gamma search step on the canonical integer states of the base's
:class:`exactnum.QAlphaContext`, which every QAlphaElement holds.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import count, islice
from typing import Callable, NamedTuple, Optional, Union

from . import exactnum, graph, thuemorse, words
from .exactnum import (
    AlgebraicReal,
    Comparison,
    QAlphaContext,
    QAlphaElement,
    UnsupportedBase,
    compare,
)
from .words import (
    BINARY,
    TERNARY,
    Alphabet,
    EPSeq,
    FiniteWord,
    LazySeq,
)


class ExpansionError(exactnum.CantorintError):
    pass


class OutOfRange(ExpansionError):
    pass


class OutOfDomain(ExpansionError):
    pass


_GOLDEN: list = []


def golden_threshold() -> AlgebraicReal:
    """(3 - sqrt(5))/2, the threshold base: the root of x^2 - 3x + 1 in
    (1/3, 1/2), as a module singleton, so its interval is checked once."""
    if not _GOLDEN:
        _GOLDEN.append(AlgebraicReal([1, -3, 1], Fraction(1, 3),
                                     Fraction(1, 2)))
    return _GOLDEN[0]


class DSetKind(Enum):
    """The regime of D_alpha that ``BaseSystem.regime`` names."""
    FINITE_LIST = "finite-list"
    COUNTABLE_FAMILY = "countable-family"
    CONTAINS_INTERVAL = "contains-interval"
    FULL_INTERVAL = "full-interval"


def _side(alpha, bound, name: str) -> Comparison:
    """compare(alpha, bound), or ``UndecidedComparison`` if too close."""
    pos = compare(alpha, bound)
    if pos is Comparison.UNDECIDED:
        raise exactnum.UndecidedComparison(
            f"position of alpha relative to {name} undecided")
    return pos


SYSTEMS_MAX = 4  # the most alphabets a field, or alpha_KL, keeps systems of
_AKL_SYSTEMS: dict = {}  # alphabet -> alpha_KL's system, oldest first


class BaseSystem:
    """A base alpha in (0,1) together with a digit alphabet.

    For rational or algebraic alpha the system carries a Q(alpha) context in
    which remainders, follower values and automaton states live exactly.
    The alpha_KL constant is admitted as a base only for the operations that
    can run off its known quasi-greedy expansion of 1, and for
    ``neg_log``, ``dimension_domain``, ``past_threshold`` and ``regime``,
    all cached.

    ``BaseSystem(alpha, alphabet)`` is the process's one system of alpha's
    field and that alphabet, so delta's digits and every cached fact are
    derived once per base.  The field's context keeps it in ``systems``
    (alpha_KL's are in ``_AKL_SYSTEMS``), at most ``SYSTEMS_MAX`` of them,
    oldest dropped, and ``exactnum.field`` drops them with the context.
    A system's facts depend on its field and alphabet alone, so a dropped
    one is rebuilt the same.  Any other ``EnclosedReal`` base gets a new
    system.
    """

    def __new__(cls, alpha, alphabet: Alphabet = TERNARY):
        if not exactnum.in_unit_interval(alpha):  # before any field is built
            raise OutOfDomain("base must lie strictly between 0 and 1")
        if isinstance(alpha, (Fraction, AlgebraicReal)):
            systems = exactnum.field(alpha).systems
        else:
            systems = _AKL_SYSTEMS if thuemorse.is_alpha_kl(alpha) else {}
        sys = systems.get(alphabet)
        if sys is None:
            if len(systems) >= SYSTEMS_MAX:
                del systems[next(iter(systems))]
            sys = systems[alphabet] = super().__new__(cls)
        return sys

    def __init__(self, alpha, alphabet: Alphabet = TERNARY):
        if "alpha" in vars(self):  # the process's system, built once
            return
        self.alpha = alpha
        self.alphabet = alphabet
        self.M, self.low = alphabet.size - 1, alphabet.low  # read per scan
        if isinstance(alpha, (Fraction, AlgebraicReal)):
            self.ctx = exactnum.field(alpha)  # one per base and process
        else:
            self.ctx = None  # enclosed: only delta via the known expansion
        self._delta = None

    def _require_ctx(self) -> QAlphaContext:
        if self.ctx is None:
            raise UnsupportedBase(
                "operation needs exact Q(alpha) arithmetic; the base must be "
                "rational or algebraic")
        return self.ctx

    # frequently used exact quantities
    @cached_property
    def tail_unit(self) -> QAlphaElement:
        """alpha / (1 - alpha): the value of the all-ones tail, which is
        alpha Q(alpha) / P(1) for alpha's polynomial P = sum a_i x^i and
        P(x) - P(1) = (x - 1) Q(x), Q = sum_k (a_(k+1) + ... + a_n) x^k."""
        ctx = self._require_ctx()
        a = ctx.poly
        sg = 1 if sum(a) > 0 else -1  # P(1) != 0: 1 is no root of P
        return QAlphaElement(ctx, ctx.reduce(
            [0] + [sg * sum(a[k:]) for k in range(1, len(a))], sg * sum(a)))

    @cached_property
    def tails(self) -> tuple:
        """(low_tail, high_tail), the values of the all-low and all-high
        tails, which bound every expansion's value."""
        return self.alphabet.low * self.tail_unit, \
            self.alphabet.high * self.tail_unit

    def low_tail(self) -> QAlphaElement:
        return self.tails[0]

    def high_tail(self) -> QAlphaElement:
        return self.tails[1]

    def embed(self, x) -> QAlphaElement:
        return self._require_ctx().embed(x)

    @cached_property
    def whole(self) -> bool:
        """Whether alpha >= 1/(M+1), so that every point y of [0, M u] has
        an expansion over {0..M}: M u >= 1 and y/alpha <= M u + M, so a
        child stays in [0, M u].  Below, the children lie 1 > M u apart."""
        return compare(self.alpha, Fraction(1, self.M + 1)) \
            is not Comparison.LESS

    @cached_property
    def dimension_domain(self) -> bool:
        """Whether 1/3 < alpha < 1/2, where the dimension formulas hold."""
        return compare(self.alpha, Fraction(1, 3)) is Comparison.GREATER \
            and compare(self.alpha, Fraction(1, 2)) is Comparison.LESS

    @cached_property
    def past_threshold(self) -> bool:
        """Whether alpha > (3-sqrt(5))/2, past which delta(alpha) is no
        longer 1 0^infinity and a zero run is forbidden."""
        return _side(self.alpha, golden_threshold(),
                     "(3-sqrt(5))/2") is Comparison.GREATER

    @cached_property
    def regime(self) -> Optional[DSetKind]:
        """The regime of D_alpha, or None outside (1/3, 1/2): all of [0,
        full] up to (3-sqrt(5))/2, an interval inside below alpha_KL,
        countable at alpha_KL and finite above it."""
        if not self.dimension_domain:
            return None
        if thuemorse.is_alpha_kl(self.alpha):
            return DSetKind.COUNTABLE_FAMILY
        if not self.past_threshold:
            return DSetKind.FULL_INTERVAL
        return DSetKind.FINITE_LIST if _side(
            self.alpha, thuemorse.alpha_kl_real(), "alpha_KL") \
            is Comparison.GREATER else DSetKind.CONTAINS_INTERVAL

    @cached_property
    def neg_log(self) -> tuple:
        """-ln alpha as a Fraction interval (lo, hi), from one log per
        field and process: every dimension value on this base divides by
        it."""
        return exactnum._neg_log(self.alpha)

    @cached_property
    def children(self) -> Callable[[tuple], list]:
        """The path filter: a state s -> the pairs (s/alpha - d, d), d from
        M down to 0, kept in [0, M u].  A value with a child lies in [0, M
        u] itself, as alpha (M u + M) = M u."""
        ctx = self._require_ctx()
        return ctx.children(ctx.state(0), (self.M * self.tail_unit).state,
                            range(self.M, -1, -1))

    def _hull(self, el: QAlphaElement) -> Optional[tuple]:
        """(low_tail, high_tail) if el lies between them, else None."""
        lo, hi = self.low_tail(), self.high_tail()
        # QAlphaElement.sign, not an ordering: perfbench traces exact signs
        # through it, and on a query such as ex52 this check is the only one
        if (el - lo).sign() >= 0 and (hi - el).sign() >= 0:
            return lo, hi
        return None

    def delta_cache(self) -> "_DeltaCache":
        if self._delta is None:
            self._delta = _DeltaCache(self)
        return self._delta

    def __repr__(self):
        return f"BaseSystem({self.alpha!r}, {self.alphabet})"


class _DeltaCache:
    """Digits of the quasi-greedy expansion of 1 over {0..M}, grown on
    demand from one digit source (``_digit_loop``, or 1 + lambda_i for
    alpha_KL), and its eventually periodic form ``ep``, one EPSeq built
    when a remainder repeats.

    ``ep`` stays None, and nothing is searched, where delta is proved never
    eventually periodic: where 1/alpha is not an algebraic integer (below),
    and for alpha_KL, as lambda is eventually periodic only if its bounded
    partial sums tau are, and Thue-Morse is not.  For other bases a
    repeated remainder reveals the period.
    """

    def __init__(self, sys: BaseSystem):
        self.sys = sys
        self.digits: list[int] = []
        self.ep: Optional[EPSeq] = None
        if sys.ctx is None:
            if not thuemorse.is_alpha_kl(sys.alpha):
                raise UnsupportedBase(
                    "quasi-greedy expansion of 1 needs a rational/algebraic "
                    "base (or the alpha_KL constant)")
            if sys.M != 2:
                raise OutOfDomain("alpha_KL is a base for three-digit alphabets")
            self._loop = ((1 + thuemorse.lam(i), None) for i in count(1))
            self._aperiodic, self._seen = True, None
            return
        ctx = sys.ctx
        # domain: 1 lies in [0, M u], and has a path, iff sys.whole
        if not sys.whole:
            raise OutOfDomain("quasi-greedy expansion of 1 needs "
                              "alpha >= 1/(M+1)")
        self._loop = _digit_loop(sys, ctx.state(1), strict=True)
        # An eventually periodic delta, 1 = sum d_i alpha^i with m digits
        # before a period of p, times beta^m (beta^p - 1), beta = 1/alpha,
        # is a monic integer equation of degree m + p: beta is an algebraic
        # integer, which it is iff alpha's irreducible polynomial has the
        # constant term +-1, ctx.c = 1.  Only such bases look for a
        # repeated remainder, keyed as _digit_loop yields them (N_k, or
        # the state of the remainder).
        self._aperiodic = ctx.c > 1
        self._seen = None if self._aperiodic else \
            {1 if ctx.degree == 1 else ctx.state(1): 0}

    def digit(self, i: int) -> int:
        self.extend(i)
        return self.digits[i - 1]

    def extend(self, n: int):
        digits = self.digits
        while len(digits) < n:
            if self.ep is not None:
                digits.append(self.ep.digit(len(digits) + 1))
                continue
            d, key = next(self._loop)
            digits.append(d)
            if self._seen is None:
                continue
            seen_at = self._seen.get(key)
            if seen_at is not None:  # digits[seen_at:] is a period
                self.ep = EPSeq(digits[:seen_at], digits[seen_at:],
                                Alphabet(0, self.sys.M + 1))
                self._seen = self._loop = None
            else:
                self._seen[key] = len(digits)

    def ep_form(self, depth_cap: int) -> Optional[EPSeq]:
        """Exact eventually periodic form: None when delta is proved not
        eventually periodic, or when no remainder repeats within the cap."""
        if self._aperiodic:
            return None
        step = 64
        while self.ep is None and len(self.digits) < depth_cap:
            self.extend(min(depth_cap, len(self.digits) + step))
            step *= 2
        return self.ep


def _follow(sys: BaseSystem, s: tuple, strict: bool):
    """The path of a state s through ``sys.children``, yielding (d, child):
    the first child (greedy, ``strict=False``) or the first nonzero one
    (quasi-greedy).  Where none exists the path ends, which proves that s
    has no expansion over {0..M}, or none that is not eventually 0."""
    children = sys.children
    while True:
        kids = children(s)  # values ascending: only the first can be 0
        if strict and kids and not any(kids[0][0][:-1]):
            kids = kids[1:]
        if not kids:
            return
        s, d = kids[0]
        yield d, s


def _digit_loop(sys: BaseSystem, y: tuple, strict: bool):
    """Greedy (``strict=False``) or quasi-greedy (``strict=True``) digits
    over {0..M} of a state y along its path, each with a hashable key of
    the new remainder: its state from :func:`_follow`, or for a rational
    base p/q an int.  There the remainder after k digits is N_k / (b p^k),
    b the denominator of y: d is the largest, at most M, with q N_k > d b
    p^(k+1) (>= for greedy), by one floor division and no gcd, and N_(k+1)
    = q N_k - d b p^(k+1) is the key.  It pins the remainder only for p =
    1, where the scale b p^k stays b.
    """
    ctx = sys.ctx
    if ctx.degree > 1:
        yield from _follow(sys, y, strict)
        return
    M, gap = sys.M, not sys.whole
    p, q = -ctx.poly[0], ctx.poly[1]  # alpha = p/q, rat: or alg:
    num, scale = y
    if num < 0 or num * (q - p) > M * p * scale:  # y outside [0, M u]
        return
    while True:
        scale *= p
        qn = q * num
        d = min(M, (qn - 1 if strict else qn) // scale)
        num = qn - d * scale
        # the path ends where the remainder leaves [0, M u]: d = M keeps it
        # in, and d < M leaves it in [0, 1], inside unless gap
        if d < 0 or gap and d < M and num * (q - p) > M * p * scale:
            return
        yield d, num


def _expansion(sys: BaseSystem, x, length: int, strict: bool) -> FiniteWord:
    if length < 1:
        raise ValueError("length must be at least 1")
    y = (sys.embed(x) - sys.low_tail()).state
    if strict and not any(y[:-1]):  # the infimum's all-low convention
        digits = [0] * length
    else:
        digits = [d for d, _ in islice(_digit_loop(sys, y, strict), length)]
    if len(digits) < length:
        raise OutOfRange("value outside the attainable set")
    return FiniteWord([d + sys.alphabet.low for d in digits], sys.alphabet)


def greedy_expansion(sys: BaseSystem, x, length: int) -> FiniteWord:
    """First ``length`` digits of the lexicographically largest expansion;
    ``OutOfRange`` if x has none."""
    return _expansion(sys, x, length, strict=False)


def quasi_greedy_expansion(sys: BaseSystem, x, length: int) -> FiniteWord:
    """First ``length`` digits of the lexicographically largest *infinite*
    expansion (never eventually minimal-digit); ``OutOfRange`` if x has
    none.  At the attainable infimum the convention is the all-low
    sequence."""
    return _expansion(sys, x, length, strict=True)


def delta(sys: BaseSystem, length: int) -> FiniteWord:
    """Prefix of the quasi-greedy expansion of 1, over sys.alphabet."""
    if length < 1:
        raise ValueError("length must be at least 1")
    cache = sys.delta_cache()
    cache.extend(length)
    low = sys.alphabet.low
    return FiniteWord([d + low for d in cache.digits[:length]], sys.alphabet)


def delta_seq(sys: BaseSystem) -> LazySeq:
    """The full quasi-greedy expansion of 1 as a lazy sequence over
    sys.alphabet."""
    cache = sys.delta_cache()
    low = sys.alphabet.low
    return LazySeq(lambda i: cache.digit(i) + low, sys.alphabet,
                   f"delta({sys.alpha!r})")


def try_ep_form(sys: BaseSystem, depth_cap: int = 2048) -> Optional[EPSeq]:
    """Eventually periodic form of delta, over sys.alphabet, or None.

    None is proved where 1/alpha is not an algebraic integer, as delta is
    then never eventually periodic, and for alpha_KL; for other bases it
    means that no remainder repeats within the cap."""
    ep = sys.delta_cache().ep_form(depth_cap)
    if ep is None:
        return None
    return words.substitute_alphabet(ep, Alphabet(0, sys.M + 1), sys.alphabet)


class UniqStatus(Enum):
    UNIQUE = "unique"
    NOT_UNIQUE = "not-unique"
    UNDECIDED = "undecided-at-depth"


class UniquenessResult(NamedTuple):
    status: UniqStatus
    violation: Optional[tuple] = None  # (shift n, absolute position or None)
    shifts_checked: int = 0
    compare_cap: int = 0


_DEFAULT_COMPARE_CAP = 4096
_DEFAULT_LAZY_SHIFTS = 512
_ZERO_RUN_SCAN_CAP = 100_000  # delta digits forbidden_zero_run reads
_GAMMA_DEPTH_CAP = 512  # steps of one GammaSearch.membership path


def parry_certified(succ: list, delta, depth_cap: int) -> bool:
    """Parry's criterion (Parry 1960) on {-1,0,1}: whether the largest paths
    of the digit graph ``succ`` and of its mirror, labels reflected, are
    LESS than ``delta`` within ``depth_cap`` digits.  If so, and every tail
    of a sequence is a path, then every tail of its reflection is a path
    of the mirror, all lie below delta, and the uniqueness test passes at
    every shift: the sequence, as every other the graph spells, is unique."""
    total = delta.alphabet.low + delta.alphabet.high
    mirror = [[(v, total - d) for v, d in out] for out in succ]
    return all(words.lex_compare(EPSeq(*graph.max_path(g), delta.alphabet),
                                 delta, depth_cap) is words.Lex.LESS
               for g in (succ, mirror))


def is_unique_expansion(sys: BaseSystem, seq: Union[EPSeq, LazySeq],
                        depth_cap: Optional[int] = None) -> UniquenessResult:
    """Lexicographic uniqueness test against the quasi-greedy expansion of 1.

    A sequence is the unique expansion of its value iff every tail after a
    prefix that is not all-high stays lex-< delta, and symmetrically for the
    reflected sequence after prefixes that are not all-low.  A LazySeq whose
    grammar :func:`parry_certified` passes is UNIQUE.  Otherwise one loop
    reads each shift's first digit f once: the tail ties or passes delta's
    first digit d1 iff f >= low + d1, its reflection iff f <= high - d1,
    and only a tie reads on, comparing with delta for at most
    ``compare_cap`` digits.  An EPSeq is decided exactly when delta is
    eventually periodic: the cap is first raised past
    ``words._ep_equality_bound``, whatever cap was asked, 0 and below too,
    so a tail that reaches it equals delta.  Otherwise a cap under 1
    compares no digit and leaves the sequence UNDECIDED, and a tail that
    reaches the cap, or a LazySeq, leaves it UNDECIDED.  An EPSeq's first
    digits come from one tuple, ``pre + per + per[:1]``, its later ones
    from ``pre`` and ``per`` by index, and delta's from the cache's list.
    """
    lazy = isinstance(seq, LazySeq)
    if not lazy and not isinstance(seq, EPSeq):
        raise TypeError("is_unique_expansion needs an EPSeq or LazySeq, "
                        f"not {type(seq).__name__}")
    if seq.alphabet != sys.alphabet:
        raise words.AlphabetMismatch("sequence alphabet differs from system")
    low = sys.low
    dcache = sys.delta_cache()
    ep_delta = dcache.ep_form(512)
    compare_cap = depth_cap if depth_cap is not None else _DEFAULT_COMPARE_CAP
    exact = not lazy and ep_delta is not None
    if lazy:
        shifts = depth_cap if depth_cap is not None else _DEFAULT_LAZY_SHIFTS
    else:
        pre, per = seq.pre, seq.per
        p, q = len(pre), len(per)
        shifts = p + q
        if exact:
            compare_cap = max(compare_cap,
                              words._ep_equality_bound(seq, ep_delta) + 1)

    if compare_cap < 1:  # every tail ties delta up to the cap
        return UniquenessResult(UniqStatus.UNDECIDED, None, shifts, compare_cap)
    if lazy and seq.grammar is not None and \
            parry_certified(seq.grammar, delta_seq(sys), compare_cap):
        return UniquenessResult(UniqStatus.UNIQUE, None, 0, compare_cap)
    get, dd, dget = seq.digit, dcache.digits, dcache.digit
    d1 = dd[0] if dd else dget(1)
    high = low + sys.M
    tail_from, mirror_to = low + d1, high - d1
    # the first digits of the shifts 0..shifts, then digit j of tail n at
    # 0-based index k = n + j - 1: pre[k], or per[(k - p) % q] past pre
    firsts = map(get, range(1, shifts + 2)) if lazy else pre + per + per[:1]
    all_high = all_low = True
    undecided = False
    for n, f in enumerate(firsts):
        if f >= tail_from and not all_high:  # the tail ties or passes d1
            k, j, u, dj = n, 1, f - low, d1
            while u == dj and j < compare_cap:
                k += 1
                j += 1
                u = (get(k + 1) if lazy else pre[k] if k < p
                     else per[(k - p) % q]) - low
                dj = dd[j - 1] if j <= len(dd) else dget(j)
            if u > dj:
                return UniquenessResult(UniqStatus.NOT_UNIQUE, (n, n + j),
                                        n, compare_cap)
            if u == dj:  # equal to delta up to the cap
                if exact:
                    return UniquenessResult(UniqStatus.NOT_UNIQUE, (n, None),
                                            n, compare_cap)
                undecided = True
        if f <= mirror_to and not all_low:  # so does its reflection
            k, j, u, dj = n, 1, high - f, d1
            while u == dj and j < compare_cap:
                k += 1
                j += 1
                u = high - (get(k + 1) if lazy else pre[k] if k < p
                            else per[(k - p) % q])
                dj = dd[j - 1] if j <= len(dd) else dget(j)
            if u > dj:
                return UniquenessResult(UniqStatus.NOT_UNIQUE, (n, n + j),
                                        n, compare_cap)
            if u == dj:
                if exact:
                    return UniquenessResult(UniqStatus.NOT_UNIQUE, (n, None),
                                            n, compare_cap)
                undecided = True
        if f != high:
            all_high = False
        if f != low:
            all_low = False

    if lazy or undecided:
        return UniquenessResult(UniqStatus.UNDECIDED, None, shifts, compare_cap)
    return UniquenessResult(UniqStatus.UNIQUE, None, shifts, compare_cap)


def forbidden_zero_run(sys: BaseSystem) -> int:
    """The k >= 0 with delta(alpha) = 1 0^k (-1) ... over {-1,0,1}.

    Only defined for alpha in ((3-sqrt(5))/2, 1/2), as the system's
    ``dimension_domain`` and ``past_threshold`` say; at or below the
    threshold delta is 1 0^infinity and no finite k exists.  Hence no
    member of the univoque set has 1 0^(k+1) (or its reflection) infinitely
    often.  ``IterationLimit`` when no -1 shows
    among the first ``_ZERO_RUN_SCAN_CAP`` digits.
    """
    if sys.alphabet != TERNARY:
        raise OutOfDomain("forbidden zero run is stated over {-1,0,1}")
    if not (sys.dimension_domain and sys.past_threshold):
        raise OutOfDomain("alpha must lie in ((3-sqrt(5))/2, 1/2)")
    dcache = sys.delta_cache()
    if dcache.digit(1) != 2:
        raise OutOfDomain("expected delta to start with the top digit")
    for i in range(2, _ZERO_RUN_SCAN_CAP):
        d = dcache.digit(i) - 1  # over {-1,0,1}
        if d == 0:
            continue
        if d == -1:
            return i - 2
        raise ExpansionError("delta exceeded 1 0^k pattern; domain bug")
    raise exactnum.IterationLimit("no -1 found in delta within scan cap")


# ---------------------------------------------------------------------------
# the all-expansions automaton
# ---------------------------------------------------------------------------

class ExpansionAutomaton(NamedTuple):
    """Follower-value graph of all expansions of t over the alphabet.

    States are exact Q(alpha) elements in [low*u, high*u] for
    u = alpha/(1-alpha); ``succ[s]`` holds a pair (s', d) for each digit d
    with s' = s/alpha - d in that interval.  Infinite paths from the initial
    state spell exactly the expansions of t.  The closure is breadth-first
    from ``initial``, so each state is reachable, and the children of a state
    are distinct canonical states: one digit per edge, one edge per target,
    so each digit word from ``initial`` is one path (check 6 walks them).
    """

    states: list
    initial: Optional[int]
    succ: list  # successor lists of (state, digit) pairs, digits ascending
    complete: bool
    alphabet: Alphabet = TERNARY

    @property
    def edges(self) -> list:
        """(from, digit, to) triples, by source state, then by digit."""
        return [(i, d, j) for i, out in enumerate(self.succ) for j, d in out]

    def to_json_dict(self) -> dict:
        return {
            "states": [",".join(str(c) for c in s.coeffs) for s in self.states],
            "initial": self.initial,
            "edges": [{"from": f, "digit": d, "to": t}
                      for (f, d, t) in self.edges],
            "complete": self.complete,
        }


def build_expansion_automaton(sys: BaseSystem, t,
                              state_cap: int = 10_000) -> ExpansionAutomaton:
    """Breadth-first closure of follower values of t under s -> s/alpha - d.

    The closure runs on the integer states of the base's
    :class:`exactnum.QAlphaContext`, whose certified signs decide interval
    membership and whose canonical form deduplicates states; they are the
    states QAlphaElements hold, so nothing converts.  For alpha the
    reciprocal of a Pisot number and t in Q(alpha) the closure is finite;
    the state cap guards other bases and yields a partial automaton
    flagged ``complete=False``; a cap under 1 raises ``ValueError``.
    """
    if state_cap < 1:
        raise ValueError(f"state cap must be at least 1, got {state_cap}")
    t_el = sys.embed(t)
    hull = sys._hull(t_el)
    if hull is None:
        return ExpansionAutomaton([], None, [], True, sys.alphabet)
    ctx = sys.ctx
    children = ctx.children(hull[0].state, hull[1].state,
                            range(sys.alphabet.low, sys.alphabet.high + 1))
    first = t_el.state
    states = [first]
    index = {first: 0}
    succ: list = []
    complete = True
    for s in states:  # grows while walked: discovery order is breadth-first
        out = []
        for child, d in children(s):
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
    return ExpansionAutomaton([QAlphaElement(ctx, s) for s in states], 0,
                              succ, complete, sys.alphabet)


def seq_value(sys: BaseSystem, seq: Union[FiniteWord, EPSeq]) -> QAlphaElement:
    """Exact value sum seq_i alpha^i in Q(alpha)."""
    ctx = sys._require_ctx()
    if isinstance(seq, FiniteWord):
        return ctx.element([0, *seq.digits])
    p, q = len(seq.pre), len(seq.per)
    # pre, then alpha^p per / (1 - alpha^q)
    return ctx.element([0, *seq.pre]) + ctx.element([0] * p + [0, *seq.per]) \
        / (ctx.one - ctx.element([0] * q + [1]))


class GammaStatus(Enum):
    IN = "in"
    OUT = "out"
    UNKNOWN = "unknown-at-depth"


class GammaSearch:
    """Membership test for the {0,1} Cantor set Gamma of one base, with
    certified facts shared across queries: the lower rows of
    :func:`dimension.box_count_oracle`, which builds one per call.

    ``sys`` is the base over {0,1}, and Gamma the values with an endless
    path of ``sys.children``: all of [0, u], u = ``sys.tail_unit``, when
    ``sys.whole``, else those whose one path, by :func:`_follow`, goes on.
    It is IN when a value repeats (the cycle pumps to an infinite
    expansion) or is certified IN earlier; OUT when it ends or reaches a
    value certified OUT; UNKNOWN after ``_GAMMA_DEPTH_CAP`` steps.
    ``dead`` and ``live`` keep the states on OUT and IN paths; an UNKNOWN
    path enters neither, so sharing never changes a verdict a fresh search
    certifies.
    """

    def __init__(self, sys: BaseSystem):
        if sys.alphabet != BINARY:
            raise ValueError("Gamma is the set of expansions over {0,1}")
        self.sys = sys
        self.ctx = sys._require_ctx()
        self.dead: set = set()  # states
        self.live: set = set()

    def membership(self, x: tuple) -> GammaStatus:
        """Verdict on the value of x, a state of ``ctx``."""
        sys, dead, live = self.sys, self.dead, self.live
        # when whole, Gamma is all of [0, u]: the values with a child
        if x in live or (sys.whole and sys.children(x)):
            return GammaStatus.IN
        if x in dead or sys.whole:
            return GammaStatus.OUT
        path = {x}  # the distinct states walked: one per step taken
        for _, x in _follow(sys, x, False):
            if x in dead:
                break
            if x in path or x in live:
                live.update(path)
                return GammaStatus.IN
            if len(path) >= _GAMMA_DEPTH_CAP:
                return GammaStatus.UNKNOWN
            path.add(x)
        dead.update(path)
        return GammaStatus.OUT
