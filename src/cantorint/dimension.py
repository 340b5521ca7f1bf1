"""Hausdorff dimension computations for Cantor set self-intersections.

Routes implemented:

* the digit-frequency formula  dim = log2/(-log alpha) * lower-density-of-0s
  for translations with a unique expansion,
* the intersection-graph route: relabel the all-expansions automaton by the
  number of admissible {0,1} digits per edge, then dim = log(Perron)/(-log
  alpha).  The radius is mu^(1/h), mu that of the block product B of a
  component's h cyclic classes, taken from its smallest class, at every
  size of the matrix: the largest real root of B's exact characteristic
  polynomial (Perron-Frobenius).  A B past ``CHARPOLY_MAX_DIM`` rows is
  refused with ``ClassProductTooLarge``,
* an independent box-counting estimator over {0,1} cylinders,
* the self-similarity test for unique-expansion translations, the dense
  family of self-similar targets below the threshold base, and the
  Liouville construction producing intersections of purely transcendental
  numbers.

The frequency and Perron dimensions are logarithm quotients.  Each
enclosure divides two Fraction intervals from :func:`exactnum.log_enclosure`
exactly and rounds each end outward to a float once, so no libm result
reaches it; the box-counting slope and a seed of the Liouville search are
the only float estimates.  Frequency values take a ``BaseSystem`` and
divide by its cached -ln alpha, ``neg_log``.

The graph algorithms behind these routes (trimming to states on an
infinite path, strongly connected components, Karp's maximum cycle
mean) live in :mod:`cantorint.graph`.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence, Union

from . import exactnum, expansions, graph, thuemorse, words
from .exactnum import AlgebraicReal
from .expansions import (
    BaseSystem,
    DSetKind,
    ExpansionAutomaton,
    OutOfDomain,
    UniqStatus,
    is_unique_expansion,
)
from .thuemorse import tm_block_word
from .words import BINARY, TERNARY, Alphabet, EPSeq, FreqReport, LazySeq


class DimensionError(exactnum.CantorintError):
    pass


class IncompleteAutomaton(DimensionError):
    pass


class DepthCapExceeded(DimensionError):
    pass


class VerificationFailed(DimensionError):
    """An exactness check that must always hold did not; treat as a bug."""


class ClassProductTooLarge(DimensionError):
    """A smallest cyclic class past ``CHARPOLY_MAX_DIM`` rows."""


# ---------------------------------------------------------------------------
# dimension values
# ---------------------------------------------------------------------------

class DimensionValue(NamedTuple):
    """A dimension: the frequency formula if ``freq`` is set, else the log
    of ``perron``'s root, rendered as the midpoint of the float interval
    ``(lo, hi)`` that holds it (built by :func:`_dimension_value`)."""

    lo: float
    hi: float
    freq: Optional[Fraction] = None
    perron: Optional["PerronInfo"] = None
    empty: bool = False

    @property
    def decimal(self) -> float:
        return (self.lo + self.hi) / 2

    def exact_str(self) -> str:
        if self.empty:
            return "0 (empty intersection)"
        if self.freq is not None:
            return f"({self.freq}) * log(2)/(-log(alpha))"
        return "log(lambda)/(-log(alpha)), lambda = " + self.perron.exact_str()

    def __repr__(self):
        return f"DimensionValue({self.exact_str()} ~ {self.decimal:.6f})"


def _outward_quotient(a: Fraction, b: Fraction, up: bool) -> float:
    """a/b >= 0, for b > 0, rounded up or down to a float: the quotient at
    53 bits is ceiled or floored on ints, and ldexp of it is exact."""
    n, d = a.numerator * b.denominator, a.denominator * b.numerator
    k = n.bit_length() - d.bit_length() - 53  # n/d 2^-k in (2^52, 2^54)
    n, d = (n << -k, d) if k < 0 else (n, d << k)
    m = -(-n // d) if up else n // d
    if m >> 53:  # 54 bits: halve, rounding the same way
        m, k = (-(-m // 2) if up else m // 2), k + 1
    return math.ldexp(m, k)


_LN2 = exactnum.log_enclosure(2)


def _dimension_value(neg_log, num, **fields) -> DimensionValue:
    """The value whose (lo, hi) holds num / (-ln alpha), for Fraction
    intervals ``num`` >= 0 and ``neg_log`` > 0: the two intervals divide
    exactly, and each end is rounded outward to a float once."""
    lo = _outward_quotient(num[0], neg_log[1], False)
    hi = _outward_quotient(num[1], neg_log[0], True)
    return DimensionValue(lo, hi, **fields)


def dim_from_frequency(sys: BaseSystem,
                       freq: Union[FreqReport, Fraction]) -> DimensionValue:
    """dim = log 2 / (-log alpha) * (zero density) on the base of ``sys``,
    from its cached ``dimension_domain`` and ``neg_log``: the dimension of
    the intersection for a translation with a unique expansion.  A
    ``FreqReport`` must be exact: an estimate raises ``WordsError``."""
    if not sys.dimension_domain:
        raise OutOfDomain("dimension formulas need alpha in (1/3, 1/2)")
    f = freq.value if isinstance(freq, FreqReport) else Fraction(freq)
    if not 0 <= f <= 1:
        raise ValueError("zero frequency must lie in [0, 1]")
    return _dimension_value(sys.neg_log, (f * _LN2[0], f * _LN2[1]), freq=f)


def full_dimension(sys: BaseSystem) -> DimensionValue:
    """dim of the whole {0,1} Cantor set: log 2 / (-log alpha)."""
    return dim_from_frequency(sys, Fraction(1))


# ---------------------------------------------------------------------------
# exact spectral radius machinery
# ---------------------------------------------------------------------------

def char_poly(succ: list) -> list:
    """Characteristic polynomial (low degree first) of an integer matrix
    given as successor lists (see :func:`graph.successors`), computed
    exactly by the Faddeev-LeVerrier recurrence.

    For an integer matrix every M_k and c_k is integral, so the recurrence
    runs on Python ints; a trace not divisible by k would be a bug.  Row i
    of A M is sum_l A[i][l] M[l], built straight from row i's successors:
    one copies or scales a row, and two make one fused comprehension.
    """
    n = len(succ)
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cs = []
    for k in range(1, n + 1):
        AM, tr = [], 0
        for i, out in enumerate(succ):
            if len(out) == 1:
                (l, a), = out
                row = M[l][:] if a == 1 else [a * y for y in M[l]]
            elif len(out) == 2:
                (l, a), (m, b) = out
                row = [a * x + b * y for x, y in zip(M[l], M[m])]
            else:
                row = [0] * n
                for l, a in out:
                    row = [x + a * y for x, y in zip(row, M[l])]
            tr += row[i]
            AM.append(row)
        if tr % k != 0:
            raise VerificationFailed("characteristic polynomial not integral")
        c = -tr // k
        cs.append(c)
        for i in range(n):
            AM[i][i] += c
        M = AM
    return list(reversed(cs)) + [1]


class PerronInfo(NamedTuple):
    """The spectral radius mu^(1/``period``) of a nonnegative integer
    matrix (see :meth:`CountMatrix.perron`), mu that of a component's
    cyclic-class product B: ``algebraic``, the largest real root of B's
    characteristic polynomial, or None for a nilpotent matrix, radius 0."""

    algebraic: Optional[AlgebraicReal]
    period: int = 1

    def mu_enclosure(self, width=Fraction(1, 10**12)):
        """(lo, hi) holding mu: the root's cell of ``width``, or (0, 0)."""
        if self.algebraic is None:
            return Fraction(0), Fraction(0)
        return self.algebraic.refine(width)

    def enclosure(self, width=Fraction(1, 10**12)):
        """(lo, hi) holding the radius: mu's, or for h > 1 the 1/h powers of
        mu's at width / 2 on a grid of width / 16, within ``width`` for a
        root as mu >= 1 (:func:`exactnum._root_interval`)."""
        if self.period == 1:
            return self.mu_enclosure(width)
        width = Fraction(width)
        lo, hi = self.mu_enclosure(width / 2)
        k = (-(-16 * width.denominator // width.numerator)).bit_length()
        return exactnum._root_interval(max(lo, 1), hi, self.period, k)

    def exact_str(self) -> str:
        if self.algebraic is None:
            return "0"
        cs = ",".join(map(_decimal, self.algebraic.coeffs))
        name = f"largest real root of [{cs}]"
        return name if self.period == 1 else f"({name})^(1/{self.period})"


_CHUNK = 10**600  # under 640 digits, the least int-to-str limit Python has


def _decimal(x: int) -> str:
    """str(x) for an int of any size, 600 digits at a time."""
    n, digits = abs(x), ""
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        digits = f"{r:0600d}" + digits
    return "-" * (x < 0) + str(n) + digits


CHARPOLY_MAX_DIM = 64  # rows of a class product B, past which perron refuses
POWER_STEPS = 2000  # the most steps of power_estimate per component
POWER_TOL = 1e-13   # a component stops once hi - lo <= POWER_TOL * hi


class CountMatrix:
    """Nonnegative integer matrix counting labelled edges, with its Perron
    eigenvalue certified on demand.

    The matrix is held as successor lists ``succ`` in the form of
    :func:`graph.successors`: ``(j, a)`` per nonzero entry, columns
    ascending, so parallel edges are summed and zeros dropped.  Every
    computation reads them; the dense ``entries`` are derived on first use.
    """

    def __init__(self, entries):
        try:  # an int, a numpy int; never a float, Fraction or str
            rows = [[operator.index(x) for x in row] for row in entries]
        except TypeError:
            raise ValueError("matrix entries must be integers") from None
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            if any(x < 0 for x in row):
                raise ValueError("matrix must be nonnegative")
        self.n = len(rows)
        self.succ = graph.successors(rows)
        self._perron: Optional[PerronInfo] = None

    @classmethod
    def from_successors(cls, succ: list) -> CountMatrix:
        """The matrix of successor lists already in :func:`graph.successors`
        form with positive entries, in O(V+E)."""
        m = cls.__new__(cls)
        m.n, m.succ, m._perron = len(succ), succ, None
        return m

    @functools.cached_property
    def entries(self) -> tuple:
        """The dense rows, as a tuple of int tuples."""
        rows = [[0] * self.n for _ in range(self.n)]
        for row, out in zip(rows, self.succ):
            for j, a in out:
                row[j] = a
        return tuple(tuple(row) for row in rows)

    def power_estimate(self) -> list:
        """Positive int Perron vectors: ``(rows, v)`` for each strongly
        connected component A_c that carries a cycle, by the power iteration
        on A_c + I, which has A_c's Perron vector and maps an eigenvalue -mu
        to 1 - mu, from v = 1 until the least and largest ((A_c + I)v)_i /
        v_i meet to POWER_TOL, or for POWER_STEPS steps; an estimate only.
        ``math.fsum`` makes each float vector the same on every machine,
        and one power of two scales it exactly to ints.  Check 5's second
        route, with :meth:`rowsum_enclosure`; :meth:`perron` takes neither."""
        out = []
        for rows in graph.sccs(self.succ):
            local = {r: k for k, r in enumerate(rows)}
            adj = [[(local[j], a) for j, a in self.succ[r] if j in local]
                   for r in rows]
            if any(adj):  # else a transient state with no self-loop
                v = [1.0] * len(adj)
                for _ in range(POWER_STEPS):
                    w = [math.fsum([x, *(a * v[j] for j, a in row)])
                         for x, row in zip(v, adj)]
                    q = [x / y for x, y in zip(w, v)]
                    top = max(w)
                    if max(q) - min(q) <= POWER_TOL * max(q) or \
                            min(w) / top == 0:  # underflow: keep this v
                        break
                    v = [x / top for x in w]
                ratios = [x.as_integer_ratio() for x in v]
                den = max(q for _, q in ratios)
                out.append((rows, [p * (den // q) for p, q in ratios]))
        return out

    def rowsum_enclosure(self, vectors: list) -> tuple:
        """Certified bracket on the spectral radius (Collatz-Wielandt).

        Each ``(rows, v)`` pairs rows of A with a positive int vector v on
        them.  For any nonnegative A_c, here the rows' submatrix, and any
        positive v, the radius of A_c lies between the least and the
        largest (A_c v)_i / v_i, the row sums of D^-1 A_c D with D =
        diag(v), picked by cross-multiplication after one exact integer
        mat-vec over the successor lists.  The radius of A is the largest
        component radius: [max_c lo_c, max_c hi_c] holds it, for
        components that cover every cycle, or for all rows as one.  With
        :meth:`power_estimate`, verify-paper check 5's second route."""
        lo = hi = Fraction(0)
        for rows, v in vectors:
            w = dict(zip(rows, v))
            (s0, w0), *rest = [(sum(a * w[j] for j, a in self.succ[i]
                                    if j in w), w[i]) for i in rows]
            s1, w1 = s0, w0
            for s, x in rest:  # least and largest s / x, on ints
                if s * w0 < s0 * x:
                    s0, w0 = s, x
                elif s * w1 > s1 * x:
                    s1, w1 = s, x
            lo, hi = max(lo, Fraction(s0, w0)), max(hi, Fraction(s1, w1))
        return lo, hi

    def _block_product(self, classes: list) -> list:
        """A[C_0, C_1] ... A[C_(h-1), C_0] for the cyclic ``classes`` of a
        component: row r is e_r walked h steps on ints."""
        pos = {r: i for i, r in enumerate(classes[0])}
        inside = {u for c in classes for u in c}
        rows = []
        for r in classes[0]:
            walk = {r: 1}
            for _ in classes:
                step: dict = {}
                for u, x in walk.items():
                    for v, a in self.succ[u]:
                        if v in inside:
                            step[v] = step.get(v, 0) + a * x
                walk = step
            rows.append(sorted((pos[v], x) for v, x in walk.items()))
        return rows

    def perron(self) -> PerronInfo:
        """The spectral radius from pairs (h, B), one per component with a
        cycle: its period and the block product of its
        :func:`graph.cyclic_classes` from the smallest class C_k, as
        det(xI - A_c) = x^(n_c - h |C_k|) det(x^h I - B).  mu is B's largest
        real root in (0, hi], hi above the row sums (Perron-Frobenius),
        exact by :func:`char_poly` and one Descartes search, in a 10^-20
        cell; a B past ``CHARPOLY_MAX_DIM`` rows raises
        ``ClassProductTooLarge`` unbuilt.  Where pairs of other (h, mu) meet
        at the top, one radius (:func:`_one_radius`) keeps the least h's,
        else narrower cells part them."""
        if self._perron is not None:
            return self._perron
        cycles = []  # each component's classes, from its smallest one
        for rows in graph.sccs(self.succ):
            cs = graph.cyclic_classes(self.succ, rows)
            if cs:
                k = cs.index(min(cs, key=len))
                if len(cs[k]) > CHARPOLY_MAX_DIM:
                    raise ClassProductTooLarge(
                        f"class product of {len(cs[k])} rows (period "
                        f"{len(cs)}) is over the bound CHARPOLY_MAX_DIM = "
                        f"{CHARPOLY_MAX_DIM}")
                cycles.append(cs[k:] + cs[:k])
        found: dict = {}  # one per (h, mu's polynomial)
        for cs in cycles:
            h, b = len(cs), self._block_product(cs)
            # a component's cycle makes mu > 0: B is not nilpotent
            cp = char_poly(b)
            z = next(i for i, c in enumerate(cp) if c)  # x^z: zero eigenvalues
            hi = Fraction(max(sum(a for _, a in out) for out in b) + 1)
            mu = exactnum.isolate_largest_root(cp[z:], Fraction(0), hi)
            # the dimension is ln mu / h: a 10^-20 cell leaves its width
            # to float rounding
            mu.refine(Fraction(1, 10**20))
            found[h, mu.coeffs] = PerronInfo(mu, h)
        infos, width = list(found.values()), Fraction(1, 10**12)
        while len(infos) > 1:  # those whose enclosure meets the largest
            encs = [(t, t.enclosure(width)) for t in infos]
            lo = max(e[0] for _, e in encs)
            encs = [(t, e) for t, e in encs if e[1] >= lo]
            infos = [t for t, _ in encs]
            if len(infos) > 1 and _one_radius(encs, lo):
                infos = [min(infos, key=operator.attrgetter("period"))]
            width /= 2**32  # else distinct roots: narrower cells part them
        self._perron = infos[0] if infos else PerronInfo(None)
        return self._perron


def _one_radius(encs: list, lo: Fraction) -> bool:
    """Whether the radii mu^(1/h) of algebraic ``(PerronInfo, (a, b))``
    pairs, each [a, b] holding the radius and ``lo``, are one number.  With
    d the periods' gcd, rho^d is a root of q(y) = p(y^(h/d)), p mu's
    polynomial, and its one in [a^d, b^d] when p has one root in [a^h,
    b^h].  So the radii are one iff the q's gcd has a root in [lo^d,
    hi^d], hi the least b, which every [a, b] holds."""
    d, g = math.gcd(*(t.period for t, _ in encs)), []
    for t, (a, b) in encs:
        p, h = t.algebraic.coeffs, t.period
        if exactnum.root_count(p, a ** h, b ** h) != 1:
            return False  # not yet isolating: narrower cells follow
        q = [0] * ((len(p) - 1) * h // d + 1)
        q[::h // d] = p
        g = exactnum.poly_gcd(g, q)
    hi = min(b for _, (_, b) in encs)
    return exactnum.root_count(g, lo ** d, hi ** d) > 0


# ---------------------------------------------------------------------------
# intersection graph from an expansion automaton
# ---------------------------------------------------------------------------

class IntersectionGraph(NamedTuple):
    count_matrix: CountMatrix
    empty: bool = False


def build_intersection_graph(auto: ExpansionAutomaton) -> IntersectionGraph:
    """Relabel automaton edges by admissible {0,1} digit counts and trim to
    the states that start an infinite path, which stay reachable, as a path
    into one is live (:class:`ExpansionAutomaton` has the rest).  A
    difference digit d in {-1,0,1} has #({0,1} intersect ({0,1}+d)) = 2 -
    |d| counts, one per edge, as no two edges of a state share a target;
    any other alphabet is ``OutOfDomain``."""
    if auto.alphabet != TERNARY:
        raise OutOfDomain("intersection graph needs an automaton over {-1,0,1}")
    if not auto.complete:
        raise IncompleteAutomaton("intersection graph needs a closed automaton")
    live = graph.trim(auto.succ)
    if auto.initial is None or not live[auto.initial]:
        return IntersectionGraph(CountMatrix([]), empty=True)
    keep = [u for u, out in enumerate(live) if out]
    pos = {u: r for r, u in enumerate(keep)}
    succ = [sorted((pos[t], 2 - abs(d)) for t, d in live[u]) for u in keep]
    return IntersectionGraph(CountMatrix.from_successors(succ))


def perron_dimension(g: IntersectionGraph, alpha) -> DimensionValue:
    """dim = log(lambda) / (-log alpha) for the trimmed count matrix, with
    ln lambda = ln mu / h from mu's enclosure, a 10^-20 cell for a root
    (see :class:`PerronInfo`), so no h-th root is taken.

    The route holds for alpha <= 1/2; above, Gamma_alpha is an interval
    whose first-level cylinders overlap: ``OutOfDomain``.  An empty
    intersection yields dimension 0 flagged ``empty`` rather than an
    error; any other graph is trimmed, so no row is zero and rho >= 1, and
    mu_hi = 1 proves lambda = 1: dimension exactly 0, countably many
    expansions (each cycle weighs 1; ``_bisect`` collapses onto B = [1]'s
    root).  It derives -ln alpha as ``BaseSystem.neg_log`` does, once, and
    reads alpha > 1/2 off alpha's field, as the box walk's slope does.
    """
    if exactnum.above_half(alpha):
        raise OutOfDomain("Perron dimension needs alpha <= 1/2")
    if g.empty:
        return DimensionValue(0.0, 0.0, empty=True)
    info = g.count_matrix.perron()
    mu_lo, mu_hi = info.mu_enclosure()
    if mu_hi < 1:
        raise VerificationFailed("trimmed matrix must have spectral radius >= 1")
    if mu_hi == 1:
        return DimensionValue(0.0, 0.0, perron=info)
    num = exactnum._log_interval(max(mu_lo, 1), mu_hi)
    return _dimension_value(exactnum._neg_log(alpha),
                            (num[0] / info.period, num[1] / info.period),
                            perron=info)


# ---------------------------------------------------------------------------
# max cycle-mean of the zero indicator (bounds sup of upper densities)
# ---------------------------------------------------------------------------

def freq_upper_bound_over_expansions(auto: ExpansionAutomaton) -> Fraction:
    """Maximum cycle-mean of the zero-digit indicator over the automaton.

    The upper zero density of every infinite path is at most this value, so
    it bounds the supremum of frequency-route dimensions over all expansions
    of t (divide-and-multiply by log2/(-log alpha) as needed).
    """
    if auto.alphabet != TERNARY:
        raise OutOfDomain("frequency bound needs an automaton over {-1,0,1}")
    if not auto.complete:
        raise IncompleteAutomaton("frequency bound needs a closed automaton")
    # every node on a cycle starts an infinite path: no trimming needed
    zeros = [[(t, int(d == 0)) for t, d in out] for out in auto.succ]
    best = graph.max_cycle_mean(zeros)
    return Fraction(0) if best is None else best


# ---------------------------------------------------------------------------
# box-counting oracle on an exact integer grid, independent of the above
# ---------------------------------------------------------------------------

_BOX_BITS = 64  # the walk's intervals are ints times 2^-64
_BOX_WIDTH = Fraction(1, 2**80)  # of the enclosures of alpha and t
BOX_DEPTH_MAX = 20  # 2/5, t = 0 keeps all 2^20 cells: 10-12 s (2-core Xeon)


def _lsq_slope(xs: list, ys: list) -> float:
    """Least-squares slope of ``ys`` against ``xs``, in closed form:
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, each sum by
    ``math.fsum``.  Needs two distinct ``xs``."""
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    return (math.fsum(d * (y - my) for d, y in zip(dx, ys))
            / math.fsum(d * d for d in dx))


def _box_grid(alpha, t, levels: int) -> tuple:
    """The box walk's exact integer grid 2^-64, from one enclosure [alo,
    ahi] of alpha and one [tlo, thi] of t: (alo, ahi, t_iv, pows, tails)
    for m = 0 .. levels, where the int pairs t_iv and pows[m] hold 2^64 t
    and 2^64 alpha^m, and the int tails[m] bounds 2^64 alpha^(m+1)/(1 -
    alpha) from above.  Every walk sum is then exact, and each interval
    holds 2^64 times its true value: 0 < alo <= alpha <= ahi < 1, and
    x^(m+1)/(1 - x) increases on (0, 1)."""
    alo, ahi = exactnum.enclosure(alpha, _BOX_WIDTH)
    if not 0 < alo <= ahi < 1:
        raise ValueError("base must lie strictly between 0 and 1")
    tlo, thi = exactnum.enclosure(t, _BOX_WIDTH)

    def down(n, q):  # floor(2^64 n/q), for q > 0
        return (n << _BOX_BITS) // q

    def up(n, q):  # ceil(2^64 n/q)
        return -(-(n << _BOX_BITS) // q)

    t_iv = (down(tlo.numerator, tlo.denominator),
            up(thi.numerator, thi.denominator))
    a, b, c, d = alo.numerator, alo.denominator, ahi.numerator, ahi.denominator
    pows = [(down(a**m, b**m), up(c**m, d**m)) for m in range(levels + 1)]
    # ahi^(m+1)/(1 - ahi) = c^(m+1) / (d^m (d - c))
    tails = [up(c**(m + 1), d**m * (d - c)) for m in range(levels + 1)]
    return alo, ahi, t_iv, pows, tails


class BoxCountReport(NamedTuple):
    rows: list  # (n, lower_count, upper_count)
    slope: Optional[float]  # None above alpha = 1/2


def box_count_oracle(alpha, t, depth: int) -> BoxCountReport:
    """Count {0,1} prefixes whose cylinder can meet the intersection.

    An upper count keeps every depth-n prefix whose cylinder hull I =
    [p_0, p_1 + tails[n]] on the exact integer grid meets the hull of a
    depth-n prefix of the translated set; a lower count also needs an
    exact certificate that the prefix value p has p - t in Gamma_alpha.
    The least-squares slope of log(upper) against n * (-log alpha) over
    the last half of the depths, in closed form by :func:`_lsq_slope`,
    estimates the dimension for alpha <= 1/2.  Above, where the cylinders
    overlap, it estimates none (a fit gives 1.36 at 3/5, t = 0): slope None.

    No deeper look can prune a kept prefix: a translated prefix (g_0,
    g_1) at level m >= n that meets I has a child that does.  If the
    0-child misses, g_1 + tails[m+1] < p_0; then the 1-child, which adds
    pows[m+1], reaches p_0, as pows[m+1][1] + tails[m+1] >= tails[m]
    (ceilings are superadditive and ahi^(m+1) + ahi^(m+2)/(1 - ahi) =
    ahi^(m+1)/(1 - ahi)), and starts below I's upper end, as g_0 +
    pows[m+1][0] < p_0 + tails[n].

    The witnesses of one call share one :class:`expansions.GammaSearch` on
    ``BaseSystem(alpha, BINARY)``, and p - t is carried down the walk
    exactly, as a state of its field.  So alpha must be rational or
    algebraic, else ``UnsupportedBase``, and t a rational or an element of
    alpha's field, else ValueError.  For alpha >= 1/2 every p - t in [0,
    u], u = alpha/(1 - alpha), is IN; below, each search follows the one
    path of the base's children filter.  Sharing cannot change a row
    where a fresh search certifies its verdict: the search keeps only
    certified IN/OUT facts, never a path cut short by its depth cap.  A
    0-child has its parent's p, so it inherits an IN/OUT verdict and
    searches again only after UNKNOWN.  A depth over ``BOX_DEPTH_MAX``
    raises ``DepthCapExceeded``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > BOX_DEPTH_MAX:
        raise DepthCapExceeded(
            f"depth {depth} is over the bound BOX_DEPTH_MAX = {BOX_DEPTH_MAX}")
    alo, ahi, t_iv, pows, tails = _box_grid(alpha, t, depth)
    search = expansions.GammaSearch(BaseSystem(alpha, BINARY))
    ctx = search.ctx
    x0 = ctx.neg(ctx.state(t))
    a_pows = list(accumulate([ctx.alpha_element.state] * depth, ctx.mul,
                             initial=ctx.one.state))
    IN, UNKNOWN = expansions.GammaStatus.IN, expansions.GammaStatus.UNKNOWN

    uppers = [0] * (depth + 1)
    lowers = [0] * (depth + 1)

    # x = prefix value - t, a state; verdict = x's GammaStatus
    def walk(k, part, gammas, x, verdict):
        tail_hi = tails[k]
        lo, hi = part[0], part[1] + tail_hi
        # keep gamma prefixes whose cylinder can still meet I = [lo, hi]
        kept = list(dict.fromkeys(g for g in gammas
                                  if g[0] <= hi and g[1] + tail_hi >= lo))
        if not kept:
            return
        if k > 0:
            uppers[k] += 1
            if verdict is None or verdict is UNKNOWN:
                verdict = search.membership(x)
            lowers[k] += verdict is IN
        if k == depth:
            return
        p0, p1 = pows[k + 1]
        next_g = [h for g in kept for h in (g, (g[0] + p0, g[1] + p1))]
        walk(k + 1, part, next_g, x, verdict)
        walk(k + 1, (part[0] + p0, part[1] + p1), next_g,
             ctx.add(x, a_pows[k + 1]), None)

    walk(0, (0, 0), [t_iv], x0, None)

    rows = [(n, lowers[n], uppers[n]) for n in range(1, depth + 1)]
    pts = [(n, u) for (n, _, u) in rows if u > 0]
    half = pts[len(pts) // 2:]
    if ctx.above_half:
        slope = None  # overlapping cylinders: no dimension to estimate
    elif len(half) >= 2:
        neg_log = -math.log(float((alo + ahi) / 2))
        slope = _lsq_slope([n * neg_log for (n, _) in half],
                           [math.log(u) for (_, u) in half])
    else:
        slope = 0.0
    return BoxCountReport(rows, slope)


# ---------------------------------------------------------------------------
# self-similarity of the intersection for unique-expansion translations
# ---------------------------------------------------------------------------

class SelfSimilarStatus(Enum):
    SELF_SIMILAR = "self-similar"
    NOT_SELF_SIMILAR = "not-self-similar"
    NOT_UNIQUE = "not-unique"
    UNDECIDED = "undecided-at-depth"


class SelfSimilarResult(NamedTuple):
    status: SelfSimilarStatus
    witness: Optional[tuple] = None  # (I, J) finite words over {0,1}


def self_similar_check(sys: BaseSystem, seq: EPSeq) -> SelfSimilarResult:
    """The intersection for a unique-expansion t is self-similar iff
    (1 - |t_i|) is strongly eventually periodic."""
    if seq.alphabet != TERNARY:
        raise OutOfDomain("self-similarity test is stated over {-1,0,1}")
    res = is_unique_expansion(sys, seq)
    if res.status is UniqStatus.NOT_UNIQUE:
        return SelfSimilarResult(SelfSimilarStatus.NOT_UNIQUE)
    if res.status is UniqStatus.UNDECIDED:
        return SelfSimilarResult(SelfSimilarStatus.UNDECIDED)
    indicator = EPSeq([1 - abs(d) for d in seq.pre],
                      [1 - abs(d) for d in seq.per], Alphabet(0, 2))
    wit = words.strongly_eventually_periodic(indicator)
    if wit is None:
        return SelfSimilarResult(SelfSimilarStatus.NOT_SELF_SIMILAR)
    return SelfSimilarResult(SelfSimilarStatus.SELF_SIMILAR, wit)


# family word digits: a 100 000-digit word takes 0.6 s through
# `cantor --json dense-targets` (19/50, target 1, tol 2e-5) on a 2-core Xeon
FAMILY_WORD_MAX = 100_000


def _family_counts(a: Fraction, tol: Fraction,
                   n2_cap: int) -> Optional[tuple[int, int]]:
    """First (n1, n2), n1 in 1..64 then n2 in 0..n2_cap, whose word
    ((1 -1)^n1 0^n2)^inf has zero density n2/(2 n1 + n2) within tol of a.
    The density rises with n2, so only the least n2 >= 0 with density >=
    b = a - tol, ceil(2 n1 b / (1 - b)), can qualify for a given n1; it is
    checked cross-multiplied, |n2 - a m| <= tol m with m = 2 n1 + n2."""
    an, ad = a.numerator, a.denominator
    tn, td = tol.numerator, tol.denominator
    bn, bd = an * td - tn * ad, ad * td  # b = bn / bd < 1
    for n1 in range(1, 65):
        n2 = max(0, -(-2 * n1 * bn // (bd - bn)))
        m = 2 * n1 + n2
        if n2 <= n2_cap and abs(n2 * ad - an * m) * td <= tn * ad * m:
            return (n1, n2)
    return None


def dense_selfsimilar_targets(alpha, targets: Sequence, tol) -> list:
    """:func:`dense_words` on alpha's own ``BaseSystem``."""
    return dense_words(BaseSystem(alpha, TERNARY), targets, tol)


def dense_words(sys: BaseSystem, targets: Sequence, tol) -> list:
    """Periodic words ((1 -1)^a 0^b)^inf realising each target zero density
    within ``tol``, each passing both the uniqueness test and the
    self-similarity criterion.  Only valid in the full-interval regime,
    alpha in (1/3, (3-sqrt(5))/2].  The word for a target near 1 has about
    2/tol zeros; a ``DimensionError`` stops before building one longer than
    ``FAMILY_WORD_MAX`` digits.  Targets and ``tol`` are taken exactly."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if sys.regime is not DSetKind.FULL_INTERVAL:
        raise OutOfDomain("dense self-similar family needs "
                          "alpha in (1/3, (3-sqrt(5))/2]")
    out = []
    n2_cap = int(4 / tol) + 4
    for target in targets:
        a = Fraction(target)
        if not 0 <= a <= 1:
            raise ValueError("targets must lie in [0, 1]")
        found = _family_counts(a, tol, n2_cap)
        if not found:
            raise DimensionError(f"no family word within tol of {a}")
        n1, n2 = found
        if 2 * n1 + n2 > FAMILY_WORD_MAX:
            raise DimensionError(
                f"the family word for {a} within tol {tol} has "
                f"{2 * n1 + n2} digits, over the bound "
                f"FAMILY_WORD_MAX = {FAMILY_WORD_MAX}")
        seq = EPSeq((), (1, -1) * n1 + (0,) * n2, TERNARY)
        status = self_similar_check(sys, seq).status  # UNIQUE comes first
        if status is not SelfSimilarStatus.SELF_SIMILAR:
            raise VerificationFailed(f"family word is {status.value}")
        out.append(seq)
    return out


# ---------------------------------------------------------------------------
# the Liouville construction
# ---------------------------------------------------------------------------

class LiouvilleWitness(NamedTuple):
    pq: Fraction
    nk: list  # n_1 .. n_(K+1)
    m: list  # m_k = 2(n_1+..+n_k) + k, the k-th separating zero, k <= K+1
    approximants: list  # Fractions p_k/q_k for k = 1..K
    x_enclosure: tuple  # rational interval certified to contain x
    t_seq: LazySeq


def _liouville_min_next(p: int, q: int, nk: list) -> int:
    """Minimal n_{k+1} >= 1 with (q/p)^(2 sum+2m+k+1) >= q^(k(2 sum+k+3)).

    A float estimate seeds the search; minimality is then pinned one step
    in each direction by the test e ln(q/p) >= f ln q, with e and f the
    two exponents, on :func:`exactnum.log_enclosure`'s intervals, and by
    exact integer powers only where those intervals overlap.
    """
    k = len(nk)
    s = sum(nk)
    f_exp = k * (2 * s + k + 3)
    (r_lo, r_hi), (q_lo, q_hi) = map(exactnum.log_enclosure,
                                     (Fraction(q, p), q))

    def ok(m: int) -> bool:
        e = 2 * s + 2 * m + k + 1
        lo, hi = e * r_lo - f_exp * q_hi, e * r_hi - f_exp * q_lo
        if lo >= 0 or hi < 0:  # [lo, hi] holds e ln(q/p) - f ln q
            return lo >= 0
        return q**e >= p**e * q**f_exp

    lnq, lnp = math.log(q), math.log(p)
    need = f_exp * lnq / (lnq - lnp)
    m = max(1, math.ceil((need - (2 * s + k + 1)) / 2) - 2)
    while not ok(m):
        m += 1
    while m > 1 and ok(m - 1):
        m -= 1
    return m


LIOUVILLE_DIGITS_MAX = 4000  # under Python's 4300-digit int-to-str limit


class _LiouvilleBlocks:
    """Lazily extended block table for (1 -1)^(n_1) 0 (1 -1)^(n_2) 0 ..."""

    def __init__(self, pq: Fraction):
        self.p, self.q = pq.numerator, pq.denominator
        self.nk = [1]
        self.bounds = [3]  # end position of each block (1 -1)^(n_j) 0

    def grow(self):
        """Append the next block, its n_k from ``_liouville_min_next``."""
        self.nk.append(_liouville_min_next(self.p, self.q, self.nk))
        self.bounds.append(self.bounds[-1] + 2 * self.nk[-1] + 1)

    def digit(self, i: int) -> int:
        while self.bounds[-1] < i:
            self.grow()
        j = bisect_left(self.bounds, i)
        if self.bounds[j] == i:
            return 0  # the separating zero
        start = self.bounds[j - 1] if j else 0
        return 1 if (i - start) % 2 == 1 else -1


def liouville_witness(pq, K: int, free_digit_rule: int = 0) -> LiouvilleWitness:
    """Run the Liouville construction and verify its inequalities exactly.

    x takes the digit 1 on each 1 of (t_i), 0 on each -1, and
    ``free_digit_rule``, 0 or 1 (ValueError otherwise), at every
    separating zero.  For every k <= K, with m_k the position of the k-th
    separating zero, the witness checks, in exact rational arithmetic, that

    * q_k respects the displayed denominator bound q^(m_k + 3),
    * |x - p_k/q_k| <= q_k^(-k), and
    * p_k/q_k != x, as x's enclosure is narrower than the gap
      |x - p_k/q_k| >= a^(m_(k+1) + 1) (1 - 2a) / (1 - a), a = p/q.

    Any failure raises ``VerificationFailed`` (it would be a bug, not an
    input problem).  One running sum of x's digits, one int over q^i, gives
    every p_k/q_k, each with the tail of the block after m_k, and then
    x's enclosure, with the geometric bound on the digits after it.

    n_1 = 1, and each later n_k is the least that meets the growth
    inequality of ``_liouville_min_next``.  The enclosure of x at width
    (p/q)^(m_(K+1) + 63) = (p/q)^(2(n_1+..+n_(K+1)) + K + 64) has
    denominators of that exponent times log10 q digits.  Each term only
    raises it, so the terms grow one at a time, and a ``DimensionError``
    stops the construction before the next term once the count passes
    ``LIOUVILLE_DIGITS_MAX``.
    """
    pq = Fraction(pq)
    if K < 1:
        raise ValueError("K must be at least 1")
    if not Fraction(1, 3) < pq < Fraction(1, 2):
        # below the threshold base (3-sqrt(5))/2 uniqueness of (t_i) is
        # automatic; above it the separating zeros are single so the
        # uniqueness test still passes, and every inequality is re-verified
        # exactly below anyway
        raise OutOfDomain("p/q must lie in (1/3, 1/2)")
    if free_digit_rule not in (0, 1):
        raise ValueError("free digit rule must be 0 or 1")

    q = pq.denominator
    blocks = _LiouvilleBlocks(pq)
    while True:
        digits = (2 * sum(blocks.nk) + K + 64) * math.log10(q)
        if digits > LIOUVILLE_DIGITS_MAX:
            raise DimensionError(
                f"K = {K} at p/q = {pq} needs x enclosures of at least "
                f"{digits:.0f} digits, over the bound "
                f"LIOUVILLE_DIGITS_MAX = {LIOUVILLE_DIGITS_MAX}")
        if len(blocks.nk) == K + 1:
            break
        blocks.grow()
    nk = blocks.nk[:]  # t_seq goes on extending the table
    # its grammar on A, B, C = 0, 1, 2: A -1-> B -(-1)-> C -1-> B, C -0-> A
    t_seq = LazySeq(blocks.digit, TERNARY, f"liouville({pq})",
                    [[(1, 1)], [(2, -1)], [(1, 1), (0, 0)]])

    # one running sum S of x's digits to i, over q^i.  The digits after i
    # add at most p^(i+1) / (q^i (q - p)), which is above pq^n, for
    # n = m_(K+1) + 63, while i < n, as q - p < q, and not at i = n, as
    # p <= q - p: the sum stops at the least i whose enclosure is that wide
    x_digit = {1: 1, -1: 0, 0: int(free_digit_rule)}
    m = blocks.bounds[:K + 1]  # m_1 .. m_(K+1)
    p, n = pq.numerator, m[K] + 63
    s, p_i, q_i = 0, 1, 1  # S, p^i, q^i
    approximants = []
    for i in range(1, n + 1):
        p_i, q_i = p_i * p, q_i * q
        s = s * q + x_digit[blocks.digit(i)] * p_i
        if i in m[:K]:  # p_k/q_k: x's digits to m_k = i, then 1 0 1 0 ...
            approx = Fraction(s * (q * q - p * p) + p_i * p * q,
                              q_i * (q * q - p * p))
            if approx.denominator > q ** (i + 3):
                raise VerificationFailed("denominator bound violated")
            approximants.append(approx)
    x_lo, x_hi = Fraction(s, q_i), Fraction(s * (q - p) + p_i * p,
                                            q_i * (q - p))

    for k in range(1, K + 1):
        approx = approximants[k - 1]
        diff_hi = max(abs(x_lo - approx), abs(x_hi - approx))
        qk = Fraction(approx.denominator)
        if diff_hi > qk ** (-k):
            raise VerificationFailed(
                f"|x - p_{k}/q_{k}| <= q_{k}^-{k} failed")
        if x_lo <= approx <= x_hi:
            raise VerificationFailed(f"x's enclosure holds p_{k}/q_{k}")

    return LiouvilleWitness(pq, nk, m, approximants, (x_lo, x_hi), t_seq)


# ---------------------------------------------------------------------------
# the dimension spectrum D_alpha
# ---------------------------------------------------------------------------

class DSetDescription(NamedTuple):
    kind: DSetKind
    full: DimensionValue
    proper_subset: bool
    values: tuple = ()
    nstar: Optional[int] = None
    nstar_cap_hit: bool = False
    sft_n: Optional[int] = None
    sft_interval: Optional[tuple] = None  # (DimensionValue, DimensionValue)
    excluded_band: Optional[tuple] = None  # frequency band (lo, hi)
    note: str = ""


def n_star(sys: BaseSystem, depth_cap: int = 4096) -> tuple:
    """Largest n <= ``thuemorse._BLOCK_LEVELS`` with (w_n reflect(w_n))^inf
    passing the uniqueness test over ``sys``; returns (n*, cap_hit).

    Every level up to the cap is tested (passes have always been downward
    closed in practice, but the maximum is what is reported).  cap_hit is
    True when the top level itself passes, i.e. the cap may be binding.
    """
    last_pass = 0
    for n in range(1, thuemorse._BLOCK_LEVELS + 1):
        res = is_unique_expansion(sys, tm_block_word(n), depth_cap=depth_cap)
        if res.status is UniqStatus.UNIQUE:
            last_pass = n
        elif res.status is UniqStatus.UNDECIDED:
            raise exactnum.UndecidedComparison(
                f"uniqueness of the level-{n} block word undecided at depth")
    return last_pass, last_pass == thuemorse._BLOCK_LEVELS


def d_set(alpha, depth_cap: int = 4096) -> DSetDescription:
    """Describe D_alpha in the regime its ``BaseSystem.regime`` names.

    Above alpha_KL the set is the finite list {0, full} plus the block-word
    frequencies up to n* (:func:`n_star`); at alpha_KL it is the countable
    family; below it contains the interval spanned by the four-block
    subshift frequencies at the level :func:`thuemorse.find_smallest_sft_n`
    finds against this base's delta, and is all of [0, full] exactly on
    (1/3, (3-sqrt(5))/2].  One ``BaseSystem``, alpha_KL's too, gives the
    regime, every value and n* or the subshift level, and the excluded
    band ((k+1)/(k+2), 1) from :func:`expansions.forbidden_zero_run`.
    ``depth_cap`` bounds every lexicographic comparison with delta.
    """
    sys = BaseSystem(alpha, TERNARY)
    full = full_dimension(sys)  # refuses alpha outside (1/3, 1/2)
    kind = sys.regime
    if kind is DSetKind.COUNTABLE_FAMILY:
        values = (dim_from_frequency(sys, Fraction(0)),
                  dim_from_frequency(sys, Fraction(1, 3)), full)
        return DSetDescription(kind, full, True, values, note=(
            "countable family: {0, full, full/3} together with "
            "full * d(w_n) for every n >= 1"))
    if kind is DSetKind.FINITE_LIST:
        nstar, cap_hit = n_star(sys, depth_cap)
        freqs = [Fraction(0), *map(thuemorse.dw, range(1, nstar + 1))]
        values = tuple(dim_from_frequency(sys, f) for f in freqs) + (full,)
        found = dict(values=values, nstar=nstar, nstar_cap_hit=cap_hit)
    else:  # alpha below alpha_KL: interval regime
        n = thuemorse.find_smallest_sft_n(expansions.delta_seq(sys), depth_cap)
        bounds = thuemorse.sft_blocks(n).density_interval
        found = dict(sft_n=n, sft_interval=tuple(
            dim_from_frequency(sys, d) for d in bounds))
        if kind is DSetKind.FULL_INTERVAL:
            return DSetDescription(kind, full, False, note=(
                "D_alpha = [0, full] on (1/3, (3-sqrt(5))/2]"), **found)
    k = expansions.forbidden_zero_run(sys)
    return DSetDescription(kind, full, True, excluded_band=(
        Fraction(k + 1, k + 2), Fraction(1)), **found)
