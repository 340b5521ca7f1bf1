"""The benchmark's three workloads: seeded query lists, the library calls each
query makes, and the check on each answer.

A query is a small JSON-able dict.  ``generate`` draws a workload's list from
the pools recorded in ``reference.json`` (see ``make_reference.py``); the
same seed always gives the same list.  ``Runner.run`` makes the library calls
that the matching ``cantor`` subcommand makes, and ``Runner.check`` compares
the answer with independent or recorded expectations.

Each pool entry carries ``cost``: its time at the commit the reference was
recorded on.  ``generate`` gives the lists of one run's segments, about the
requested seconds of these nominal costs in all; they depend on the seed and
the seconds only, never on how fast the program under test is.  Every draw is
stratified by cost, so all seeds get lists of about the same cost.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from cantorint import dimension, expansions, thuemorse, words
from cantorint.acceptance import ex51_translation, ex52_translation
from cantorint.exactnum import parse_real
from cantorint.expansions import BaseSystem, UniqStatus
from cantorint.words import TERNARY

WORKLOADS = ("intersect", "boxcount", "spectrum")

EX51_BASE = "alg:-1,1,2,2@[2/5,1/2]"
EX52_BASE = "alg:-1,2,1@[2/5,1/2]"
EX51_DIM = 0.644297           # published, to 1e-4
EX52_DIM = math.log(4) / (-3 * math.log(math.sqrt(2) - 1))
STATE_CAP = 10_000            # build_expansion_automaton's default cap
DIM_TOL = 1e-6                # numpy eigenvalue estimate vs certified enclosure

STATUS_LETTER = {UniqStatus.UNIQUE: "U", UniqStatus.NOT_UNIQUE: "N",
                  UniqStatus.UNDECIDED: "D"}
SS_LETTER = {dimension.SelfSimilarStatus.SELF_SIMILAR: "S",
             dimension.SelfSimilarStatus.NOT_SELF_SIMILAR: "X",
             dimension.SelfSimilarStatus.NOT_UNIQUE: "N",
             dimension.SelfSimilarStatus.UNDECIDED: "D"}


# ---------------------------------------------------------------------------
# list generation
# ---------------------------------------------------------------------------

# seeded draws come from pool entries of at most this nominal cost
DRAW_CAP_S = {"intersect": 0.4, "boxcount": 0.25}
LIKE_COST = 0.02        # a draw picks among entries within 2% of its cost


def _picks(rng, pool, k, cap=None):
    """Seeded draw of ``k`` entries at evenly spaced cost quantiles of the
    pool's entries of at most ``cap`` nominal seconds.  Each pick comes from
    the entries whose cost is within ``LIKE_COST`` of its quantile's, so
    every seed gets other inputs of about the same costs."""
    ordered = sorted((e for e in pool if cap is None or e["cost"] <= cap),
                     key=lambda e: (e["cost"], repr(e)))
    out = []
    for i in range(k):
        mid = ordered[int((i + 0.5) * len(ordered) / k)]["cost"]
        like = [e for e in ordered
                if abs(e["cost"] - mid) <= LIKE_COST * mid]
        out.append(dict(rng.choice(like)))
    return out


def _filled(rng, strata, budget, cap):
    """Draws from each ``(pool, n)`` stratum, the recipe counts ``n`` scaled
    so that their mean nominal cost adds up to about ``budget`` seconds."""
    def mean(pool):
        costs = [e["cost"] for e in pool if e["cost"] <= cap]
        return sum(costs) / len(costs)
    recipe_cost = sum(n * mean(pool) for pool, n in strata)
    return [q for pool, n in strata
            for q in _picks(rng, pool, max(1, round(n * budget / recipe_cost)),
                            cap)]


def generate(workload, seed, seconds, ref, segments=1):
    """The queries of one run: ``segments`` lists of query dicts, each of
    about ``seconds / segments`` nominal seconds, fixed queries included.
    Query ids run on across the segments."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectrum":
        lists = _spectrum_segments(rng, ref, segments)
    elif workload in WORKLOADS:
        lists = [_segment(rng, workload, seconds / segments, ref[workload])
                 for _ in range(segments)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ids = itertools.count()
    for seg in lists:
        for q in seg:
            q["id"] = next(ids)
    return lists


def _segment(rng, workload, seconds, pools):
    if workload == "intersect":
        # ex51 and ex52, one ex51 shift whose enclosure stays about 0.2
        # wide, and one automaton that runs to its state cap
        units = [[dict(a)] for a in pools["anchors"]]
        units += [_picks(rng, pools["wide"], 1),
                  _picks(rng, pools["capped"], 1)]
        strata = [(pools[name], n) for name, n in pools["recipe"]]
    else:
        units = [[dict(a)] for a in pools["anchors"]]
        strata = [(pools["seeded"], 1)]
    fixed = sum(q["cost"] for unit in units for q in unit)
    units += [[q] for q in _filled(rng, strata, max(seconds - fixed, 0),
                                   DRAW_CAP_S[workload])]
    rng.shuffle(units)
    return [q for unit in units for q in unit]


def round_cost(base):
    """Nominal cost of one round of questions on a spectrum base."""
    cost = base["cost"]
    return sum(cost.values()) + cost["unique"]   # cold unique asks twice


def _spectrum_segments(rng, ref, segments):
    """Each segment asks one round of questions on eight bases, two per
    regime.  A regime's bases are paired cheapest with dearest, and the
    segments take the pairs in a seeded order, so that a run of six
    segments asks of every base twice.  A round asks the questions behind
    ``cantor unique``, ``selfsimilar``, ``dset``, ``delta``,
    ``dense-targets``, ``alpha-kl`` and ``tm --what lambda`` (cold: a new
    BaseSystem per query, as each CLI call makes), plus one warm batch of
    uniqueness tests sharing a single BaseSystem."""
    spec = ref["spectrum"]
    pairs = []
    for regime in spec["regimes"]:
        ordered = sorted(regime, key=lambda b: round_cost(spec["bases"][b]))
        half = len(ordered) // 2
        pairs.append(rng.sample([(ordered[j], ordered[-1 - j])
                                 for j in range(half)], half))
    rounds = itertools.count(1)
    lists = []
    for k in range(segments):
        names = [b for p in pairs for b in p[k % len(p)]]
        rng.shuffle(names)
        units = [u for name in names
                 for u in _spectrum_round(rng, spec, name, next(rounds))]
        rng.shuffle(units)
        lists.append([q for unit in units for q in unit])
    return lists


def _spectrum_round(rng, spec, name, r):
    pool = spec["words"]
    lengths = spec["tm_lengths"]
    n = lengths[r % len(lengths)]
    base = spec["bases"][name]
    cost = base["cost"]
    i = rng.randrange(len(pool))
    cold = [{"kind": "unique", "base": name, "word": pool[i],
             "ref": base["verdicts"][i], "pair": f"{r}:cold",
             "reflect": refl, "cost": cost["unique"]}
            for refl in (False, True)]
    i = rng.randrange(len(pool))
    cold.append({"kind": "selfsimilar", "base": name, "word": pool[i],
                 "ref": base["selfsimilar"][i],
                 "cost": cost["selfsimilar"]})
    cold.append({"kind": "dset", "base": name, "ref": base["dset"],
                 "cost": cost["dset"]})
    cold.append({"kind": "delta", "base": name, "ref": base["delta"],
                 "cost": cost["delta"]})
    if base["dense"]:
        cold.append({"kind": "dense", "base": name, "cost": cost["dense"]})
    cold.append({"kind": "akl", "width": rng.choice(spec["akl_widths"]),
                 "cost": 0.0})
    cold.append({"kind": "tm", "n": n, "cost": spec["tm_cost"][str(n)]})
    # warm batch: word/reflection pairs on one BaseSystem, as check 9 runs
    picks = [(pool[i], base["verdicts"][i])
             for i in (rng.randrange(len(pool))
                       for _ in range(spec["batch_words"]))]
    level = (r - 1) % len(base["block"]) + 1
    picks.append((f"tm:{level}", base["block"][level - 1]))
    batch = [{"kind": "unique", "base": name, "word": w, "ref": v,
              "pair": f"{r}:{k}", "reflect": refl, "batch": r,
              "cost": cost["batch"] / (2 * len(picks))}
             for k, (w, v) in enumerate(picks) for refl in (False, True)]
    batch[-1]["last"] = True
    return [[q] for q in cold] + [batch]


# ---------------------------------------------------------------------------
# running and checking queries
# ---------------------------------------------------------------------------

def translation(sys_, text):
    """The shift ``t`` of a query: the CLI's closed forms, the value of a
    finite {-1,0,1} word (``word:+-0``), or a rational."""
    if text == "sum-neg-alpha":
        return ex51_translation(sys_)
    if text == "ex52":
        return ex52_translation(sys_)
    if text.startswith("word:"):
        return expansions.seq_value(sys_, words.parse_seq(text[5:]))
    return sys_.embed(Fraction(text))


def sequence(text):
    if text.startswith("tm:"):
        return dimension.tm_block_word(int(text[3:]))
    return words.parse_seq(text)


def lambda_reference(n):
    """lambda_1..lambda_n from the digit-sum parity of tau, vectorised."""
    x = np.arange(n + 1, dtype=np.int64)
    parity = np.zeros(n + 1, dtype=np.int64)
    while x.any():
        parity ^= x & 1
        x >>= 1
    return tuple(int(d) for d in parity[1:] - parity[:-1])


class Runner:
    """Runs and checks one workload's queries; holds the state a warm batch
    shares across its queries."""

    def __init__(self, ref):
        self.ref = ref
        self.batch_sys = {}
        self.pair_verdict = {}

    # -- running ------------------------------------------------------------

    def run(self, q):
        return getattr(self, "_run_" + q["kind"])(q)

    def _run_intersect(self, q):
        alpha = parse_real(q["base"])
        sys_ = BaseSystem(alpha, TERNARY)
        t = translation(sys_, q["t"])
        auto = expansions.build_expansion_automaton(
            sys_, t, state_cap=q.get("cap", STATE_CAP))
        out = {"states": len(auto.states), "complete": auto.complete}
        if auto.complete:
            g = dimension.build_intersection_graph(auto)
            dv = dimension.perron_dimension(g, alpha)
            if not g.empty:
                g.count_matrix.perron().enclosure()
            out.update(rows=g.count_matrix.n, lo=dv.lo, hi=dv.hi,
                       empty=dv.empty, matrix=g.count_matrix.entries,
                       alpha=alpha)
            dimension.freq_upper_bound_over_expansions(auto)
        return out

    def _run_box(self, q):
        alpha = parse_real(q["base"])
        sys_ = BaseSystem(alpha, TERNARY)
        if q.get("check7") and q["t"] != "sum-neg-alpha":
            t = Fraction(q["t"])  # check 7 passes rationals as they are
        else:
            t = translation(sys_, q["t"])
        rep = dimension.box_count_oracle(alpha, t, q["depth"])
        return {"rows": [tuple(r) for r in rep.rows], "slope": rep.slope}

    def _run_unique(self, q):
        batch = q.get("batch")
        if batch is None:
            sys_ = BaseSystem(parse_real(q["base"]), TERNARY)
        else:
            sys_ = self.batch_sys.get(batch)
            if sys_ is None:
                sys_ = BaseSystem(parse_real(q["base"]), TERNARY)
                self.batch_sys[batch] = sys_
            if q.get("last"):
                del self.batch_sys[batch]
        seq = sequence(q["word"])
        if q.get("reflect"):
            seq = words.reflect(seq)
        res = expansions.is_unique_expansion(sys_, seq)
        return {"verdict": STATUS_LETTER[res.status]}

    def _run_selfsimilar(self, q):
        sys_ = BaseSystem(parse_real(q["base"]), TERNARY)
        res = dimension.self_similar_check(sys_, sequence(q["word"]))
        return {"status": SS_LETTER[res.status]}

    def _run_dset(self, q):
        ds = dimension.d_set(parse_real(q["base"]))
        return {"dset": [ds.kind.value, ds.nstar, ds.sft_n],
                "cap_hit": ds.nstar_cap_hit}

    def _run_delta(self, q):
        sys_ = BaseSystem(parse_real(q["base"]), TERNARY)
        word = expansions.delta(sys_, 64)
        ep = expansions.try_ep_form(sys_)
        return {"delta": [words.format_seq(word),
                          words.format_seq(ep) if ep else None]}

    def _run_dense(self, q):
        alpha = parse_real(q["base"])
        targets = [Fraction(j, 10) for j in range(11)]
        seqs = dimension.dense_selfsimilar_targets(alpha, targets,
                                                   Fraction(1, 100))
        return {"densities": [words.zero_density(s).value for s in seqs],
                "targets": targets}

    def _run_akl(self, q):
        lo, hi = thuemorse.alpha_kl_enclosure(Fraction(q["width"]))
        return {"lo": lo, "hi": hi}

    def _run_tm(self, q):
        return {"word": tuple(thuemorse.lambda_prefix(q["n"]))}

    # -- checking -----------------------------------------------------------

    def check(self, q, out):
        """True when the answer is right.  Also returns the answer's
        contribution to the quality figures."""
        return getattr(self, "_check_" + q["kind"])(q, out)

    def _check_intersect(self, q, out):
        info = {"undecided": not out["complete"]}
        ok = out["states"] == q["states"] and out["complete"] == q["complete"]
        if not out["complete"]:
            return ok and out["states"] == q.get("cap", STATE_CAP), info
        lo, hi = out["lo"], out["hi"]
        info["width"] = hi - lo
        ok = ok and out["rows"] == q["rows"] and lo <= hi
        if out["empty"]:
            ok = ok and lo == hi == 0.0
        else:
            rho = max(abs(np.linalg.eigvals(
                np.array(out["matrix"], dtype=float))))
            est = math.log(max(rho, 1.0)) / -math.log(float(out["alpha"]))
            ok = ok and lo - DIM_TOL <= est <= hi + DIM_TOL
        mid = (lo + hi) / 2
        if q["t"] == "sum-neg-alpha":
            ok = ok and out["states"] == 6 and abs(mid - EX51_DIM) <= 1e-4
        elif q["t"] == "ex52":
            ok = ok and abs(mid - EX52_DIM) <= 1e-6
        return ok, info

    def _check_box(self, q, out):
        rows = out["rows"]
        lower = sum(r[1] for r in rows)
        upper = sum(r[2] for r in rows)
        info = {"box": (lower, upper)}
        ok = len(rows) == q["depth"] and len(q["rows"]) == q["depth"]
        for (n, lo, up), (_, rlo, rup) in zip(rows, q["rows"]):
            ok = ok and 0 <= lo <= up <= 2**n and max(lo, rlo) <= min(up, rup)
        check7 = q.get("check7")
        if check7 == "zeros":
            ok = ok and all(lo == up == 2**n for (n, lo, up) in rows)
        elif check7 == "slope":
            ok = ok and abs(out["slope"] - EX51_DIM) <= 0.08
        elif check7 == "empty":
            ok = ok and all(lo == up == 0 for (_, lo, up) in rows)
        return ok, info

    def _check_unique(self, q, out):
        v = out["verdict"]
        first = self.pair_verdict.pop(q["pair"], None)
        if first is None:
            self.pair_verdict[q["pair"]] = v
            ok = True
        else:
            ok = first == v
        return ok and v == q["ref"], {"undecided": v == "D"}

    def _check_selfsimilar(self, q, out):
        s = out["status"]
        return s == q["ref"], {"undecided": s == "D"}

    def _check_dset(self, q, out):
        return out["dset"] == q["ref"], {"undecided": out["cap_hit"]}

    def _check_delta(self, q, out):
        return out["delta"] == q["ref"], {}

    def _check_dense(self, q, out):
        ok = all(abs(d - t) <= Fraction(1, 100)
                 for d, t in zip(out["densities"], out["targets"]))
        return ok and len(out["densities"]) == len(out["targets"]), {}

    def _check_akl(self, q, out):
        rlo, rhi = (Fraction(x) for x in self.ref["spectrum"]["akl_ref"])
        lo, hi = out["lo"], out["hi"]
        return hi - lo <= Fraction(q["width"]) and lo <= rhi and rlo <= hi, {}

    def _check_tm(self, q, out):
        return out["word"] == lambda_reference(q["n"]), {}
