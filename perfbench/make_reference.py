"""Record the query pools, nominal costs and reference answers in
``reference.json``.

Run from the repository root, on the commit whose answers are the reference:

    python3 perfbench/make_reference.py [workload ...]
    python3 perfbench/make_reference.py --recost intersect boxcount

With no argument it rebuilds every workload's section, which takes about a
quarter of an hour on one core.  ``--recost`` re-times the pool entries that
a list can hold, as the least of three timings, in a few minutes.  The
benchmark draws each run's queries from these pools, checks answers against
the recorded ones where no independent check exists, and sizes each run by
the recorded costs.
Re-recording changes every workload, so the baseline must be measured again
afterwards.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cantorint import dimension, expansions, thuemorse, words  # noqa: E402
from cantorint.exactnum import Comparison, compare, parse_real  # noqa: E402
from cantorint.expansions import BaseSystem, golden_threshold  # noqa: E402
from cantorint.words import TERNARY, EPSeq, FiniteWord  # noqa: E402

import workloads as wl  # noqa: E402

POOL_SEED = 1604
QUAD_BASES = {
    "sqrt2m1": "alg:-1,2,1@[2/5,1/2]",
    "golden": "alg:1,-3,1@[1/3,1/2]",
    "sqrt3m1h": "alg:-1,2,2@[1/3,1/2]",
}
CAPPED_BASES = ["rat:2/5", "rat:3/7", "rat:9/25", "rat:5/12", "rat:7/18"]
CAPPED_SHIFTS = ["1/7", "1/5", "2/9", "1/3", "3/11"]
# a capped query runs ``cantor intersect --state-cap 2000``: the default cap
# of 10 000 costs about 1.1 s a query, a quarter of a segment
CAPPED_STATE_CAP = 2000
COST_TRIES = 3          # --recost keeps the least of this many timings
BOX_BASES = ["rat:7/20", "rat:9/25", "rat:19/50", "rat:2/5", "rat:21/50",
             "rat:9/20", "rat:3/8", "rat:5/13", "rat:4/11", "rat:37/100",
             "rat:11/25", "rat:39/100"]
BOX_CANDIDATES = 200
BOX_COST_CAP = 0.6
SPECTRUM_REGIMES = {
    # alpha above alpha_KL: D_alpha is a finite list
    "finite": ["2/5", "21/50", "9/20", "11/25", "41/100", "43/100"],
    # within about 1e-3 of alpha_KL ~ 0.3943298, on both sides
    "near": ["39433/100000", "19717/50000", "3944/10000", "394329/1000000",
             "3943/10000", "197/500"],
    # between (3-sqrt 5)/2 and alpha_KL: D_alpha contains an interval
    "interval": ["39/100", "7/18", "5/13", "383/1000", "77/200", "31/80"],
    # at most (3-sqrt 5)/2: D_alpha is the full interval
    "full": ["7/20", "9/25", "19/50", "37/100", "3/8", "17/45"],
}
# a spectrum run visits every base once per cycle, alternating regimes, so
# the regimes must be the same size
assert len({len(v) for v in SPECTRUM_REGIMES.values()}) == 1
N_WORDS = 400
BATCH_WORDS = 16
BLOCK_LEVELS = 6
AKL_WIDTHS = ["1/100000000", "1/10000000000", "1/1000000000000"]
TM_LENGTHS = [1024, 4096, 16384, 65536]


def as_word(digits):
    return words.format_seq(FiniteWord(tuple(digits), TERNARY))


def timed(runner, q):
    t0 = time.perf_counter()
    out = runner.run(q)
    return out, round(time.perf_counter() - t0, 4)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def similar_cost(entries, tol=0.1):
    """The entries whose cost is within ``tol`` of the median cost."""
    mid = sorted(e["cost"] for e in entries)[len(entries) // 2]
    return [e for e in entries if abs(e["cost"] - mid) <= tol * mid]


def intersect_entry(runner, base, t, cap=None):
    q = {"kind": "intersect", "base": base, "t": t}
    if cap:
        q["cap"] = cap
    out, cost = timed(runner, q)
    q.update(cost=cost, states=out["states"], complete=out["complete"],
             rows=out.get("rows"))
    ok, _ = runner.check(q, out)
    if not ok:
        raise SystemExit(f"reference query fails its own check: {q}")
    return q


def build_intersect(runner, rng):
    pools = {"quad_empty": [], "quad_small": [], "quad_medium": [],
             "ex51": [], "capped": []}
    anchors = [intersect_entry(runner, wl.EX51_BASE, "sum-neg-alpha"),
               intersect_entry(runner, wl.EX52_BASE, "ex52")]
    log("intersect anchors done")
    for name, base in QUAD_BASES.items():
        for q in range(1, 15):
            for p in range(-int(1.2 * q), int(1.2 * q) + 1):
                if math.gcd(p, q) != 1:
                    continue
                e = intersect_entry(runner, base, str(Fraction(p, q)))
                rows = e["rows"] or 0
                cls = ("quad_empty" if rows == 0 else
                       "quad_small" if rows <= 24 else "quad_medium")
                pools[cls].append(e)
        log("intersect base", name, "done")
    seen = set()
    while len(pools["ex51"]) < 48:
        w = as_word(rng.choice((-1, 0, 1))
                       for _ in range(rng.randrange(2, 7)))
        if w not in seen:
            seen.add(w)
            pools["ex51"].append(intersect_entry(runner, wl.EX51_BASE,
                                                 "word:" + w))
    for base in CAPPED_BASES:
        for t in CAPPED_SHIFTS:
            e = intersect_entry(runner, base, t, CAPPED_STATE_CAP)
            if not e["complete"]:
                pools["capped"].append(e)
    # one ex51 shift whose enclosure stays about 0.2 wide goes in every list
    wide = similar_cost([e for e in pools["ex51"] if e["rows"] > 24])
    log("intersect pools:", {k: len(v) for k, v in pools.items()})
    return {"anchors": anchors, "wide": wide,
            # seeded draws per kind, in proportion; the capped kind is a
            # fixed slot of every list
            "recipe": [["quad_empty", 4], ["quad_small", 16],
                       ["quad_medium", 8], ["ex51", 2]],
            **pools}


def box_entry(runner, base, t, depth, check7=None):
    q = {"kind": "box", "base": base, "t": t, "depth": depth}
    if check7:
        q["check7"] = check7
    out, cost = timed(runner, q)
    q.update(cost=cost, rows=[list(r) for r in out["rows"]])
    ok, _ = runner.check(q, out)
    if not ok:
        raise SystemExit(f"reference query fails its own check: {q}")
    return q


def build_boxcount(runner, rng):
    outside = str(2 * Fraction(2, 5) / (1 - Fraction(2, 5)))
    # check 7's three calls, the first two at lower depths (check 7 runs
    # them at 14 and 12, which take about 36 s and 10 s), so that every
    # query stays well under a second
    anchors = [box_entry(runner, "rat:2/5", "0", 8, "zeros"),
               box_entry(runner, wl.EX51_BASE, "sum-neg-alpha", 8, "slope"),
               box_entry(runner, "rat:2/5", outside, 8, "empty")]
    log("box anchors:", [a["cost"] for a in anchors])
    seeded = []
    for i in range(BOX_CANDIDATES):
        base = BOX_BASES[i % len(BOX_BASES)]
        alpha = parse_real(base)
        digits = [0]
        while not any(digits):
            digits = [rng.choice((-1, 0, 1))
                      for _ in range(rng.randrange(3, 9))]
        t = sum(d * alpha ** (k + 1) for k, d in enumerate(digits))
        e = box_entry(runner, base, str(t), rng.choice((10, 12, 14)))
        e["word"] = as_word(digits)
        if e["cost"] <= BOX_COST_CAP:
            seeded.append(e)
    log("box seeded pool:", len(seeded))
    return {"anchors": anchors, "seeded": seeded}


def random_word(rng):
    pre = [rng.choice((-1, 0, 1)) for _ in range(rng.randrange(0, 4))]
    per = [rng.choice((-1, 0, 1)) for _ in range(rng.randrange(1, 7))]
    return words.format_seq(EPSeq(pre, per, TERNARY))


def mean_cost(runner, queries):
    return round(sum(timed(runner, q)[1] for q in queries) / len(queries), 5)


def build_spectrum(runner, rng):
    pool = [random_word(rng) for _ in range(N_WORDS)]
    golden = golden_threshold()
    spec = {"words": pool, "bases": {}, "regimes": [],
            "batch_words": BATCH_WORDS, "akl_widths": AKL_WIDTHS,
            "tm_lengths": TM_LENGTHS}
    lo, hi = thuemorse.alpha_kl_enclosure(Fraction(1, 10**15))
    spec["akl_ref"] = [str(lo), str(hi)]
    spec["tm_cost"] = {str(n): mean_cost(runner, [{"kind": "tm", "n": n}])
                       for n in TM_LENGTHS}
    for regime, bases in SPECTRUM_REGIMES.items():
        names = []
        for b in bases:
            name = "rat:" + b
            alpha = Fraction(b)
            dense = compare(alpha, golden) is not Comparison.GREATER
            base = {"dense": dense}
            spec["bases"][name] = base

            # the reference answers come from one shared BaseSystem
            sys_ = BaseSystem(alpha, TERNARY)

            def verdict(w, reflect=False):
                seq = wl.sequence(w)
                if reflect:
                    seq = words.reflect(seq)
                return wl.STATUS_LETTER[
                    expansions.is_unique_expansion(sys_, seq).status]

            base["verdicts"] = "".join(verdict(w) for w in pool)
            if any(verdict(w, True) != v
                   for w, v in zip(pool, base["verdicts"])):
                raise SystemExit(f"reflection symmetry fails at {name}")
            base["block"] = "".join(verdict(f"tm:{n}")
                                    for n in range(1, BLOCK_LEVELS + 1))
            base["selfsimilar"] = "".join(
                wl.SS_LETTER[dimension.self_similar_check(
                    sys_, wl.sequence(w)).status] for w in pool)
            base["dset"] = runner.run({"kind": "dset", "base": name})["dset"]
            base["delta"] = runner.run({"kind": "delta",
                                        "base": name})["delta"]
            sample = pool[:5]
            cost = {
                "unique": mean_cost(runner, [
                    {"kind": "unique", "base": name, "word": w}
                    for w in sample]),
                "selfsimilar": mean_cost(runner, [
                    {"kind": "selfsimilar", "base": name, "word": w}
                    for w in sample]),
                "dset": mean_cost(runner, [{"kind": "dset", "base": name}]),
                "delta": mean_cost(runner, [{"kind": "delta", "base": name}]),
                "dense": mean_cost(runner, [{"kind": "dense", "base": name}])
                if dense else 0.0,
            }
            batch = [{"kind": "unique", "base": name, "word": w,
                      "batch": 0, "reflect": r}
                     for w in pool[:BATCH_WORDS] for r in (False, True)]
            batch += [{"kind": "unique", "base": name, "word": "tm:3",
                       "batch": 0, "reflect": r} for r in (False, True)]
            batch[-1]["last"] = True
            cost["batch"] = round(sum(timed(runner, q)[1] for q in batch), 5)
            base["cost"] = cost
            names.append(name)
        spec["regimes"].append(names)
        log("spectrum regime", regime, "done")
    return spec


BUILDERS = {"spectrum": build_spectrum, "boxcount": build_boxcount,
            "intersect": build_intersect}


def recost(runner, ref, name):
    """Re-time the entries of a workload's pools that a list can hold, as
    the least of ``COST_TRIES`` timings, keeping the recorded answers.  One
    timing on a machine whose speed varies by stretches can be far off, and
    the stratified draw is only as even as these costs."""
    sec = ref[name]
    if name == "intersect":
        fixed = sec["anchors"] + sec["wide"] + sec["capped"]
        seeded = [e for kind, _ in sec["recipe"] for e in sec[kind]]
    elif name == "boxcount":
        fixed, seeded = sec["anchors"], sec["seeded"]
    else:
        raise SystemExit(f"--recost does not apply to {name}")
    cap = wl.DRAW_CAP_S[name]
    for e in fixed + [e for e in seeded if e["cost"] <= 1.5 * cap]:
        e["cost"] = min(timed(runner, e)[1] for _ in range(COST_TRIES))
    log(name, "recosted")


def main(args):
    """Rebuild the named workloads' sections (all by default), keeping the
    others as they are; with ``--recost``, re-time their pools instead."""
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    ref["note"] = ("pools, nominal costs (s) and answers; "
                   "written by perfbench/make_reference.py")
    runner = wl.Runner(ref)
    names = [a for a in args if a != "--recost"]
    for name in names or BUILDERS:
        if "--recost" in args:
            recost(runner, ref, name)
        else:
            ref[name] = BUILDERS[name](runner,
                                      random.Random(f"{POOL_SEED}:{name}"))
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
