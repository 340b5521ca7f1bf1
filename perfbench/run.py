"""The cantorint benchmark: one closed-loop client running a seeded workload.

    python3 perfbench/run.py --workload intersect --seed 1 --seconds 20 \
        --trace 0

Run it from the repository root.  It imports the library from ``src/``.
The client sends each query only after the previous one returned, checks
every answer, and prints each end-to-end metric with its unit.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

A run is ``SEGMENTS`` seeded query lists of ``--seconds / SEGMENTS``
nominal seconds each.  Each segment runs in a process forked from the
benchmark before any query ran, so every segment meets the same library
state, and the ``setup_s`` samples are taken between the segments.

The latency metrics are in ``refloop``: each query's latency divided by the
time of a fixed pure-Python reference loop, sampled every 20 ms of the
segment by an interval timer.  A query's divisor is the mean of the samples
taken during it and within one period either side, and the samples taken
during it are subtracted from its latency.  On a shared host the same code
runs up to 1.8 times slower for stretches of seconds to minutes, and the
loop slows with it; the ratio tracks the program, where raw seconds track
the neighbours.  Raw seconds are printed too.

With ``--trace 1`` the run's queries run in one process, each twice, once
with spans and counters installed (see ``tracing.py``) and once without,
for the tracing overhead.  The run prints the per-layer metrics instead.
The spans are written under ``perfbench/out/``.

The measured process is pinned to one BLAS thread.  See README.md for the
workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEGMENTS = 6
SETUP_SAMPLES = 6        # per traced run; a timed run takes one per segment
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cantorint.cli; "
                "print(time.perf_counter() - t)")

REF_LOOP_N = 3000        # the reference loop, about 0.3 ms of pure Python:
REF_FRACTIONS = 40       # a generator sum and a 39-term Fraction sum
SAMPLE_PERIOD_S = 0.02   # the reference loop runs this often: 2% of a run
SETUP_TRIES = 3          # an import sample is the least of this many

# (name, unit, better) -- the order BENCHMARK.json lists them in
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_ref", "refloop", "lower"),
    ("op_p50_ref", "refloop", "lower"),
    ("op_tail_ref", "refloop", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
RAW = [("wall_s", "s", "lower"), ("op_p50_s", "s", "lower"),
       ("op_tail_s", "s", "lower")]    # printed, not in the JSON line
QUALITY = [
    ("quality.ops_failed_frac", "frac", "lower"),
    ("quality.undecided_frac", "frac", "lower"),
    ("quality.dim_width_p50", "1", "lower"),
    ("quality.dim_width_max", "1", "lower"),
    ("quality.box_certified_frac", "frac", "higher"),
]
PER_LAYER = [
    ("cli.import.s", "s", "lower"),
    ("dimension.perron.s", "s", "lower"),
    ("dimension.rowsum.s", "s", "lower"),
    ("dimension.charpoly.s", "s", "lower"),
    ("dimension.power.s", "s", "lower"),
    ("dimension.perron.width_max", "1", "lower"),
    ("dimension.graph.s", "s", "lower"),
    ("dimension.graph.rows", "count", "lower"),
    ("dimension.box.s", "s", "lower"),
    ("dimension.box.upper_cells", "count", "lower"),
    ("dimension.box.lower_cells", "count", "higher"),
    ("dimension.dset.s", "s", "lower"),
    ("dimension.selfsimilar.s", "s", "lower"),
    ("dimension.dense_targets.s", "s", "lower"),
    ("expansions.automaton.calls", "count", "lower"),
    ("expansions.automaton.s", "s", "lower"),
    ("expansions.automaton.states", "count", "lower"),
    ("expansions.automaton.edges", "count", "lower"),
    ("expansions.automaton.cap_hits", "count", "lower"),
    ("expansions.gamma.calls", "count", "lower"),
    ("expansions.gamma.s", "s", "lower"),
    ("expansions.gamma.in", "count", "higher"),
    ("expansions.gamma.unknown", "count", "lower"),
    ("expansions.uniqueness.calls", "count", "lower"),
    ("expansions.uniqueness.s", "s", "lower"),
    ("expansions.uniqueness.undecided", "count", "lower"),
    ("expansions.delta.caches", "count", "lower"),
    ("expansions.delta.digits", "count", "lower"),
    ("exactnum.sign.calls", "count", "lower"),
    ("exactnum.sign.s", "s", "lower"),
    ("exactnum.mul.calls", "count", "lower"),
    ("exactnum.mul.s", "s", "lower"),
    ("exactnum.div.calls", "count", "lower"),
    ("exactnum.div.s", "s", "lower"),
    ("exactnum.refine.calls", "count", "lower"),
    ("exactnum.refine.s", "s", "lower"),
    ("exactnum.compare.calls", "count", "lower"),
    ("exactnum.compare.s", "s", "lower"),
    ("thuemorse.akl.s", "s", "lower"),
    ("thuemorse.sft.s", "s", "lower"),
    ("thuemorse.words.s", "s", "lower"),
    ("thuemorse.series_sign.calls", "count", "lower"),
    ("words.zero_density.s", "s", "lower"),
    ("words.sep.s", "s", "lower"),
] + [(f"layer.{layer}.{stat}", unit, "lower")
     for layer in ("bench", "exactnum", "words", "thuemorse", "expansions",
                   "dimension")
     for stat, unit in (("self_s", "s"), ("share", "frac"))] + QUALITY + [
    ("trace.overhead_frac", "frac", "lower"),
]


def tail_index(n):
    """Index, in ascending order, of the highest-percentile latency that
    still has at least ten queries beyond it: the eleventh largest."""
    if n < 11:
        raise ValueError("the tail needs at least eleven queries")
    return n - 11


def tail_percentile(n):
    """The percentile that ``tail_index(n)`` stands for."""
    return 100.0 * (n - 10) / n


def environment():
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": read_loadavg(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def ref_loop():
    """Time of a fixed piece of pure-Python work: how fast this process runs
    now.  It mixes small-integer arithmetic with Fraction sums, as the
    library does; together they follow the library's slowdowns more closely
    than either alone."""
    t0 = perf_counter()
    sum(i * i % 7 for i in range(REF_LOOP_N))
    x = Fraction(0)
    for i in range(1, REF_FRACTIONS):
        x += Fraction(1, i)
    return perf_counter() - t0


def import_probe():
    """Time for a fresh interpreter to import cantorint.cli: the least of
    ``SETUP_TRIES`` interpreters started one after the other."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_TRIES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return min(times)


def measure_setup():
    """Median of ``SETUP_SAMPLES`` import samples, after one unmeasured
    import that leaves the bytecode cache warm."""
    import_probe()
    return statistics.median(import_probe() for _ in range(SETUP_SAMPLES))


def in_child(fn, *args):
    """``fn(*args)`` run in a forked child; its JSON-able result.  The
    parent waits for the child to end on every path."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with os.fdopen(w, "w") as fh:
                json.dump(fn(*args), fh)
            status = 0
        except Exception:
            import traceback
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(w)
    try:
        with os.fdopen(r) as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"forked process ended with status {status}")
    return json.loads(data)


def timed_query(runner, q):
    t0 = perf_counter()
    try:
        out = runner.run(q)
    except Exception as e:  # a failing query is counted, not fatal
        out = e
    return perf_counter() - t0, out


def checked(runner, q, out, failures):
    """The answer's quality figures; a wrong answer goes to ``failures``."""
    if isinstance(out, Exception):
        failures.append((q, f"raised {out!r}"))
        return {}
    try:
        ok, info = runner.check(q, out)
    except Exception as e:
        ok, info = False, {"error": repr(e)}
    if not ok:
        failures.append((q, f"wrong answer {info}"))
    return info


def run_segment(queries, ref):
    """The closed loop: one query at a time, each checked after it returns.
    An interval timer samples the reference loop throughout.  Failures are
    returned as (query id, reason)."""
    import resource
    import workloads
    runner = workloads.Runner(ref)
    spans, infos, failures = [], [], []
    starts, loops = [], []

    def sample(signum, frame):
        starts.append(perf_counter())
        loops.append(ref_loop())

    gc.collect()
    handler = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        for q in queries:
            t0 = perf_counter()
            latency, out = timed_query(runner, q)
            spans.append((t0, t0 + latency))
            infos.append(checked(runner, q, out, failures))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    latencies, refs = [], []
    for t0, t1 in spans:
        # samples that started during the query ran inside its timing
        i, j = bisect.bisect(starts, t0), bisect.bisect(starts, t1)
        latencies.append(t1 - t0 - sum(loops[i:j]))
        lo = bisect.bisect(starts, t0 - SAMPLE_PERIOD_S)
        hi = bisect.bisect(starts, t1 + SAMPLE_PERIOD_S)
        near = loops[lo:hi] or [loops[min(i, len(loops) - 1)]]
        refs.append(statistics.fmean(near))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"latencies": latencies, "refs": refs, "infos": infos,
            "failures": [(q["id"], why) for q, why in failures],
            "rss_mb": rss_kb / 1024}


def run_timed(segments, ref):
    """Each segment in a fresh fork, with an import sample before each.
    Returns the segments' results and the median import time."""
    import_probe()  # warms the bytecode cache
    setup, results = [], []
    for queries in segments:
        setup.append(import_probe())
        results.append(in_child(run_segment, queries, ref))
    return results, statistics.median(setup)


def run_traced(queries, ref, tracer):
    """Each query runs twice, untraced and traced, in alternating order and
    on separate runners, so both copies meet the same machine state.  The
    traced copies give the results; the untraced latencies only give the
    tracing overhead."""
    import workloads
    plain, traced = workloads.Runner(ref), workloads.Runner(ref)
    latencies, untraced, infos, failures = [], [], [], []
    gc.collect()
    for q in queries:
        for copy in ((0, 1) if q["id"] % 2 else (1, 0)):
            if copy:
                tracer.install()
                tracer.begin_query(q["id"])
                latency, out = timed_query(traced, q)
                tracer.end_query()
                tracer.uninstall()
                latencies.append(latency)
                infos.append(checked(traced, q, out, failures))
            else:
                untraced.append(timed_query(plain, q)[0])
    return latencies, untraced, infos, failures


def latency_figures(latencies, suffix):
    """Sum, median and tail of per-query latencies."""
    ordered = sorted(latencies)
    return {f"wall_{suffix}": sum(latencies),
            f"op_p50_{suffix}": statistics.median(ordered),
            f"op_tail_{suffix}": ordered[tail_index(len(ordered))]}


def quality(infos, failures):
    """Answer quality; None where the workload has no such query."""
    n = len(infos)
    widths = sorted(i["width"] for i in infos if "width" in i)
    box = [i["box"] for i in infos if "box" in i]
    upper = sum(u for _, u in box)
    return {
        "quality.ops_failed_frac": len(failures) / n,
        "quality.undecided_frac": sum(bool(i.get("undecided"))
                                      for i in infos) / n,
        "quality.dim_width_p50": statistics.median(widths) if widths else None,
        "quality.dim_width_max": widths[-1] if widths else None,
        "quality.box_certified_frac":
            sum(lo for lo, _ in box) / upper if upper else None,
    }


def read_loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def print_trace_report(spans, layers, wall):
    from tracing import group_time
    print("layer self time (share of the traced wall time):")
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {secs:10.4f} s  {secs / wall:7.2%}")
    names = {s[0] for s in spans if s[0] != "bench.query"}
    incl = {n: group_time(spans, {n}) for n in names}
    print("largest spans, with their children (share of the traced wall):")
    for name, secs in sorted(incl.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:<44} {secs:10.4f} s  {secs / wall:7.2%}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="nominal work per run, in seconds at the commit the "
                        "reference was recorded on, spread over the segments")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cantorint" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = environment()
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)
    segments = workloads.generate(args.workload, args.seed, args.seconds,
                                  ref, SEGMENTS)
    queries = [q for seg in segments for q in seg]
    nominal = sum(q.get("cost", 0.0) for q in queries)
    n = len(queries)

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_self_times
        tracer = Tracer()
        latencies, untraced, infos, failures = run_traced(queries, ref,
                                                               tracer)
        failures = [(q["id"], why) for q, why in failures]
        e2e = {}
    else:
        results, setup_s = run_timed(segments, ref)
        latencies = [x for r in results for x in r["latencies"]]
        refs = [x for r in results for x in r["refs"]]
        infos = [x for r in results for x in r["infos"]]
        failures = [f for r in results for f in r["failures"]]
        e2e = {"setup_s": setup_s,
               **latency_figures([t / r for t, r in zip(latencies, refs)],
                                 "ref"),
               "peak_rss_mb": max(r["rss_mb"] for r in results)}
        env["ref_loop_s_p10_p50_p90"] = statistics.quantiles(refs, n=10)[::4]
        env["segment_wall_s"] = [round(sum(r["latencies"]), 4)
                                 for r in results]
    qual = quality(infos, failures)
    env["loadavg_end"] = read_loadavg()
    raw = latency_figures(latencies, "s")

    print("env", json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} queries {n} "
          f"nominal {nominal:.2f} s; one closed-loop client")
    if tracer is None:
        print(f"{len(segments)} segments, each in a fresh fork")
    print(f"op_tail_ref and op_tail_s are p{tail_percentile(n):.2f} of {n} "
          "queries")
    for qid, why in failures[:10]:
        print(f"FAILED query {qid} {json.dumps(queries[qid])[:200]}: {why}",
              file=sys.stderr)
    print(f"attempted {n} failed {len(failures)}")
    for name, unit, _ in END_TO_END + RAW + QUALITY:
        value = e2e.get(name, raw.get(name, qual.get(name)))
        shown = "n/a" if value is None else f"{value} {unit}"
        print(f"  {name} = {shown}")

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    else:
        wall, base_wall = raw["wall_s"], sum(untraced)
        figures = tracer.metrics()
        figures["cli.import.s"] = measure_setup()
        layers = layer_self_times(tracer.spans)
        for layer, secs in layers.items():
            figures[f"layer.{layer}.self_s"] = secs
            figures[f"layer.{layer}.share"] = secs / wall
        figures.update({k: v or 0.0 for k, v in qual.items()})
        figures["trace.overhead_frac"] = wall / base_wall - 1
        print(f"traced wall_s {wall:.4f} s, untraced {base_wall:.4f} s")
        print_trace_report(tracer.spans, layers, wall)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "queries": n, "env": env,
                            "columns": ["name", "start", "end", "parent",
                                        "query", "exact_s"]})
        print(f"spans: {len(tracer.spans)} written to "
              f"{path.relative_to(HERE.parent)}")
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        for name, unit, _ in PER_LAYER:
            print(f"  {name} = {figures[name]} {unit}")
    print(json.dumps({"correct": not failures, "attempted": n,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
