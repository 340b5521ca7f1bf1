"""Tests of the benchmark itself: seeded generation, the self-time
arithmetic, the tail-percentile rule and the trace wrappers.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries(ref, workload):
    a = workloads.generate(workload, 7, 24, ref, 6)
    b = workloads.generate(workload, 7, 24, ref, 6)
    c = workloads.generate(workload, 8, 24, ref, 6)
    assert a == b
    assert a != c
    assert len(a) == 6
    ids = [q["id"] for seg in a for q in seg]
    assert ids == list(range(len(ids)))


@pytest.mark.parametrize("workload", ["intersect", "boxcount"])
def test_segments_fill_the_nominal_budget(ref, workload):
    fixed = {json.dumps(a, sort_keys=True) for a in ref[workload]["anchors"]}
    for seconds in (4, 6, 10):
        totals = []
        for seed in range(5):
            segs = workloads.generate(workload, seed, 2 * seconds, ref, 2)
            for qs in segs:
                totals.append(sum(q["cost"] for q in qs))
                for q in qs:
                    del q["id"]
                seeded = [q for q in qs
                          if json.dumps(q, sort_keys=True) not in fixed
                          and q["cost"] > workloads.DRAW_CAP_S[workload]]
                # only the fixed wide and capped intersect queries cost more
                assert len(seeded) <= (2 if workload == "intersect" else 0)
        assert 0.8 * seconds <= min(totals) <= max(totals) <= 1.2 * seconds
        assert max(totals) - min(totals) <= 0.06 * seconds


def test_spectrum_asks_of_every_base_twice(ref):
    spec = ref["spectrum"]
    for seed in range(5):
        segs = workloads.generate("spectrum", seed, 24, ref, 6)
        for qs in segs:
            bases = {q["base"] for q in qs if "base" in q}
            assert [len(bases & set(r)) for r in spec["regimes"]] == \
                [2] * len(spec["regimes"])
        rounds = [q["base"] for qs in segs for q in qs if q["kind"] == "delta"]
        assert sorted(rounds) == sorted(2 * list(spec["bases"]))


def test_boxcount_keeps_check7_calls(ref):
    qs = workloads.generate("boxcount", 3, 4, ref)[0]
    assert sorted(q.get("check7", "") for q in qs if "check7" in q) == \
        ["empty", "slope", "zeros"]


def test_self_time_on_synthetic_tree():
    spans = [
        ["bench.query", 0.0, 10.0, -1, 0, 0.0],
        ["dimension.a", 1.0, 4.0, 0, 0, 0.5],   # 0.5 s of exactnum calls
        ["expansions.b", 3.0, 6.0, 0, 0, 0.0],  # overlaps a on [3, 4]
        ["words.c", 2.0, 3.0, 1, 0, 0.0],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 1.0])
    layers = tracing.layer_self_times(spans)
    assert layers["bench"] == pytest.approx(5.0)
    assert layers["dimension"] == pytest.approx(1.5)
    assert layers["expansions"] == pytest.approx(3.0)
    assert layers["words"] == pytest.approx(1.0)
    assert layers["exactnum"] == pytest.approx(0.5)
    # a and b overlap on [3, 4], which real single-threaded spans never do
    assert sum(layers.values()) == pytest.approx(11.0)
    assert tracing.group_time(spans, {"dimension.a", "words.c"}) == 3.0


def test_in_child_returns_and_reaps():
    assert run.in_child(sorted, [3, 1, 2]) == [1, 2, 3]
    with pytest.raises(RuntimeError):
        run.in_child(int, "not a number")


def test_segment_latencies_in_refloop(ref):
    pools = ref["intersect"]
    queries = [dict(q, id=i) for i, q in enumerate(
        pools["anchors"] + pools["quad_medium"][:3])]
    out = run.run_segment(queries, ref)
    assert out["failures"] == []
    assert len(out["latencies"]) == len(out["refs"]) == len(queries)
    assert all(t > 0 for t in out["latencies"])
    # every query has reference-loop samples near it, of about 0.3 ms
    assert all(1e-5 < r < 0.1 for r in out["refs"])


def test_tail_percentile_rule():
    assert run.tail_index(11) == 0
    assert run.tail_index(100) == 89
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 99.0
    for n in (11, 25, 137, 4000):
        i = run.tail_index(n)
        assert n - 1 - i == 10                       # ten queries beyond
        assert run.tail_percentile(n) == pytest.approx(100 * (i + 1) / n)
    with pytest.raises(ValueError):
        run.tail_index(10)


def test_benchmark_json_lists_the_printed_metrics():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [name for name, _, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in run.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)


def test_tracer_records_and_uninstalls(ref):
    from cantorint import exactnum, expansions
    original = expansions.build_expansion_automaton
    mul = exactnum.QAlphaElement.__dict__["__mul__"]
    tracer = tracing.Tracer()
    runner = workloads.Runner(ref)
    q = dict(ref["intersect"]["anchors"][1], id=0)   # ex52
    tracer.install()
    try:
        assert expansions.build_expansion_automaton is not original
        tracer.begin_query(0)
        out = runner.run(q)
        tracer.end_query()
    finally:
        tracer.uninstall()
    assert runner.check(q, out)[0]
    assert expansions.build_expansion_automaton is original
    assert exactnum.QAlphaElement.__dict__["__mul__"] is mul
    m = tracer.metrics()
    assert m["expansions.automaton.calls"] == 1
    assert m["expansions.automaton.states"] == q["states"]
    assert m["dimension.graph.rows"] == q["rows"]
    assert m["exactnum.mul.calls"] > 0 and m["exactnum.sign.calls"] > 0
    assert m["dimension.perron.s"] > 0
    layers = tracing.layer_self_times(tracer.spans)
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(layers.values()) == pytest.approx(wall, rel=1e-9)


def test_wrapper_kept_past_uninstall_records_nothing():
    from cantorint import exactnum, expansions
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kept = expansions.golden_threshold   # as a library cache might
        compare = exactnum.compare
    finally:
        tracer.uninstall()
    assert kept is not expansions.golden_threshold
    assert kept().coeffs == expansions.golden_threshold().coeffs
    assert compare(1, 2) is exactnum.Comparison.LESS
    assert tracer.spans == [] and tracer.counters["compare"] == [0, 0.0]
