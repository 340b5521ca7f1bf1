"""Spans and counters for the traced run, installed from the benchmark.

``Tracer.install`` replaces every public function of the layer modules
(``words``, ``thuemorse``, ``expansions``, ``dimension``) in each module
namespace that binds it with a wrapper that records a span: name, start,
end, parent span and query id.  A few public methods get spans too.  The hot
Q(alpha) and algebraic-number methods of ``exactnum`` are counted instead:
calls and total time per method, since one span per call would cost more
than the call.  Outside ``begin_query``/``end_query`` the wrappers record
nothing.  That matters after ``uninstall`` too: the library keeps some
functions it was handed, such as the alpha_KL digit source built on
``alpha_kl_enclosure``, so a wrapper can outlive its installation.

A span is a list ``[name, start, end, parent, query, exact_s]``; ``exact_s``
is the time of the outermost exactnum calls made directly under the span,
which its self time excludes and the exactnum layer is credited with.
"""

from __future__ import annotations

import functools
import inspect
import json
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = ("bench", "exactnum", "words", "thuemorse", "expansions",
          "dimension")
SPAN_MODULES = ("words", "thuemorse", "expansions", "dimension")
# per-digit generators: a span per call would be a span per digit
SKIP = {"thuemorse.tau", "thuemorse.lam"}
METHODS = [("expansions", "BaseSystem", "__init__"),
           ("expansions", "BaseSystem", "delta_cache"),
           ("dimension", "CountMatrix", "perron"),
           ("dimension", "CountMatrix", "rowsum_enclosure"),
           ("dimension", "CountMatrix", "power_estimate")]
COUNTED = [("sign", "QAlphaElement", "sign"),
           ("mul", "QAlphaElement", "__mul__"),
           ("mul", "QAlphaElement", "__rmul__"),
           ("div", "QAlphaElement", "__truediv__"),
           ("refine", "AlgebraicReal", "refine")]

# per-layer metric -> spans whose outermost time it sums
SPAN_TIMES = {
    "dimension.perron.s": ["dimension.CountMatrix.perron"],
    "dimension.rowsum.s": ["dimension.CountMatrix.rowsum_enclosure"],
    "dimension.charpoly.s": ["dimension.char_poly"],
    "dimension.power.s": ["dimension.CountMatrix.power_estimate"],
    "dimension.graph.s": ["dimension.build_intersection_graph"],
    "dimension.box.s": ["dimension.box_count_oracle"],
    "dimension.dset.s": ["dimension.d_set"],
    "dimension.selfsimilar.s": ["dimension.self_similar_check"],
    "dimension.dense_targets.s": ["dimension.dense_selfsimilar_targets"],
    "expansions.automaton.s": ["expansions.build_expansion_automaton"],
    "expansions.gamma.s": ["expansions.gamma_membership"],
    "expansions.uniqueness.s": ["expansions.is_unique_expansion"],
    "thuemorse.akl.s": ["thuemorse.alpha_kl_enclosure"],
    "thuemorse.sft.s": ["thuemorse.find_smallest_sft_n"],
    "thuemorse.words.s": ["thuemorse.w_word", "thuemorse.zeta",
                          "thuemorse.eta", "thuemorse.tau_prefix",
                          "thuemorse.lambda_prefix"],
    "words.zero_density.s": ["words.zero_density"],
    "words.sep.s": ["words.strongly_eventually_periodic"],
}
SPAN_CALLS = {
    "expansions.automaton.calls": "expansions.build_expansion_automaton",
    "expansions.gamma.calls": "expansions.gamma_membership",
    "expansions.uniqueness.calls": "expansions.is_unique_expansion",
    "thuemorse.series_sign.calls": "thuemorse.series_sign_at",
}
OBSERVED = ("expansions.automaton.states", "expansions.automaton.edges",
            "expansions.automaton.cap_hits", "expansions.gamma.in",
            "expansions.gamma.unknown", "expansions.uniqueness.undecided",
            "expansions.delta.caches", "expansions.delta.digits",
            "dimension.graph.rows", "dimension.box.upper_cells",
            "dimension.box.lower_cells", "dimension.perron.width_max")


def _observe_automaton(tracer, auto):
    st = tracer.stats
    st["expansions.automaton.states"] += len(auto.states)
    st["expansions.automaton.edges"] += len(auto.edges)
    st["expansions.automaton.cap_hits"] += not auto.complete


def _observe_gamma(tracer, res):
    tracer.stats["expansions.gamma.in"] += res.status.name == "IN"
    tracer.stats["expansions.gamma.unknown"] += res.status.name == "UNKNOWN"


def _observe_uniqueness(tracer, res):
    tracer.stats["expansions.uniqueness.undecided"] += \
        res.status.name == "UNDECIDED"


def _observe_graph(tracer, g):
    tracer.stats["dimension.graph.rows"] += g.count_matrix.n


def _observe_box(tracer, rep):
    tracer.stats["dimension.box.lower_cells"] += sum(r[1] for r in rep.rows)
    tracer.stats["dimension.box.upper_cells"] += sum(r[2] for r in rep.rows)


def _observe_perron_dimension(tracer, dv):
    st = tracer.stats
    st["dimension.perron.width_max"] = max(st["dimension.perron.width_max"],
                                           dv.hi - dv.lo)


def _observe_delta_cache(tracer, cache):
    tracer.delta_touched.append(cache)


OBSERVERS = {
    "expansions.build_expansion_automaton": _observe_automaton,
    "expansions.gamma_membership": _observe_gamma,
    "expansions.is_unique_expansion": _observe_uniqueness,
    "dimension.build_intersection_graph": _observe_graph,
    "dimension.box_count_oracle": _observe_box,
    "dimension.perron_dimension": _observe_perron_dimension,
    "expansions.BaseSystem.delta_cache": _observe_delta_cache,
}


class Tracer:
    """Records spans and exactnum counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.exact_depth = 0
        self.exact_frames = []   # span time inside each open outer call
        self.counters = {}       # exactnum method -> [calls, seconds]
        self.stats = defaultdict(float)
        self.query = None
        self.delta_touched = []
        self.delta_seen = weakref.WeakKeyDictionary()
        self._patches = []

    # -- recording ------------------------------------------------------------

    def begin_query(self, query_id):
        self.query = query_id
        self.spans.append(["bench.query", 0.0, 0.0, -1, query_id, 0.0])
        self.stack.append(len(self.spans) - 1)
        self.spans[-1][1] = perf_counter()

    def end_query(self):
        self.spans[self.stack.pop()][2] = perf_counter()
        for cache in self.delta_touched:
            seen = self.delta_seen.get(cache)
            if seen is None:
                self.stats["expansions.delta.caches"] += 1
                seen = 0
            self.stats["expansions.delta.digits"] += len(cache.digits) - seen
            self.delta_seen[cache] = len(cache.digits)
        self.delta_touched.clear()

    def _span(self, name, fn):
        tracer, spans, stack = self, self.spans, self.stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # no open query
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], tracer.query, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            depth, tracer.exact_depth = tracer.exact_depth, 0
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                tracer.exact_depth = depth
                if depth:
                    tracer.exact_frames[-1] += rec[2] - rec[1]
            if observe is not None:
                observe(tracer, result)
            return result
        return wrapper

    def _count(self, key, fn):
        tracer, spans, stack = self, self.spans, self.stack
        counter = self.counters.setdefault(key, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # no open query
                return fn(*args, **kwargs)
            outer = tracer.exact_depth == 0
            if outer:
                tracer.exact_frames.append(0.0)
            tracer.exact_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.exact_depth -= 1
                counter[0] += 1
                counter[1] += dt
                if outer:
                    spans[stack[-1]][5] += dt - tracer.exact_frames.pop()
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self):
        """Put the wrappers in place.  The first call finds every binding to
        patch; later calls reuse that plan, so switching tracing on and off
        around each query is cheap."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self):
        import cantorint
        from cantorint import (acceptance, cli, dimension, exactnum,
                               expansions, thuemorse, words)
        namespaces = [cantorint, exactnum, words, thuemorse, expansions,
                      dimension, acceptance, cli]
        mods = {m.__name__.rsplit(".", 1)[1]: m for m in namespaces[1:]}
        plan = []

        def rebind(fn, wrapper):
            for ns in namespaces:
                plan.extend((ns, attr, fn, wrapper)
                            for attr, value in vars(ns).items()
                            if value is fn)

        for short in SPAN_MODULES:
            mod = mods[short]
            for name, fn in vars(mod).items():
                span = f"{short}.{name}"
                if (name.startswith("_") or span in SKIP
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                rebind(fn, self._span(span, fn))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            plan.append((cls, meth, fn,
                         self._span(f"{short}.{cls_name}.{meth}", fn)))
        for key, cls_name, meth in COUNTED:
            cls = getattr(exactnum, cls_name)
            fn = cls.__dict__[meth]
            plan.append((cls, meth, fn, self._count(key, fn)))
        rebind(exactnum.compare, self._count("compare", exactnum.compare))
        return plan

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer figures from the recorded spans and counters."""
        out = {}
        for metric, names in SPAN_TIMES.items():
            out[metric] = group_time(self.spans, set(names))
        calls = defaultdict(int)
        for s in self.spans:
            calls[s[0]] += 1
        for metric, name in SPAN_CALLS.items():
            out[metric] = calls[name]
        for key in ("sign", "mul", "div", "refine", "compare"):
            n, secs = self.counters.get(key, (0, 0.0))
            out[f"exactnum.{key}.calls"] = n
            out[f"exactnum.{key}.s"] = secs
        for key in OBSERVED:
            out[key] = self.stats[key]
        return out

    def write(self, path, meta):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for name, start, end, parent, query, exact in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent,
                                     query, exact]) + "\n")


def union_length(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part its child spans cover and minus
    the exactnum time credited to it."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [end - start - union_length(children[i], start, end) - exact
            for i, (_, start, end, _, _, exact) in enumerate(spans)]


def layer_self_times(spans):
    """Self time per layer; a span's layer is its name up to the first dot."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        layer = s[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    out["exactnum"] += sum(s[5] for s in spans)
    return out


def group_time(spans, names):
    """Total time of the spans named in ``names`` that have no ancestor
    named in ``names``, so nested calls are not counted twice."""
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total
