"""Command-line entry point: the ``cantor`` tool.

Every operation of the library is reachable through a subcommand, with
deterministic text output, an optional ``--json`` envelope
``{command, inputs, result, status}``, and CSV export where tabular data is
produced.  Handlers return only their result; this module builds
``inputs`` once from the parsed options and prints every output.  Numbers are printed in their exact text form alongside a decimal
rendering; decimals never feed back into any computation.

Start-up loads only the layers that every subcommand reaches: ``exactnum``,
``words``, ``graph`` and ``thuemorse``.  A handler that needs
``expansions`` or ``dimension`` imports it in its own body, so ``tm`` and
``alpha-kl`` compile neither, and ``unique``, ``delta`` and ``expand`` no
``dimension``.

Exit codes: 0 success, 1 domain/input errors (every ``CantorintError``),
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import thuemorse, words
from .exactnum import (CantorintError, decimal_string, format_real,
                       parse_fraction, parse_real)
from .words import TERNARY, Alphabet, EPSeq, FiniteWord, format_seq, parse_seq


class CliError(Exception):
    pass


# size limits, checked before anything is allocated
TM_N_MAX = 20  # w, zeta and eta have 2^n digits: 1 MB of text at n = 20
LENGTH_MAX = 5000  # expand and delta digits: under 2 s on a cubic base
AKL_WIDTH_MIN = Fraction(1, 10**40)  # alpha-kl bisection: 2 ms at 1e-40
STATE_CAP_MAX = 100_000  # intersect states: 0.6 s and 60 MB at 2/5, t=1/3;
# the cap admits sqrt2-1's 6824 (7.3 s, 1.09 GB), 17104 (Karp 19 s, 2.3 GB)
# --alphabet size: on an algebraic base expand and delta filter every digit
# at each step; expand --length 5000 on a cubic base takes 0.26 s at 0:64
# (CLI, best of 3, 2-core Xeon); a rational base takes one floor division
ALPHABET_MAX = 64


def _check_bound(flag: str, value: int, bound: int, name: str):
    if value > bound:
        raise CliError(f"{flag} {value} is over the bound {name} = {bound}")


def _depth_cap(default: int) -> int:
    env = os.environ.get("CANTOR_DEPTH_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"CANTOR_DEPTH_CAP must be an integer, got {env!r}")
    return default


def _parse_t(text: str, sys_):
    """Translation values: a number format, or closed-form sugar."""
    # the worked examples live with the checks, which are not loaded on import
    if text == "sum-neg-alpha":
        from .acceptance import ex51_translation
        return ex51_translation(sys_)
    if text == "ex52":
        from .acceptance import ex52_translation
        return ex52_translation(sys_)
    value = parse_real(text)
    if isinstance(value, Fraction):
        return sys_.embed(value)
    raise CliError("translation must be rational or one of the named forms "
                   "(sum-neg-alpha, ex52)")


def _dim_payload(dv) -> dict:
    return {"exact": dv.exact_str(), "decimal": repr(dv.decimal),
            "enclosure": [repr(dv.lo), repr(dv.hi)], "empty": dv.empty}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its result dictionary
# ---------------------------------------------------------------------------

def _cmd_expand(args):
    from . import expansions
    _check_bound("--length", args.length, LENGTH_MAX, "LENGTH_MAX")
    alpha = parse_real(args.alpha)
    alphabet = _alphabet_from_arg(args.alphabet)
    sys_ = expansions.BaseSystem(alpha, alphabet)
    x = parse_real(args.x)
    fn = expansions.greedy_expansion if args.algorithm == "greedy" \
        else expansions.quasi_greedy_expansion
    return {"digits": format_seq(fn(sys_, x, args.length))}


def _cmd_delta(args):
    from . import expansions
    _check_bound("--length", args.length, LENGTH_MAX, "LENGTH_MAX")
    alpha = parse_real(args.alpha)
    alphabet = _alphabet_from_arg(args.alphabet)
    sys_ = expansions.BaseSystem(alpha, alphabet)
    word = expansions.delta(sys_, args.length)
    ep = expansions.try_ep_form(sys_, depth_cap=_depth_cap(2048))
    return {"prefix": format_seq(word),
            "eventually_periodic": format_seq(ep) if ep else None}


def _cmd_unique(args):
    from . import expansions
    alpha = parse_real(args.alpha)
    sys_ = expansions.BaseSystem(alpha, TERNARY)
    seq = parse_seq(args.t_seq)
    if isinstance(seq, FiniteWord):
        raise CliError("uniqueness needs an infinite sequence; add a "
                       "parenthesised period")
    res = expansions.is_unique_expansion(sys_, seq,
                                         depth_cap=_depth_cap(4096))
    return {"status": res.status.value,
            "violation": list(res.violation) if res.violation else None}


# each Thue-Morse word with its bound on --n: tau and lambda have n
# digits, the others 2^n
_TM_WORDS = {"tau": (thuemorse.tau_prefix, 2**TM_N_MAX, "2**TM_N_MAX"),
             "lambda": (thuemorse.lambda_prefix, 2**TM_N_MAX, "2**TM_N_MAX"),
             "w": (thuemorse.w_word, TM_N_MAX, "TM_N_MAX"),
             "zeta": (thuemorse.zeta, TM_N_MAX, "TM_N_MAX"),
             "eta": (thuemorse.eta, TM_N_MAX, "TM_N_MAX")}


def _cmd_tm(args):
    build, bound, name = _TM_WORDS[args.what]
    _check_bound("--n", args.n, bound, name)
    word = build(args.n)
    return {"word": format_seq(word), "length": len(word)}


def _cmd_alpha_kl(args):
    width = parse_fraction(args.width)
    if 0 < width < AKL_WIDTH_MIN:
        raise CliError(f"--width {args.width} is under the bound "
                       f"AKL_WIDTH_MIN = {float(AKL_WIDTH_MIN):g}")
    lo, hi = thuemorse.alpha_kl_enclosure(width)
    return {"lo": format_real(lo), "hi": format_real(hi),
            "decimal": repr(float((lo + hi) / 2))}


def _cmd_dset(args):
    from . import dimension
    alpha = parse_real(args.alpha)
    ds = dimension.d_set(alpha, depth_cap=_depth_cap(4096))
    return {
        "kind": ds.kind.value,
        "proper_subset": ds.proper_subset,
        "full_dimension": _dim_payload(ds.full),
        "values": [_dim_payload(v) for v in ds.values],
        "nstar": ds.nstar,
        "sft_n": ds.sft_n,
        "sft_interval": [_dim_payload(v) for v in ds.sft_interval]
        if ds.sft_interval else None,
        "excluded_frequency_band": [str(ds.excluded_band[0]),
                                    str(ds.excluded_band[1])]
        if ds.excluded_band else None,
        "note": ds.note,
    }


def _cmd_dim(args):
    from . import dimension, expansions
    alpha = parse_real(args.alpha)
    sys_ = expansions.BaseSystem(alpha, TERNARY)
    seq = parse_seq(args.t_seq)
    if isinstance(seq, FiniteWord):
        raise CliError("the frequency route needs an infinite sequence")
    uniq = expansions.is_unique_expansion(sys_, seq,
                                          depth_cap=_depth_cap(4096))
    if uniq.status is expansions.UniqStatus.NOT_UNIQUE:
        raise CliError("sequence is not a unique expansion; the frequency "
                       "formula does not apply (use `cantor intersect`)")
    freq = words.zero_density(seq)
    dv = dimension.dim_from_frequency(sys_, freq)
    return {"zero_density": str(freq.lower), "uniqueness": uniq.status.value,
            "dimension": _dim_payload(dv)}


def _cmd_intersect(args):
    from . import dimension, expansions
    _check_bound("--state-cap", args.state_cap, STATE_CAP_MAX, "STATE_CAP_MAX")
    alpha = parse_real(args.alpha)
    sys_ = expansions.BaseSystem(alpha, TERNARY)
    t = _parse_t(args.t, sys_)
    auto = expansions.build_expansion_automaton(
        sys_, t, state_cap=args.state_cap)
    result = {"states": len(auto.states), "complete": auto.complete, "t": {
        "exact": ",".join(map(str, t.coeffs)), "decimal": decimal_string(t)}}
    if args.export:
        result["exported"] = args.export  # written once the answer stands
    if auto.complete:
        g = dimension.build_intersection_graph(auto)
        dv = dimension.perron_dimension(g, alpha)
        result["count_matrix"] = [list(r) for r in g.count_matrix.entries]
        result["lambda"] = (  # no Perron data for an empty intersection
            {"exact": dv.perron.exact_str(),
             "decimal": repr(float(sum(dv.perron.enclosure()) / 2))}
            if dv.perron else None)
        result["dimension"] = _dim_payload(dv)
        bound = dimension.freq_upper_bound_over_expansions(auto)
        result["cycle_zero_frequency_bound"] = str(bound)
    else:
        result["reason"] = (f"state cap {args.state_cap} hit before the "
                            "automaton closed; no dimension computed")
        if sys_.ctx.c > 1:
            result["reason"] += (
                "; alpha's polynomial has the constant term "
                f"{sys_.ctx.poly[0]}, so 1/alpha is not an algebraic integer, "
                "not a Pisot number, and no finite closure is guaranteed")
    if args.export:
        with open(args.export, "w") as fh:
            json.dump(auto.to_json_dict(), fh, indent=1, sort_keys=False)
    return result


def _cmd_boxcount(args):
    from . import dimension, expansions
    # CANTOR_DEPTH_CAP can lower the bound, not raise it
    bound = dimension.BOX_DEPTH_MAX
    _check_bound("--depth", args.depth, bound, "BOX_DEPTH_MAX")
    _check_bound("--depth", args.depth, _depth_cap(bound), "CANTOR_DEPTH_CAP")
    alpha = parse_real(args.alpha)
    sys_ = expansions.BaseSystem(alpha, TERNARY)
    t = _parse_t(args.t, sys_)
    rep = dimension.box_count_oracle(alpha, t, args.depth)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n,lower,upper\n")
            for (n, lo, up) in rep.rows:
                fh.write(f"{n},{lo},{up}\n")
    return {"rows": [list(r) for r in rep.rows],
            "slope": None if rep.slope is None else repr(rep.slope),
            "csv": args.csv or None}


def _cmd_selfsimilar(args):
    from . import dimension, expansions
    alpha = parse_real(args.alpha)
    sys_ = expansions.BaseSystem(alpha, TERNARY)
    seq = parse_seq(args.t_seq)
    if not isinstance(seq, EPSeq):
        raise CliError("self-similarity test needs an eventually periodic "
                       "sequence")
    res = dimension.self_similar_check(sys_, seq)
    payload = {"status": res.status.value}
    if res.witness:
        payload["witness"] = {"I": format_seq(res.witness[0]),
                              "J": format_seq(res.witness[1])}
    return payload


def _cmd_dense_targets(args):
    from . import dimension, expansions
    alpha = parse_real(args.alpha)
    targets = [parse_fraction(x) for x in args.targets.split(",")]
    tol = parse_fraction(args.tol)
    sys_ = expansions.BaseSystem(alpha, TERNARY)  # one for words and -ln alpha
    seqs = dimension.dense_words(sys_, targets, tol)
    rows = []
    for tg, sq in zip(targets, seqs):
        dens = words.zero_density(sq).value
        dv = dimension.dim_from_frequency(sys_, dens)
        rows.append({"target": str(tg), "sequence": format_seq(sq),
                     "zero_density": str(dens),
                     "dimension": _dim_payload(dv)})
    return {"rows": rows}


def _cmd_liouville(args):
    from . import dimension
    pq = parse_fraction(args.pq)
    lw = dimension.liouville_witness(pq, args.k,
                                     free_digit_rule=args.free_rule)
    approx = [{"p": a.numerator, "q": a.denominator,
               "decimal": repr(float(a))} for a in lw.approximants]
    lo, hi = lw.x_enclosure
    return {"nk": lw.nk[:args.k + 1],
            "approximants": approx,
            "x_enclosure": [format_real(lo), format_real(hi)],
            "x_decimal": repr(float((lo + hi) / 2))}


def _cmd_verify_paper(args):
    from . import acceptance
    checks = [{"number": r.number, "name": r.name, "passed": r.passed,
               "detail": r.detail} for r in acceptance.run_all()]
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


def _alphabet_from_arg(text: str) -> Alphabet:
    if text == "ternary":
        return TERNARY
    try:
        low, size = (int(x) for x in text.split(":"))
    except ValueError:
        raise CliError(f"--alphabet must be 'ternary' or low:size, e.g. 0:3, "
                       f"got {text!r}") from None
    _check_bound("--alphabet size", size, ALPHABET_MAX, "ALPHABET_MAX")
    return Alphabet(low, size)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cantor",
        description="expansions in non-integer bases and dimensions of "
                    "Cantor set self-intersections")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON envelope instead of text")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, configure, help_):
        sp = sub.add_parser(name, help=help_)
        configure(sp)
        sp.set_defaults(handler=handler)

    def alpha_arg(sp):
        sp.add_argument("--alpha", required=True,
                        help="base: rat:p/q | alg:c0,..,ck@[lo,hi] | akl")

    add("expand", _cmd_expand, lambda sp: (
        alpha_arg(sp),
        sp.add_argument("--x", required=True, help="value to expand"),
        sp.add_argument("--length", type=int, default=32),
        sp.add_argument("--algorithm", choices=("greedy", "quasi-greedy"),
                        default="greedy"),
        sp.add_argument("--alphabet", default="ternary",
                        help="'ternary' or low:size, e.g. 0:3"),
    ), "greedy / quasi-greedy digit expansions")
    add("delta", _cmd_delta, lambda sp: (
        alpha_arg(sp),
        sp.add_argument("--length", type=int, default=32),
        sp.add_argument("--alphabet", default="ternary"),
    ), "quasi-greedy expansion of 1")
    add("unique", _cmd_unique, lambda sp: (
        alpha_arg(sp),
        sp.add_argument("--t-seq", required=True,
                        help="sequence, e.g. '(+-0)'"),
    ), "lexicographic uniqueness test")
    add("tm", _cmd_tm, lambda sp: (
        sp.add_argument("--what", required=True,
                        choices=tuple(_TM_WORDS)),
        sp.add_argument("--n", type=int, required=True),
    ), "Thue-Morse words")
    add("alpha-kl", _cmd_alpha_kl, lambda sp: (
        sp.add_argument("--width", default="1e-10"),
    ), "enclosure of the critical base alpha_KL")
    add("dset", _cmd_dset, lambda sp: (alpha_arg(sp),),
        "describe the dimension spectrum D_alpha")
    add("dim", _cmd_dim, lambda sp: (
        alpha_arg(sp),
        sp.add_argument("--t-seq", required=True),
    ), "dimension via the zero-frequency formula")
    add("intersect", _cmd_intersect, lambda sp: (
        alpha_arg(sp),
        sp.add_argument("--t", required=True,
                        help="rat:p/q | sum-neg-alpha | ex52"),
        sp.add_argument("--export", help="write the automaton as JSON"),
        sp.add_argument("--state-cap", type=int, default=10_000),
    ), "automaton + Perron dimension of the intersection")
    add("boxcount", _cmd_boxcount, lambda sp: (
        alpha_arg(sp),
        sp.add_argument("--t", required=True),
        sp.add_argument("--depth", type=int, required=True),
        sp.add_argument("--csv", help="write n,lower,upper rows"),
    ), "box-counting oracle")
    add("selfsimilar", _cmd_selfsimilar, lambda sp: (
        alpha_arg(sp),
        sp.add_argument("--t-seq", required=True),
    ), "is the intersection self-similar?")
    add("dense-targets", _cmd_dense_targets, lambda sp: (
        alpha_arg(sp),
        sp.add_argument("--targets", default="0,0.1,0.2,0.3,0.4,0.5,"
                                             "0.6,0.7,0.8,0.9,1"),
        sp.add_argument("--tol", default="0.01"),
    ), "self-similar words hitting target zero densities")
    add("liouville", _cmd_liouville, lambda sp: (
        sp.add_argument("--pq", required=True, help="rational base p/q"),
        sp.add_argument("--k", type=int, default=2),
        sp.add_argument("--free-rule", type=int, choices=(0, 1), default=0),
    ), "Liouville-number intersection construction")
    add("verify-paper", _cmd_verify_paper, lambda sp: None,
        "run the full acceptance table")
    return p


def _render_text(result, indent=0):
    """A line per scalar or flat list; a nested value goes one level in
    under its key, and stays at its list's level."""
    pad = "  " * indent
    items = result.items() if isinstance(result, dict) \
        else ((None, v) for v in result)
    for k, v in items:
        head = f"{pad}- " if k is None else f"{pad}{k}: "
        if not isinstance(v, (dict, list)):
            print(f"{head}{v}")
        elif isinstance(v, list) and not any(
                isinstance(x, (dict, list)) for x in v):
            print(f"{head}[{', '.join(str(x) for x in v)}]")
        elif k is not None:
            print(f"{pad}{k}:")
            _render_text(v, indent + 1)
        else:
            _render_text(v, indent)
            if indent == 1:
                print()


_DOMAIN_ERRORS = (CliError, CantorintError, ValueError, ZeroDivisionError,
                  OSError)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader stopped early (`cantor ... | head`): send what is left
        # to devnull, so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


# parsed options that shape no answer: the dispatch, and the output paths,
# which the result reports as ``exported`` and ``csv``
_NOT_INPUTS = ("command", "json", "handler", "export", "csv")


def _run(args) -> int:
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
    try:
        result, status = args.handler(args), "ok"
    except BrokenPipeError:
        raise  # an OSError, but not an input problem: see main
    except _DOMAIN_ERRORS as e:
        result, status = None, f"error: {e}"
    if args.json:
        print(json.dumps({"command": args.command, "inputs": inputs,
                          "result": result, "status": status}))
    elif result is None:
        print(status, file=sys.stderr)
    elif args.command == "verify-paper":
        for c in result["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            print(f"[{mark}] {c['number']:>3}  {c['name']}{detail}")
        print(f"\nall checks passed: {result['all_passed']}")
    else:
        _render_text(result)
    sys.stdout.flush()
    # an error, or a verify-paper check that fails, exits 1
    return 1 if result is None or result.get("all_passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
