"""A seeded fuzz of the ``cantor`` CLI, run in process through ``main()``.

Each draw takes a subcommand and its arguments from the parser's grammar:
bases of every kind the parser reads, translations, sequences, and lengths,
depths and caps on both sides of each bound.  Every draw must exit 0 or 1,
print one JSON envelope, have ``status == "ok"`` exactly when it exits 0,
and raise nothing outside the CLI's domain errors.  A failure names its
argv.

``verify-paper`` is left out: it exits 1 with ``status`` ``ok`` by design,
as check 10 fails on the paper's stated base 2/5.  ``boxcount`` draws every
base, those of 1/2 or more too: there Gamma is all of [0, u], and each
witness is decided without a search.  Bases just below 1/2, such as
499/1000, are not drawn: there each Gamma search runs its one path to the
depth cap, and a depth-10 walk takes seconds.
"""

import json
import random

import pytest

from cantorint.cli import main

RATIONAL = ["rat:2/5", "rat:7/20", "rat:9/25", "rat:19/50", "rat:39/100",
            "rat:1/3", "rat:21/50"]
ALGEBRAIC = ["alg:-1,1,2,2@[2/5,1/2]", "alg:-1,2,1@[2/5,1/2]",
             "alg:1,-3,1@[1/3,1/2]", "alg:-1,2,2@[1/3,1/2]",
             "alg:-2,4,1@[2/5,1/2]"]
NEGATIVE = ["rat:-1/3", "alg:-1,2,1@[-3,-2]"]
HIGH = ["rat:1/2", "rat:3/5", "alg:-1,1,1@[1/2,1]", "alg:1,-5,5@[1/2,1]"]
NON_ISOLATING = ["alg:-1,2,1@[-3,1]", "alg:-1,2,1@[1/2,1]",
                 "alg:1,-3,1@[0,3]"]
# (x^2 + 2x - 1)(x - 3) and (x - 1)(x - 2) are reducible; x^4 - 10x^2 + 1
# is irreducible but splits modulo every prime
UNPROVEN = ["alg:3,-7,-1,1@[2/5,1/2]", "alg:2,-3,1@[1/2,3/2]",
            "alg:1,0,-10,0,1@[3/10,1/3]"]
BASES = RATIONAL + ALGEBRAIC + NEGATIVE + HIGH + NON_ISOLATING + UNPROVEN \
    + ["akl", "rat:1/10", "rat:2", "2/5", "x"]
SHIFTS = ["rat:0", "rat:1/3", "rat:1/7", "rat:-2/9", "rat:5", "rat:1/16",
          "sum-neg-alpha", "ex52", "akl", "alg:-1,2,1@[2/5,1/2]", "y"]
SEQS = ["(+-0)", "(-+)", "+0(0)", "(0)", "(+)", "0(-)", "(+-)", "-(0+)",
        "+-0", "(", "2,1(1)", ""]
ALPHABETS = ["ternary", "0:2", "0:3", "-1:3", "0:5", "0:64", "0:65",
             "0:1", "x", "0:1:2"]


def draw(rng):
    """One argv from the parser's grammar, each option as --flag=value, so
    that a value starting with '-' stays a value."""
    cmd = rng.choice(["expand", "delta", "unique", "tm", "alpha-kl", "dset",
                      "dim", "intersect", "boxcount", "selfsimilar",
                      "dense-targets", "liouville"])
    pick = rng.choice
    if cmd == "expand":
        opts = {"alpha": pick(BASES),
                "x": pick(["1/3", "0", "1", "-1/2", "7/5", "rat:2/7", "akl",
                           "alg:-1,2,1@[2/5,1/2]"]),
                "length": pick(["0", "1", "8", "40", "5000", "5001"]),
                "algorithm": pick(["greedy", "quasi-greedy"]),
                "alphabet": pick(ALPHABETS)}
    elif cmd == "delta":
        opts = {"alpha": pick(BASES),
                "length": pick(["0", "1", "16", "200", "5000", "5001"]),
                "alphabet": pick(ALPHABETS)}
    elif cmd in ("unique", "dim", "selfsimilar"):
        opts = {"alpha": pick(BASES), "t-seq": pick(SEQS)}
    elif cmd == "tm":
        what = pick(["tau", "lambda", "w", "zeta", "eta"])
        opts = {"what": what,
                "n": pick(["0", "1", "1000", "65536", str(2**20 + 1)]
                          if what in ("tau", "lambda")
                          else ["0", "1", "2", "10", "16", "21"])}
    elif cmd == "alpha-kl":
        opts = {"width": pick(["1e-6", "1e-20", "1e-40", "9.9e-41", "0",
                               "-1", "1", "zero"])}
    elif cmd == "dset":
        opts = {"alpha": pick(BASES)}
    elif cmd == "intersect":
        opts = {"alpha": pick(BASES), "t": pick(SHIFTS),
                "state-cap": pick(["1", "16", "2000", "0", "100001"])}
    elif cmd == "boxcount":
        opts = {"alpha": pick(BASES), "t": pick(SHIFTS),
                "depth": pick(["0", "1", "4", "8", "21"])}
    elif cmd == "dense-targets":
        opts = {"alpha": pick(BASES),
                "targets": pick(["0,0.5,1", "0.3", "2", "-0.1", "a"]),
                "tol": pick(["0.01", "0.1", "0", "1e-8"])}
    else:
        opts = {"pq": pick(["2/5", "7/20", "1/4", "99/200", "3/5", "x"]),
                "k": pick(["0", "1", "2", "5"]),
                "free-rule": pick(["0", "1"])}
    return [cmd, *(f"--{k}={v}" for k, v in opts.items())]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_draw_answers_or_exits_1_with_an_envelope(capsys, seed):
    rng = random.Random(seed)
    for _ in range(67):
        argv = ["--json", *draw(rng)]
        try:
            code = main(argv)
        except Exception as e:  # anything outside the domain errors
            pytest.fail(f"{argv} raised {type(e).__name__}: {e}")
        out = capsys.readouterr().out
        assert code in (0, 1), argv
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            pytest.fail(f"{argv} printed no JSON: {out[:200]!r}")
        assert (payload["status"] == "ok") == (code == 0), (argv, payload)
