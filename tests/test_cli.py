import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cantorint import dimension, expansions
from cantorint.cli import BOX_DEPTH_MAX, _build_parser, main
from cantorint.exactnum import parse_real
from cantorint.words import TERNARY, format_seq


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out)


class TestSubcommands:
    def test_alpha_kl(self, capsys):
        code, payload = run_json(capsys, "alpha-kl", "--width", "1e-6")
        assert code == 0
        assert payload["status"] == "ok"
        dec = float(payload["result"]["decimal"])
        assert abs(dec - 0.39433) < 1e-4

    def test_unique_true(self, capsys):
        code, payload = run_json(capsys, "unique", "--alpha", "rat:9/25",
                                 "--t-seq", "(+-0)")
        assert code == 0
        assert payload["result"]["status"] == "unique"

    def test_unique_false(self, capsys):
        code, payload = run_json(capsys, "unique",
                                 "--alpha", "alg:-1,1,2,2@[2/5,1/2]",
                                 "--t-seq", "(-+)")
        assert code == 0
        assert payload["result"]["status"] == "not-unique"

    def test_intersect_example51(self, capsys, tmp_path):
        out_file = tmp_path / "graph.json"
        code, payload = run_json(capsys, "intersect",
                                 "--alpha", "alg:-1,1,2,2@[2/5,1/2]",
                                 "--t", "sum-neg-alpha",
                                 "--export", str(out_file))
        assert code == 0
        res = payload["result"]
        assert res["states"] == 6 and res["complete"]
        assert abs(float(res["lambda"]["decimal"]) - 1.69562) < 1e-4
        assert abs(float(res["dimension"]["decimal"]) - 0.644297) < 1e-4
        assert res["cycle_zero_frequency_bound"] == "1/3"
        exported = json.loads(out_file.read_text())
        assert exported["complete"] and len(exported["states"]) == 6

    def test_intersect_ex52(self, capsys):
        code, payload = run_json(capsys, "intersect",
                                 "--alpha", "alg:-1,2,1@[2/5,1/2]",
                                 "--t", "ex52")
        assert code == 0
        assert payload["result"]["states"] == 5
        assert "reason" not in payload["result"]

    def test_intersect_state_cap_reason(self, capsys):
        # 2/5 is not the reciprocal of a Pisot number: no finite closure
        code, payload = run_json(capsys, "intersect", "--alpha", "rat:2/5",
                                 "--t", "rat:1/7", "--state-cap", "2000")
        assert code == 0 and payload["status"] == "ok"
        res = payload["result"]
        assert res["states"] == 2000 and not res["complete"]
        assert "state cap 2000" in res["reason"]
        assert "1/alpha = 5/2 is not an algebraic integer" in res["reason"]
        assert "dimension" not in res

    def test_capped_reason_for_integer_reciprocal(self, capsys):
        # 1/alpha = 3 is a Pisot number; only the cap stopped the closure
        code, payload = run_json(capsys, "intersect", "--alpha", "rat:1/3",
                                 "--t", "rat:1/7", "--state-cap", "1")
        res = payload["result"]
        assert code == 0 and not res["complete"]
        assert "state cap 1" in res["reason"]
        assert "Pisot" not in res["reason"]

    def test_expand(self, capsys):
        code, payload = run_json(capsys, "expand", "--alpha", "rat:9/20",
                                 "--x", "rat:1", "--length", "3",
                                 "--algorithm", "quasi-greedy",
                                 "--alphabet", "0:3")
        assert code == 0
        assert payload["result"]["digits"] == "2,0,1"

    @pytest.mark.parametrize("alpha", ["alg:-1,2,1@[2/5,1/2]",
                                       "alg:-1,1,2,2@[2/5,1/2]"],
                             ids=["sqrt2-1", "ex51"])
    @pytest.mark.parametrize("algorithm", ["greedy", "quasi-greedy"])
    def test_expand_alpha_itself(self, capsys, alpha, algorithm):
        # x = alpha in alpha's own text has alpha's state
        code, payload = run_json(capsys, "expand", "--alpha", alpha,
                                 "--x", alpha, "--algorithm", algorithm,
                                 "--length", "40")
        assert code == 0
        sys_ = expansions.BaseSystem(parse_real(alpha), TERNARY)
        fn = expansions.greedy_expansion if algorithm == "greedy" \
            else expansions.quasi_greedy_expansion
        assert payload["result"]["digits"] == \
            format_seq(fn(sys_, sys_.ctx.alpha_element, 40))

    def test_delta(self, capsys):
        code, payload = run_json(capsys, "delta",
                                 "--alpha", "alg:1,-3,1@[1/3,1/2]",
                                 "--length", "6")
        assert code == 0
        assert payload["result"]["prefix"] == "+00000"
        assert payload["result"]["eventually_periodic"] == "+(0)"

    @pytest.mark.parametrize("argv", [
        ("expand", "--alpha", "rat:2/5", "--x", "1/3", "--length", "4"),
        ("delta", "--alpha", "rat:2/5", "--length", "4"),
    ])
    def test_alphabet_in_inputs(self, capsys, argv):
        # runs over different alphabets record different inputs
        code, payload = run_json(capsys, *argv, "--alphabet", "0:64")
        assert code == 0
        assert payload["inputs"]["alphabet"] == "0:64"

    def test_tm(self, capsys):
        code, payload = run_json(capsys, "tm", "--what", "tau", "--n", "16")
        assert code == 0
        assert payload["result"]["word"] == "0,1,1,0,1,0,0,1,1,0,0,1,0,1,1,0"

    def test_dim(self, capsys):
        code, payload = run_json(capsys, "dim", "--alpha", "rat:9/25",
                                 "--t-seq", "(+-0)")
        assert code == 0
        assert payload["result"]["zero_density"] == "1/3"

    def test_dset(self, capsys):
        code, payload = run_json(capsys, "dset", "--alpha", "rat:19/50")
        assert code == 0
        assert payload["result"]["kind"] == "full-interval"

    def test_dset_text_nests_dicts_and_lists(self, capsys):
        code, out, _ = run(capsys, "dset", "--alpha", "rat:21/50")
        assert code == 0
        assert out.startswith("kind: finite-list\nproper_subset: True\n"
                              "full_dimension:\n"
                              "  exact: (1) * log(2)/(-log(alpha))\n")
        assert "\nvalues:\n  exact: (0) * log(2)/(-log(alpha))\n" in out
        assert "  empty: False\n\n  exact: (1)" in out
        assert "\nexcluded_frequency_band: [1/2, 1]\n" in out

    def test_verify_paper_json(self, capsys):
        code, payload = run_json(capsys, "verify-paper")
        assert code == 1
        checks = payload["result"]["checks"]
        assert len(checks) == 13
        assert [c["number"] for c in checks if not c["passed"]] == ["10"]
        assert payload["result"]["all_passed"] is False
        # the grammar of the control sequence certifies it at 7/20
        assert checks[10]["number"] == "10b"
        assert checks[10]["detail"].endswith("; uniqueness: unique")

    def test_verify_paper_text(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 1
        lines = out.splitlines()
        assert sum(ln.startswith("[PASS]") for ln in lines) == 12
        assert [ln.split()[1] for ln in lines if ln.startswith("[FAIL]")] \
            == ["10"]
        assert lines[-1] == "all checks passed: False"

    def test_verify_paper_text_is_the_json_table(self, capsys):
        # both modes print one result: the text lines rebuilt from the
        # --json checks are the text mode's lines
        code_text, out, _ = run(capsys, "verify-paper")
        code_json, payload = run_json(capsys, "verify-paper")
        assert code_text == code_json == 1
        result = payload["result"]
        rebuilt = [f"[{'PASS' if c['passed'] else 'FAIL'}] {c['number']:>3}"
                   f"  {c['name']}" + (f"  ({c['detail']})" if c["detail"]
                                       else "")
                   for c in result["checks"]]
        assert out.splitlines() == rebuilt + [
            "", f"all checks passed: {result['all_passed']}"]

    def test_boxcount_csv(self, capsys, tmp_path):
        csv = tmp_path / "counts.csv"
        code, payload = run_json(capsys, "boxcount", "--alpha", "rat:2/5",
                                 "--t", "rat:0", "--depth", "6",
                                 "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,lower,upper"
        assert lines[1] == "1,2,2"
        assert lines[6] == "6,64,64"

    def test_selfsimilar(self, capsys):
        code, payload = run_json(capsys, "selfsimilar", "--alpha", "rat:9/25",
                                 "--t-seq", "(+-+-000)")
        assert code == 0
        assert payload["result"]["status"] == "self-similar"

    def test_dense_targets(self, capsys):
        code, payload = run_json(capsys, "dense-targets",
                                 "--alpha", "rat:9/25",
                                 "--targets", "0,0.5,1", "--tol", "0.01")
        assert code == 0
        assert len(payload["result"]["rows"]) == 3

    def test_dense_targets_builds_one_system(self, capsys, monkeypatch):
        # the words and every row's dimension share one BaseSystem
        built = []
        real = expansions.BaseSystem.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(expansions.BaseSystem, "__init__", counted)
        code, payload = run_json(capsys, "dense-targets",
                                 "--alpha", "rat:19/50", "--targets", "0,1")
        assert code == 0 and len(payload["result"]["rows"]) == 2
        assert len(built) == 1

    def test_liouville(self, capsys):
        code, payload = run_json(capsys, "liouville", "--pq", "2/5",
                                 "--k", "2")
        assert code == 0
        assert payload["result"]["nk"] == [1, 4, 20]


class TestDeterminism:
    def test_identical_json(self, capsys):
        _, out1, _ = run(capsys, "--json", "intersect",
                         "--alpha", "alg:-1,1,2,2@[2/5,1/2]",
                         "--t", "sum-neg-alpha")
        _, out2, _ = run(capsys, "--json", "intersect",
                         "--alpha", "alg:-1,1,2,2@[2/5,1/2]",
                         "--t", "sum-neg-alpha")
        assert out1 == out2


CUBIC = "alg:-1,1,2,2@[2/5,1/2]"
SQRT2_MINUS_1 = "alg:-1,2,1@[2/5,1/2]"
DEGREE_12 = "alg:-2,3,3,1,2,-3,3,3,2,0,-3,-2,1@[2/5,1/2]"

# SHA-256 of `cantor --json` stdout, followed by the --export file where
# there is one.  Every automaton here has at most 24 rows and one
# component with a cycle, so lambda is mu^(1/h), mu the char-poly root of
# its cyclic classes' block product.  CI runs these under two hash seeds
# as well, which pins the output order across processes.
GOLDEN = [
    (("intersect", "--alpha", CUBIC, "--t", "sum-neg-alpha",
      "--export", "ex51.json"),
     "01b0f824c4d7755e21c67ff8187f8a082dd5d566e5d7bf48dc010b76350184d8"),
    (("intersect", "--alpha", SQRT2_MINUS_1, "--t", "ex52",
      "--export", "ex52.json"),
     "3ae877cdfda79d46d7eb19541eb8d4fb769531362f2a6562e63bfcf4f47347e2"),
    (("boxcount", "--alpha", CUBIC, "--t", "sum-neg-alpha", "--depth", "12"),
     "85d1652f648f8705ce7b862a13a224677fb7611f3b1f730de611fc1d8b98aff5"),
    (("expand", "--alpha", CUBIC, "--x", "rat:1/3", "--length", "40",
      "--algorithm", "greedy"),
     "8dbc22722076dbd7af930819a8f761926776e506d3d6b5788652a669892fc78f"),
    (("expand", "--alpha", CUBIC, "--x", "rat:1/3", "--length", "40",
      "--algorithm", "quasi-greedy"),
     "67fcb7ca75cbf28a858483ac1d1b5519519fd796866b350715deedcff57cc154"),
    (("expand", "--alpha", SQRT2_MINUS_1, "--x", "rat:1/3", "--length", "40",
      "--algorithm", "greedy"),
     "4785c553565c180d679d00e3746e4d08207c0bc0806f4a09d410c375fc1a51d0"),
    (("expand", "--alpha", SQRT2_MINUS_1, "--x", "rat:1/3", "--length", "40",
      "--algorithm", "quasi-greedy"),
     "f4e53ab6fb16dd4da28f9a4fec64f6f01adff596948dd3bb983bd641866028a0"),
    (("delta", "--alpha", CUBIC, "--length", "40"),
     "bd6ccc2965a0b721747171420ac43d94b411f3bb3c5308aab6693dbdfcf55ecb"),
    (("delta", "--alpha", SQRT2_MINUS_1, "--length", "40"),
     "e8ef67f63a2f060c695ab1718398281bcedc69193d1079b496e427a83a2e88c3"),
    (("delta", "--alpha", "rat:2/5", "--length", "40"),
     "c5421443e0e56a6aaf41a6890d830bb91d6162f06b18bb97222467f1ab95a96c"),
    (("dset", "--alpha", "akl"),
     "34f37ea833c42657adb3c684a430dfa99cb6fd17c402ac1b130cf73c33bd520b"),
    (("dset", "--alpha", "rat:21/50"),
     "764c7fcdc2cb068fb86ed3a95199bf6672a4b4918630f7c5beb0f6d08dead5c4"),
    (("unique", "--alpha", CUBIC, "--t-seq", "(-+)"),
     "10cfc90fdc7b54f2672c9a7745ed9d070431f6bc5f36396108a5fdb3166b6c6f"),
    (("selfsimilar", "--alpha", "rat:9/25", "--t-seq", "(+-+-000)"),
     "9e80a3f50197cd35c048d31c477a7e2cded64cb5a2adde0a1cea8748c52863b4"),
    (("alpha-kl", "--width", "1e-30"),
     "a1bd7d8e456e08b40774e59d3d51d01ac85729f318958e3ed81738426a9435b9"),
    (("liouville", "--pq", "3/8", "--k", "4"),
     "6ea31ebeae838cb07af0ae8cd7c8727b08dc040b5456ead2a8cc670869e7f75f"),
    (("dset", "--alpha", "rat:39/100"),
     "6a841c45bc30968cf7beef13702ae813b645f8ef81a4d98e202850253ebdf6f2"),
    (("dset", "--alpha", "rat:19/50"),
     "9d48ce47a37071666a0cff894b081fa6a19b058024992a9893bd9b038cd91204"),
    (("liouville", "--pq", "7/20", "--k", "3", "--free-rule", "1"),
     "1aa4f53b34ead9a6c626e817beb2109a328000a16fddecc58703893e85feb648"),
    (("dim", "--alpha", "rat:19/50", "--t-seq", "(+-000)"),
     "905288c4c6b6b0256917bb1ea5064e178a7d1ddd2cfaa01919630d3215731dd2"),
    (("dim", "--alpha", CUBIC, "--t-seq", "(0)"),
     "a03d55da23a8302e3525eb9197e9f90b640936df18bfe774f474425dacf93c9c"),
    (("dense-targets", "--alpha", "rat:19/50", "--targets", "0,1/3,1",
      "--tol", "1/100"),
     "17561028df8a4cfe0e2aec0fcaed8df778f10e25e741750b918500d8d2c05f78"),
    # 24 rows of period 12, whose 2-row B has char poly x^2 - 106 x + 9;
    # and 7 reducible rows, whose one cycle, of period 3, gives B = [2]
    (("intersect", "--alpha", SQRT2_MINUS_1, "--t", "rat:-7/10"),
     "732948b4f2e859aaa830f8d7c6020ec704361dd40e318834ddddfae1c17994b8"),
    (("intersect", "--alpha", "alg:-1,2,2@[1/3,1/2]", "--t", "rat:5/12"),
     "ce6aec52ac50a81feb61690992337878a70fbbb75855f143826699082abbefa6"),
    # a degree-12 base: alpha's fixed-point table, its -ln alpha cell and
    # the box walk's grid all refine alpha by integer Newton steps
    (("expand", "--alpha", DEGREE_12, "--x", "rat:1/3", "--length", "200"),
     "7bbc42bea97f81144db4d3704271d5e7544d51f89595012990b9b0fa3cc33f9c"),
    (("boxcount", "--alpha", DEGREE_12, "--t", "rat:1/7", "--depth", "10"),
     "8da231cb7226d049533f16d88a0b685907bbb67bc3b977ca71cb6c58d3b301cd"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("argv,digest", GOLDEN,
                             ids=[" ".join(a[:5:2]) for a, _ in GOLDEN])
    def test_json_digest(self, capsys, tmp_path, monkeypatch, argv, digest):
        monkeypatch.chdir(tmp_path)  # the export name in stdout is fixed
        code, out, _ = run(capsys, "--json", *argv)
        data = out.encode()
        if "--export" in argv:
            data += (tmp_path / argv[-1]).read_bytes()
        assert code == 0
        assert hashlib.sha256(data).hexdigest() == digest


    def test_digests_do_not_depend_on_history(self, capsys, tmp_path,
                                              monkeypatch):
        # the list twice in one process, forward and then backward: the
        # fields, checked roots, caches and alpha_KL cell that earlier
        # calls leave behind change no byte of a later call's output
        monkeypatch.chdir(tmp_path)
        for argv, digest in GOLDEN + GOLDEN[::-1]:
            code, out, _ = run(capsys, "--json", *argv)
            data = out.encode()
            if "--export" in argv:
                data += (tmp_path / argv[-1]).read_bytes()
            assert code == 0
            assert hashlib.sha256(data).hexdigest() == digest, argv


class TestErrors:
    def test_domain_error_exit_1(self, capsys):
        code, out, err = run(capsys, "unique", "--alpha", "rat:1/10",
                             "--t-seq", "(+)")
        assert code == 1
        assert "error" in err

    def test_dim_requires_uniqueness(self, capsys):
        code, out, err = run(capsys, "dim",
                             "--alpha", "alg:-1,1,2,2@[2/5,1/2]",
                             "--t-seq", "(-+)")
        assert code == 1

    @pytest.mark.parametrize("alpha, status", [
        # d_set builds its BaseSystem first, which refuses these bases
        # before any dimension formula is tried
        ("rat:3/2", "error: base must lie strictly between 0 and 1"),
        ("rat:0", "error: base must lie strictly between 0 and 1"),
        ("alg:1,0,-10,0,1@[3/10,1/3]",
         "error: alpha's polynomial is not proven irreducible over Q"),
        ("rat:1/4", "error: dimension formulas need alpha in (1/3, 1/2)"),
        ("rat:1/2", "error: dimension formulas need alpha in (1/3, 1/2)"),
    ])
    def test_dset_domain_errors(self, capsys, alpha, status):
        code, payload = run_json(capsys, "dset", "--alpha", alpha)
        assert code == 1 and payload["result"] is None
        assert payload["status"].startswith(status)

    def test_dset_refuses_base_at_threshold_undecided(self, capsys):
        # the root of 2^140 (x^2 - 3x + 1) + 1 lies about 2^-141 above
        # (3-sqrt(5))/2, inside the comparison cutoff: D_alpha is not
        # [0, full] there, so no full interval may be printed
        n = 2**140
        code, payload = run_json(capsys, "dset", "--alpha",
                                 f"alg:{n + 1},{-3 * n},{n}@[1/3,1/2]")
        assert code == 1 and payload["result"] is None
        assert payload["status"] == ("error: position of alpha relative to "
                                     "(3-sqrt(5))/2 undecided")

    @pytest.mark.parametrize("alpha, status", [
        # one text for every base outside the full-interval regime
        ("rat:2/5", "error: dense self-similar family needs "
                    "alpha in (1/3, (3-sqrt(5))/2]"),
        ("rat:1/3", "error: dense self-similar family needs "
                    "alpha in (1/3, (3-sqrt(5))/2]"),
        ("rat:3/2", "error: base must lie strictly between 0 and 1"),
    ])
    def test_dense_targets_domain_errors(self, capsys, alpha, status):
        code, payload = run_json(capsys, "dense-targets", "--alpha", alpha,
                                 "--targets", "0,1")
        assert code == 1 and payload["result"] is None
        assert payload["status"] == status

    def test_bad_number_format(self, capsys):
        code, out, err = run(capsys, "alpha-kl", "--width", "zero")
        assert code == 1

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("alphabet", ["x", "0:1:2", "a:3"])
    def test_malformed_alphabet(self, capsys, alphabet):
        code, out, err = run(capsys, "expand", "--alpha", "rat:2/5",
                             "--x", "1/3", "--alphabet", alphabet)
        assert code == 1
        assert "must be 'ternary' or low:size" in err and alphabet in err

    def test_json_error_envelope(self, capsys):
        code, payload = run_json(capsys, "liouville", "--pq", "1/4", "--k", "1")
        assert code == 1
        assert payload["status"].startswith("error")

    def test_perron_dimension_refused_above_one_half(self, capsys):
        # the automaton closes at the golden base, but the Perron route
        # gives no dimension above 1/2
        code, payload = run_json(capsys, "intersect", "--alpha",
                                 "alg:-1,1,1@[1/2,1]", "--t", "rat:0")
        assert code == 1 and payload["result"] is None
        assert payload["status"] == ("error: Perron dimension needs "
                                     "alpha <= 1/2")

    def test_refused_base_writes_no_export(self, capsys, tmp_path):
        # the automaton closes, but the file is written only once the
        # dimension stands
        out_file = tmp_path / "g.json"
        code, payload = run_json(capsys, "intersect", "--alpha",
                                 "alg:-1,1,1@[1/2,1]", "--t", "rat:0",
                                 "--export", str(out_file))
        assert code == 1 and payload["result"] is None
        assert not out_file.exists()

    def test_boxcount_prints_no_slope_above_one_half(self, capsys):
        code, payload = run_json(capsys, "boxcount", "--alpha", "rat:3/5",
                                 "--t", "rat:0", "--depth", "8")
        assert code == 0 and payload["status"] == "ok"
        assert payload["result"]["slope"] is None
        assert payload["result"]["rows"] == [[n, 2**n, 2**n]
                                             for n in range(1, 9)]

    def test_json_error_envelope_keeps_inputs(self, capsys):
        code, payload = run_json(capsys, "liouville", "--pq", "1/4", "--k", "1")
        assert code == 1 and payload["result"] is None
        assert payload["inputs"] == {"pq": "1/4", "k": 1, "free_rule": 0}

    @pytest.mark.parametrize("argv, bound", [
        (("tm", "--what", "w", "--n", "21"), "TM_N_MAX = 20"),
        (("tm", "--what", "tau", "--n", str(2**20 + 1)),
         "2**TM_N_MAX = 1048576"),
        (("liouville", "--pq", "2/5", "--k", "5"),
         "at least 12961 digits, over the bound LIOUVILLE_DIGITS_MAX = 4000"),
        (("liouville", "--pq", "7/20", "--k", "4"),
         "at least 15899 digits, over the bound LIOUVILLE_DIGITS_MAX = 4000"),
        (("liouville", "--pq", "99/200", "--k", "4"),
         "LIOUVILLE_DIGITS_MAX = 4000"),
        (("expand", "--alpha", "rat:2/5", "--x", "1/3", "--length", "5001"),
         "LENGTH_MAX = 5000"),
        (("delta", "--alpha", "rat:2/5", "--length", "5001"),
         "LENGTH_MAX = 5000"),
        (("alpha-kl", "--width", "9.9e-41"), "AKL_WIDTH_MIN = 1e-40"),
        (("intersect", "--alpha", "rat:2/5", "--t", "rat:1/3",
          "--state-cap", "100001"), "STATE_CAP_MAX = 100000"),
        (("intersect", "--alpha", "rat:2/5", "--t", "rat:1/3",
          "--state-cap", "0"), "state cap must be at least 1, got 0"),
        (("intersect", "--alpha", "rat:2/5", "--t", "rat:1/3",
          "--state-cap", "-3"), "state cap must be at least 1, got -3"),
        # n2 may reach 4/tol; each n1 tries only its one candidate n2
        (("dense-targets", "--alpha", "rat:7/20", "--targets", "0.123456789",
          "--tol", "1e-7"), "no family word within tol"),
        # the word for target 1 has about 2/tol zeros
        (("dense-targets", "--alpha", "rat:19/50", "--targets", "1",
          "--tol", "1e-8"),
         "200000000 digits, over the bound FAMILY_WORD_MAX = 100000"),
        (("delta", "--alpha", "rat:2/5", "--alphabet", "0:100000000",
          "--length", "4"), "ALPHABET_MAX = 64"),
        (("expand", "--alpha", "rat:2/5", "--x", "1/3", "--alphabet", "0:65"),
         "--alphabet size 65 is over the bound ALPHABET_MAX = 64"),
        # 1/5 lies in the gap (1/6, 1/3) of the {0,1} Cantor set at 1/3
        (("expand", "--alpha", "rat:1/3", "--x", "rat:1/5", "--alphabet",
          "0:2", "--length", "12"), "value outside the attainable set"),
        # at 2/5, 2/5 has only the expansion 1 0 0 ..., so no quasi-greedy
        (("expand", "--alpha", "rat:2/5", "--x", "rat:2/5", "--alphabet",
          "0:2", "--algorithm", "quasi-greedy", "--length", "8"),
         "value outside the attainable set"),
    ])
    def test_size_bounds_fail_fast(self, capsys, argv, bound):
        start = time.perf_counter()
        code, payload = run_json(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and payload["result"] is None
        assert bound in payload["status"]

    @pytest.mark.parametrize("argv", [
        ("intersect", "--alpha", "akl", "--t", "ex52"),
        ("intersect", "--alpha", "akl", "--t", "sum-neg-alpha"),
        ("boxcount", "--alpha", "akl", "--t", "ex52", "--depth", "4"),
        ("boxcount", "--alpha", "akl", "--t", "sum-neg-alpha", "--depth", "4"),
    ])
    def test_worked_example_shift_needs_a_field(self, capsys, argv):
        # alpha_KL has no Q(alpha): the named shifts are an error envelope
        code, payload = run_json(capsys, *argv)
        assert code == 1 and payload["result"] is None
        assert "needs exact Q(alpha) arithmetic" in payload["status"]

    @pytest.mark.parametrize("x", ["akl", "alg:-1,2,1@[2/5,1/2]"])
    def test_expand_refuses_x_outside_the_field(self, capsys, x):
        # an irrational x has no exact state in Q(2/5)
        code, payload = run_json(capsys, "expand", "--alpha", "rat:2/5",
                                 "--x", x)
        assert code == 1 and payload["result"] is None
        assert payload["status"].startswith("error: ")
        assert "has no state in Q(alpha)" in payload["status"]

    @pytest.mark.parametrize("alpha", [
        "alg:3,-7,-1,1@[2/5,1/2]",      # (x^2 + 2x - 1)(x - 3)
        "alg:1,0,-10,0,1@[3/10,1/3]"])  # irreducible, split mod every p
    def test_unproven_polynomial_exits_1(self, capsys, alpha):
        start = time.perf_counter()
        code, payload = run_json(capsys, "intersect", "--alpha", alpha,
                                 "--t", "rat:1/3")
        assert time.perf_counter() - start < 1
        assert code == 1 and payload["result"] is None
        assert "not proven irreducible" in payload["status"]

    def test_depth_cap_env_only_lowers(self, capsys, monkeypatch):
        # BOX_DEPTH_MAX holds even where the env var sets a higher cap
        monkeypatch.setenv("CANTOR_DEPTH_CAP", "100")
        start = time.perf_counter()
        code, payload = run_json(capsys, "boxcount", "--alpha", "rat:2/5",
                                 "--t", "rat:0", "--depth", "30")
        assert time.perf_counter() - start < 1
        assert code == 1 and payload["result"] is None
        assert "--depth 30 is over the bound BOX_DEPTH_MAX = 20" in \
            payload["status"]

    def test_expand_refuses_another_root_of_alphas_polynomial(self, capsys):
        # -sqrt(2) - 1 lies in Q(sqrt(2) - 1), but only alpha itself is
        # taken as an algebraic x, and the message says so
        code, payload = run_json(capsys, "expand",
                                 "--alpha", "alg:-1,2,1@[2/5,1/2]",
                                 "--x", "alg:-1,2,1@[-3,-2]")
        assert code == 1 and payload["result"] is None
        assert "is not alpha" in payload["status"]
        assert "no state in Q(alpha)" not in payload["status"]

    def test_depth_cap_env_lowers_the_bound(self, capsys, monkeypatch):
        # the CLI checks --depth against the oracle's own bound, and the
        # env var lowers it before any cell is walked
        assert BOX_DEPTH_MAX is dimension.BOX_DEPTH_MAX == 20
        monkeypatch.setenv("CANTOR_DEPTH_CAP", "12")
        code, payload = run_json(capsys, "boxcount", "--alpha", "rat:2/5",
                                 "--t", "rat:0", "--depth", "14")
        assert code == 1 and payload["result"] is None
        assert "--depth 14 is over the bound CANTOR_DEPTH_CAP = 12" in \
            payload["status"]

    def test_depth_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CANTOR_DEPTH_CAP", "12")
        code, payload = run_json(capsys, "boxcount", "--alpha", "rat:2/5",
                                 "--t", "rat:0", "--depth", "14")
        assert code == 1  # depth above the overridden cap


SRC = Path(__file__).resolve().parents[1] / "src"

# one call of every subcommand; intersect twice, with and without a
# characteristic polynomial (6 and 26 rows), and verify-paper last, which
# exits 1 on the paper's stated base 2/5 in check 10
SUBCOMMANDS = [
    ("boxcount", "--alpha", "rat:2/5", "--t", "rat:0", "--depth", "6"),
    ("unique", "--alpha", "rat:9/25", "--t-seq", "(+-0)"),
    ("delta", "--alpha", "rat:2/5", "--length", "16"),
    ("dset", "--alpha", "rat:19/50"),
    ("dim", "--alpha", "rat:9/25", "--t-seq", "(+-0)"),
    ("selfsimilar", "--alpha", "rat:9/25", "--t-seq", "(+-0)"),
    ("dense-targets", "--alpha", "rat:19/50"),
    ("alpha-kl", "--width", "1e-6"),
    ("tm", "--what", "w", "--n", "4"),
    ("expand", "--alpha", "rat:2/5", "--x", "1/3", "--length", "8"),
    ("liouville", "--pq", "2/5", "--k", "2"),
    ("intersect", "--alpha", CUBIC, "--t", "sum-neg-alpha"),
    ("intersect", "--alpha", SQRT2_MINUS_1, "--t", "rat:1/16"),
    ("verify-paper",),
]


def loaded_after(*commands):
    """Run ``cantor`` on each argv in a fresh interpreter and return the
    exit codes and the names of the modules imported by then."""
    code = "\n".join(
        ["import contextlib, io, json, sys", "from cantorint.cli import main",
         "codes = []"]
        + [f"with contextlib.redirect_stdout(io.StringIO()):\n"
           f"    codes.append(main({list(argv)!r}))" for argv in commands]
        + ["print(json.dumps([codes, sorted(sys.modules)]))"])
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    codes, modules = json.loads(out.stdout.splitlines()[-1])
    return codes, set(modules)


class TestStartup:
    """numpy is on no path of ``cantor``, and the acceptance checks are
    not on its start-up path: they are loaded only by verify-paper and
    the worked-example shifts."""

    def test_import_loads_no_numpy(self):
        _, loaded = loaded_after()
        assert "numpy" not in loaded
        assert "cantorint.acceptance" not in loaded

    def test_no_subcommand_loads_numpy(self):
        codes, loaded = loaded_after(*SUBCOMMANDS)
        assert codes == [0] * (len(SUBCOMMANDS) - 1) + [1]
        assert "numpy" not in loaded
        # the probe sees the modules that these calls do load
        assert {"cantorint.dimension", "cantorint.acceptance"} <= loaded


def subcommand_names(parser) -> set:
    return next(set(a.choices) for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


# parsed options that are no inputs: the dispatch and the output paths
NON_INPUTS = {"command", "json", "handler", "export", "csv"}


class TestEnvelopeOrder:
    # with output paths, which the result reports; and two refusals: the
    # automaton closes at the golden base but the Perron route needs
    # alpha <= 1/2, and the depth is over BOX_DEPTH_MAX
    WITH_PATHS = [
        ("intersect", "--alpha", CUBIC, "--t", "sum-neg-alpha",
         "--export", "g.json", "--state-cap", "500"),
        ("boxcount", "--alpha", "rat:2/5", "--t", "rat:0", "--depth", "6",
         "--csv", "c.csv"),
    ]
    ERRORS = [
        ("intersect", "--alpha", "alg:-1,1,1@[1/2,1]", "--t", "rat:0",
         "--export", "g.json"),
        ("boxcount", "--alpha", "rat:2/5", "--t", "rat:0", "--depth", "21",
         "--csv", "c.csv"),
    ]

    def test_inputs_are_the_parsed_options(self, capsys, monkeypatch,
                                           tmp_path):
        """Every envelope, success or error, lists as inputs the parsed
        options but the non-inputs, with their values and in the order of
        vars(args), so one argv prints one layout."""
        monkeypatch.chdir(tmp_path)
        parser = _build_parser()
        firsts = {}
        for argv in SUBCOMMANDS:
            firsts.setdefault(argv[0], argv)
        assert set(firsts) == subcommand_names(parser)
        cases = [(argv, "ok") for argv in [*firsts.values(), *self.WITH_PATHS]]
        cases += [(argv, "error: ") for argv in self.ERRORS]
        for argv, status in cases:
            _, payload = run_json(capsys, *argv)
            assert payload["status"].startswith(status), argv
            parsed = vars(parser.parse_args(["--json", *argv]))
            assert list(payload["inputs"].items()) == [
                (k, v) for k, v in parsed.items() if k not in NON_INPUTS], argv


class TestReproducible:
    def test_bracket_ignores_blas_threads(self):
        # a 712-row count matrix, past the char-poly limit: the printed
        # lambda and dimension come from its one component's cyclic
        # classes on ints, and the floats only seed checked steps
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "cantorint.cli", "--json", "intersect",
                 "--alpha", SQRT2_MINUS_1, "--t", "rat:1/211"],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=path,
                         OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert len(json.loads(outs[0])["result"]["count_matrix"]) == 712


class TestBrokenPipe:
    """A reader that closes the pipe early (``cantor ... | head``) ends
    the run with exit 1 and no traceback."""

    @pytest.mark.parametrize("mode", [["--json"], []])
    def test_closed_pipe_no_traceback(self, mode):
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cantorint.cli", *mode, "tm",
             "--what", "lambda", "--n", str(2**20)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path))
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err
