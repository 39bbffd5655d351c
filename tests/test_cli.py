import argparse
import contextlib
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catfrac import cli
from catfrac.cli import main
from catfrac.verify import CHECKS, CheckResult

from conftest import CHILD_ENV, random_dyck_words
from oracles import catalan_table, first_return_words


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeriesCommand:
    def test_eq1_order3_text(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--weights", "eq1", "--order", "3")
        assert code == 0
        assert out == "1 + z*(1) + z^2*(2) + z^3*(4 + q)\n"

    def test_catalan_text(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--weights", "catalan", "--order", "5")
        assert code == 0
        assert out == "1 + z*(1) + z^2*(2) + z^3*(5) + z^4*(14) + z^5*(42)\n"

    def test_multivariate_text(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--weights", "multivariate", "--order", "3")
        assert out == (
            "1 + z*(v1) + z^2*(v1*v2 + v1^2)"
            " + z^3*(v1*v2*v3 + v1*v2^2 + 2*v1^2*v2 + v1^3)\n"
        )

    def test_k_token(self, capsys):
        code_k3, out_k3, _ = run_cli(capsys, "series", "--weights", "k=3", "--order", "4")
        code_eq1, out_eq1, _ = run_cli(capsys, "series", "--weights", "eq1", "--order", "4")
        assert (code_k3, out_k3) == (code_eq1, out_eq1)

    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--weights", "eq2", "--order", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 2
        assert doc["weights"] == "area"
        assert doc["terms"] == [
            {"z": 0, "q": 0, "v": [], "coeff": "1"},
            {"z": 1, "q": 1, "v": [], "coeff": "1"},
            {"z": 2, "q": 2, "v": [], "coeff": "1"},
            {"z": 2, "q": 3, "v": [], "coeff": "1"},
        ]

    @pytest.mark.parametrize(
        "token, name",
        [
            ("catalan", "catalan"),
            ("eq1", "increasing(k=3)"),
            ("eq2", "area"),
            ("multivariate", "multivariate"),
            ("k=7", "increasing(k=7)"),
        ],
    )
    def test_json_names_the_weights(self, capsys, token, name):
        code, out, _ = run_cli(capsys, "series", "--weights", token, "--order", "2", "--json")
        assert code == 0
        assert json.loads(out)["weights"] == name

    def test_depth_flag_partial_evaluation(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--weights", "catalan", "--order", "4", "--depth", "1")
        assert out == "1 + z*(1) + z^2*(1) + z^3*(1) + z^4*(1)\n"

    def test_depth_flag_supports_stability_comparison(self, capsys):
        _, at_order, _ = run_cli(capsys, "series", "--weights", "eq2", "--order", "6", "--depth", "6")
        _, deeper, _ = run_cli(capsys, "series", "--weights", "eq2", "--order", "6", "--depth", "9")
        assert at_order == deeper

    def test_huge_depth_finishes_like_depth_equal_to_order(self, capsys):
        _, at_order, _ = run_cli(capsys, "series", "--weights", "eq1", "--order", "6", "--depth", "6")
        code, huge, _ = run_cli(capsys, "series", "--weights", "eq1", "--order", "6", "--depth", "100000000")
        assert code == 0
        assert huge == at_order
        _, out, _ = run_cli(capsys, "series", "--weights", "eq1", "--order", "6", "--depth", "100000000", "--json")
        assert json.loads(out)["depth"] == 100000000

    def test_multivariate_json_carries_level_exponents(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--weights", "multivariate", "--order", "2", "--json")
        doc = json.loads(out)
        assert doc["terms"] == [
            {"z": 0, "q": 0, "v": [], "coeff": "1"},
            {"z": 1, "q": 0, "v": [1], "coeff": "1"},
            {"z": 2, "q": 0, "v": [1, 1], "coeff": "1"},
            {"z": 2, "q": 0, "v": [2], "coeff": "1"},
        ]

    def test_bad_weights_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["series", "--weights", "nope", "--order", "3"])
        assert info.value.code == 2

    def test_negative_order_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["series", "--weights", "catalan", "--order", "-1"])
        assert info.value.code == 2
        assert capsys.readouterr().err == "error: argument --order: must be at least 0: '-1'\n"


class TestEnumerateCommand:
    def test_plain_listing(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--edges", "3")
        assert code == 0
        assert out.splitlines() == ["()()()", "()(())", "(())()", "(()())", "((()))"]

    def test_stats_listing(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--edges", "3", "--stats")
        lines = out.splitlines()
        assert lines[0] == "()()()\tprofile=(3)\tlevel_sum=3\tarea=3\tperm=3 2 1"
        assert lines[-1] == "((()))\tprofile=(1,1,1)\tlevel_sum=6\tarea=0\tperm=1 2 3"

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--edges", "2", "--stats", "--json")
        docs = [json.loads(line) for line in out.splitlines()]
        assert docs == [
            {"tree": "()()", "profile": [2], "level_sum": 2, "area": 1, "perm": [2, 1]},
            {"tree": "(())", "profile": [1, 1], "level_sum": 3, "area": 0, "perm": [1, 2]},
        ]

    def test_order_is_the_first_return_listing(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--edges", "8")
        assert code == 0
        assert out == "".join(w + "\n" for w in first_return_words(8))

    def test_zero_edges(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--edges", "0")
        assert code == 0
        assert out == "\n"


class TestMapCommand:
    def test_tree_to_perm(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--from", "tree", "--to", "perm", "((()))")
        assert code == 0
        assert out == "1 2 3\n"

    def test_perm_to_path(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--from", "perm", "--to", "path", "3 1 2")
        assert out == "ENEENN\n"

    def test_path_to_tree_with_aliases(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--from", "path", "--to", "tree", "RRUU")
        assert out == "(())\n"

    def test_identity_normalizes(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--from", "perm", "--to", "perm", "2,1,3")
        assert out == "2 1 3\n"

    def test_json_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--from", "tree", "--to", "path", "()()", "--json")
        assert json.loads(out) == {"from": "tree", "to": "path", "input": "()()", "output": "ENEN"}

    def test_132_input_exits_2_with_witness(self, capsys):
        code, _, err = run_cli(capsys, "map", "--from", "perm", "--to", "tree", "1 3 2")
        assert code == 2
        assert "(132)" in err and "(1, 2, 3)" in err

    def test_unbalanced_tree_exits_2_with_position(self, capsys):
        code, _, err = run_cli(capsys, "map", "--from", "tree", "--to", "perm", "())")
        assert code == 2
        assert "position 2" in err

    def test_bad_path_exits_2_with_step(self, capsys):
        code, _, err = run_cli(capsys, "map", "--from", "path", "--to", "tree", "NE")
        assert code == 2
        assert "step 0" in err


_BLANKS = st.text(" \t\n", max_size=2)
_STEP_SPELLINGS = {"(": "EeRr1", ")": "NnUu0"}


@st.composite
def broken_words(draw):
    """A bracket word broken once, and the index at which the break shows.

    The break is an unmatched ')', an alien character after any open
    brackets, or an unclosed '(' at the end; its index is that of the ')' or
    the alien character, or the word's length for the unclosed end.
    """
    head, tail = draw(random_dyck_words(4)), draw(random_dyck_words(4))
    kind = draw(st.sampled_from(["close", "alien", "open"]))
    if kind == "close":
        return head + ")" + tail, len(head)
    if kind == "alien":
        head += "(" * draw(st.integers(0, 2))
        return head + draw(st.sampled_from("x*[2")) + tail, len(head)
    word = head + "(" + tail
    return word, len(word)


class TestMapErrorPositions:
    @settings(max_examples=200, deadline=None)
    @given(broken_words(), st.sampled_from(["tree", "path"]), st.data())
    def test_position_is_an_index_in_the_argument_as_typed(self, broken, kind, data):
        word, bad = broken
        if kind == "tree":
            lead = data.draw(_BLANKS)
            value, at = lead + word + data.draw(_BLANKS), len(lead) + bad
        else:
            # whitespace before any step, and each bracket spelled as a step
            value, at = "", None
            for pos, ch in enumerate(word):
                value += data.draw(_BLANKS)
                if pos == bad:
                    at = len(value)
                value += data.draw(st.sampled_from(_STEP_SPELLINGS.get(ch, ch)))
            if at is None:  # the unclosed end: just past the last step
                at = len(value)
            value += data.draw(_BLANKS)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["map", "--from", kind, "--to", "perm", value])
        assert code == 2
        assert re.search(r"at (?:position|step) (\d+)$", err.getvalue()).group(1) == str(at), (value, err.getvalue())


class TestCountCommand:
    def test_counts_and_status(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--perm", "123", "--k", "3")
        assert code == 0
        assert out == (
            "perm = 1 2 3\nn = 3\nincreasing_patterns(k=3) = 1\navoids_132 = yes\n"
        )

    def test_witness_reported(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--perm", "1 3 2", "--k", "2")
        assert code == 0
        assert "avoids_132 = no (witness i=1 j=2 k=3)" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--perm", "321", "--k", "2", "--json")
        assert json.loads(out) == {
            "perm": [3, 2, 1],
            "n": 3,
            "k": 2,
            "increasing_patterns": 0,
            "avoids_132": True,
            "witness_132": None,
        }

    def test_bad_word_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "--perm", "1 5 2", "--k", "2")
        assert code == 2

    def test_digit_separator_is_not_a_number(self, capsys):
        code, out, err = run_cli(capsys, "count", "--perm", "1_0", "--k", "1")
        assert (code, out) == (2, "")
        assert err == "error: cannot parse permutation word '1_0'\n"


class TestIntegerOptions:
    """Every integer option reads ASCII digits after an optional minus sign, nothing else."""

    # (argv with X where the integer goes, the flag the error line names)
    CASES = [
        (["series", "--weights", "catalan", "--order", "X"], "--order"),
        (["series", "--weights", "catalan", "--order", "3", "--depth", "X"], "--depth"),
        (["enumerate", "--edges", "X"], "--edges"),
        (["count", "--perm", "1 2 3", "--k", "X"], "--k"),
        (["verify", "--check", "theorem5", "--max-edges", "X"], "--max-edges"),
        (["verify", "--check", "theorem5", "--max-edges", "3", "--k", "X"], "--k"),
        (["series", "--weights", "k=X", "--order", "3"], "--weights"),
    ]

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "+3", " 3"], ids=["separator", "arabic", "plus", "space"])
    @pytest.mark.parametrize(
        "template, flag", CASES, ids=["order", "depth", "edges", "count-k", "max-edges", "verify-k", "weights-k"]
    )
    def test_non_ascii_integer_forms_exit_2(self, capsys, template, flag, text):
        argv = [arg.replace("X", text) for arg in template]
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (2, "")
        if flag == "--weights":
            assert captured.err == f"error: argument --weights: bad k in {'k=' + text!r}\n"
        else:
            assert captured.err == f"error: argument {flag}: invalid int value: {text!r}\n"

    # each option just below its range, and the one line it exits with
    BELOW_RANGE = [
        (["series", "--weights", "catalan", "--order", "-1"], "argument --order: must be at least 0: '-1'"),
        (["series", "--weights", "eq1", "--order", "3", "--depth", "0"], "argument --depth: must be at least 1: '0'"),
        (["enumerate", "--edges", "-1"], "argument --edges: must be at least 0: '-1'"),
        (["count", "--perm", "1 2 3", "--k", "0"], "argument --k: must be at least 1: '0'"),
        (["verify", "--check", "theorem5", "--max-edges", "-1"], "argument --max-edges: must be at least 0: '-1'"),
        (["verify", "--check", "theorem5", "--max-edges", "3", "--k", "0"], "argument --k: must be at least 1: '0'"),
        (["series", "--weights", "k=0", "--order", "3"], "argument --weights: bad k in 'k=0'"),
    ]

    @pytest.mark.parametrize(
        "argv, line", BELOW_RANGE, ids=["order", "depth", "edges", "count-k", "max-edges", "verify-k", "weights-k"]
    )
    def test_below_range_exits_2_with_one_line(self, capsys, argv, line):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert (info.value.code, captured.out, captured.err) == (2, "", f"error: {line}\n")

    def test_every_integer_option_is_range_checked_by_the_parser(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        typed = {
            (name, action.dest): action.type
            for name, subparser in sub.choices.items()
            for action in subparser._actions
            if action.type is not None
        }
        assert int not in typed.values()
        assert typed == {
            ("series", "weights"): cli._parse_weights,
            ("series", "order"): cli._int,
            ("series", "depth"): cli._positive,
            ("enumerate", "edges"): cli._int,
            ("count", "k"): cli._positive,
            ("verify", "max_edges"): cli._int,
            ("verify", "k"): cli._positive,
        }


class TestVerifyCommand:
    def test_pass_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "theorem5", "--max-edges", "6", "--k", "3")
        assert code == 0
        assert out.splitlines()[-1] == "PASS theorem5 (checked 591)"

    def test_every_check_runs_small(self, capsys):
        for check in ("theorem1", "lemma2", "theorem3", "lemma3", "lemma4", "theorem5", "corollary6", "bijections"):
            code, out, _ = run_cli(capsys, "verify", "--check", check, "--max-edges", "4")
            assert code == 0, (check, out)

    def test_every_check_counts_each_tree_once_per_k(self, capsys):
        trees = sum(catalan_table(6))
        per_tree = {"lemma4": 4, "theorem5": 5, "corollary6": 3}
        for check in ("theorem1", "lemma2", "theorem3", "lemma3", "lemma4", "theorem5", "corollary6", "bijections"):
            code, out, _ = run_cli(capsys, "verify", "--check", check, "--max-edges", "6")
            assert code == 0, (check, out)
            assert out.splitlines()[-1] == f"PASS {check} (checked {per_tree.get(check, 1) * trees})"

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "lemma2", "--max-edges", "4", "--json")
        doc = json.loads(out)
        assert doc["check"] == "lemma2"
        assert doc["ok"] is True
        assert doc["failures"] == []
        assert doc["checked"] == 1 + 1 + 2 + 5 + 14

    def test_k_rejected_where_meaningless(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--check", "lemma2", "--max-edges", "3", "--k", "2")
        assert code == 2
        assert "does not take --k" in err

    def test_k_beyond_max_edges_exits_2_at_once(self):
        for check in ("lemma4", "theorem5", "corollary6"):
            proc = subprocess.run(
                [sys.executable, "-m", "catfrac", "verify", "--check", check, "--max-edges", "3", "--k", "1000000000"],
                capture_output=True,
                text=True,
                env=CHILD_ENV,
                timeout=60,
            )
            assert (proc.returncode, proc.stdout) == (2, ""), check
            assert proc.stderr == "error: --k must be at most 3 for --max-edges 3\n"

    def test_k_bound_is_max_edges_or_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "lemma4", "--max-edges", "3", "--k", "3")
        assert code == 0 and out.splitlines()[-1] == "PASS lemma4 (checked 27)"
        code, out, _ = run_cli(capsys, "verify", "--check", "theorem5", "--max-edges", "0", "--k", "1")
        assert code == 0 and out.splitlines()[-1] == "PASS theorem5 (checked 1)"
        code, _, err = run_cli(capsys, "verify", "--check", "theorem5", "--max-edges", "0", "--k", "2")
        assert code == 2 and err == "error: --k must be at most 1 for --max-edges 0\n"

    def test_unknown_check_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--check", "bogus"])
        assert info.value.code == 2


class TestCostGuard:
    """``verify`` refuses, before any work, a bound whose trees pass ``cli.MAX_TREES``."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(CHECKS)), st.integers(17, 10**6), st.booleans())
    def test_a_bound_past_16_exits_2_at_once(self, check, max_edges, as_json):
        argv = ["verify", "--check", check, "--max-edges", str(max_edges)] + ["--json"] * as_json
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 1
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == f"error: --max-edges {max_edges} visits at least 178405157 trees (ceiling 100000000)\n"

    def test_the_ceiling_falls_between_16_and_17(self, capsys, monkeypatch):
        # sum of Catalan(n) for n <= 16 is 48 760 367, for n <= 17 it is 178 405 157
        bounds = []
        monkeypatch.setitem(CHECKS, "lemma2", (lambda n, k: bounds.append(n) or CheckResult("stub", {}), 10, False))
        assert run_cli(capsys, "verify", "--check", "lemma2", "--max-edges", "16")[0] == 0
        assert run_cli(capsys, "verify", "--check", "lemma2", "--max-edges", "17")[0] == 2
        assert bounds == [16]

    def test_every_admitted_bound_fits_a_one_byte_lane(self):
        # the census checks scan lanes of one byte, which hold the chain's level sum C(n+1, 2) through 255
        catalan = catalan_table(40)
        n = max(m for m in range(40) if sum(catalan[: m + 1]) <= cli.MAX_TREES)
        assert comb(n + 1, 2) <= 255


class TestCountGuard:
    """``count`` refuses, before any work, a --k whose DP steps pass ``cli.MAX_DP_STEPS``."""

    def test_a_long_word_with_a_large_k_exits_2_at_once(self):
        argv = ["count", "--perm", " ".join(map(str, range(1, 2001))), "--k", "2000"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 1
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == (
            "error: --k 2000 on a word of length 2000 takes 3996001000 DP steps (ceiling 1000000000)\n"
        )

    def test_the_ceiling_admits_k_21_on_ten_thousand_elements(self, monkeypatch):
        lengths = []
        monkeypatch.setattr(cli, "count_increasing", lambda word, k: lengths.append(len(word)) or 0)
        monkeypatch.setattr(cli, "has_132", lambda word: None)
        word = " ".join(map(str, range(1, 10**4 + 1)))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["count", "--perm", word, "--k", "21"]) == 0
            assert main(["count", "--perm", word, "--k", "22"]) == 2
        assert lengths == [10**4]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--weights", "eq2", "--order", "6"],
            ["series", "--weights", "multivariate", "--order", "5", "--json"],
            ["enumerate", "--edges", "5", "--stats"],
            ["verify", "--check", "corollary6", "--max-edges", "5", "--json"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert (code1, out1) == (code2, out2)


class TestErrorContract:
    @pytest.mark.parametrize("exc", [RuntimeError("boom\nsecond line"), RecursionError("too deep")])
    def test_unexpected_exception_is_one_line_exit_2(self, capsys, monkeypatch, exc):
        def crash(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_series", crash)
        code, out, err = run_cli(capsys, "series", "--weights", "catalan", "--order", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: internal: ")
        assert err.count("\n") == 1 and "Traceback" not in err


# sha256 of the stdout of the series invocations that perfbench runs, recorded
# while the path DP still multiplied Monomial tuples.
SERIES_DIGESTS = [
    ("catalan", 100, False, "6dbc0ec4fac1193aac6ba172244da1c53a7882c1b0fe627cd0039a65784914d0"),
    ("eq1", 16, False, "861af6144e774496ef01a0b5b537f5d630557ebb2902b53a417f2259e9b7fd48"),
    ("eq2", 22, False, "dc8acd1fc9572fddda601e0da8fb45e65f051e02c4ada1448aafce81d653de3f"),
    ("k=4", 16, False, "e662305b8e773d470e93029f65879fcb325fde57dc26262ec2398b84a7279335"),
    ("multivariate", 13, False, "267a9981ea8dad407e99b15503461cec84e617f4697e47fd751536015ea56ef5"),
    ("k=3", 16, True, "0fded1f7d435277c4034bce63276239e75c50eb672f8cd163313e997a6f132cf"),
]


class TestSeriesBytes:
    @pytest.mark.parametrize("weights,order,as_json,digest", SERIES_DIGESTS)
    def test_stdout_is_pinned(self, capsys, weights, order, as_json, digest):
        argv = ["series", "--weights", weights, "--order", str(order)] + (["--json"] if as_json else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of the verify invocations that perfbench runs, and of
# the k-taking checks at --max-edges 6 for every allowed --k, recorded while
# each k still rebuilt the pattern data of every tree from length 1.
VERIFY_DIGESTS = [
    ("theorem1", 11, None, False, "03dbbb2569a72b9ad1690027eae4c10337aece51934be0500097dd81ceb910b1"),
    ("theorem1", 11, None, True, "c13ebad45acc708b1ad9bc97bdba737a39b9c6d6a44b14f76750919df89f76d9"),
    ("lemma2", 11, None, False, "2c93931e8d89f621ba6e5d0fefc04bc569a1568e2e5239d08d8f52e567aadd5d"),
    ("lemma2", 11, None, True, "8ea2d3b46f3951621be4c457811366cf16dad18441bdb037f175eae52815abe6"),
    ("theorem3", 11, None, False, "2d00d8ae5fde64abafb51132cb0705c466712540c035ea6dd287cd3d9b261dba"),
    ("theorem3", 11, None, True, "6a37b8cc43b27c5e981f9d04feeb2ea2182a0185d32700813c8cca9ded984211"),
    ("lemma3", 9, None, False, "80b92d9d761454a6426e3c693121185a8a39d4c3036bdc48ed9f99296aaf67f9"),
    ("lemma3", 9, None, True, "55e4f1c7da32581e8214d98c0cf412196399473221fb726a65673d449c972af3"),
    ("lemma4", 8, None, False, "f06cdfb1d50024ab8ad5ca0f985d1ff33c055000f35995cff9f73effd3be5e85"),
    ("lemma4", 8, None, True, "358c49bd2c945e497d429873d18bc11f9a941d5270ef8189c496a674cb136917"),
    ("theorem5", 8, None, False, "e8ef3983bccc1067a66694812f14157ff44f968b83eb22178ba1bf604685cc67"),
    ("theorem5", 8, None, True, "db7f36e3dbbe6b3e3882862e8002a354b16cae42eeeb7ea36921b82a1f183c1f"),
    ("corollary6", 11, None, False, "64cbf4d774a6ebd8d7a348c53c5fa3c1d2286655ebf170cbb5af0612b08badc9"),
    ("corollary6", 11, None, True, "68014508c0abf97c5f6e5c6e7ad6ac26a3dbc7f24df2f7b5ddbf1e7a430195f3"),
    ("bijections", 9, None, False, "91a36f3b8abf714cbda365b4ad3837424689fffdd723cc4762714182829c63d9"),
    ("bijections", 9, None, True, "2104155e6bf776280543b91d9be9b6100604faabab870b87330787ab8e03241f"),
    ("lemma4", 6, 1, False, "93b7d8ba35a3e1b7ce4a9c0d5bc06c3f0be6c2b02ea6d2c7b2e5687a48ecbb21"),
    ("lemma4", 6, 1, True, "66c86987c7d8b9a748df8ad8b18a8a5c4c1513c599e2a42c18757fb36042e01d"),
    ("lemma4", 6, 2, False, "853cb1f26fd50e09ed77d0dfe6faef0de349fb0411d4a6e696ca4c5b29afd7e5"),
    ("lemma4", 6, 2, True, "275b87e89f5ca3efaa2b74c21371cb1bd1cc3f7dcc7f6596c1ee6e7f3e0d05dd"),
    ("lemma4", 6, 3, False, "9eb61ddeb0b9ca14a7bfacd4acab5f787cdc5ef2a4a2fda68161e80314b63684"),
    ("lemma4", 6, 3, True, "833b928d78d3ec0762d3e8e89e6ef07116a210d288495fc77149aa575d95af16"),
    ("lemma4", 6, 4, False, "a3c1b200198eca8caaa2f87873164eb6d3c50660d7e43bacd03868b093eb752c"),
    ("lemma4", 6, 4, True, "9d2329479310b1a5704f0739c001452eb190080bc6cad3a236a1934845395b18"),
    ("lemma4", 6, 5, False, "3cd13e978cafba6bff461300e18a54801806f1e638828e6084b8e3a9515ff9d1"),
    ("lemma4", 6, 5, True, "56fc4c3001920a44616155da5726bcacc330aabab15e2133edcf2953a4b57abe"),
    ("lemma4", 6, 6, False, "7632655141d2c81e80789d73f59526d76f29dcb5dc528f4c33ac0eae3e9efbb6"),
    ("lemma4", 6, 6, True, "00460fb2363647e722caa8b26e5120a8df472e0d46dc3da96e1efb8cf698e860"),
    ("theorem5", 6, 1, False, "cfbe6ecea4526a2d8996bd58bd904e93f059ec0e85ad5d0be7f2286e8852d9f2"),
    ("theorem5", 6, 1, True, "53929996140f8a374dff5ffb6a42707d207ac595f7b4d9624b53d8b8cad0b4b3"),
    ("theorem5", 6, 2, False, "47fecd90a88181a6467fadadfbfbf84e08253be1a4f83fea17858b8054f7d847"),
    ("theorem5", 6, 2, True, "dd41e93df5b16b78093542582f378f403ee15243695cf108379813d4a133c198"),
    ("theorem5", 6, 3, False, "0d253256c8d456db7d73b29d54361ca55419d9d95c00503bf3503c47f0146ae4"),
    ("theorem5", 6, 3, True, "c06679b0c2d30882fa4e2a08e02bb69c63862b28d49a4a3b4687e705fe2a77b9"),
    ("theorem5", 6, 4, False, "c5e9d9e7c465f5b305f08841b2b2523420294fc38b4d06ae095b7ec211f1648d"),
    ("theorem5", 6, 4, True, "7fe2771e1aa29671f57146967dabbc9c064831442a6ea4a839422f553ce00319"),
    ("theorem5", 6, 5, False, "c2c25da9aa7e7b0681a9d0881f165d21dd7fd85b6058b29870cd7da2d9d2a465"),
    ("theorem5", 6, 5, True, "9621da4d58606f64eb0d50e8a4722b150a464437405bc3b2174cddfe6bc508db"),
    ("theorem5", 6, 6, False, "6c682b1edb61f75cfddb3e7e644beadb6ad01d16da8cbc19f4c75ec1ec45e66c"),
    ("theorem5", 6, 6, True, "3292a87fc54bf0b5565308cb1acbffa8c4a4d0cdb9a647f51d508f0494762df0"),
    ("corollary6", 6, 1, False, "56d9caa3b33207cdac70cd181d5bf205110e8b597335d10876b04c7a02afbc89"),
    ("corollary6", 6, 1, True, "e8055e96c72aba5189042a760cb1f512f419fcc8076f446cff854b225804c921"),
    ("corollary6", 6, 2, False, "b45882b94cf11189deee4f53aec69f30aba70a9d8849a5cd03277d8c1e2e2765"),
    ("corollary6", 6, 2, True, "bf765d9aa9b5ca4395d7ff3d3040ec610322f0d6c58c2a470b8f2bbee06f3408"),
    ("corollary6", 6, 3, False, "a0ee46862d4d4bd78ae85f13cfdbc9b512aceb0290ca86f691f24f086d18c6ed"),
    ("corollary6", 6, 3, True, "da43bf864e3fe93b25820b8bc4ca5fc0092478276e48c0fca3acfc1bb40df9b2"),
    ("corollary6", 6, 4, False, "31e0a700993de34d159efddde1509175a336d28c3fe68702d95434365ec740d9"),
    ("corollary6", 6, 4, True, "b34cda0234793e7a26fdd1e2a7c2154a04a6e06ec3c80c364e4512c5938fdd07"),
    ("corollary6", 6, 5, False, "115e6096e430004d91f5ff751e45c5f442e20a66a317345c5a564cd4defcd9ec"),
    ("corollary6", 6, 5, True, "64ecaa9b6fbd7fb471187214bee0ea26a04aeca5eace4ef490cd6be01a349918"),
    ("corollary6", 6, 6, False, "e08293209ecdbf05a5bd69517d427c7164f066fc9ef19fe09c933d6d62bdbc94"),
    ("corollary6", 6, 6, True, "7de15336f6e7746f621fb397f465003a62caf99aa802291f26c342e9056643b2"),
]


class TestVerifyBytes:
    @pytest.mark.parametrize("check,max_edges,k,as_json,digest", VERIFY_DIGESTS)
    def test_stdout_is_pinned(self, capsys, check, max_edges, k, as_json, digest):
        argv = ["verify", "--check", check, "--max-edges", str(max_edges)]
        argv += (["--k", str(k)] if k is not None else []) + (["--json"] if as_json else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _ints(high):
    good = st.integers(0, high).map(str)
    junk = st.sampled_from(["", "x", "-", "1.5", "0x3", "2 3"])
    return st.one_of(good, good, good, st.integers(-3, -1).map(str), junk)


_JUNK = st.sampled_from(["", "x", "-", "--", "--bogus", "--help", "a\nb", "-1"])
_ENCODINGS = st.sampled_from(["tree", "path", "perm", "tree", "path", "perm", "bogus", ""])
_VALUES = st.sampled_from(
    ["", "()", "(())()", "EENN", "ENEN", "1 2", "3 1 2", "2 1 3", "())", "((", "NE", "1 3 2", "0", "x", "a\nb"]
)
# (flag, value strategy); a None flag is a positional value, a None strategy a switch.
_OPTIONS = {
    "series": [
        ("--weights", st.sampled_from(["catalan", "eq1", "eq2", "multivariate", "k=1", "k=3", "k=0", "k=", "k=x", "bogus"])),
        ("--order", _ints(12)),
        ("--depth", st.one_of(_ints(12), st.just(str(10**8)))),
        ("--json", None),
    ],
    "enumerate": [("--edges", _ints(6)), ("--stats", None), ("--json", None)],
    "map": [("--from", _ENCODINGS), ("--to", _ENCODINGS), (None, _VALUES), ("--json", None)],
    "count": [
        ("--perm", st.sampled_from(["1 2 3", "3 1 2", "21", "1", "", "4 3 1 2", "1 3 2", "1 1", "0 1", "x"])),
        ("--k", st.one_of(_ints(6), st.just(str(10**9)))),
        ("--json", None),
    ],
    "verify": [
        ("--check", st.sampled_from([*sorted(CHECKS), "bogus"])),
        ("--max-edges", _ints(6)),
        ("--k", _ints(8)),
        ("--json", None),
    ],
}


@st.composite
def small_argvs(draw):
    """An argv over the CLI's vocabulary whose sizes keep every run short.

    Each option of the drawn subcommand is kept with probability 3/4, and
    one junk token may land anywhere.  ``verify`` always keeps --max-edges,
    so no check runs at its default bound.
    """
    command = draw(st.sampled_from([*_OPTIONS, *_OPTIONS, "bogus", ""]))
    options = _OPTIONS.get(command, [])
    kept = [option for option in options if option[0] == "--max-edges" or draw(st.integers(0, 3))]
    argv = [command]
    for flag, values in draw(st.permutations(kept)):
        argv += [flag] if flag is not None else []
        argv += [draw(values)] if values is not None else []
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


class TestArgvContract:
    @settings(max_examples=200, deadline=None)
    @given(small_argvs())
    def test_any_argv_ends_in_a_documented_exit(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "catfrac", "map", "--from", "tree", "--to", "perm", "((()))"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1 2 3\n"

    def test_closed_stdout_exits_quietly(self):
        # 16796 lines overflow the pipe buffer, so the writer sees the reader leave
        proc = subprocess.Popen(
            [sys.executable, "-m", "catfrac", "enumerate", "--edges", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
        )
        assert proc.stdout.readline() == b"()()()()()()()()()()\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == 0


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        import catfrac

        assert len(set(catfrac.__all__)) == len(catfrac.__all__)
        assert [name for name in catfrac.__all__ if not hasattr(catfrac, name)] == []

    def test_star_import_binds_exactly_all(self):
        import catfrac

        namespace: dict = {}
        exec("from catfrac import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(catfrac.__all__)

    def test_root_exports_only_the_version(self):
        import catfrac

        assert catfrac.__all__ == ["__version__"]

    def test_import_loads_no_submodule(self):
        code = "import sys, catfrac; print(sorted(m for m in sys.modules if m.split('.')[0] == 'catfrac'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
        assert (proc.returncode, proc.stdout) == (0, "['catfrac']\n"), proc.stderr


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ catfrac ...`` line of README.md with the output lines shown under it."""
    examples: list[tuple[str, list[str]]] = []
    in_block = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("$ catfrac "):
            examples.append((line[len("$ catfrac ") :], []))
        elif in_block and examples and not line.startswith("$"):
            examples[-1][1].append(line)
    return examples


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    """The README's shell examples, compared with runs of whitespace collapsed.

    A ``...`` line elides output: the lines above it match the head of the
    output and the lines below it the tail.
    """

    def test_all_seven_are_found(self):
        assert len(README_EXAMPLES) == 7

    @pytest.mark.parametrize("command,shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
    def test_example_prints_what_the_readme_shows(self, capsys, command, shown):
        code, out, err = run_cli(capsys, *shlex.split(command))
        assert (code, err) == (0, "")
        got = [" ".join(line.split()) for line in out.splitlines()]
        shown = [" ".join(line.split()) for line in shown]
        if "..." not in shown:
            assert got == shown
            return
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1 :]
        assert len(got) >= len(head) + len(tail)
        assert got[: len(head)] == head
        assert got[len(got) - len(tail) :] == tail


# Runs in a fresh interpreter whose recursion limit is far below the input
# depth, so any recursive walk over a tree fails here.
DEEP_INPUTS = """
import contextlib, io, sys
from math import comb
from catfrac import cli
from catfrac.paths import parse_path, path_to_tree
from catfrac.perms import enumerate_132_avoiders
from catfrac.trees import binom_level_sum, children, decode, generate_trees, level_profile, level_sum

n = 10_000
shapes = {
    "chain": {"tree": "(" * n + ")" * n, "path": "E" * n + "N" * n,
              "perm": " ".join(map(str, range(1, n + 1)))},
    "star": {"tree": "()" * n, "path": "EN" * n,
             "perm": " ".join(map(str, range(n, 0, -1)))},
}
sys.setrecursionlimit(150)
for shape, enc in shapes.items():
    for src in enc:
        for dst in enc:
            if src != dst:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["map", "--from", src, "--to", dst, enc[src]])
                assert (code, out.getvalue()) == (0, enc[dst] + "\\n"), (shape, src, dst)
chain = decode(shapes["chain"]["tree"])
assert path_to_tree(parse_path(shapes["chain"]["path"])) == chain
star = decode(shapes["star"]["tree"])
assert children(star) == ("",) * n
assert children(chain) == ("(" * (n - 1) + ")" * (n - 1),)
assert level_profile(chain) == (1,) * n
assert level_sum(chain) == comb(n + 1, 2)
assert binom_level_sum(chain, 3) == comb(n, 3)
first = [t for _, t in zip(range(3), generate_trees(n))]
assert first == ["()" * n, "()" * (n - 2) + "(())", "()" * (n - 3) + "(())()"], [w[-12:] for w in first]
assert next(enumerate_132_avoiders(5000)) == tuple(range(1, 5001))
"""


class TestDeepInputs:
    def test_ten_thousand_edges_under_a_low_recursion_limit(self):
        proc = subprocess.run([sys.executable, "-c", DEEP_INPUTS], capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stderr == ""
