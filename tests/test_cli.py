import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from catfrac import cli
from catfrac.cli import main
from catfrac.verify import CHECKS

from conftest import CHILD_ENV
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
        code, _, err = run_cli(capsys, "series", "--weights", "catalan", "--order", "-1")
        assert code == 2
        assert "error:" in err


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

        monkeypatch.setitem(cli._COMMANDS, "series", crash)
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


# Runs in a fresh interpreter whose recursion limit is far below the input
# depth, so any recursive walk over a tree fails here.
DEEP_INPUTS = """
import contextlib, io, sys
from math import comb
from catfrac import cli
from catfrac.paths import parse_path, path_to_tree
from catfrac.trees import binom_level_sum, decode, level_profile, level_sum

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
same = path_to_tree(parse_path(shapes["chain"]["path"]))
assert same is not chain and same == chain and hash(same) == hash(chain)
star = decode(shapes["star"]["tree"])
assert chain != star
assert len(star.children) == n and set(star.children) == {decode("")}
(only_child,) = chain.children
assert only_child.n_edges == n - 1 and only_child == decode("(" * (n - 1) + ")" * (n - 1))
assert repr(chain) == "decode(%r)" % shapes["chain"]["tree"]
assert level_profile(chain) == (1,) * n
assert level_sum(chain) == comb(n + 1, 2)
assert binom_level_sum(chain, 3) == comb(n, 3)
assert chain.n_edges == n
"""


class TestDeepInputs:
    def test_ten_thousand_edges_under_a_low_recursion_limit(self):
        proc = subprocess.run([sys.executable, "-c", DEEP_INPUTS], capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stderr == ""
