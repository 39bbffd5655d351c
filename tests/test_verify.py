import json
import subprocess
import sys
from pathlib import Path

import pytest

from catfrac import verify
from catfrac.cli import main
from catfrac.paths import _trusted_path
from catfrac.trees import OrderedTree
from catfrac.verify import CheckResult

from conftest import CHILD_ENV
from oracles import (
    catalan_table,
    column_area,
    dyck_words,
    naive_count_increasing,
    naive_has_132,
    pattern_polynomial_by_scan,
)


class TestOracles:
    def test_area_polynomial_matches_independent_generator(self):
        for n in range(8):
            from collections import Counter

            expected = Counter(column_area(w) for w in dyck_words(n))
            assert verify.area_polynomial(n) == dict(expected)

    def test_pattern_scan_matches_naive_oracle(self):
        from collections import Counter
        from itertools import permutations

        for n in range(7):
            for k in (2, 3):
                expected = Counter(
                    naive_count_increasing(p, k)
                    for p in permutations(range(1, n + 1))
                    if naive_has_132(p) is None
                )
                assert pattern_polynomial_by_scan(n, k) == dict(expected)

    def test_pattern_scan_totals_are_catalan(self):
        table = catalan_table(8)
        for n in range(9):
            assert sum(pattern_polynomial_by_scan(n, 3).values()) == table[n]

    def test_level_profile_census_totals(self):
        table = catalan_table(7)
        for n in range(8):
            census = verify.level_profile_census(n)
            assert sum(census.values()) == table[n]

    def test_z_slice_q_rejects_multivariate(self):
        from catfrac.contfrac import LevelWeights, eval_cf

        series = eval_cf(LevelWeights.multivariate(), 3, 3)
        with pytest.raises(ValueError, match="level variables"):
            verify.z_slice_q(series, 2)


class TestChecksPass:
    def test_level_census(self):
        assert verify.check_level_census(6).ok

    def test_area_formula(self):
        assert verify.check_area_formula(8).ok

    def test_area_series(self):
        assert verify.check_area_series(8).ok

    def test_word_concatenation(self):
        assert verify.check_word_concatenation(8).ok

    def test_chain_subsets(self):
        assert verify.check_chain_subsets(6, k_max=4).ok

    def test_pattern_counts(self):
        assert verify.check_pattern_counts(7, k_max=5).ok

    def test_pattern_series_at_full_bounds(self):
        result = verify.check_pattern_series(9, ks=(2, 3, 4))
        assert result.ok
        assert result.checked == 3 * sum(catalan_table(9))

    def test_bijections(self):
        assert verify.check_bijections(7).ok


class TestCheckResult:
    def test_fail_collects_then_stops(self):
        result = CheckResult("x", {})
        kept = [result.fail(f"c{i}") for i in range(10)]
        assert result.ok is False
        assert len(result.failures) == 10
        assert kept[:4] == [True] * 4
        assert kept[4:] == [False] * 6

    def test_bijections_skips_avoider_scan_past_cap(self, monkeypatch):
        monkeypatch.setattr(verify, "PERM_ORACLE_MAX", 3)
        result = verify.check_bijections(5)
        assert result.ok
        assert any("avoider scan skipped" in line for line in result.detail_lines)


class TestEarlyStop:
    def test_area_formula_stops_after_five_failures(self, monkeypatch):
        monkeypatch.setattr(verify, "area_via_levels", lambda t: -1)
        result = verify.check_area_formula(4)
        assert result.ok is False
        assert result.failures == [
            "n=0 tree='' area=0 formula=-1",
            "n=1 tree='()' area=0 formula=-1",
            "n=2 tree='()()' area=1 formula=-1",
            "n=2 tree='(())' area=0 formula=-1",
            "n=3 tree='()()()' area=3 formula=-1",
        ]
        assert result.checked == 5
        assert result.detail_lines == ["n=0 trees checked", "n=1 trees checked", "n=2 trees checked"]

    def test_pattern_counts_stops_after_five_failures(self, monkeypatch):
        monkeypatch.setattr(verify, "binom_profile_sum", lambda profile, k: -1)
        result = verify.check_pattern_counts(3, k_max=2)
        assert result.ok is False
        assert result.failures == [
            "n=0 k=1 tree='' word=0 levels=-1 chains=0",
            "n=0 k=2 tree='' word=0 levels=-1 chains=0",
            "n=1 k=1 tree='()' word=1 levels=-1 chains=1",
            "n=1 k=2 tree='()' word=0 levels=-1 chains=0",
            "n=2 k=1 tree='()()' word=2 levels=-1 chains=2",
        ]
        assert result.checked == 5
        assert result.detail_lines == ["n=0 trees checked for k <= 2", "n=1 trees checked for k <= 2"]

    def test_chain_subsets_stops_after_five_failures(self, monkeypatch):
        real = verify.tree_to_perm
        monkeypatch.setattr(verify, "tree_to_perm", lambda t: real(t)[::-1])
        result = verify.check_chain_subsets(4, k_max=3)
        assert result.ok is False
        assert result.failures == [
            "n=2 k=2 tree='()()' patterns=[[1, 2]] chains=[]",
            "n=2 k=2 tree='(())' patterns=[] chains=[[1, 2]]",
            "n=3 k=2 tree='()()()' patterns=[[1, 2], [1, 3], [2, 3]] chains=[]",
            "n=3 k=3 tree='()()()' patterns=[[1, 2, 3]] chains=[]",
            "n=3 k=2 tree='()(())' patterns=[[1, 3], [2, 3]] chains=[[1, 2]]",
        ]
        assert result.checked == 17
        assert result.detail_lines == [
            "n=0 trees checked for k <= 3",
            "n=1 trees checked for k <= 3",
            "n=2 trees checked for k <= 3",
        ]

    def test_word_concatenation_reports_a_broken_split(self, monkeypatch):
        # reversed subtrees shift each block past the wrong neighbours
        real = OrderedTree.children
        monkeypatch.setattr(OrderedTree, "children", property(lambda t: real.fget(t)[::-1]))
        result = verify.check_word_concatenation(4)
        assert result.ok is False
        assert result.failures == [
            "n=3 tree='()(())' split=(2, 3, 1) direct=(3, 1, 2)",
            "n=3 tree='(())()' split=(3, 1, 2) direct=(2, 3, 1)",
            "n=4 tree='()()(())' split=(3, 4, 2, 1) direct=(4, 3, 1, 2)",
            "n=4 tree='()(()())' split=(3, 2, 4, 1) direct=(4, 2, 1, 3)",
            "n=4 tree='()((()))' split=(2, 3, 4, 1) direct=(4, 1, 2, 3)",
        ]
        assert result.checked == 14
        assert result.detail_lines == [
            "n=0 trees checked",
            "n=1 trees checked",
            "n=2 trees checked",
            "n=3 trees checked",
        ]

    def test_pattern_series_reports_a_wrong_formula(self, monkeypatch):
        monkeypatch.setattr(verify, "binom_profile_sum", lambda profile, k: 0)
        result = verify.check_pattern_series(3, ks=(2, 3))
        assert result.ok is False
        assert result.failures == [
            "k=2 n=2: series slice {0: 1, 1: 1} != census {0: 2}",
            "k=2 n=3: series slice {0: 1, 1: 2, 2: 1, 3: 1} != census {0: 5}",
            "k=3 n=3: series slice {0: 4, 1: 1} != census {0: 5}",
        ]
        assert result.checked == 2 * (1 + 1 + 2 + 5)
        assert result.detail_lines == ["k=2 checked through n=3", "k=3 checked through n=3"]

    @staticmethod
    def _double_the_census(monkeypatch):
        real = verify.level_profile_census
        monkeypatch.setattr(verify, "level_profile_census", lambda n: {p: 2 * c for p, c in real(n).items()})

    def test_level_census_stops_after_five_failures(self, monkeypatch, capsys):
        self._double_the_census(monkeypatch)
        result = verify.check_level_census(7)
        assert result.ok is False
        assert result.failures[:3] == [
            "n=0: series slice {(): 1} != census {(): 2}",
            "n=1: series slice {(1,): 1} != census {(1,): 2}",
            "n=2: series slice {(1, 1): 1, (2,): 1} != census {(2,): 2, (1, 1): 2}",
        ]
        assert [f.split(":")[0] for f in result.failures] == ["n=0", "n=1", "n=2", "n=3", "n=4"]
        assert result.checked == 2 * (1 + 1 + 2 + 5 + 14)
        assert result.detail_lines == [
            "n=0 profiles=1 trees=2",
            "n=1 profiles=1 trees=2",
            "n=2 profiles=2 trees=4",
            "n=3 profiles=4 trees=10",
        ]
        assert main(["verify", "--check", "theorem1"]) == 1
        assert capsys.readouterr().out.count("  FAIL n=") == 5

    def test_pattern_series_stops_after_five_failures(self, monkeypatch, capsys):
        self._double_the_census(monkeypatch)
        result = verify.check_pattern_series(8, ks=(2, 3, 4))
        assert result.ok is False
        assert result.failures == [
            "k=2 n=0: series slice {0: 1} != census {0: 2}",
            "k=2 n=1: series slice {0: 1} != census {0: 2}",
            "k=2 n=2: series slice {0: 1, 1: 1} != census {0: 2, 1: 2}",
            "k=2 n=3: series slice {0: 1, 1: 2, 2: 1, 3: 1} != census {0: 2, 1: 4, 2: 2, 3: 2}",
            "k=2 n=4: series slice {0: 1, 1: 3, 2: 3, 3: 3, 4: 2, 5: 1, 6: 1} "
            "!= census {0: 2, 1: 6, 2: 6, 3: 6, 4: 4, 5: 2, 6: 2}",
        ]
        assert result.checked == 2 * (1 + 1 + 2 + 5 + 14)
        assert result.detail_lines == []
        assert main(["verify", "--check", "corollary6"]) == 1
        assert capsys.readouterr().out.count("  FAIL k=2 n=") == 5

    def test_area_series_stops_after_five_failures(self, monkeypatch):
        real = verify.area_polynomial
        monkeypatch.setattr(verify, "area_polynomial", lambda n: {a: 2 * c for a, c in real(n).items()})
        result = verify.check_area_series(8)
        assert result.ok is False
        assert [f.split(":")[0] for f in result.failures] == ["n=0", "n=1", "n=2", "n=3", "n=4"]
        assert result.failures[2] == "n=2: series slice {2: 1, 3: 1} != reversed census {2: 2, 3: 2}"
        assert result.detail_lines == ["n=0 paths=2", "n=1 paths=2", "n=2 paths=4", "n=3 paths=10"]

    def test_bijections_stop_after_five_avoider_set_failures(self, monkeypatch):
        monkeypatch.setattr(verify, "enumerate_132_avoiders", lambda n: [])
        result = verify.check_bijections(8)
        assert result.ok is False
        assert [f.split(":")[0] for f in result.failures] == ["n=0", "n=1", "n=2", "n=3", "n=4"]
        assert result.failures[2] == "n=2: image != avoider set; extra=['1 2', '2 1'] missing=[]"
        assert result.checked == 1 + 1 + 2 + 5 + 14
        assert len(result.detail_lines) == 4


REPO = Path(__file__).resolve().parent.parent


class TestTracedRun:
    def test_trace_sees_the_check_and_keeps_stdout(self):
        argv = ["verify", "--check", "theorem5", "--max-edges", "3", "--k", "2"]

        def run(*cmd):
            return subprocess.run([sys.executable, *cmd, *argv], capture_output=True, text=True, env=CHILD_ENV, cwd=REPO)

        plain = run("-m", "catfrac")
        traced = run("perfbench/trace_op.py")
        assert traced.returncode == plain.returncode == 0, traced.stderr[-2000:]
        assert traced.stdout == plain.stdout
        marker = "PERFBENCH-TRACE "
        line = next(x for x in traced.stderr.splitlines() if x.startswith(marker))
        report = json.loads(line[len(marker):])
        stat = report["verify.check_pattern_counts"]
        assert (stat["calls"], stat["checked"]) == (1, 18)
        # every name the tracer wraps must still resolve, the generators included
        assert "paths.generate_paths" in report and "trees.encode" in report
        assert report["trees.generate_trees"]["items"] == sum(catalan_table(3))


class TestCliFailurePath:
    def test_failing_check_exits_1_and_dumps_counterexample(self, capsys, monkeypatch):
        def broken(n, k):
            result = CheckResult("forced failure", {"max_edges": n})
            result.fail("n=2 tree='()()' expected=1 got=0")
            return result

        monkeypatch.setitem(verify.CHECKS, "lemma2", (broken, 4, False))
        code = main(["verify", "--check", "lemma2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL n=2 tree='()()'" in out
        assert out.splitlines()[-1].startswith("FAIL lemma2")

    def test_failing_check_json(self, capsys, monkeypatch):
        def broken(n, k):
            result = CheckResult("forced failure", {"max_edges": n})
            result.fail("counterexample")
            return result

        monkeypatch.setitem(verify.CHECKS, "theorem1", (broken, 4, False))
        code = main(["verify", "--check", "theorem1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["ok"] is False
        assert doc["failures"] == ["counterexample"]

    @staticmethod
    def _broken_bijections(capsys, max_edges=3):
        """The broken round-trip lines and the summary line of a failing run."""
        code = main(["verify", "--check", "bijections", "--max-edges", str(max_edges)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        return [line for line in lines if "round trip broke" in line], lines[-1]

    def test_perm_codec_off_by_one_is_a_counterexample(self, capsys, monkeypatch):
        real = verify.tree_to_perm
        monkeypatch.setattr(verify, "tree_to_perm", lambda t: tuple(x - 1 for x in real(t)))
        broke, _ = self._broken_bijections(capsys)
        assert broke[0] == "  FAIL n=1 tree='()' perm round trip broke: not a permutation of 1..1: [0]"
        assert all(line.startswith("  FAIL n=") and " tree=" in line for line in broke)

    def test_path_codec_with_swapped_steps_is_a_counterexample(self, capsys, monkeypatch):
        real = verify.tree_to_path
        swap = str.maketrans("EN", "NE")
        monkeypatch.setattr(verify, "tree_to_path", lambda t: _trusted_path(real(t).steps.translate(swap)))
        broke, summary = self._broken_bijections(capsys)
        assert broke[0] == "  FAIL n=1 tree='()' path round trip broke: unmatched ')' at position 0"
        assert len(broke) == 5 and all(line.startswith("  FAIL n=") and " tree=" in line for line in broke)
        # the fifth failure stops the run inside n=3, after 1 + 1 + 2 + 2 trees
        assert summary == "FAIL bijections (checked 6)"

    def test_decoder_returning_another_valid_tree_is_a_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "path_to_tree", lambda path: OrderedTree())
        broke, summary = self._broken_bijections(capsys, max_edges=2)
        assert broke[0] == "  FAIL n=1 tree='()' path round trip broke"
        assert summary == "FAIL bijections (checked 4)"
