import json
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest

from catfrac import perms, trees, verify
from catfrac.cli import main
from catfrac.paths import area, tree_to_path
from catfrac.trees import generate_trees, level_profile, level_sum
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
        from catfrac.contfrac import MULTIVARIATE, eval_cf

        series = eval_cf(MULTIVARIATE, 3, 3)
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

    def test_ok_is_read_from_the_failures(self):
        result = CheckResult("x", {})
        assert result.ok is True
        with pytest.raises(AttributeError):
            result.ok = False
        result.failures.append("c0")
        assert result.ok is False


class TestEarlyStop:
    def test_area_formula_stops_after_five_failures(self, monkeypatch):
        monkeypatch.setattr(verify, "area_from_level_sums", lambda n, sums, ones=1: -1)
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
            "n=0 k=1 tree='' word=0 levels=-1",
            "n=0 k=2 tree='' word=0 levels=-1",
            "n=1 k=1 tree='()' word=1 levels=-1",
            "n=1 k=2 tree='()' word=0 levels=-1",
            "n=2 k=1 tree='()()' word=2 levels=-1",
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

    def test_lemma4_catches_a_chain_scan_that_drops_the_deepest_chain(self, monkeypatch, capsys):
        # theorem5 reads no chains, so lemma4 alone must catch a broken chain scan
        real = verify.root_to_leaf_subsets_by_length

        def broken(t, k):
            out = real(t, k)
            filled = [chains for chains in out.values() if chains]
            if filled:
                filled[-1].remove(max(filled[-1], key=sorted))
            return out

        monkeypatch.setattr(verify, "root_to_leaf_subsets_by_length", broken)
        assert main(["verify", "--check", "lemma4"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("  FAIL ")] == [
            "  FAIL n=1 k=1 tree='()' patterns=[[1]] chains=[]",
            "  FAIL n=2 k=1 tree='()()' patterns=[[1], [2]] chains=[[1]]",
            "  FAIL n=2 k=2 tree='(())' patterns=[[1, 2]] chains=[]",
            "  FAIL n=3 k=1 tree='()()()' patterns=[[1], [2], [3]] chains=[[1], [2]]",
            "  FAIL n=3 k=2 tree='()(())' patterns=[[1, 2]] chains=[]",
        ]
        assert lines[-1] == "FAIL lemma4 (checked 22)"
        assert main(["verify", "--check", "theorem5", "--max-edges", "4"]) == 0

    def test_word_concatenation_reports_a_broken_split(self, monkeypatch):
        # reversed subtrees shift each block past the wrong neighbours
        real = verify.children
        monkeypatch.setattr(verify, "children", lambda t: real(t)[::-1])
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
        assert result.failures[2] == "n=2: trees=2 != avoiders=0"
        assert result.checked == 1 + 1 + 2 + 5 + 14
        assert len(result.detail_lines) == 4


@lru_cache(maxsize=None)
def _per_tree_censuses(n):
    """(level profiles, areas) of the trees on n edges, counted one tree at a time."""
    profiles = Counter(map(level_profile, generate_trees(n)))
    areas = Counter(area(tree_to_path(t)) for t in generate_trees(n))
    return list(profiles.items()), list(areas.items())


def _formula_off_where_the_level_sum_is_a_multiple_of_3(n, sums, ones=1):
    """Lemma 2's formula plus 1 in every lane whose level sum is 0 mod 3 (1-byte lanes)."""
    lanes = sums.to_bytes((ones.bit_length() + 7) // 8, "little")
    return comb(n + 1, 2) * ones - sums + int.from_bytes(bytes(s % 3 == 0 for s in lanes), "little")


class TestLaneCensus:
    @pytest.mark.parametrize("batch", [1, 3, trees.LANE_BATCH])
    def test_lane_censuses_equal_the_per_tree_censuses(self, monkeypatch, batch):
        # a batch of 1 or 3 puts batch boundaries everywhere and leaves short last batches
        monkeypatch.setattr(trees, "LANE_BATCH", batch)
        for n in range(12):
            profiles, areas = _per_tree_censuses(n)
            # keys in first-seen order, which the series-slice failure lines print
            assert list(verify.level_profile_census(n).items()) == profiles
            assert list(verify.area_polynomial(n).items()) == areas

    @pytest.mark.parametrize(
        "formula", [lambda n, sums, ones=1: -1, _formula_off_where_the_level_sum_is_a_multiple_of_3]
    )
    def test_lemma2_failures_do_not_depend_on_the_batch_size(self, monkeypatch, formula):
        monkeypatch.setattr(verify, "area_from_level_sums", formula)
        default = verify.check_area_formula(8)
        monkeypatch.setattr(trees, "LANE_BATCH", 3)
        small = verify.check_area_formula(8)
        assert len(default.failures) == 5
        assert (small.failures, small.checked, small.detail_lines) == (
            default.failures,
            default.checked,
            default.detail_lines,
        )
        # the same five trees, found one tree at a time
        wrong = (
            (n, t)
            for n in range(9)
            for t in generate_trees(n)
            if formula(n, level_sum(t)) != area(tree_to_path(t))
        )
        assert [line.split(" area=")[0] for line in default.failures] == [
            f"n={n} tree={t!r}" for n, t in list(wrong)[:5]
        ]

    def test_the_census_scans_stream_past_the_word_cache(self):
        for _ in generate_trees(trees._CACHE_MAX):  # fills the shared word cache first
            pass
        for scan in (lambda: verify.check_area_formula(12), lambda: verify.level_profile_census(12)):
            tracemalloc.start()
            try:
                scan()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20


class TestBijectionCertificate:
    """Each part of the bijections certificate catches its own fault, and the check holds no set of words."""

    @pytest.mark.parametrize(
        "edit, failures",
        [
            (lambda words: words[:-1], ["n=3: trees=5 != avoiders=4"]),
            # a repeat in place of a word keeps the count: only the order check sees it
            (lambda words: words[:2] + words[1:2] + words[3:], ["n=3 perm='2 1 3' does not follow '2 1 3'"]),
            (lambda words: words[:1] + words[2:0:-1] + words[3:], ["n=3 perm='2 1 3' does not follow '2 3 1'"]),
        ],
        ids=["drops-the-last", "repeats-one", "out-of-order"],
    )
    def test_a_broken_avoider_search_is_a_counterexample(self, monkeypatch, edit, failures):
        # only the avoiders of length 3 pass through the edit
        real = verify.enumerate_132_avoiders
        monkeypatch.setattr(verify, "enumerate_132_avoiders", lambda n: edit(list(real(n))) if n == 3 else real(n))
        result = verify.check_bijections(4)
        assert result.failures == failures
        assert result.checked == 1 + 1 + 2 + 5 + 14
        assert len(result.detail_lines) == 5

    def test_a_decoder_that_rejects_every_avoider_is_a_counterexample(self, monkeypatch):
        monkeypatch.setattr(perms, "has_132", lambda p: (1, 2, 3))
        result = verify.check_bijections(2)
        witness = "word contains a (132) pattern at positions (i, j, k) = (1, 2, 3)"
        words = [(0, ""), (1, "1"), (2, "1 2"), (2, "2 1")]
        assert result.failures == [f"n={n} perm={word!r} tree round trip broke: {witness}" for n, word in words]
        assert result.detail_lines == ["n=0 trees=1 avoiders=1", "n=1 trees=1 avoiders=1", "n=2 trees=2 avoiders=2"]

    def test_the_check_streams_both_sides(self):
        for _ in generate_trees(trees._CACHE_MAX):  # fills the shared word cache first
            pass
        tracemalloc.start()
        try:
            assert verify.check_bijections(10).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _doubled(name):
    def mutate(monkeypatch):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda n: {key: 2 * c for key, c in real(n).items()})

    return mutate


def _reversed_children(monkeypatch):
    real = verify.children
    monkeypatch.setattr(verify, "children", lambda t: real(t)[::-1])


def _reversed_words(monkeypatch):
    real = verify.tree_to_perm
    monkeypatch.setattr(verify, "tree_to_perm", lambda t: real(t)[::-1])


# check id -> (its TestEarlyStop mutation, max_edges, k, items checked through the fifth failure)
STOP_CASES = {
    "theorem1": (_doubled("level_profile_census"), 7, None, 2 * (1 + 1 + 2 + 5 + 14)),
    "lemma2": (lambda mp: mp.setattr(verify, "area_from_level_sums", lambda n, sums, ones=1: -1), 4, None, 5),
    "theorem3": (_doubled("area_polynomial"), 8, None, 2 * (1 + 1 + 2 + 5 + 14)),
    "lemma3": (_reversed_children, 4, None, 14),
    "lemma4": (_reversed_words, 4, 3, 17),
    "theorem5": (lambda mp: mp.setattr(verify, "binom_profile_sum", lambda profile, k: -1), 3, 2, 5),
    "corollary6": (_doubled("level_profile_census"), 8, None, 2 * (1 + 1 + 2 + 5 + 14)),
    "bijections": (lambda mp: mp.setattr(verify, "enumerate_132_avoiders", lambda n: []), 8, None, 1 + 1 + 2 + 5 + 14),
}


class TestDriverStop:
    @pytest.mark.parametrize("check", sorted(STOP_CASES))
    def test_the_fifth_failure_stops_the_unit_it_is_in(self, monkeypatch, check):
        mutate, max_edges, k, checked = STOP_CASES[check]
        mutate(monkeypatch)
        seen = []
        real_fail = CheckResult.fail

        def spy(result, message):
            seen.append((result.checked, list(result.detail_lines)))
            return real_fail(result, message)

        monkeypatch.setattr(CheckResult, "fail", spy)
        result = verify.CHECKS[check][0](max_edges, k)
        assert len(seen) == len(result.failures) == 5
        # the fifth failing item is counted, and nothing after it runs
        assert result.checked == seen[-1][0] == checked
        assert result.detail_lines == seen[-1][1]
        stopped_in = result.failures[-1].split()[0].rstrip(":")
        assert stopped_in not in [line.split()[0] for line in result.detail_lines]


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
        assert broke[0] == "  FAIL n=1 perm='1' tree round trip broke"
        assert all(line.startswith("  FAIL n=") and " perm=" in line for line in broke)

    def test_path_codec_with_swapped_steps_is_a_counterexample(self, capsys, monkeypatch):
        real = verify.tree_to_path
        swap = str.maketrans("EN", "NE")
        monkeypatch.setattr(verify, "tree_to_path", lambda t: real(t).translate(swap))
        broke, summary = self._broken_bijections(capsys)
        assert broke[0] == "  FAIL n=1 tree='()' path round trip broke: unmatched ')' at position 0"
        assert len(broke) == 5 and all(line.startswith("  FAIL n=") and " tree=" in line for line in broke)
        # the fifth failure stops the run inside n=3, after 1 + 1 + 2 + 2 trees
        assert summary == "FAIL bijections (checked 6)"

    def test_decoder_returning_another_valid_tree_is_a_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "path_to_tree", lambda path: "")
        broke, summary = self._broken_bijections(capsys, max_edges=2)
        assert broke[0] == "  FAIL n=1 tree='()' path round trip broke"
        assert summary == "FAIL bijections (checked 4)"
