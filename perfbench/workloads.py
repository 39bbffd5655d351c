"""Op lists of the three workloads and the output checks that judge them.

An op is one ``python -m catfrac ...`` invocation.  Every check here is
independent of catfrac: expected values come from the Catalan recurrence,
closed forms, and a small iterative reference codec, never from the package.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

# A check takes the op's stdout and returns None when it is right, or a
# one-line reason when it is wrong; it may raise ValueError, KeyError,
# TypeError or IndexError on output it cannot parse.
Check = Callable[[bytes], Optional[str]]


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Check


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# -- series -------------------------------------------------------------------

_GROUP = re.compile(r"z(?:\^(\d+))?\*\(([^()]*)\)")


def _parse_term(text: str) -> tuple[int, int]:
    """(coefficient, q-degree) of one rendered term such as ``3*q^2*v1``."""
    coeff_text, _, body = text.partition("*")
    if coeff_text.isdigit():
        coeff = int(coeff_text)
    else:
        coeff, body = 1, text
    q_deg = 0
    for factor in body.split("*") if body else ():
        if factor == "q":
            q_deg = 1
        elif factor.startswith("q^"):
            q_deg = int(factor[2:])
        elif not re.fullmatch(r"v\d+(\^\d+)?", factor):
            raise ValueError(f"unexpected factor {factor!r}")
    return coeff, q_deg


def _series_from_text(out: str) -> dict[int, list[tuple[int, int]]]:
    """{z-degree: [(coefficient, q-degree), ...]} from the grouped text rendering."""
    head, _, _ = out.partition(" + ")
    if head != "1":
        raise ValueError(f"constant term {head!r}, expected 1")
    by_z: dict[int, list[tuple[int, int]]] = {0: [(1, 0)]}
    for exp, inner in _GROUP.findall(out):
        by_z[int(exp or 1)] = [_parse_term(t) for t in inner.split(" + ")]
    return by_z


def _series_from_json(out: str) -> dict[int, list[tuple[int, int]]]:
    by_z: dict[int, list[tuple[int, int]]] = {}
    for rec in json.loads(out)["terms"]:
        by_z.setdefault(rec["z"], []).append((int(rec["coeff"]), rec["q"]))
    return by_z


def series_check(order: int, preset: str, as_json: bool) -> Check:
    """Σ coefficients of z^n = Catalan(n), plus one preset-specific identity.

    eq1/k=3: the q^0 coefficient counts trees of height <= 2, 2^(n-1).
    eq2: the q-degree is the level sum, between n (star) and C(n+1,2) (chain).
    multivariate: one monomial per level profile, i.e. per composition, 2^(n-1).
    """

    def check(stdout: bytes) -> Optional[str]:
        text = stdout.decode()
        by_z = _series_from_json(text) if as_json else _series_from_text(text)
        if sorted(by_z) != list(range(order + 1)):
            return f"z-degrees {sorted(by_z)[:5]}..., expected 0..{order}"
        for n in range(1, order + 1):
            terms = by_z[n]
            if sum(c for c, _ in terms) != catalan(n):
                return f"z^{n}: coefficients sum to {sum(c for c, _ in terms)}, expected Catalan"
            if preset in ("eq1", "k=3"):
                q0 = sum(c for c, q in terms if q == 0)
                if q0 != 2 ** (n - 1):
                    return f"z^{n}: q^0 coefficient {q0}, expected 2^{n - 1}"
            elif preset == "eq2":
                if not all(n <= q <= comb(n + 1, 2) for _, q in terms):
                    return f"z^{n}: q-degree outside [{n}, {comb(n + 1, 2)}]"
            elif preset == "multivariate" and len(terms) != 2 ** (n - 1):
                return f"z^{n}: {len(terms)} monomials, expected 2^{n - 1}"
        return None

    return check


# Orders put each op at roughly 0.5-3 s on the seed engine (2-core x86, Python 3.11).
SERIES_OPS = (
    ("catalan", 100, False),
    ("eq1", 16, False),
    ("eq2", 22, False),
    ("k=4", 16, False),
    ("multivariate", 13, False),
    ("k=3", 16, True),
)


def series_ops() -> list[Op]:
    ops = []
    for preset, order, as_json in SERIES_OPS:
        argv = ("series", "--weights", preset, "--order", str(order)) + (("--json",) if as_json else ())
        ops.append(Op(f"series {preset} {order}{' json' if as_json else ''}", argv,
                      series_check(order, preset, as_json)))
    return ops


# -- verify -------------------------------------------------------------------

# (check, max_edges, checked items per tree): the verify check counts each
# tree once per k it tries (lemma4 k=1..4, theorem5 k=1..5, corollary6 k=2,3,4).
VERIFY_OPS = (
    ("theorem1", 11, 1),
    ("lemma2", 11, 1),
    ("theorem3", 11, 1),
    ("lemma3", 9, 1),
    ("lemma4", 8, 4),
    ("theorem5", 8, 5),
    ("corollary6", 11, 3),
    ("bijections", 9, 1),
)


def verify_check(name: str, expected: int) -> Check:
    want = f"PASS {name} (checked {expected})"

    def check(stdout: bytes) -> Optional[str]:
        lines = stdout.decode().splitlines()
        last = lines[-1] if lines else ""
        return None if last == want else f"last line {last!r}, expected {want!r}"

    return check


def verify_ops() -> list[Op]:
    ops = []
    for name, max_edges, per_tree in VERIFY_OPS:
        expected = per_tree * sum(catalan(n) for n in range(max_edges + 1))
        argv = ("verify", "--check", name, "--max-edges", str(max_edges))
        ops.append(Op(f"verify {name} {max_edges}", argv, verify_check(name, expected)))
    return ops


# -- objects: reference codec --------------------------------------------------

OBJECT_EDGES = 10_000
ENUM_EDGES = 12


def random_tree(n: int, rng: random.Random) -> str:
    """Uniform random ordered tree on n edges, as balanced parentheses.

    Cycle lemma: of the 2n+1 rotations of a shuffled word with n up-steps
    and n+1 down-steps, exactly one (the one starting just after the first
    minimum prefix sum) is a Dyck word followed by one extra down-step.
    """
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    height = low = start = 0
    for i, s in enumerate(steps):
        height += s
        if height < low:
            low, start = height, i + 1
    steps = steps[start:] + steps[:start]
    return "".join("(" if s > 0 else ")" for s in steps[:-1])


def tree_to_path(tree: str) -> str:
    return tree.replace("(", "E").replace(")", "N")


def tree_to_perm(tree: str) -> list[int]:
    """Label vertices n, n-1, ... in preorder; read the labels in postorder."""
    label = tree.count("(")
    open_labels: list[int] = []
    word: list[int] = []
    for ch in tree:
        if ch == "(":
            open_labels.append(label)
            label -= 1
        else:
            word.append(open_labels.pop())
    return word


def _encodings(tree: str) -> dict[str, str]:
    return {"tree": tree, "path": tree_to_path(tree), "perm": " ".join(map(str, tree_to_perm(tree)))}


def increasing_triples(word: list[int]) -> int:
    """Σ over middle positions of (#smaller before) × (#larger after), by Fenwick tree."""
    n = len(word)
    fenwick = [0] * (n + 1)
    total = 0
    for j, x in enumerate(word):
        smaller_before = 0
        i = x - 1
        while i > 0:
            smaller_before += fenwick[i]
            i -= i & -i
        larger_after = (n - x) - (j - smaller_before)
        total += smaller_before * larger_after
        i = x
        while i <= n:
            fenwick[i] += 1
            i += i & -i
    return total


def contains_132(word: list[int]) -> bool:
    third = 0
    stack: list[int] = []
    for x in reversed(word):
        if x < third:
            return True
        while stack and stack[-1] < x:
            third = stack.pop()
        stack.append(x)
    return False


def exact_check(expected: str) -> Check:
    want = expected.encode()

    def check(stdout: bytes) -> Optional[str]:
        if stdout == want:
            return None
        return f"output differs from reference ({len(stdout)} bytes vs {len(want)})"

    return check


def enumerate_check(n: int) -> Check:
    """Catalan(n) distinct trees; profile, level sum and area agree with each tree."""
    area_total = comb(n + 1, 2)

    def check(stdout: bytes) -> Optional[str]:
        seen: set[str] = set()
        for line in stdout.decode().splitlines():
            tree, profile, lsum, area, _perm = line.split("\t")
            depth = level_total = 0
            counts = [0] * (n + 1)
            for ch in tree:
                if ch == "(":
                    depth += 1
                    level_total += depth
                    counts[depth] += 1
                elif ch == ")":
                    depth -= 1
            want_profile = ",".join(str(c) for c in counts[1:] if c)
            if (tree.count("(") != n or depth != 0 or profile != f"profile=({want_profile})"
                    or lsum != f"level_sum={level_total}" or area != f"area={area_total - level_total}"):
                return f"bad line {line[:80]!r}"
            seen.add(tree)
        if len(seen) != catalan(n):
            return f"{len(seen)} distinct trees, expected {catalan(n)}"
        return None

    return check


def objects_ops(rng: random.Random) -> list[Op]:
    n = OBJECT_EDGES
    shapes = {
        "random": random_tree(n, rng),
        "star": "()" * n,
        "chain": "(" * n + ")" * n,
    }
    ops = [Op(f"enumerate {ENUM_EDGES} stats", ("enumerate", "--edges", str(ENUM_EDGES), "--stats"),
              enumerate_check(ENUM_EDGES))]
    for shape, tree in shapes.items():
        enc = _encodings(tree)
        for src in enc:
            for dst in enc:
                if src != dst:
                    ops.append(Op(f"map {shape} {src}->{dst}",
                                  ("map", "--from", src, "--to", dst, enc[src]),
                                  exact_check(enc[dst] + "\n")))
    word = tree_to_perm(shapes["random"])
    if contains_132(word):
        raise RuntimeError("reference codec produced a word containing (132)")
    expected = (f"perm = {' '.join(map(str, word))}\nn = {n}\n"
                f"increasing_patterns(k=3) = {increasing_triples(word)}\navoids_132 = yes\n")
    ops.append(Op("count random k=3", ("count", "--k", "3", "--perm", " ".join(map(str, word))),
                  exact_check(expected)))
    return ops


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "series": lambda rng: series_ops(),
    "verify": lambda rng: verify_ops(),
    "objects": objects_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's op list; the seed draws the random tree and the op order."""
    rng = random.Random(seed)
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
