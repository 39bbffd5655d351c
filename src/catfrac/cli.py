"""Command-line front end.

Subcommands: series, enumerate, map, count, verify.  All take --json.
Exit codes: 0 success, 1 verification failure, 2 usage or internal error;
every error is one ``error: ...`` line on stderr.  A reader that closes
stdout early (``| head``) ends the run quietly with exit 0.  Output is
deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb
from typing import Callable

from .contfrac import LevelWeights, eval_cf
from .paths import area, parse_path, path_to_tree, tree_to_path
from .perms import (
    count_increasing,
    format_perm,
    has_132,
    parse_perm,
    perm_to_tree,
    tree_to_perm,
)
from .trees import OrderedTree, TreeParseError, decode, encode, generate_trees, level_profile, level_sum
from . import verify as verify_mod

WEIGHT_TOKENS = "catalan|eq1|eq2|k=<int>|multivariate"
# The most trees (sum of Catalan(n) for n <= --max-edges) a verify run may visit; it admits --max-edges <= 16.
MAX_TREES = 10**8


def _int(text: str) -> int:
    """``type=int`` restricted to ASCII digits after an optional minus sign."""
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_weights(token: str) -> LevelWeights:
    if token == "catalan":
        return LevelWeights("catalan")
    if token == "eq1":
        return LevelWeights("increasing", 3)
    if token == "eq2":
        return LevelWeights("area")
    if token == "multivariate":
        return LevelWeights("multivariate")
    if token.startswith("k="):
        try:
            k = _int(token[2:])
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(f"bad k in {token!r}") from None
        if k < 1:
            raise argparse.ArgumentTypeError("k must be at least 1")
        return LevelWeights("increasing", k)
    raise argparse.ArgumentTypeError(f"unknown weights {token!r}; expected {WEIGHT_TOKENS}")


def _error_line(message: str) -> str:
    return "error: " + " ".join(message.splitlines()) + "\n"


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line; subparsers inherit the class."""

    def error(self, message: str):
        self.exit(2, _error_line(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catfrac",
        description="Continued-fraction generating functions for ordered trees, "
        "lattice paths, and (132)-avoiding permutations, with exact brute-force checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    p_series = sub.add_parser("series", help="evaluate a level-weighted continued fraction")
    p_series.add_argument("--weights", type=_parse_weights, required=True, metavar=WEIGHT_TOKENS)
    p_series.add_argument("--order", type=_int, required=True, help="max z-degree retained")
    p_series.add_argument(
        "--depth", type=_int, default=None, help="levels to evaluate (default: order; deeper changes nothing)"
    )
    p_series.add_argument("--json", action="store_true")

    p_enum = sub.add_parser("enumerate", help="list ordered trees by edge count")
    p_enum.add_argument("--edges", type=_int, required=True)
    p_enum.add_argument("--stats", action="store_true", help="add level profile, level sum, area, word")
    p_enum.add_argument("--json", action="store_true", help="one JSON object per line")

    p_map = sub.add_parser("map", help="convert between tree, path, and permutation encodings")
    p_map.add_argument("--from", dest="source", choices=("tree", "path", "perm"), required=True)
    p_map.add_argument("--to", dest="target", choices=("tree", "path", "perm"), required=True)
    p_map.add_argument(
        "value",
        help="tree: parentheses; path: E/N word; "
        "perm: separated by commas or whitespace, or contiguous digits for n <= 9",
    )
    p_map.add_argument("--json", action="store_true")

    p_count = sub.add_parser("count", help="increasing-pattern count and (132) status of a word")
    p_count.add_argument("--perm", required=True)
    p_count.add_argument("--k", type=_int, required=True)
    p_count.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run an exhaustive cross-check")
    p_verify.add_argument("--check", choices=sorted(verify_mod.CHECKS), required=True)
    p_verify.add_argument("--max-edges", type=_int, default=None)
    p_verify.add_argument("--k", type=_int, default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.epilog = f"the avoider-set scan inside 'bijections' is capped at n={verify_mod.PERM_ORACLE_MAX}"

    return parser


def cmd_series(args) -> int:
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    depth = args.depth if args.depth is not None else max(args.order, 1)
    if depth < 1:
        raise ValueError("--depth must be at least 1")
    series = eval_cf(args.weights, depth, args.order)
    if args.json:
        doc = {
            "weights": str(args.weights),
            "order": args.order,
            "depth": depth,
            "terms": series.term_records(),
        }
        print(json.dumps(doc))
    else:
        print(series)
    return 0


def _tree_stats(t: OrderedTree) -> dict:
    profile = level_profile(t)
    return {
        "tree": encode(t),
        "profile": list(profile),
        "level_sum": level_sum(t),
        "area": area(tree_to_path(t)),
        "perm": list(tree_to_perm(t)),
    }


def cmd_enumerate(args) -> int:
    if args.edges < 0:
        raise ValueError("--edges must be nonnegative")
    for t in generate_trees(args.edges):
        if args.json:
            doc = _tree_stats(t) if args.stats else {"tree": encode(t)}
            print(json.dumps(doc))
        elif args.stats:
            s = _tree_stats(t)
            profile = ",".join(str(x) for x in s["profile"])
            print(
                f"{s['tree']}\tprofile=({profile})\tlevel_sum={s['level_sum']}"
                f"\tarea={s['area']}\tperm={format_perm(s['perm'])}"
            )
        else:
            print(encode(t))
    return 0


def _to_tree(kind: str, value: str) -> OrderedTree:
    if kind == "tree":
        try:
            return decode(value.strip())
        except TreeParseError as exc:
            # Report the position in the argument as typed, not in the stripped text.
            raise TreeParseError(exc.reason, exc.position + len(value) - len(value.lstrip())) from None
    if kind == "path":
        return path_to_tree(parse_path(value))
    return perm_to_tree(parse_perm(value))


def _from_tree(kind: str, t: OrderedTree) -> str:
    if kind == "tree":
        return encode(t)
    if kind == "path":
        return tree_to_path(t).steps
    return format_perm(tree_to_perm(t))


def cmd_map(args) -> int:
    t = _to_tree(args.source, args.value)
    out = _from_tree(args.target, t)
    if args.json:
        print(json.dumps({"from": args.source, "to": args.target, "input": args.value, "output": out}))
    else:
        print(out)
    return 0


def cmd_count(args) -> int:
    word = parse_perm(args.perm)
    if args.k < 1:
        raise ValueError("--k must be at least 1")
    n_patterns = count_increasing(word, args.k)
    witness = has_132(word)
    if args.json:
        doc = {
            "perm": list(word),
            "n": len(word),
            "k": args.k,
            "increasing_patterns": n_patterns,
            "avoids_132": witness is None,
            "witness_132": list(witness) if witness else None,
        }
        print(json.dumps(doc))
    else:
        print(f"perm = {format_perm(word)}")
        print(f"n = {len(word)}")
        print(f"increasing_patterns(k={args.k}) = {n_patterns}")
        if witness is None:
            print("avoids_132 = yes")
        else:
            i, j, k = witness
            print(f"avoids_132 = no (witness i={i} j={j} k={k})")
    return 0


def cmd_verify(args) -> int:
    run, default_max_edges, takes_k = verify_mod.CHECKS[args.check]
    if args.k is not None and not takes_k:
        raise ValueError(f"check {args.check!r} does not take --k")
    if args.k is not None and args.k < 1:
        raise ValueError("--k must be at least 1")
    max_edges = args.max_edges if args.max_edges is not None else default_max_edges
    if max_edges < 0:
        raise ValueError("--max-edges must be nonnegative")
    # Past this bound every side of every check is 0, so the items check nothing.
    if args.k is not None and args.k > max(max_edges, 1):
        raise ValueError(f"--k must be at most {max(max_edges, 1)} for --max-edges {max_edges}")
    trees = 0
    for n in range(max_edges + 1):  # stops at the ceiling, so a huge bound costs nothing
        trees += comb(2 * n, n) // (n + 1)
        if trees > MAX_TREES:
            raise ValueError(f"--max-edges {max_edges} visits at least {trees} trees (ceiling {MAX_TREES})")
    result = run(max_edges, args.k)
    if args.json:
        doc = {
            "check": args.check,
            "name": result.name,
            "params": result.params,
            "ok": result.ok,
            "checked": result.checked,
            "failures": result.failures,
        }
        print(json.dumps(doc))
    else:
        print(f"check = {args.check} ({result.name})")
        params = " ".join(f"{key}={value}" for key, value in sorted(result.params.items()))
        print(f"params: {params}")
        for line in result.detail_lines:
            print(f"  {line}")
        for failure in result.failures:
            print(f"  FAIL {failure}")
        print(f"{'PASS' if result.ok else 'FAIL'} {args.check} (checked {result.checked})")
    return 0 if result.ok else 1


_COMMANDS: dict[str, Callable] = {
    "series": cmd_series,
    "enumerate": cmd_enumerate,
    "map": cmd_map,
    "count": cmd_count,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send the rest of the buffered output to devnull, so that the
        # interpreter's flush at exit does not fail on the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as exc:
        sys.stderr.write(_error_line(str(exc)))
        return 2
    except Exception as exc:
        # Exit 1 means "verification failed", so a crash must not use it.
        sys.stderr.write(_error_line(f"internal: {type(exc).__name__}: {exc}"))
        return 2


def entry_point() -> None:
    sys.exit(main())
