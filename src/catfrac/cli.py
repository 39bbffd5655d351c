"""Command-line front end.

Subcommands: series, enumerate, map, count, verify.  All take --json.
The parser owns each option: its type checks every integer's range, and
each subparser binds its ``cmd_*`` function as ``run``; a command body
checks only what relates two inputs and the cost ceilings.
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
from .trees import TreeParseError, decode, generate_trees, level_profile, level_sum
from . import verify as verify_mod

_PRESETS = {
    "catalan": LevelWeights("catalan"),
    "eq1": LevelWeights("increasing", 3),
    "eq2": LevelWeights("area"),
    "multivariate": LevelWeights("multivariate"),
}
WEIGHT_TOKENS = "|".join(sorted([*_PRESETS, "k=<int>"]))
# The most trees (sum of Catalan(n) for n <= --max-edges) a verify run may visit; it admits --max-edges <= 16.
MAX_TREES = 10**8
# The most comparisons, (min(k, n) - 1) * n(n - 1)/2, a count run may make; a 10^4-element word admits --k <= 21.
MAX_DP_STEPS = 10**9


def _int(text: str, low: int = 0) -> int:
    """``type=int`` restricted to ASCII digits after an optional minus sign, and to values >= low."""
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            value = int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
        else:
            if value < low:
                raise argparse.ArgumentTypeError(f"must be at least {low}: {text!r}")
            return value
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _positive(text: str) -> int:
    return _int(text, 1)


def _parse_weights(token: str) -> LevelWeights:
    if token in _PRESETS:
        return _PRESETS[token]
    if token.startswith("k="):
        try:
            return LevelWeights("increasing", _positive(token[2:]))
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(f"bad k in {token!r}") from None
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
    sub = parser.add_subparsers(required=True, metavar="subcommand")

    p_series = sub.add_parser("series", help="evaluate a level-weighted continued fraction")
    p_series.add_argument("--weights", type=_parse_weights, required=True, metavar=WEIGHT_TOKENS)
    p_series.add_argument("--order", type=_int, required=True, help="max z-degree retained")
    p_series.add_argument(
        "--depth", type=_positive, default=None, help="levels to evaluate (default: order; deeper changes nothing)"
    )
    p_series.add_argument("--json", action="store_true")
    p_series.set_defaults(run=cmd_series)

    p_enum = sub.add_parser("enumerate", help="list ordered trees by edge count")
    p_enum.add_argument("--edges", type=_int, required=True)
    p_enum.add_argument("--stats", action="store_true", help="add level profile, level sum, area, word")
    p_enum.add_argument("--json", action="store_true", help="one JSON object per line")
    p_enum.set_defaults(run=cmd_enumerate)

    p_map = sub.add_parser("map", help="convert between tree, path, and permutation encodings")
    p_map.add_argument("--from", dest="source", choices=("tree", "path", "perm"), required=True)
    p_map.add_argument("--to", dest="target", choices=("tree", "path", "perm"), required=True)
    p_map.add_argument(
        "value",
        help="tree: parentheses; path: E/N word; "
        "perm: separated by commas or whitespace, or contiguous digits for n <= 9",
    )
    p_map.add_argument("--json", action="store_true")
    p_map.set_defaults(run=cmd_map)

    p_count = sub.add_parser("count", help="increasing-pattern count and (132) status of a word")
    p_count.add_argument("--perm", required=True)
    p_count.add_argument("--k", type=_positive, required=True)
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(run=cmd_count)

    p_verify = sub.add_parser("verify", help="run an exhaustive cross-check")
    p_verify.add_argument("--check", choices=sorted(verify_mod.CHECKS), required=True)
    p_verify.add_argument("--max-edges", type=_int, help="largest n checked (default set per check)")
    p_verify.add_argument(
        "--k",
        type=_positive,
        help="every k up to K for lemma4 (default 4) and theorem5 (default 5); only K for corollary6 (default 2, 3, 4)",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(run=cmd_verify)

    return parser


def cmd_series(args) -> int:
    depth = args.depth if args.depth is not None else max(args.order, 1)
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


def _tree_stats(t: str) -> dict:
    profile = level_profile(t)
    return {
        "tree": t,
        "profile": list(profile),
        "level_sum": level_sum(t),
        "area": area(tree_to_path(t)),
        "perm": list(tree_to_perm(t)),
    }


def cmd_enumerate(args) -> int:
    for t in generate_trees(args.edges):
        if args.json:
            doc = _tree_stats(t) if args.stats else {"tree": t}
            print(json.dumps(doc))
        elif args.stats:
            s = _tree_stats(t)
            profile = ",".join(str(x) for x in s["profile"])
            print(
                f"{s['tree']}\tprofile=({profile})\tlevel_sum={s['level_sum']}"
                f"\tarea={s['area']}\tperm={format_perm(s['perm'])}"
            )
        else:
            print(t)
    return 0


def _to_tree(kind: str, value: str) -> str:
    if kind == "tree":
        try:
            return decode(value.strip())
        except TreeParseError as exc:
            # Report the position in the argument as typed, not in the stripped text.
            raise TreeParseError(exc.reason, exc.position + len(value) - len(value.lstrip())) from None
    if kind == "path":
        return path_to_tree(parse_path(value))
    return perm_to_tree(parse_perm(value))


def _from_tree(kind: str, t: str) -> str:
    if kind == "tree":
        return t
    if kind == "path":
        return tree_to_path(t)
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
    n = len(word)
    steps = (min(args.k, n) - 1) * (n * (n - 1) // 2)
    if steps > MAX_DP_STEPS:
        raise ValueError(f"--k {args.k} on a word of length {n} takes {steps} DP steps (ceiling {MAX_DP_STEPS})")
    n_patterns = count_increasing(word, args.k)
    witness = has_132(word)
    if args.json:
        doc = {
            "perm": list(word),
            "n": n,
            "k": args.k,
            "increasing_patterns": n_patterns,
            "avoids_132": witness is None,
            "witness_132": list(witness) if witness else None,
        }
        print(json.dumps(doc))
    else:
        print(f"perm = {format_perm(word)}")
        print(f"n = {n}")
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
    max_edges = args.max_edges if args.max_edges is not None else default_max_edges
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
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
