"""Diagonal-bounded lattice paths and the preorder bijection with ordered trees.

A path of semilength n runs from (0,0) to (n,n) in steps E=(1,0) and N=(0,1),
never rising above the diagonal y = x.  Traversing a tree edge downward emits
an E step, returning upward emits an N step.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, NamedTuple

from .trees import LaneBatch, OrderedTree, decode, encode, generate_trees


class PathParseError(ValueError):
    """Step word rejected; carries the index of the offending prefix."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at step {position}")
        self.reason = message
        self.position = position


class _Steps(NamedTuple):
    steps: str


class DyckPath(_Steps):
    """Validated step word over {E, N}: balanced, with every prefix #E >= #N."""

    __slots__ = ()

    def __new__(cls, steps: str):
        height = 0
        for pos, ch in enumerate(steps):
            if ch == "E":
                height += 1
            elif ch == "N":
                height -= 1
                if height < 0:
                    raise PathParseError("path rises above the diagonal", pos)
            else:
                raise PathParseError(f"unexpected step {ch!r}", pos)
        if height != 0:
            raise PathParseError(f"unbalanced path: {height} more E than N steps", len(steps))
        return super().__new__(cls, steps)


_STEP_ALIASES = {"E": "E", "N": "N", "R": "E", "U": "N", "1": "E", "0": "N"}


def parse_path(text: str) -> DyckPath:
    """Parse a step word, accepting the {U,R} and {1,0} aliases for {N,E}.

    Whitespace between steps is ignored; case is not significant.  An error
    reports the index in ``text``, or the index just past the last step for
    an unbalanced end.
    """
    out = []
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        step = _STEP_ALIASES.get(ch.upper())
        if step is None:
            raise PathParseError(f"unexpected step {ch!r}", pos)
        out.append(step)
    try:
        return DyckPath("".join(out))
    except PathParseError as exc:
        where = [pos for pos, ch in enumerate(text) if not ch.isspace()]  # text index of each step
        at = where[exc.position] if exc.position < len(where) else where[-1] + 1
        raise PathParseError(exc.reason, at) from None


_TO_STEPS = str.maketrans("()", "EN")
_TO_BRACKETS = str.maketrans("EN", "()")


def _trusted_path(steps: str) -> DyckPath:
    """A DyckPath on steps that are balanced by construction, without re-validating them."""
    return tuple.__new__(DyckPath, (steps,))


def tree_to_path(t: OrderedTree) -> DyckPath:
    """Preorder traversal: descent -> E, ascent -> N."""
    return _trusted_path(encode(t).translate(_TO_STEPS))


def path_to_tree(p: DyckPath) -> OrderedTree:
    """Inverse of tree_to_path (total on valid paths)."""
    return decode(p.steps.translate(_TO_BRACKETS))


def area(p: DyckPath) -> int:
    """Unit squares below the path and above the x-axis.

    Each E step contributes its height, i.e. the number of N steps before it.
    """
    height = 0
    total = 0
    for ch in p.steps:
        if ch == "N":
            height += 1
        else:
            total += height
    return total


def area_lanes(batch: LaneBatch) -> int:
    """``area`` of every word in the batch read as a path, one per lane: the N steps before each E added up.

    A lane must hold C(n, 2), the star's area; the N-step count, at most n,
    fits too, since n <= 2 for every n with C(n, 2) < n.
    """
    batch.require(comb(batch.n, 2))
    downs = total = 0
    for up, rises in batch.columns():
        downs += batch.ones - up
        total += downs & rises
    return total


def generate_paths(n: int) -> Iterator[DyckPath]:
    """All Dyck paths of semilength n: the tree generator's words, read as steps.

    Same order as ``generate_trees`` (first-return factorization word = E u N v).
    """
    for t in generate_trees(n):
        yield tree_to_path(t)
