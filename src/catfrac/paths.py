"""Diagonal-bounded lattice paths and the preorder bijection with ordered trees.

A path of semilength n runs from (0,0) to (n,n) in steps E=(1,0) and N=(0,1),
never rising above the diagonal y = x.  A path is its E/N word: the tree's
bracket word with E for each descent and N for each ascent.  ``parse_path``
checks a path from outside the program; ``path_to_tree`` checks via ``decode``.
"""

from __future__ import annotations

from typing import Iterator

from .trees import TreeParseError, decode, generate_trees


class PathParseError(TreeParseError):
    """Step word rejected; carries the index of the offending prefix."""

    unit = "step"


_STEP_ALIASES = {"E": "E", "N": "N", "R": "E", "U": "N", "1": "E", "0": "N"}


def parse_path(text: str) -> str:
    """The E/N word of a step word, accepting the {U,R} and {1,0} aliases for {N,E}.

    Whitespace between steps is ignored; case is not significant.  The alphabet
    is checked over the whole text first, then the diagonal, then the balance.
    An error reports the index in ``text`` (just past the last step if unbalanced).
    """
    steps = []
    height, below = 0, None
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        step = _STEP_ALIASES.get(ch.upper())
        if step is None:
            raise PathParseError(f"unexpected step {ch!r}", pos)
        steps.append(step)
        height += 1 if step == "E" else -1
        if height < 0 and below is None:
            below = pos  # reported once the whole alphabet has passed
    if below is not None:
        raise PathParseError("path rises above the diagonal", below)
    if height:
        raise PathParseError(f"unbalanced path: {height} more E than N steps", len(text.rstrip()))
    return "".join(steps)


_TO_STEPS = str.maketrans("()", "EN")
_TO_BRACKETS = str.maketrans("EN", "()")


def tree_to_path(t: str) -> str:
    """Preorder traversal: descent -> E, ascent -> N."""
    return t.translate(_TO_STEPS)


def path_to_tree(p: str) -> str:
    """Inverse of tree_to_path; ``decode`` rejects a word that is not a path."""
    return decode(p.translate(_TO_BRACKETS))


def area(p: str) -> int:
    """Unit squares below the path and above the x-axis.

    Each E step contributes its height, i.e. the number of N steps before it.
    """
    height = 0
    total = 0
    for ch in p:
        if ch == "N":
            height += 1
        else:
            total += height
    return total


def generate_paths(n: int) -> Iterator[str]:
    """All Dyck paths of semilength n: the tree generator's words, read as steps.

    Same order as ``generate_trees`` (first-return factorization word = E u N v).
    """
    for t in generate_trees(n):
        yield tree_to_path(t)
