"""Ordered (plane) trees: generation, level statistics, balanced-parentheses codec.

A tree is a root with an ordered tuple of child subtrees; the left-to-right
order matters.  The root sits at level 0, so a tree on n edges has n nonroot
vertices at levels >= 1.

Only two functions walk a tree below its root's children: ``encode``, whose
word is the preorder stream of descents '(' and ascents ')', and
``level_profile``, which walks level by level.  Every other codec and
statistic in the package reads one of their outputs, and neither recurses,
so trees of any depth work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .util import binom


class TreeParseError(ValueError):
    """Balanced-parentheses input rejected; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class OrderedTree:
    """Equality, hashing and ``repr`` go through the bracket word, so any depth works."""

    children: tuple["OrderedTree", ...] = ()
    n_edges: int = field(init=False)

    def __post_init__(self):
        n_edges = len(self.children)
        for c in self.children:
            n_edges += c.n_edges
        object.__setattr__(self, "n_edges", n_edges)

    def __eq__(self, other):
        if not isinstance(other, OrderedTree):
            return NotImplemented
        return encode(self) == encode(other)

    def __hash__(self):
        return hash(encode(self))

    def __repr__(self):
        return f"decode({encode(self)!r})"


LEAF = OrderedTree()

# Trees up to this edge count are kept as shared tuples; larger sizes stream.
_CACHE_MAX = 11
_cache: dict[int, tuple[OrderedTree, ...]] = {0: (LEAF,)}


def _cached(n: int) -> tuple[OrderedTree, ...]:
    if n not in _cache:
        out = []
        for i in range(n):
            rests = _cached(n - 1 - i)
            for first in _cached(i):
                for rest in rests:
                    out.append(OrderedTree((first,) + rest.children))
        _cache[n] = tuple(out)
    return _cache[n]


def generate_trees(n: int) -> Iterator[OrderedTree]:
    """Yield every ordered tree on n edges, Catalan(n) of them, no duplicates.

    Canonical order: by the edge count of the first subtree, ascending, then
    recursively the same within the first subtree and the rest.  The order is
    stable across calls.  Sizes above the internal cache are streamed, so the
    full list is never materialized.
    """
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    if n <= _CACHE_MAX:
        yield from _cached(n)
        return
    for i in range(n):
        for first in generate_trees(i):
            for rest in generate_trees(n - 1 - i):
                yield OrderedTree((first,) + rest.children)


def level_profile(t: OrderedTree) -> tuple[int, ...]:
    """counts[k-1] = number of vertices at level k; empty for the bare root."""
    counts: list[int] = []
    frontier = t.children
    while frontier:
        counts.append(len(frontier))
        frontier = [c for node in frontier for c in node.children]
    return tuple(counts)


def level_sum(t: OrderedTree) -> int:
    """Sum of level(v) over nonroot vertices (the root contributes 0)."""
    return sum(level * c for level, c in enumerate(level_profile(t), start=1))


def binom_level_sum(t: OrderedTree, k: int) -> int:
    """Sum of C(level(v)-1, k-1) over nonroot vertices."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return sum(c * binom(level - 1, k - 1) for level, c in enumerate(level_profile(t), start=1))


def encode(t: OrderedTree) -> str:
    """Balanced parentheses: '(' on preorder descent, ')' on ascent; root is ''."""
    parts: list[str] = []
    stack = [iter(t.children)]  # per open vertex, its children not yet visited
    while stack:
        for child in stack[-1]:
            parts.append("(")
            stack.append(iter(child.children))
            break
        else:
            stack.pop()
            parts.append(")")
    parts.pop()  # the ')' written when the root's children ran out: the root has no '('
    return "".join(parts)


def decode(s: str) -> OrderedTree:
    """Inverse of encode; rejects unbalanced or alien input with its position."""
    stack: list[list[OrderedTree]] = [[]]
    for pos, ch in enumerate(s):
        if ch == "(":
            stack.append([])
        elif ch == ")":
            if len(stack) == 1:
                raise TreeParseError("unmatched ')'", pos)
            kids = stack.pop()
            stack[-1].append(OrderedTree(tuple(kids)))
        else:
            raise TreeParseError(f"unexpected character {ch!r}", pos)
    if len(stack) > 1:
        raise TreeParseError("unclosed '('", len(s))
    return OrderedTree(tuple(stack[0]))
