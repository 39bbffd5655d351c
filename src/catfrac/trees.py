"""Ordered (plane) trees: generation, level statistics, balanced-parentheses codec.

A tree is a root with an ordered sequence of child subtrees; the left-to-right
order matters.  The root sits at level 0, so a tree on n edges has n nonroot
vertices at levels >= 1.

The word is the tree: an ``OrderedTree`` stores only its bracket word, the
preorder stream of descents '(' and ascents ')'.  The generator builds words,
``decode`` is the one parser, and every codec and statistic in the package is
a scan of the word.  Nothing recurses on a tree's depth, so trees of any
depth work.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Sequence


class TreeParseError(ValueError):
    """Balanced-parentheses input rejected; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.reason = message
        self.position = position


class OrderedTree:
    """An immutable tree held as its bracket word; build one from text with ``decode``.

    The constructor trusts its word to be balanced; ``decode`` is the one
    place that checks.  Equality, hashing and ``repr`` are string operations.
    """

    __slots__ = ("_word",)

    def __init__(self, word: str = ""):
        if not isinstance(word, str):
            raise TypeError(f"OrderedTree takes a bracket word, not {type(word).__name__}")
        self._word = word

    @property
    def word(self) -> str:
        return self._word

    def __eq__(self, other):
        if not isinstance(other, OrderedTree):
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"decode({self.word!r})"

    @property
    def n_edges(self) -> int:
        return len(self.word) // 2

    @property
    def children(self) -> tuple[OrderedTree, ...]:
        """The root's subtrees, cut out of the word at its returns to depth 0."""
        word = self.word
        out = []
        depth = start = 0
        for pos, ch in enumerate(word):
            depth += 1 if ch == "(" else -1
            if depth == 0:
                out.append(OrderedTree(word[start + 1 : pos]))
                start = pos + 1
        return tuple(out)


# Words up to this edge count are kept as shared tuples; larger sizes stream.
_CACHE_MAX = 11
_cache: dict[int, tuple[str, ...]] = {0: ("",)}


def _words(n: int) -> Iterable[str]:
    """Words of every tree on n edges by first return, "(" + u + ")" + v."""
    if n > _CACHE_MAX:
        return _streamed_words(n)
    if n not in _cache:
        _cache[n] = tuple(f"({u}){v}" for i in range(n) for u in _words(i) for v in _words(n - 1 - i))
    return _cache[n]


def _streamed_words(n: int) -> Iterator[str]:
    """``_words(n)`` for n above the cache, in the same order, with no recursion on n.

    A stack holds the root blocks "(" + u + ")" that leave over ``_CACHE_MAX``
    edges: [edges left, remaining choices (i, u), block]; the rest is cached.
    """
    def entry(left: int) -> list:
        return [left, ((i, u) for i in range(left - 1 - _CACHE_MAX) for u in _words(i)), ""]

    stack = [entry(n)]
    while stack:
        left, choices, _ = stack[-1]
        i, u = next(choices, (None, None))
        if u is not None:
            stack[-1][2] = f"({u})"
            stack.append(entry(left - 1 - i))
            continue
        stack.pop()
        head = "".join(block for _, _, block in stack)
        for i in range(left - 1 - _CACHE_MAX, left):
            for u in _words(i):
                block = f"{head}({u})"
                for v in _words(left - 1 - i):
                    yield block + v


def generate_trees(n: int) -> Iterator[OrderedTree]:
    """Yield every ordered tree on n edges, Catalan(n) of them, no duplicates.

    Canonical order: by the edge count of the first subtree, ascending, then
    recursively the same within the first subtree and the rest.  The order is
    stable across calls.  Sizes above the internal cache are streamed, so the
    full list is never materialized.
    """
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    yield from map(OrderedTree, _words(n))


def level_profile(t: OrderedTree) -> tuple[int, ...]:
    """counts[k-1] = number of vertices at level k; empty for the bare root."""
    counts: list[int] = []
    depth = 0
    for ch in t.word:
        if ch == "(":
            if depth == len(counts):
                counts.append(0)
            counts[depth] += 1
            depth += 1
        else:
            depth -= 1
    return tuple(counts)


def level_sum(t: OrderedTree) -> int:
    """Sum of level(v) over nonroot vertices (the root contributes 0): the depth at each '('."""
    total = depth = 0
    for ch in t.word:
        if ch == "(":
            depth += 1
            total += depth
        else:
            depth -= 1
    return total


def binom_profile_sum(profile: Sequence[int], k: int) -> int:
    """Sum of C(level-1, k-1) over the vertices of a level profile.

    A tree's count of length-k increasing patterns (Theorem 5) depends on
    the tree only through its level profile, so this is the one formula.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return sum(c * comb(level - 1, k - 1) for level, c in enumerate(profile, start=1))


def binom_level_sum(t: OrderedTree, k: int) -> int:
    """Sum of C(level(v)-1, k-1) over nonroot vertices: the formula on t's profile."""
    return binom_profile_sum(level_profile(t), k)


def encode(t: OrderedTree) -> str:
    """Balanced parentheses: '(' on preorder descent, ')' on ascent; root is ''."""
    return t.word


def decode(s: str) -> OrderedTree:
    """Inverse of encode; rejects unbalanced or alien input with its position."""
    depth = 0
    for pos, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                raise TreeParseError("unmatched ')'", pos)
            depth -= 1
        else:
            raise TreeParseError(f"unexpected character {ch!r}", pos)
    if depth:
        raise TreeParseError("unclosed '('", len(s))
    return OrderedTree(s)
