"""Ordered (plane) trees: generation, level statistics, balanced-parentheses codec.

A tree is a root with an ordered sequence of child subtrees; the left-to-right
order matters.  The root sits at level 0, so a tree on n edges has n nonroot
vertices at levels >= 1.

The word is the tree: a tree is the ``str`` of its bracket word, the preorder
stream of descents '(' and ascents ')', and a tree on n edges has length 2n.
The generator builds words, ``decode`` is the one check that a text is a
tree, and every codec and statistic in the package is a scan of the word.
Nothing recurses on a tree's depth, so trees of any depth work.  The censuses
also scan words a batch at a time: ``LaneBatch`` packs one byte-wide lane per
word into big ints, one per bracket position, built once per batch, so each
position steps every word of the batch at once.  It refuses words past
``LANE_MAX_EDGES`` edges.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from math import comb
from typing import Iterable, Iterator, Sequence


class TreeParseError(ValueError):
    """Balanced-parentheses input rejected; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.reason = message
        self.position = position


# Words up to this edge count are kept as shared tuples; larger sizes stream.
_CACHE_MAX = 11
_cache: dict[int, tuple[str, ...]] = {0: ("",)}


def _words(n: int) -> Iterable[str]:
    """Words of every tree on n edges by ``_first_return``; sizes up to the cache are kept."""
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    if n > _CACHE_MAX:
        return _first_return(n)
    if n not in _cache:
        _cache[n] = tuple(_first_return(n))
    return _cache[n]


def _first_return(n: int) -> Iterator[str]:
    """Every word on n >= 1 edges by first return, "(" + u + ")" + v, with no recursion on n.

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
        for i in range(max(0, left - 1 - _CACHE_MAX), left):
            for u in _words(i):
                block = f"{head}({u})"
                for v in _words(left - 1 - i):
                    yield block + v


def generate_trees(n: int) -> Iterator[str]:
    """Yield every ordered tree on n edges, Catalan(n) of them, no duplicates.

    Canonical order: by the edge count of the first subtree, ascending, then
    recursively the same within the first subtree and the rest.  The order is
    stable across calls.  Sizes above the internal cache are streamed, so the
    full list is never materialized.
    """
    yield from _words(n)


def level_profile(t: str) -> tuple[int, ...]:
    """counts[k-1] = number of vertices at level k; empty for the bare root."""
    counts: list[int] = []
    depth = 0
    for ch in t:
        if ch == "(":
            if depth == len(counts):
                counts.append(0)
            counts[depth] += 1
            depth += 1
        else:
            depth -= 1
    return tuple(counts)


def level_sum(t: str) -> int:
    """Sum of level(v) over nonroot vertices (the root contributes 0): the depth at each '('."""
    total = depth = 0
    for ch in t:
        if ch == "(":
            depth += 1
            total += depth
        else:
            depth -= 1
    return total


# -- lane scan: a batch of words steps through its columns together -----------

# Words per lane batch: fewer Python steps per tree as it grows, more memory held.
LANE_BATCH = 4096
# A lane is one byte: past this many edges the chain's level sum, C(n+1, 2), passes 255.
LANE_MAX_EDGES = 22
_BITS = bytes.maketrans(b"()", b"\x01\x00")


class LaneBatch:
    """Equal-length words read column by column, one byte-wide lane per word.

    Lane j of an int is its byte j, and belongs to ``words[j]``.  Column i,
    ``columns[i]``, holds 1 in lane j where word j has "(" at position i and
    0 where it has ")"; ``ones`` holds 1 in every lane.  A few big-int
    operations per column then step every word at once.  The chain's level
    sum C(n+1, 2) bounds every value a scan makes: level sums, areas (at
    most C(n, 2)), depths and profile counts (at most n).  Through
    ``LANE_MAX_EDGES`` it fits a byte, so no lane carries into the next;
    longer words are refused.
    """

    __slots__ = ("words", "n", "ones", "columns")

    def __init__(self, words: Sequence[str]):
        self.words = words
        self.n = n = len(words[0]) // 2
        if n > LANE_MAX_EDGES:
            raise ValueError(f"lane scan takes words of at most {LANE_MAX_EDGES} edges, not {n}")
        bits = "".join(words).encode().translate(_BITS)
        self.ones = int.from_bytes(b"\x01" * len(words), "little")
        self.columns = [int.from_bytes(bits[i :: 2 * n], "little") for i in range(2 * n)]

    def values(self, lanes: int) -> list[int]:
        """The value in each lane of ``lanes``, in word order."""
        return list(lanes.to_bytes(len(self.words), "little"))


def lane_batches(n: int) -> Iterator[LaneBatch]:
    """The words on n edges in generation order, ``LANE_BATCH`` at a time; a size past the cache streams."""
    words = iter(_words(n))
    while batch := tuple(islice(words, LANE_BATCH)):
        yield LaneBatch(batch)


def level_sum_lanes(batch: LaneBatch) -> int:
    """``level_sum`` of every word in the batch, one per lane: the depth at each "(" added up."""
    depth = total = 0
    for up in batch.columns:
        depth += (up << 1) - batch.ones
        total += depth & ((up << 8) - up)
    return total


def area_lanes(batch: LaneBatch) -> int:
    """``paths.area`` of every word in the batch, one per lane: the ascents ")" before each "(" added up."""
    downs = total = 0
    for up in batch.columns:
        downs += batch.ones - up
        total += downs & ((up << 8) - up)
    return total


def level_profile_counts(batch: LaneBatch) -> Counter[tuple[int, ...]]:
    """{``level_profile``: words} over the batch, in first-seen order.

    ``at[d]`` holds 1 in the lanes of the words at depth d.  At each column
    the lanes that rise move from d to d + 1 and add a vertex at level d + 1
    to ``levels[d]``; the rest fall to d - 1.  Levels 1..h of a profile are
    nonzero and the rest zero, and ``levels[n]`` stays zero, so a word's
    height is n + 1 minus its zero counts.
    """
    n = batch.n
    at, levels = [batch.ones] + [0] * n, [0] * (n + 1)
    for up in batch.columns:
        down = batch.ones ^ up
        rising = [lanes & up for lanes in at[:-1]]
        at = [lower | (higher & down) for lower, higher in zip([0] + rising, at[1:] + [0])]
        for d, lanes in enumerate(rising):
            levels[d] += lanes
    seen = Counter(zip(*map(batch.values, levels)))
    return Counter({counts[: n + 1 - counts.count(0)]: words for counts, words in seen.items()})


def binom_profile_sum(profile: Sequence[int], k: int) -> int:
    """Sum of C(level-1, k-1) over the vertices of a level profile.

    A tree's count of length-k increasing patterns (Theorem 5) depends on
    the tree only through its level profile, so this is the one formula.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return sum(c * comb(level - 1, k - 1) for level, c in enumerate(profile, start=1))


def binom_level_sum(t: str, k: int) -> int:
    """Sum of C(level(v)-1, k-1) over nonroot vertices: the formula on t's profile."""
    return binom_profile_sum(level_profile(t), k)


def children(t: str) -> tuple[str, ...]:
    """The root's subtrees, cut out of the word at its returns to depth 0."""
    out = []
    depth = start = 0
    for pos, ch in enumerate(t):
        depth += 1 if ch == "(" else -1
        if depth == 0:
            out.append(t[start + 1 : pos])
            start = pos + 1
    return tuple(out)


def encode(t: str) -> str:
    """Balanced parentheses: '(' on preorder descent, ')' on ascent; root is ''.  The word is the tree."""
    return t


def decode(s: str) -> str:
    """s itself, once checked to be a tree's word; rejects unbalanced or alien input with its position."""
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
    return s
