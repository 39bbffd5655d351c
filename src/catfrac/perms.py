"""The tree-to-permutation bijection and pattern statistics.

A tree on n edges becomes a permutation word: label the nonroot vertices
n, n-1, ..., 1 in preorder, then read the labels in postorder (each vertex
recorded at its last visit).  The image is exactly the set of permutations
with no (132) pattern, and the number of length-k increasing patterns in the
word equals the tree statistic sum over vertices of C(level-1, k-1).

Permutation words are plain tuples of ints; the unshifted form is a
permutation of 1..n.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterator, Optional, Sequence

PermWord = tuple[int, ...]


class Pattern132Error(ValueError):
    """Input word contains a (132) pattern; carries a 1-based witnessing triple."""

    def __init__(self, triple: tuple[int, int, int]):
        i, j, k = triple
        super().__init__(f"word contains a (132) pattern at positions (i, j, k) = ({i}, {j}, {k})")
        self.triple = triple


def validate_perm(p: Sequence[int]) -> PermWord:
    """Require an unshifted permutation word, i.e. each of 1..n exactly once."""
    word = tuple(int(x) for x in p)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation of 1..{len(word)}: {list(word)}")
    return word


def tree_to_perm(t: str) -> PermWord:
    """Preorder-decreasing labels read in postorder; the bare root gives ()."""
    word: list[int] = []
    open_labels: list[int] = []
    label = len(t) // 2
    for ch in t:
        if ch == "(":
            open_labels.append(label)
            label -= 1
        else:
            word.append(open_labels.pop())
    return tuple(word)


def has_132(p: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """A 1-based triple i < j < k with p[i] < p[k] < p[j], or None.

    The returned i is always the position of the prefix minimum before j,
    which suffices: any witness can be improved to one of that form.
    """
    n = len(p)
    i = 0  # index of the first minimum among p[0..j-1]
    for j in range(1, n - 1):
        lo, hi = p[i], p[j]
        if lo < hi:
            for k in range(j + 1, n):
                if lo < p[k] < hi:
                    return (i + 1, j + 1, k + 1)
        elif hi < lo:
            i = j
    return None


def enumerate_132_avoiders(n: int) -> Iterator[PermWord]:
    """Yield the (132)-avoiding permutations of 1..n, in lexicographic order.

    A hereditary prefix search that never touches trees.  Appending b forbids
    every later value between b's prefix minimum and b, and a forbidden value
    still unplaced makes the prefix a dead end.  So a live prefix extends only
    by an unplaced value below its minimum or by the least unplaced value
    above it; every live prefix completes (put the rest in increasing order),
    and the search visits no dead prefix.  It yields from an explicit stack and
    holds only that stack: an entry ((prefix, unplaced, low), i) appends
    unplaced[i] to a prefix whose minimum is low, and unplaced stays sorted.
    """
    prefix, unplaced, low = (), tuple(range(1, n + 1)), n + 1
    stack: list[tuple[tuple[PermWord, PermWord, int], int]] = []
    while True:
        below = bisect_left(unplaced, low)
        if below:  # popped in increasing order: every value below low, then the least above it
            node = (prefix, unplaced, low)
            stack.extend([(node, i) for i in range(min(below, len(unplaced) - 1), -1, -1)])
        else:  # nothing below low: the rest can only go up
            yield prefix + unplaced
        if not stack:
            return
        (prefix, unplaced, low), i = stack.pop()
        value = unplaced[i]
        prefix, unplaced, low = prefix + (value,), unplaced[:i] + unplaced[i + 1 :], min(low, value)


def count_increasing_by_length(p: Sequence[int], k: int) -> dict[int, int]:
    """{L: strictly increasing subsequences of length L} for L = 1..k, in one pass.

    Dynamic programming on (length, end position), length L built from
    length L-1; independent of any tree machinery.  Lengths past the word,
    and past the first length with none, are left out: they have none.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(p)
    top = min(k, n)
    if not top:
        return {}
    out = {1: n}
    ending = [1] * n  # subsequences of the current length ending at each index
    for length in range(2, top + 1):
        nxt = [0] * n
        for i in range(n):
            pi = p[i]
            total = 0
            for h in range(i):
                if p[h] < pi:
                    total += ending[h]
            nxt[i] = total
        ending = nxt
        count = out[length] = sum(ending)
        if not count:
            break
    return out


def count_increasing(p: Sequence[int], k: int) -> int:
    """Number of strictly increasing subsequences of length k."""
    return count_increasing_by_length(p, k).get(k, 0)


def root_to_leaf_subsets_by_length(t: str, k: int) -> dict[int, set[frozenset[int]]]:
    """{L: label sets of L nonroot vertices along one root-to-leaf path} for L = 1..k.

    One scan of the bracket word: at each '(' the open labels are exactly
    the nonroot ancestors of the vertex being opened, so the L-chains whose
    deepest vertex it is are that label plus any L-1 open labels.  Lengths
    past the edge count are left out: they have no chains.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = label = len(t) // 2
    top = min(k, n)
    out: dict[int, set[frozenset[int]]] = {length: set() for length in range(1, top + 1)}
    open_labels: list[int] = []
    for ch in t:
        if ch == "(":
            # Only lengths the open labels can fill: combinations() allocates
            # its size before it notices the pool is smaller.
            depth = len(open_labels)
            longest = depth + 1 if depth < top else top
            vertex = frozenset((label,))
            for length in range(1, longest + 1):
                out[length].update(map(vertex.union, combinations(open_labels, length - 1)))
            open_labels.append(label)
            label -= 1
        else:
            open_labels.pop()
    return out


def root_to_leaf_subsets(t: str, k: int) -> set[frozenset[int]]:
    """Label sets of k nonroot vertices lying along one root-to-leaf path."""
    return root_to_leaf_subsets_by_length(t, k).get(k, set())


def increasing_pattern_subsets_by_length(p: Sequence[int], k: int) -> dict[int, set[frozenset[int]]]:
    """{L: value sets that occur as a length-L increasing pattern} for L = 1..k.

    Built by extension: the increasing tuples of length L ending at index i
    are those of length L-1 ending at any h < i with p[h] < p[i], plus p[i].
    The pass stops at the word's length and at the first length with none;
    lengths with none are left out.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(p)
    top = min(k, n)
    out: dict[int, set[frozenset[int]]] = {}
    ending = [[(x,)] for x in p]
    for length in range(1, top + 1):
        if length > 1:
            ending = [[t + (x,) for h in range(i) if p[h] < x for t in ending[h]] for i, x in enumerate(p)]
            if not any(ending):
                break
        out[length] = {frozenset(t) for tuples in ending for t in tuples}
    return out


def increasing_pattern_subsets(p: Sequence[int], k: int) -> set[frozenset[int]]:
    """Value sets that occur as a length-k increasing pattern."""
    return increasing_pattern_subsets_by_length(p, k).get(k, set())


def perm_to_tree(p: Sequence[int]) -> str:
    """Inverse of tree_to_perm, total on (132)-avoiding permutations.

    Raises Pattern132Error (with a witnessing triple) on words containing a
    (132) pattern and ValueError on non-permutation input.

    Decoding writes the bracket word: the word lists each vertex right after
    its subtree, and preorder opens every larger label before a vertex, so
    when label x is read, '(' is written for each label not yet opened down
    to x, then ')' closes x.
    """
    word = validate_perm(p)
    witness = has_132(word)
    if witness is not None:
        raise Pattern132Error(witness)
    parts: list[str] = []
    next_label = len(word)  # preorder opens the labels n, n-1, ..., 1
    for label in word:
        while next_label >= label:
            parts.append("(")
            next_label -= 1
        parts.append(")")
    return "".join(parts)


def parse_perm(text: str) -> PermWord:
    """Parse a word of ASCII-digit numbers: separated by commas or whitespace, or contiguous for n <= 9."""
    s = text.strip()
    tokens = list(s) if s.isdigit() else s.replace(",", " ").split()
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"cannot parse permutation word {text!r}")
    return validate_perm(tuple(map(int, tokens)))


def format_perm(p: Sequence[int]) -> str:
    return " ".join(str(x) for x in p)
