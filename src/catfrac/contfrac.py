"""Continued-fraction evaluation with a preset weight per level.

The generating function is the nested fraction 1/(1 - w_1/(1 - w_2/...)),
where the weight monomial w_l prices one vertex at level l.  The four
presets:

    catalan        w_l = z                    counts trees by edges
    area           w_l = z*q^l                q tracks the level sum, which
                                              encodes lattice-path area
    increasing(k)  w_l = z*q^C(l-1, k-1)      q tracks length-k increasing
                                              patterns of the tree's word
    multivariate   w_l = v_l                  one variable per level, the
                                              full level-profile census

Every weight carries exactly one z (one edge), so a truncation at z-order N
only ever sees the first N levels: evaluating at depth >= order is exact.
The path DP in ``eval_cf`` therefore sweeps two rows of z-degree at a time,
and the same bound lets it pack each monomial's q- and v-exponents into one
integer key whose digits cannot carry, so the DP adds ints and builds
``Monomial``s only for the final series.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .series import Monomial, TruncSeries

_KINDS = ("catalan", "area", "increasing", "multivariate")


class _WeightFields(NamedTuple):
    kind: str
    k: int | None = None


class LevelWeights(_WeightFields):
    """Resolves a level index (from 1) to its weight monomial."""

    __slots__ = ()

    def __new__(cls, kind: str, k: int | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown weight kind {kind!r}")
        if kind == "increasing" and (k is None or k < 1):
            raise ValueError("increasing-pattern weights need k >= 1")
        return super().__new__(cls, kind, k)

    @classmethod
    def catalan(cls) -> "LevelWeights":
        return cls("catalan")

    @classmethod
    def area(cls) -> "LevelWeights":
        return cls("area")

    @classmethod
    def increasing(cls, k: int) -> "LevelWeights":
        return cls("increasing", k=k)

    @classmethod
    def multivariate(cls) -> "LevelWeights":
        return cls("multivariate")

    def weight(self, level: int) -> Monomial:
        if level < 1:
            raise ValueError("levels are indexed from 1")
        if self.kind == "catalan":
            return Monomial(1, 0, ())
        if self.kind == "area":
            return Monomial(1, level, ())
        if self.kind == "increasing":
            return Monomial(1, comb(level - 1, self.k - 1), ())
        return Monomial.level(level)

    def __str__(self) -> str:
        if self.kind == "increasing":
            return f"increasing(k={self.k})"
        return self.kind


def eval_cf(weights: LevelWeights, depth: int, order_z: int) -> TruncSeries:
    """Evaluate the continued fraction truncated at z-order ``order_z``.

    By Flajolet's combinatorial theorem for continued fractions, the z^n
    coefficient is a sum over Dyck paths of height <= depth in which an
    up-step to height l carries w_l and a down-step carries 1.  A cell
    (d, h) holds the weighted path prefixes that end at height h with
    z-degree d; the z^d slice is cell (d, 0).  Every weight carries one z,
    so no path of z-degree <= order_z climbs above order_z: levels past
    min(depth, order_z) are never looked up, and any depth >= order_z gives
    the exact series.

    A cell maps a packed exponent to its coefficient.  The key of
    q^a * v1^b1 * v2^b2 * ... is a + Q*(b1 + b2*V + b3*V^2 + ...); the
    z-degree is the row d.  An up-step to level l adds the fixed key of w_l
    and moves a prefix from cell (d, l-1), the only up-step source of cell
    (d+1, l), so the DP sweeps two rows at a time.  A path takes at most
    order_z up-steps, so its q-degree stays below Q = order_z*max_q + 1 and
    each v-degree below V = order_z*max_v + 1 (max over the weights looked
    up): no digit carries, and every key unpacks to one monomial.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if order_z < 0:
        raise ValueError("order_z must be nonnegative")
    top = min(depth, order_z)
    ups = [weights.weight(level) for level in range(1, top + 1)]
    q_base = order_z * max((w.q_deg for w in ups), default=0) + 1
    v_base = order_z * max((max(w.v_degs, default=0) for w in ups), default=0) + 1
    steps = [w.q_deg + q_base * sum(b * v_base**i for i, b in enumerate(w.v_degs)) for w in ups]
    row: dict[int, dict[int, int]] = {0: {0: 1}}
    slices: dict[int, dict[int, int]] = {}
    for d in range(order_z + 1):
        # row[h] is cell (d, h); up-steps fill cell (d+1, h+1) of the next row.
        nxt: dict[int, dict[int, int]] = {}
        # Down-steps keep d, so heights are read top-down within a row.
        for h in range(top, -1, -1):
            cell = row.get(h)
            if not cell:
                continue
            if h < top and d < order_z:
                step = steps[h]
                nxt[h + 1] = {key + step: c for key, c in cell.items()}
            if h == 0:
                slices[d] = cell
                continue
            below = row.get(h - 1)
            if below is None:
                row[h - 1] = cell
            else:
                for key, c in cell.items():
                    below[key] = below.get(key, 0) + c
        row = nxt
    out: dict[Monomial, int] = {}
    for d, cell in slices.items():
        for key, c in cell.items():
            rest, q = divmod(key, q_base)
            v = []
            while rest:
                rest, b = divmod(rest, v_base)
                v.append(b)
            out[Monomial(d, q, tuple(v))] = c
    return TruncSeries(order_z, out)
