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
The path DP in ``eval_cf`` keeps one running cell per row of z-degree,
walked from the top height down to the row's finished z-slice, and the same
bound lets it pack each monomial's q- and v-exponents into one integer key
whose digits cannot carry, so the DP adds ints and builds a ``Monomial``
only when a slice is finished.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .series import Monomial, TruncSeries


class _WeightFields(NamedTuple):
    kind: str
    k: int | None = None


class LevelWeights(_WeightFields):
    """A preset, ``LevelWeights(kind)`` or ``LevelWeights("increasing", k)``."""

    __slots__ = ()

    def __new__(cls, kind: str, k: int | None = None):
        if kind not in ("catalan", "area", "increasing", "multivariate"):
            raise ValueError(f"unknown weight kind {kind!r}")
        if kind == "increasing" and (k is None or k < 1):
            raise ValueError("increasing-pattern weights need k >= 1")
        return super().__new__(cls, kind, k)

    def weight(self, level: int) -> Monomial:
        if level < 1:
            raise ValueError("levels are indexed from 1")
        if self.kind == "catalan":
            return Monomial(1, 0, ())
        if self.kind == "area":
            return Monomial(1, level, ())
        if self.kind == "increasing":
            return Monomial(1, comb(level - 1, self.k - 1), ())
        return Monomial(1, 0, (0,) * (level - 1) + (1,))

    def __str__(self) -> str:
        if self.kind == "increasing":
            return f"increasing(k={self.k})"
        return self.kind


def eval_cf(weights: LevelWeights, depth: int, order_z: int) -> TruncSeries:
    """Evaluate the continued fraction truncated at z-order ``order_z``.

    By Flajolet's combinatorial theorem for continued fractions, the z^n
    coefficient is a sum over Dyck paths of height <= depth in which an
    up-step to height l carries w_l and a down-step carries 1.  Cell (d, h)
    holds the weighted path prefixes of z-degree d that end at height h.
    Every weight carries one z, so such a prefix climbs no higher than d:
    levels past min(depth, order_z) are never looked up, and any
    depth >= order_z gives the exact series.

    A down-step keeps d, so cell (d, h) is cell (d, h+1) plus the up-steps
    that arrive at height h.  Row d is one running cell walked from
    h = min(d, depth) down to 0: its up-steps become the arrivals of row
    d+1, and at h = 0 it is the z^d slice.

    A cell maps a packed exponent to its coefficient.  The key of
    q^a * v1^b1 * v2^b2 * ... is a + Q*(b1 + b2*V + b3*V^2 + ...); an
    up-step to level l adds the fixed key of w_l.  A path takes at most
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
    out: dict[Monomial, int] = {}
    arrivals: dict[int, dict[int, int]] = {0: {0: 1}}
    for d in range(order_z + 1):
        nxt: dict[int, dict[int, int]] = {}
        cell: dict[int, int] = {}
        for h in range(min(d, top), -1, -1):
            for key, c in arrivals.get(h, {}).items():
                cell[key] = cell.get(key, 0) + c
            if h < top and d < order_z:
                step = steps[h]
                nxt[h + 1] = {key + step: c for key, c in cell.items()}
        for key, c in cell.items():
            rest, q = divmod(key, q_base)
            v = []
            while rest:
                rest, b = divmod(rest, v_base)
                v.append(b)
            out[Monomial(d, q, tuple(v))] = c
        arrivals = nxt
    return TruncSeries(order_z, out)
