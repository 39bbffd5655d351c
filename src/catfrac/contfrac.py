"""Continued-fraction evaluation with a pluggable weight per level.

The generating function is the nested fraction 1/(1 - w_1/(1 - w_2/...)),
where the weight monomial w_l prices one vertex at level l.  Presets:

    catalan        w_l = z                    counts trees by edges
    area           w_l = z*q^l                q tracks the level sum, which
                                              encodes lattice-path area
    increasing(k)  w_l = z*q^C(l-1, k-1)      q tracks length-k increasing
                                              patterns of the tree's word
    multivariate   w_l = v_l                  one variable per level, the
                                              full level-profile census
    custom         explicit per-level list

Every weight carries at least one z, so a truncation at z-order N only ever
sees the first N levels: evaluating at depth >= order is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import Monomial, TruncSeries
from .util import binom

_KINDS = ("catalan", "area", "increasing", "multivariate", "custom")


@dataclass(frozen=True)
class LevelWeights:
    """Resolves a level index (from 1) to its weight monomial."""

    kind: str
    k: int | None = None
    levels: tuple[Monomial, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "increasing" and (self.k is None or self.k < 1):
            raise ValueError("increasing-pattern weights need k >= 1")
        if self.kind == "custom":
            if not self.levels:
                raise ValueError("custom weights need at least one level")
            for w in self.levels:
                if w.z_deg < 1:
                    raise ValueError(f"level weight {w} must carry a factor of z")
            pure_v = [bool(w.v_degs) for w in self.levels]
            if any(pure_v) and not all(pure_v):
                raise ValueError("custom weights must not mix z,q monomials with level variables")

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

    @classmethod
    def custom(cls, levels) -> "LevelWeights":
        return cls("custom", levels=tuple(levels))

    def weight(self, level: int) -> Monomial:
        if level < 1:
            raise ValueError("levels are indexed from 1")
        if self.kind == "catalan":
            return Monomial(1, 0, ())
        if self.kind == "area":
            return Monomial(1, level, ())
        if self.kind == "increasing":
            return Monomial(1, binom(level - 1, self.k - 1), ())
        if self.kind == "multivariate":
            return Monomial.level(level)
        if level > len(self.levels):
            raise ValueError(f"custom weights defined through level {len(self.levels)} only")
        return self.levels[level - 1]

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
    z-degree d; the z^d slice is cell (d, 0).  Every weight carries a z, so
    no path of z-degree <= order_z climbs above order_z: levels past
    min(depth, order_z) are never looked up, and any depth >= order_z gives
    the exact series.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if order_z < 0:
        raise ValueError("order_z must be nonnegative")
    top = min(depth, order_z)
    ups = [weights.weight(level) for level in range(1, top + 1)]
    # rows[d][h] is cell (d, h); up-steps fill rows ahead of the one read.
    rows: dict[int, dict[int, dict[Monomial, int]]] = {0: {0: {Monomial(0, 0, ()): 1}}}
    out: dict[Monomial, int] = {}
    for d in range(order_z + 1):
        row = rows.pop(d, {})
        # Down-steps keep d, so heights are read top-down within a row.
        for h in range(top, -1, -1):
            cell = row.get(h)
            if not cell:
                continue
            if h < top:
                w = ups[h]
                if d + w.z_deg <= order_z:
                    above = rows.setdefault(d + w.z_deg, {}).setdefault(h + 1, {})
                    for m, c in cell.items():
                        m = m.times(w)
                        above[m] = above.get(m, 0) + c
            if h == 0:
                out.update(cell)
                continue
            below = row.get(h - 1)
            if below is None:
                row[h - 1] = cell
            else:
                for m, c in cell.items():
                    below[m] = below.get(m, 0) + c
    return TruncSeries(order_z, out)


def fixed_point_check(order_z: int) -> bool:
    """True iff the level-census series T satisfies T = 1/(1 - v1 * T-shifted).

    T-shifted is T with every level variable moved up one level, i.e. the
    same census seen from one level below the root.
    """
    t = eval_cf(LevelWeights.multivariate(), max(order_z, 1), order_z)
    shifted = t.shift_levels(1)
    v1 = TruncSeries(order_z, {Monomial.level(1): 1})
    return v1.mul(shifted).geom_inverse() == t


def specialize(series: TruncSeries, weights: LevelWeights) -> TruncSeries:
    """Substitute each level variable by the weight the preset assigns it."""
    return series.substitute_levels(weights.weight)
