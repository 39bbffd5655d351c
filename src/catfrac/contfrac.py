"""Continued-fraction evaluation with a preset weight per level.

The generating function is the nested fraction 1/(1 - w_1/(1 - w_2/...)),
where the weight monomial w_l prices one vertex at level l.  A preset is
one ``LevelWeights`` row, its display name and its level -> w_l function;
``PRESETS`` maps each CLI token to its row:

    catalan        CATALAN         w_l = z                 counts trees by edges
    eq2            AREA            w_l = z*q^l             q tracks the level sum,
                                                           which encodes path area
    eq1            increasing(3)   w_l = z*q^C(l-1, k-1)   q tracks length-k
                   increasing(k)                           increasing patterns
    multivariate   MULTIVARIATE    w_l = z*v_l             one variable per level,
                                                           the level-profile census

``eval_cf`` requires exactly one z (one edge) per weight, so a truncation at
z-order N only ever sees the first N levels: evaluating at depth >= order is
exact.  The path DP in ``eval_cf`` keeps one running cell per row of
z-degree, walked from the top height down to the row's finished z-slice, and
the same bound lets it pack each monomial's q- and v-exponents as the digits
of one integer key in one base, large enough that no digit carries, so the
DP adds ints and builds a ``Monomial`` only when a slice is finished.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from .series import Monomial, TruncSeries


class LevelWeights(NamedTuple):
    """One preset row: the name ``series --json`` prints, and w_l for each level l >= 1."""

    name: str
    weight: Callable[[int], Monomial]

    def __str__(self) -> str:
        return self.name


CATALAN = LevelWeights("catalan", lambda level: Monomial(1, 0, ()))
AREA = LevelWeights("area", lambda level: Monomial(1, level, ()))
MULTIVARIATE = LevelWeights("multivariate", lambda level: Monomial(1, 0, (0,) * (level - 1) + (1,)))


def increasing(k: int) -> LevelWeights:
    """The row whose q counts length-k increasing patterns (``--weights k=<k>``)."""
    if k < 1:
        raise ValueError("increasing-pattern weights need k >= 1")
    return LevelWeights(f"increasing(k={k})", lambda level: Monomial(1, comb(level - 1, k - 1), ()))


PRESETS = {"catalan": CATALAN, "eq1": increasing(3), "eq2": AREA, "multivariate": MULTIVARIATE}


def eval_cf(weights: LevelWeights, depth: int, order_z: int) -> TruncSeries:
    """Evaluate the continued fraction truncated at z-order ``order_z``.

    By Flajolet's combinatorial theorem for continued fractions, the z^n
    coefficient is a sum over Dyck paths of height <= depth in which an
    up-step to height l carries w_l and a down-step carries 1.  Cell (d, h)
    holds the weighted path prefixes of z-degree d that end at height h.
    Every weight must carry one z, so such a prefix climbs no higher than d:
    levels past min(depth, order_z) are never looked up, and any
    depth >= order_z gives the exact series.

    A down-step keeps d, so cell (d, h) is cell (d, h+1) plus the up-steps
    that arrive at height h.  Row d is one running cell walked from
    h = min(d, depth) down to 0: its up-steps become the arrivals of row
    d+1, and at h = 0 it is the z^d slice.

    A cell maps a packed exponent to its coefficient.  The key of
    q^a * v1^b1 * v2^b2 * ... is a + b1*B + b2*B^2 + ..., one digit per
    exponent; an up-step to level l adds the fixed key of w_l.  A path takes
    at most order_z up-steps, so no exponent reaches B = order_z*e + 1 (e the
    largest exponent of the weights looked up): no digit carries, and every
    key unpacks to one monomial.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if order_z < 0:
        raise ValueError("order_z must be nonnegative")
    top = min(depth, order_z)
    ups = [weights.weight(level) for level in range(1, top + 1)]
    for level, w in enumerate(ups, start=1):
        if w.z_deg != 1:
            raise ValueError(f"the weight of level {level} has z-degree {w.z_deg}; eval_cf needs exactly one z")
    base = order_z * max((e for w in ups for e in (w.q_deg, *w.v_degs)), default=0) + 1
    steps = [sum(e * base**i for i, e in enumerate((w.q_deg, *w.v_degs))) for w in ups]
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
            rest, q = divmod(key, base)
            v = []
            while rest:
                rest, b = divmod(rest, base)
                v.append(b)
            out[Monomial(d, q, tuple(v))] = c
        arrivals = nxt
    return TruncSeries(order_z, out)
