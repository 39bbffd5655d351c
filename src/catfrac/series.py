"""Sparse truncated polynomial arithmetic in z, q, and level variables v1, v2, ...

Every generating function in this package lives here: a series is a finite
map from monomials to exact (arbitrary-precision) integer coefficients,
truncated at a fixed maximum z-degree and kept graded: one map per
z-degree.  The z-degree doubles as the total edge count, so coefficients
beyond the order are *unknown*, not zero, and every operation discards them.

Values are immutable after construction and all operations are pure, so
series and monomials are safe to share between threads.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Mapping, NamedTuple


class TruncationError(ValueError):
    """A coefficient beyond the retained z-order was requested (unknown, not zero)."""


class Monomial(NamedTuple):
    """z^z_deg * q^q_deg * v1^v_degs[0] * v2^v_degs[1] * ...

    ``v_degs`` is stored as given, and monomials compare as tuples, so
    ``(1, 0)`` and ``(1,)`` differ.  Every monomial the package builds has
    no trailing zero (those of ``eval_cf``, ``LevelWeights.weight`` and
    ``times`` of such monomials); a caller who builds one strips it too.
    When ``v_degs`` is nonempty the z-degree equals ``sum(v_degs)``: each
    level variable carries one edge.  Tuple ordering gives the canonical
    sort (z_deg, then q_deg, then v_degs lexicographically) for free.
    """

    z_deg: int
    q_deg: int
    v_degs: tuple[int, ...] = ()

    def times(self, other: "Monomial") -> "Monomial":
        v = tuple(a + b for a, b in zip_longest(self.v_degs, other.v_degs, fillvalue=0))
        return Monomial(self.z_deg + other.z_deg, self.q_deg + other.q_deg, v)


class TruncSeries:
    """Exact polynomial truncated at a fixed z-order.

    Stored sparsely as one dict per z-degree, ``{z: {Monomial: coeff}}``:
    no zero coefficient, no empty slice, no monomial of z-degree beyond
    ``order_z`` (such terms are silently discarded, which *is* the ring's
    truncation semantics).  Binary operations require operands of equal
    order; mixing orders is a usage error because the truncated tails differ.
    """

    __slots__ = ("order_z", "_by_z")

    def __init__(self, order_z: int, terms: Mapping[Monomial, int] | None = None):
        if order_z < 0:
            raise ValueError("order_z must be nonnegative")
        by_z: dict[int, dict[Monomial, int]] = {}
        if terms:
            for m, c in terms.items():
                if c and m.z_deg <= order_z:
                    by_z.setdefault(m.z_deg, {})[m] = c
        object.__setattr__(self, "order_z", int(order_z))
        object.__setattr__(self, "_by_z", by_z)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- queries ---------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the canonical (z_deg, q_deg, v_degs) order."""
        return [t for z in sorted(self._by_z) for t in sorted(self._by_z[z].items())]

    def z_slice(self, n: int) -> dict[Monomial, int]:
        """All terms of z-degree exactly n, in canonical order."""
        if n > self.order_z:
            raise TruncationError(
                f"z-degree {n} exceeds truncation order {self.order_z}"
            )
        return dict(sorted(self._by_z.get(n, {}).items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order_z == other.order_z and self._by_z == other._by_z

    def __repr__(self) -> str:
        return f"TruncSeries(order_z={self.order_z}, {self})"

    # -- ring operations --------------------------------------------------

    def mul(self, other: "TruncSeries") -> "TruncSeries":
        """Convolution product; the constructor discards z-degrees beyond the order."""
        if not isinstance(other, TruncSeries):
            raise TypeError(f"expected TruncSeries, got {type(other).__name__}")
        if self.order_z != other.order_z:
            raise ValueError(
                f"mismatched truncation orders {self.order_z} and {other.order_z}"
            )
        out: dict[Monomial, int] = {}
        for terms_a in self._by_z.values():
            for terms_b in other._by_z.values():
                _add_products(out, terms_a, terms_b)
        return TruncSeries(self.order_z, out)

    def geom_inverse(self) -> "TruncSeries":
        """1/(1 - self) as the geometric series 1 + self + self^2 + ...

        Requires every term to carry at least one z (zero constant term),
        which makes the expansion terminate at the truncation order.
        Computed by the graded recurrence r = 1 + self*r, degree by degree;
        the constructor drops the coefficients that cancel to zero.
        """
        if 0 in self._by_z:
            raise ValueError(
                "geometric inverse needs a series with zero constant term; "
                f"found a z-degree-0 term {next(iter(self._by_z[0]))}"
            )
        r_by_z: dict[int, dict[Monomial, int]] = {0: {Monomial(0, 0): 1}}
        for d in range(1, self.order_z + 1):
            r_by_z[d] = acc = {}
            for j, terms_j in self._by_z.items():
                if j <= d:
                    _add_products(acc, terms_j, r_by_z[d - j])
        return TruncSeries(self.order_z, {m: c for part in r_by_z.values() for m, c in part.items()})

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        """Rendering grouped by z-degree, e.g. ``1 + z*(1) + z^2*(2) + z^3*(4 + q)``.

        Within a group, terms appear in canonical monomial order; a unit
        coefficient or exponent is left out, and level variables render as
        v1, v2, ...
        """
        parts: list[str] = []
        for z in sorted(self._by_z):
            group = sorted(self._by_z[z].items())
            inner = _render_poly(group)
            if z == 0:
                parts.append(inner if len(group) == 1 else f"({inner})")
            elif z == 1:
                parts.append(f"z*({inner})")
            else:
                parts.append(f"z^{z}*({inner})")
        return " + ".join(parts) if parts else "0"

    def term_records(self) -> list[dict]:
        """JSON-ready records, coefficients as decimal strings (they exceed 64 bits)."""
        return [
            {"z": m.z_deg, "q": m.q_deg, "v": list(m.v_degs), "coeff": str(c)}
            for m, c in self.terms()
        ]


def _add_products(acc: dict[Monomial, int], terms_a: Mapping[Monomial, int], terms_b: Mapping[Monomial, int]) -> None:
    """Add the product of every term of ``terms_a`` with every term of ``terms_b`` into ``acc``."""
    for ma, ca in terms_a.items():
        for mb, cb in terms_b.items():
            m = ma.times(mb)
            acc[m] = acc.get(m, 0) + ca * cb


def _render_poly(terms: list[tuple[Monomial, int]]) -> str:
    pieces: list[str] = []
    for m, c in terms:
        body_parts = []
        if m.q_deg == 1:
            body_parts.append("q")
        elif m.q_deg:
            body_parts.append(f"q^{m.q_deg}")
        for i, a in enumerate(m.v_degs):
            if a == 1:
                body_parts.append(f"v{i + 1}")
            elif a:
                body_parts.append(f"v{i + 1}^{a}")
        body = "*".join(body_parts)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(f"-{text}" if c < 0 else text)
        else:
            pieces.append(f" - {text}" if c < 0 else f" + {text}")
    return "".join(pieces)
