import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import strategies as st

from catfrac.series import Monomial, TruncSeries
from catfrac.trees import OrderedTree, generate_trees
from oracles import catalan_table

# Child interpreters find the package in this checkout, installed or not.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}

_CATALAN = catalan_table(10)
_TREE_LISTS = {n: list(generate_trees(n)) for n in range(9)}

LEAF = OrderedTree()  # the bare root, no edges


@st.composite
def small_trees(draw, max_edges=8):
    """A random ordered tree with at most max_edges edges."""
    n = draw(st.integers(min_value=0, max_value=max_edges))
    idx = draw(st.integers(min_value=0, max_value=_CATALAN[n] - 1))
    return _TREE_LISTS[n][idx]


@st.composite
def random_dyck_words(draw, max_edges, min_edges=0):
    """A uniform random bracket word on min_edges to max_edges edges.

    Cycle lemma: of the rotations of a shuffled word with n '(' and n + 1
    ')', the one starting just after the first minimum prefix sum is a Dyck
    word followed by one extra ')'.
    """
    n = draw(st.integers(min_value=min_edges, max_value=max_edges))
    steps = ["("] * n + [")"] * (n + 1)
    draw(st.randoms(use_true_random=False)).shuffle(steps)
    height = low = start = 0
    for i, ch in enumerate(steps):
        height += 1 if ch == "(" else -1
        if height < low:
            low, start = height, i + 1
    return "".join(steps[start:] + steps[:start])[:-1]


@st.composite
def zq_monomials(draw, max_z=4, min_z=0):
    z = draw(st.integers(min_value=min_z, max_value=max_z))
    q = draw(st.integers(min_value=0, max_value=4))
    return Monomial(z, q, ())


@st.composite
def zq_series(draw, order_z=4, min_z=0):
    """A random sparse z,q series at a fixed order with smallish coefficients."""
    terms = draw(
        st.dictionaries(
            zq_monomials(max_z=order_z, min_z=min_z),
            st.integers(min_value=-5, max_value=5),
            max_size=6,
        )
    )
    return TruncSeries(order_z, terms)
