"""Exact continued-fraction generating functions for Catalan structures.

Three families of objects counted by the Catalan numbers, three statistics,
one continued fraction: the series whose level-l numerator weights a vertex
at level l enumerates ordered trees by level profile, and its
specializations count lattice paths by area and (132)-avoiding permutations
by increasing patterns.  Everything is exact integer arithmetic, and every
series coefficient can be cross-checked against brute-force enumeration of
the underlying objects.

Each name is imported from its own module: ``catfrac.series``,
``catfrac.contfrac``, ``catfrac.trees``, ``catfrac.paths``, ``catfrac.perms``,
``catfrac.verify`` and ``catfrac.cli``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
