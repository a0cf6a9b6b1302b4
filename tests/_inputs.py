"""Inputs that keep two free vertices with an edge once the matching is maximum.

A phase stops before its next bundle once fewer than two structures
are live, since an augmenting path ends in two free vertices that have
an edge.  So on a graph whose maximum matchings leave at most one such
vertex, a phase at the maximum runs no bundle at all.  A test that
needs bundles after the last path runs on a disjoint union with two
copies of ``gen_blossom_gadget(2)``: each copy has 13 vertices and a
maximum matching of 6, so each leaves one free vertex with an edge.
The two never meet in a path, and their structures stay live.
"""

from __future__ import annotations

from matchboost.corpus import gen_blossom_gadget
from matchboost.graph import Graph


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each shifted past the ones before it.

    Each graph's edges are added in ascending order.
    """
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in sorted(g.edges)]
        offset += g.n
    return Graph(offset, edges)


def two_gadgets() -> Graph:
    """Two disjoint copies of ``gen_blossom_gadget(2)``: two free vertices with an edge at mu."""
    gadget = gen_blossom_gadget(2)
    return disjoint_union(gadget, gadget)


def with_two_gadgets(g: Graph) -> Graph:
    """``g`` followed by :func:`two_gadgets`."""
    return disjoint_union(g, two_gadgets())
