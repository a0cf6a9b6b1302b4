"""Inputs that keep two free vertices with an edge, able to meet, once the matching is maximum.

A phase stops before its next bundle once no two live structures can
meet in an augmenting path: no two owners share a component with an
odd cycle, and no bipartite component has an owner on each side.  So
on a graph whose maximum matchings leave no such pair, a phase at the
maximum runs no bundle at all.  A test that needs bundles after the
last path runs on :func:`joined_gadgets`: three copies of
``gen_blossom_gadget`` whose hubs are joined to one new vertex.  It is
connected and has odd cycles, and each copy less its hub has a perfect
matching, so a maximum matching leaves two free vertices with an edge
in the one component, and their structures stay live.
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


def joined_gadgets(petals: int = 2) -> Graph:
    """Three copies of ``gen_blossom_gadget(petals)``, each hub joined to a new last vertex.

    With two petals: 40 vertices and mu = 19, so two free vertices with
    an edge at mu, in one non-bipartite component.
    """
    gadget = gen_blossom_gadget(petals)
    g = disjoint_union(gadget, gadget, gadget, Graph(1))
    for copy in range(3):
        g.add_edge(copy * gadget.n, g.n - 1)
    return g


def with_joined_gadgets(g: Graph) -> Graph:
    """``g`` followed by :func:`joined_gadgets`."""
    return disjoint_union(g, joined_gadgets())
