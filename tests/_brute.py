"""Independent maximum-matching search used to vet the real matcher.

Deliberately knows nothing about the package: plain (n, edges) in, a
number or an edge set out, by exhaustive recursion over the lowest
uncovered vertex with memoization on the available-vertex bitmask.
Exponential, fine for n up to the low twenties.

``full_reset_blossom_mcm`` is a frozen copy of the package's blossom
matcher from before its searches reset only the forest they touched:
the same searches in the same order, each resetting every vertex.  It
stays frozen.  The current matcher also contracts differently: it
relabels only the members of the bases a blossom absorbs, where the
copy scans every vertex.  The current matcher must return exactly its
mate arrays.
"""

from __future__ import annotations

import sys
from functools import lru_cache

sys.setrecursionlimit(100_000)


def exhaustive_mcm_size(n: int, edges) -> int:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    @lru_cache(maxsize=None)
    def rec(avail: int) -> int:
        if avail == 0:
            return 0
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        best = rec(rest)
        for w in adj[v]:
            if rest >> w & 1:
                cand = 1 + rec(rest & ~(1 << w))
                if cand > best:
                    best = cand
        return best

    out = rec((1 << n) - 1)
    rec.cache_clear()
    return out


def exhaustive_mcm_edges(n: int, edges) -> list[tuple[int, int]]:
    """One optimal matching, reconstructed greedily from the size oracle."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    @lru_cache(maxsize=None)
    def rec(avail: int) -> int:
        if avail == 0:
            return 0
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        best = rec(rest)
        for w in adj[v]:
            if rest >> w & 1:
                cand = 1 + rec(rest & ~(1 << w))
                if cand > best:
                    best = cand
        return best

    out: list[tuple[int, int]] = []
    avail = (1 << n) - 1
    while avail:
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        if rec(avail) == rec(rest):
            avail = rest
            continue
        for w in sorted(adj[v]):
            if rest >> w & 1 and rec(avail) == 1 + rec(rest & ~(1 << w)):
                out.append((v, w) if v < w else (w, v))
                avail = rest & ~(1 << w)
                break
    rec.cache_clear()
    return out


def full_reset_blossom_mcm(n: int, adj: list[list[int]]) -> list[int]:
    """Array-based blossom algorithm; returns the mate array (-1 = free)."""
    match = [-1] * n
    # Cheap maximal matching first; the search then only runs from the
    # leftover free vertices.
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break

    p = [-1] * n  # parent in the alternating forest
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        used_path = [False] * n
        x = a
        while True:
            x = base[x]
            used_path[x] = True
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if used_path[y]:
                return y
            y = p[match[y]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        for i in range(n):
            p[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # Odd cycle found: contract the blossom.
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    queue.append(match[to])
        return -1

    for v in range(n):
        # A free vertex with no edges has nothing to find, and a search
        # from it would still cost O(n) to reset the forest.
        if match[v] == -1 and adj[v]:
            u = find_path(v)
            if u == -1:
                continue
            while u != -1:
                pv = p[u]
                ppv = match[pv]
                match[u] = pv
                match[pv] = u
                u = ppv
    return match
