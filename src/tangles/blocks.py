"""Highly connected vertex sets: k-blocks, clique subdivisions, and their
infinite analogues on schemas.

Separability of a vertex pair is decided by counting disjoint paths up to k
(adjacent pairs cannot be separated; a nonadjacent pair with an end of degree
below k is separated by that end's neighbourhood).  A k-block is a maximal
set of at least k vertices no two of which are separated by fewer than k
vertices (Carmesin-Diestel-Hamann-Hundertmark, arXiv:1305.4557).

Both steps run on the graph's vertex positions (``FiniteGraph.numbered``).
The paths are counted by at most k breadth-first augmentations over the
vertex-split states (w in, w out), on position arrays: the flow is one
feeder position per vertex and the search tree one parent list over the
states; the blocks are the maximal cliques of the inseparability relation,
found by a pivoted Bron-Kerbosch over int neighbourhood masks.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .components import core_components
from .graphs import FiniteGraph, bit_ids
from .schema import SchemaGraph


def pair_inseparable(g: FiniteGraph, u: str, v: str, k: int) -> bool:
    """Whether u and v are adjacent or joined by k internally disjoint paths."""
    if g.has_edge(u, v):
        return True
    if min(g.degree(u), g.degree(v)) < k:  # N(u) separates u from v
        return False
    return _disjoint_paths(g, u, v, k) >= k


def _disjoint_paths(g: FiniteGraph, u: str, v: str, k: int) -> int:
    """Internally disjoint paths between nonadjacent u and v, counted up to k.

    State 2w is w's in-copy and 2w+1 its out-copy; an inner vertex passes
    one unit from in to out.  The flow is kept per position: ``into[y]`` is
    the x whose arc x out to y in carries a unit, or -1 when y is free, so
    the arc (x, y) is in use exactly when into[y] == x.  The residual moves
    are: out x to in y along an unused arc, back from in y to out x along a
    used one, in w to out w when w is free, and back from out w to in w when
    it is in use.  Arcs into t need no record: the out-copy of a vertex
    feeding t could be reached only back from t's in-copy, and reaching
    that ends the search.
    """
    _, index, nbrs = g.numbered
    s, t = index[u], index[v]
    start, goal = 2 * s + 1, 2 * t
    into = [-1] * len(nbrs)
    for found in range(k):
        parent = [-1] * (2 * len(nbrs))  # the state each state was reached from
        parent[start] = parent[2 * s] = start  # no move enters s
        queue = deque([start])
        while queue and parent[goal] < 0:
            state = queue.popleft()
            w = state >> 1
            if state & 1:
                for y in nbrs[w]:
                    if into[y] != w and parent[2 * y] < 0:
                        parent[2 * y] = state
                        queue.append(2 * y)
                if into[w] >= 0 and parent[2 * w] < 0:
                    parent[2 * w] = state
                    queue.append(2 * w)
            else:
                x = into[w]
                nxt = 2 * w + 1 if x < 0 else 2 * x + 1
                if parent[nxt] < 0:
                    parent[nxt] = state
                    queue.append(nxt)
        if parent[goal] < 0:
            return found
        state = goal
        while state != start:
            prev = parent[state]
            x, y = prev >> 1, state >> 1
            if x != y:  # an edge arc
                if not prev & 1:  # back along the arc (y, x): its unit is cancelled
                    into[x] = -1
                elif y != t:  # forward along the arc (x, y): it carries a unit
                    into[y] = x
            state = prev
    return k


def is_inseparable(g: FiniteGraph, K, k: int) -> bool:
    """Whether no two vertices of K are separated by fewer than k vertices."""
    K = sorted(K)
    return all(pair_inseparable(g, u, v, k) for u, v in combinations(K, 2))


def k_blocks(g: FiniteGraph, k: int) -> list[frozenset[str]]:
    """Maximal (< k)-inseparable sets with at least k vertices."""
    order = g.numbered[0]
    rel = [0] * len(order)
    for i, j in combinations(range(len(order)), 2):
        if pair_inseparable(g, order[i], order[j], k):
            rel[i] |= 1 << j
            rel[j] |= 1 << i
    blocks = [
        frozenset(order[i] for i in bit_ids(c)) for c in _maximal_cliques(rel) if c.bit_count() >= k
    ]
    return sorted(blocks, key=sorted)


def _maximal_cliques(rel: list[int]) -> list[int]:
    """Maximal cliques of the graph whose vertex i has neighbour mask rel[i],
    as masks: Bron-Kerbosch with Tomita's pivot, on an explicit stack."""
    out = []
    stack = [(0, (1 << len(rel)) - 1, 0)]  # clique R, candidates P, excluded X
    while stack:
        R, P, X = stack.pop()
        if not P:
            if not X and R:
                out.append(R)
            continue
        pivot = max(bit_ids(P | X), key=lambda w: (P & rel[w]).bit_count())
        for w in bit_ids(P & ~rel[pivot]):
            stack.append((R | 1 << w, P & rel[w], X & rel[w]))
            P &= ~(1 << w)
            X |= 1 << w
    return out


# -- clique subdivisions ------------------------------------------------------


def build_clique_subdivision(g: FiniteGraph, K) -> dict:
    """Greedily realise a subdivided complete graph with branch vertices K.

    Paths are found pairwise in sorted branch order; each must avoid K
    internally and all inner vertices used earlier.  ``paths`` lists one
    ``[x, y, path]`` entry per pair in build order.  On failure the blocking
    pair is reported, which indicates the inseparability precondition fails.
    """
    K = sorted(K)
    if any(v not in g.vertices for v in K):
        raise ValueError("branch vertices outside the graph")
    if len(set(K)) != len(K):
        raise ValueError("repeated branch vertex")
    used_inner: set[str] = set()
    paths: list[list] = []
    for a_i, a in enumerate(K):
        for b in K[:a_i]:
            path = _connecting_path(g, b, a, set(K) - {a, b}, used_inner)
            if path is None:
                return {"ok": False, "blocking_pair": (b, a), "paths": paths}
            paths.append([b, a, path])
            used_inner.update(path[1:-1])
    return {"ok": True, "paths": paths}


def _connecting_path(g, src, dst, forbidden, used_inner):
    if g.has_edge(src, dst):
        return [src, dst]
    blocked = forbidden | used_inner
    prev = {src: None}
    q = deque([src])
    while q:
        x = q.popleft()
        for y in sorted(g.neighbors(x)):
            if y in prev:
                continue
            if y == dst:
                prev[y] = x
                path = [y]
                while path[-1] is not None:
                    path.append(prev[path[-1]])
                path.pop()
                return list(reversed(path))
            if y in blocked:
                continue
            prev[y] = x
            q.append(y)
    return None


def verify_subdivision(g: FiniteGraph, K, certificate: dict) -> bool:
    """Check a certificate edge by edge: one ``[x, y, path]`` entry per pair
    of branch vertices, each path running from x to y along edges of g, and
    pairwise internally disjoint paths avoiding the branch set."""
    if not certificate.get("ok"):
        return False
    K = set(K)
    pairs = {frozenset(p) for p in combinations(K, 2)}
    entries = certificate["paths"]
    if len(entries) != len(pairs) or {frozenset((x, y)) for x, y, _ in entries} != pairs:
        return False
    seen_inner: list[str] = []
    for x, y, path in entries:
        if not path or (path[0], path[-1]) != (x, y):
            return False
        for u, v in zip(path, path[1:]):
            if not g.has_edge(u, v):
                return False
        inner = path[1:-1]
        if any(v in K for v in inner):
            return False
        if len(set(path)) != len(path):
            return False
        seen_inner += inner
    return len(seen_inner) == len(set(seen_inner))


# -- infinite blocks on schemas -------------------------------------------------


def infinite_blocks(schema: SchemaGraph) -> list[dict]:
    """Maximal infinite sets pairwise inseparable by finite cuts.

    Only a clique provides infinitely many disjoint connections, so these
    are the clique blocks: the vertices dominating the core-level component
    that holds the clique, that is the clique and its attached cores."""
    cs = core_components(schema)
    blocks = []
    for c in schema.cliques:
        dom = cs.dominators(cs.locate(("crem", c.name)))
        blocks.append({"clique": c.name, "vertices": dom.text(), "attached_cores": sorted(dom.core)})
    return blocks
