"""Highly connected vertex sets: k-blocks, clique subdivisions, and their
infinite analogues on schemas.

Separability of a vertex pair is decided by counting disjoint paths up to k
(adjacent pairs cannot be separated; a nonadjacent pair with an end of degree
below k is separated by that end's neighbourhood).  A k-block is a maximal
set of at least k vertices no two of which are separated by fewer than k
vertices.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations

import networkx as nx
from networkx.algorithms import connectivity, flow

from .graphs import FiniteGraph
from .schema import SchemaGraph, vertex_text
from .semilinear import SemilinearSet
from .symsets import SymVertexSet


def to_networkx(g: FiniteGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(sorted(g.vertices))
    G.add_edges_from(sorted(g.edges))
    return G


def min_separator_size(g: FiniteGraph, u: str, v: str) -> int | None:
    """Minimum vertex cut between a nonadjacent pair; None when adjacent."""
    if g.has_edge(u, v):
        return None
    return len(nx.minimum_node_cut(to_networkx(g), u, v))


@lru_cache(maxsize=1)
def _flow_network(g: FiniteGraph) -> tuple:
    """The graph, its vertex-split auxiliary digraph and a residual network,
    shared by every pair check on the same graph."""
    G = to_networkx(g)
    H = connectivity.build_auxiliary_node_connectivity(G)
    return G, H, flow.build_residual_network(H, "capacity")


def pair_inseparable(g: FiniteGraph, u: str, v: str, k: int) -> bool:
    """Whether u and v are adjacent or joined by k internally disjoint paths."""
    if g.has_edge(u, v):
        return True
    if min(g.degree(u), g.degree(v)) < k:  # N(u) separates u from v
        return False
    G, H, R = _flow_network(g)
    return connectivity.local_node_connectivity(G, u, v, auxiliary=H, residual=R, cutoff=k) >= k


def is_inseparable(g: FiniteGraph, K, k: int) -> bool:
    """Whether no two vertices of K are separated by fewer than k vertices."""
    K = sorted(K)
    return all(pair_inseparable(g, u, v, k) for u, v in combinations(K, 2))


def k_blocks(g: FiniteGraph, k: int) -> list[frozenset[str]]:
    """Maximal (< k)-inseparable sets with at least k vertices."""
    rel = nx.Graph()
    rel.add_nodes_from(sorted(g.vertices))
    for u, v in combinations(sorted(g.vertices), 2):
        if pair_inseparable(g, u, v, k):
            rel.add_edge(u, v)
    blocks = [frozenset(c) for c in nx.find_cliques(rel) if len(c) >= k]
    return sorted(blocks, key=lambda b: sorted(b))


# -- clique subdivisions ------------------------------------------------------


def build_clique_subdivision(g: FiniteGraph, K, order=None) -> dict:
    """Greedily realise a subdivided complete graph with branch vertices K.

    Paths are found pairwise in branch order; each must avoid K internally
    and all inner vertices used earlier.  On failure the blocking pair is
    reported, which indicates the inseparability precondition fails.
    """
    K = sorted(K) if order is None else list(order)
    if any(v not in g.vertices for v in K):
        raise ValueError("branch vertices outside the graph")
    used_inner: set[str] = set()
    paths: dict[tuple[str, str], list[str]] = {}
    for a_i, a in enumerate(K):
        for b in K[:a_i]:
            path = _connecting_path(g, b, a, set(K) - {a, b}, used_inner)
            if path is None:
                return {
                    "ok": False,
                    "blocking_pair": (b, a),
                    "paths": {f"{x}--{y}": p for (x, y), p in paths.items()},
                }
            paths[(b, a)] = path
            used_inner.update(path[1:-1])
    return {"ok": True, "paths": {f"{x}--{y}": p for (x, y), p in paths.items()}}


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
    """Check a certificate edge by edge: right endpoints, valid edges, and
    pairwise internally disjoint paths avoiding the branch set."""
    if not certificate.get("ok"):
        return False
    K = sorted(K)
    paths = certificate["paths"]
    if len(paths) != len(K) * (len(K) - 1) // 2:
        return False
    seen_inner: list[str] = []
    for key, path in paths.items():
        a, b = key.split("--")
        if path[0] != a or path[-1] != b:
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
    are the cliques together with their attached cores (which meet every
    clique vertex and so cannot be cut off)."""
    out = []
    for c in schema.cliques:
        vs = SymVertexSet.make(
            schema,
            core=frozenset(c.attach),
            cliq_idx={c.name: SemilinearSet.naturals()},
        )
        out.append(
            {
                "clique": c.name,
                "vertices": vs.text(),
                "attached_cores": sorted(c.attach),
            }
        )
    return out


def block_pair_check(
    schema: SchemaGraph, block: dict, n: int, cut_bound: int
) -> bool:
    """Truncation probe: sampled pairs from the block are not separated by
    fewer than cut_bound vertices in the depth-n truncation."""
    g = schema.truncate(n)
    name = block["clique"]
    members = [vertex_text(("cliq", name, i)) for i in range(0, min(n, 6))]
    members += [vertex_text(("core", c)) for c in block["attached_cores"]]
    return all(pair_inseparable(g, u, v, cut_bound) for u, v in combinations(members, 2))
