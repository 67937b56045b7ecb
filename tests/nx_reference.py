"""networkx as an independent reference for the block computations: minimum
vertex cuts for pair separability and maximal cliques for k-blocks."""

from itertools import combinations

import networkx as nx

from tangles.graphs import FiniteGraph


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


def separator_sizes(g: FiniteGraph) -> dict[tuple[str, str], int | None]:
    """``min_separator_size`` of every pair u < v."""
    return {(u, v): min_separator_size(g, u, v) for u, v in combinations(sorted(g.vertices), 2)}


def reference_k_blocks(g: FiniteGraph, k: int, sizes: dict) -> list[frozenset[str]]:
    """k-blocks as the maximal cliques (``nx.find_cliques``) of the pairs
    whose ``separator_sizes`` entry is None or at least k, in ``k_blocks``'s
    order."""
    rel = nx.Graph()
    rel.add_nodes_from(g.vertices)
    rel.add_edges_from(p for p, cut in sizes.items() if cut is None or cut >= k)
    return sorted((frozenset(c) for c in nx.find_cliques(rel) if len(c) >= k), key=sorted)
