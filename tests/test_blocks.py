from itertools import combinations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st
from nx_reference import min_separator_size, reference_k_blocks, separator_sizes

from tangles.blocks import (
    build_clique_subdivision,
    infinite_blocks,
    is_inseparable,
    k_blocks,
    pair_inseparable,
    verify_subdivision,
)
from tangles.finite_tangles import connected_graphs_up_to
from tangles.graphs import FiniteGraph, complete_graph, from_edges, grid_graph, path_graph
from tangles.schema import vertex_text


def k5_minus_edge():
    k5 = complete_graph(5)
    edges = sorted(k5.edges)
    return from_edges(edges[:-1]), edges[-1]


def test_pair_separability():
    p3 = path_graph(3)
    assert min_separator_size(p3, "p0", "p2") == 1
    assert min_separator_size(p3, "p0", "p1") is None  # adjacent
    assert pair_inseparable(p3, "p0", "p1", 99)
    assert not pair_inseparable(p3, "p0", "p2", 2)


def assert_matches_networkx(g: FiniteGraph):
    """pair_inseparable against networkx's minimum vertex cuts, and k_blocks
    against networkx's maximal cliques of the resulting relation, k = 1..6."""
    sizes = separator_sizes(g)
    for k in range(1, 7):
        for (u, v), cut in sizes.items():
            assert pair_inseparable(g, u, v, k) == (cut is None or cut >= k), (u, v, k)
        assert k_blocks(g, k) == reference_k_blocks(g, k, sizes), k


def petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    return from_edges(outer + spokes + inner)


def test_pair_inseparable_matches_min_separator():
    for g in connected_graphs_up_to(6):
        assert_matches_networkx(g)


def test_grids_petersen_and_stars_match_networkx():
    for rows, cols in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)):
        assert_matches_networkx(grid_graph(rows, cols))
    assert_matches_networkx(petersen())
    for n in (1, 2, 5, 7):
        assert_matches_networkx(from_edges(("c", f"l{i}") for i in range(n)))


def test_disconnected_graph_matches_networkx():
    k4, p3 = complete_graph(4), path_graph(3)
    q4 = k4.relabel({v: "q" + v[1:] for v in k4.vertices})
    g = FiniteGraph(
        k4.vertices | q4.vertices | p3.vertices | {"lone"}, k4.edges | q4.edges | p3.edges
    )
    assert_matches_networkx(g)
    assert not pair_inseparable(g, "k0", "q0", 1)
    # the 1-blocks are the components
    assert k_blocks(g, 1) == sorted(g.components(), key=sorted)


def test_second_path_cancels_the_first():
    # s-a-b-t is the only shortest s-t path, but the two disjoint paths are
    # s-a-x1-x2-t and s-y1-y2-b-t: the second augmentation has to send its
    # unit back along a-b
    g = from_edges([("s", "a"), ("a", "b"), ("b", "t"), ("a", "x1"), ("x1", "x2"),
                    ("x2", "t"), ("s", "y1"), ("y1", "y2"), ("y2", "b")])
    assert pair_inseparable(g, "s", "t", 2)
    assert not pair_inseparable(g, "s", "t", 3)
    assert min_separator_size(g, "s", "t") == 2
    assert_matches_networkx(g)
    # s-p-w-q-t is the only shortest path; the second augmentation enters q
    # from s-r1-r2-r3, runs back through w (out, then in) to p and leaves p
    # towards z1-z2-z3-t, so w ends up unused
    g = from_edges([("s", "p"), ("p", "w"), ("w", "q"), ("q", "t"), ("s", "r1"), ("r1", "r2"),
                    ("r2", "r3"), ("r3", "q"), ("p", "z1"), ("z1", "z2"), ("z2", "z3"), ("z3", "t")])
    assert pair_inseparable(g, "s", "t", 2)
    assert min_separator_size(g, "s", "t") == 2
    assert_matches_networkx(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FiniteGraph(
        frozenset(f"v{i}" for i in range(n)),
        frozenset((f"v{i}", f"v{j}") for (i, j), kept in zip(pairs, keep) if kept),
    )


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_random_edge_sets_match_networkx(g):
    assert_matches_networkx(g)


def test_k5_block():
    k5 = complete_graph(5)
    assert k_blocks(k5, 4) == [frozenset(k5.vertices)]
    assert is_inseparable(k5, k5.vertices, 4)


def test_p3_two_blocks():
    assert k_blocks(path_graph(3), 2) == [
        frozenset({"p0", "p1"}),
        frozenset({"p1", "p2"}),
    ]


def test_grid_blocks_frozen_regression():
    got = sorted(sorted(b) for b in k_blocks(grid_graph(3, 3), 3))
    assert got == [
        ["g0_0", "g0_1", "g1_0"],
        ["g0_1", "g0_2", "g1_2"],
        ["g0_1", "g1_0", "g1_1", "g1_2", "g2_1"],
        ["g1_0", "g2_0", "g2_1"],
        ["g1_2", "g2_1", "g2_2"],
    ]


def test_blocks_are_maximal_and_incomparable():
    for g, k in ((grid_graph(3, 3), 3), (complete_graph(5), 4), (path_graph(4), 2)):
        blocks = k_blocks(g, k)
        for b in blocks:
            assert len(b) >= k
            assert is_inseparable(g, b, k)
            for v in sorted(g.vertices - b):
                assert not is_inseparable(g, b | {v}, k)
        for a in blocks:
            for b in blocks:
                assert a == b or not (a <= b)


def test_k5_subdivision_direct_edges():
    k5 = complete_graph(5)
    cert = build_clique_subdivision(k5, k5.vertices)
    assert cert["ok"]
    assert all(len(p) == 2 for _, _, p in cert["paths"])
    assert verify_subdivision(k5, k5.vertices, cert)


def test_k5_minus_edge_blocks_at_missing_pair():
    g, missing = k5_minus_edge()
    cert = build_clique_subdivision(g, complete_graph(5).vertices)
    assert not cert["ok"]
    assert tuple(sorted(cert["blocking_pair"])) == missing
    # and indeed the precondition fails: the missing pair is 3-separable
    assert not is_inseparable(g, complete_graph(5).vertices, 5)


def test_two_vertices_behind_a_cutvertex_fail_precondition():
    p3 = path_graph(3)
    assert not is_inseparable(p3, {"p0", "p2"}, 3)
    # the path itself still realises the (trivial) two-branch subdivision
    cert = build_clique_subdivision(p3, {"p0", "p2"})
    assert cert["ok"] and verify_subdivision(p3, {"p0", "p2"}, cert)


def test_verify_rejects_corrupted_certificates():
    k5 = complete_graph(5)
    cert = build_clique_subdivision(k5, k5.vertices)
    x, y, path = cert["paths"][0]
    bad = {"ok": True, "paths": [[x, y, path + [path[-1]]]] + cert["paths"][1:]}
    assert not verify_subdivision(k5, k5.vertices, bad)
    # forgeries that leave a branch pair unjoined: a-b twice and no b-c
    # path, a path between two vertices outside the branch set, or an a-b
    # entry whose path joins a and c
    k3 = complete_graph(3)
    a, b, c = sorted(k3.vertices)
    twice = {"ok": True, "paths": [[a, b, [a, b]], [b, a, [b, a]], [a, c, [a, c]]]}
    assert not verify_subdivision(k3, k3.vertices, twice)
    g = from_edges([*k3.edges, ("x", "y")])
    outside = {"ok": True, "paths": [[a, b, [a, b]], [a, c, [a, c]], ["x", "y", ["x", "y"]]]}
    assert not verify_subdivision(g, k3.vertices, outside)
    mislabelled = {"ok": True, "paths": [[a, b, [a, c]], [a, c, [a, c]], [b, c, [b, c]]]}
    assert not verify_subdivision(k3, k3.vertices, mislabelled)
    honest = {"ok": True, "paths": [[a, b, [a, b]], [a, c, [a, c]], [b, c, [b, c]]]}
    assert verify_subdivision(k3, k3.vertices, honest)


def test_random_dense_instances(rng):
    built = 0
    for seed in range(12):
        G = nx.gnp_random_graph(8, 0.75, seed=seed)
        if not nx.is_connected(G):
            continue
        g = FiniteGraph(
            frozenset(f"v{n}" for n in G.nodes),
            frozenset(tuple(sorted((f"v{u}", f"v{v}"))) for u, v in G.edges),
        )
        K = set(rng.sample(sorted(g.vertices), 4))
        if not is_inseparable(g, K, len(K)):
            continue
        cert = build_clique_subdivision(g, K)
        if cert["ok"]:
            built += 1
            assert verify_subdivision(g, K, cert)
            # Menger bound: one direct path plus one through each other
            # branch vertex are internally disjoint, so a nonadjacent
            # branch pair needs a separator of size |K| - 1 at least
            for u in sorted(K):
                for v in sorted(K):
                    if u < v and not g.has_edge(u, v):
                        assert min_separator_size(g, u, v) >= len(K) - 1
    assert built >= 3


def block_pair_check(schema, block: dict, n: int, cut_bound: int) -> bool:
    """Truncation probe: sampled pairs from the block are not separated by
    fewer than cut_bound vertices in the depth-n truncation."""
    g = schema.truncate(n)
    name = block["clique"]
    members = [vertex_text(("cliq", name, i)) for i in range(0, min(n, 6))]
    members += [vertex_text(("core", c)) for c in block["attached_cores"]]
    return all(pair_inseparable(g, u, v, cut_bound) for u, v in combinations(members, 2))


def test_infinite_blocks(schemas):
    assert infinite_blocks(schemas["ray"]) == []
    assert infinite_blocks(schemas["spider"]) == []
    (blk,) = infinite_blocks(schemas["cliq"])
    assert blk["clique"] == "K"
    assert block_pair_check(schemas["cliq"], blk, 16, 6)


def test_infinite_block_with_attached_core():
    from tangles.schema import parse_schema

    s = parse_schema("core:\nv c\nclique K attach c\n")
    (blk,) = infinite_blocks(s)
    assert blk["attached_cores"] == ["c"]
    assert block_pair_check(s, blk, 16, 6)
