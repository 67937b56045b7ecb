import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from finite_reference import cover_free, side_masks
from finite_reference import separations_below_order as reference_separations

from tangles.finite_tangles import (
    DEFAULT_GUARD,
    ResourceGuardError,
    _Search,
    check_join_closure,
    check_star_reduction,
    connected_graphs_up_to,
    count_tangles,
    enumerate_tangles,
    enumerate_tangles_by_scan,
    separations_below_order,
)
from tangles.graphs import (
    FiniteGraph, bit_ids, complete_graph, cycle_graph, from_edges, grid_graph, path_graph,
)


def test_separation_enumeration_k2():
    k2 = complete_graph(2)
    seps = separations_below_order(k2, 2)
    as_sets = {(frozenset(a), frozenset(b)) for a, b in seps}
    V = frozenset({"k0", "k1"})
    assert as_sets == {
        (frozenset(), V),
        (frozenset({"k0"}), V),
        (frozenset({"k1"}), V),
    }


def test_separation_enumeration_p3_adds_middle_split():
    p3 = path_graph(3)
    seps = separations_below_order(p3, 2)
    split = (frozenset({"p0", "p1"}), frozenset({"p1", "p2"}))
    assert split in seps or (split[1], split[0]) in seps
    assert len(seps) == 1 + 3 + 1  # bottom, one per vertex towards V, the split


def test_separation_enumeration_k4_only_small():
    k4 = complete_graph(4)
    V = k4.vertices
    for A, B in separations_below_order(k4, 2):
        assert A == V or B == V
        assert min(len(A), len(B)) <= 1


def test_frozen_tangle_counts():
    assert count_tangles(complete_graph(3), 3) == 0
    assert count_tangles(complete_graph(4), 2) == 1
    assert count_tangles(cycle_graph(4), 2) == 1


def test_k2_tangle_explicitly():
    k2 = complete_graph(2)
    tangles = enumerate_tangles(k2, 2)
    assert len(tangles) == 1
    (t,) = tangles
    V = frozenset({"k0", "k1"})
    assert t == frozenset(
        {(frozenset(), V), (frozenset({"k0"}), V), (frozenset({"k1"}), V)}
    )


def test_scan_agrees_with_dfs():
    # every connected graph of at most 5 vertices whose separations the
    # unpruned scan can afford: 71 cases, 61 of them with tangles
    atlas = [
        (g, k)
        for g in connected_graphs_up_to(5)
        for k in (1, 2, 3, 4)
        if len(separations_below_order(g, k)) <= 12
    ]
    assert len(atlas) == 71
    with_tangles = 0
    for g, k in [
        (complete_graph(3), 3),
        (path_graph(4), 2),
        (cycle_graph(4), 2),
        (complete_graph(4), 2),
    ] + atlas:
        found = enumerate_tangles(g, k)
        assert {frozenset(t) for t in found} == {
            frozenset(t) for t in enumerate_tangles_by_scan(g, k)
        }
        with_tangles += bool(found)
    assert with_tangles == 4 - 1 + 61  # K3 at order 3 has none


def test_tangles_contain_small_separations():
    # every tangle holds (empty, V), and ({v}, V) whenever that separation
    # exists at this order and the rest stays connected
    for g, k in [(complete_graph(4), 2), (cycle_graph(4), 2), (grid_graph(2, 3), 2)]:
        V = g.vertices
        for t in enumerate_tangles(g, k):
            assert (frozenset(), V) in t
            for v in sorted(V):
                rest = g.components(removed=frozenset({v}))
                if len(rest) == 1 and len(V) > 2:
                    assert (frozenset({v}), V) in t


def test_tangle_count_isomorphism_invariant(rng):
    g = grid_graph(2, 3)
    base = count_tangles(g, 2)
    names = sorted(g.vertices)
    for _ in range(5):
        shuffled = names[:]
        rng.shuffle(shuffled)
        h = g.relabel(dict(zip(names, shuffled)))
        assert count_tangles(h, 2) == base


def test_star_reduction_small_graphs():
    rep = check_star_reduction(path_graph(3), 2)
    assert rep["ok"]
    for g in connected_graphs_up_to(4):
        for k in (2, 3):
            assert check_star_reduction(g, k)["ok"]


def test_star_reduction_random_six_vertex(rng):
    import networkx as nx

    from tangles.graphs import FiniteGraph

    for seed in range(8):
        G = nx.gnp_random_graph(6, 0.55, seed=seed)
        if not nx.is_connected(G):
            continue
        g = FiniteGraph(
            frozenset(f"v{n}" for n in G.nodes),
            frozenset(tuple(sorted((f"v{u}", f"v{v}"))) for u, v in G.edges),
        )
        assert check_star_reduction(g, 3)["ok"]


def test_join_closure_examples():
    assert check_join_closure(complete_graph(4), 2)["ok"]
    assert check_join_closure(cycle_graph(4), 2)["ok"]
    rep = check_join_closure(grid_graph(3, 3), 3)
    assert rep["ok"] and rep["tangles"] == 1


def test_resource_guard():
    with pytest.raises(ResourceGuardError):
        enumerate_tangles(grid_graph(3, 3), 3, guard=10)
    with pytest.raises(ResourceGuardError):
        enumerate_tangles_by_scan(grid_graph(3, 3), 3)
    # K1,12 has 2,061 separations at order 2: the search stops at the guard,
    # whatever depth it has reached
    star = from_edges([("c", f"l{i}") for i in range(12)])
    with pytest.raises(ResourceGuardError):
        count_tangles(star, 2, guard=10**5)
    # 21 components behind the centre of K1,21 would need 2**20 bipartitions
    with pytest.raises(ResourceGuardError):
        separations_below_order(from_edges([("c", f"l{i}") for i in range(21)]), 2)


def test_star_check_resource_guard():
    star = from_edges([("c", f"l{i}") for i in range(12)])
    with pytest.raises(ResourceGuardError):
        check_star_reduction(star, 2, guard=10**5)


def test_grid_4x4_order_4():
    g = grid_graph(4, 4)
    assert count_tangles(g, 4) == 1
    assert check_star_reduction(g, 4)["ok"]


def test_grid_6x6_order_4():
    # 7,971 separations: the width bound answers this under the default guard
    g = grid_graph(6, 6)
    assert count_tangles(g, 4) == 1
    assert check_star_reduction(g, 4)["ok"]


def test_star_check_guard_counts_the_verifier():
    # the star search of K1,12 at order 2 reaches an orientation well within
    # the default guard; the triple scan of its 2,061 members does not
    star = from_edges([("c", f"l{i}") for i in range(12)])
    s = _Search(star, 2)
    chosen = next(s.search(star_only=True))
    assert s.spent < DEFAULT_GUARD // 2
    with pytest.raises(ResourceGuardError, match="cover verification"):
        s.full_cover_free(chosen)
    with pytest.raises(ResourceGuardError, match="cover verification"):
        check_star_reduction(star, 2)


def toward(s, x, y) -> bool:
    """Reference for the search's rows: oriented separation x points towards
    y when A_x lies in B_y and A_y in B_x (symmetric)."""
    a, inv = s.a, s.inv
    return a[x] & ~a[inv[y]] == 0 and a[y] & ~a[inv[x]] == 0


def _petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    return from_edges(outer + spokes + inner)


@pytest.mark.parametrize(
    "g, k",
    [
        (cycle_graph(5), 3),
        (_petersen(), 3),
        (from_edges([("c", f"l{i}") for i in range(4)]), 2),
        (grid_graph(3, 3), 3),
        (path_graph(3), 4),  # (V, V) is its own inverse
    ],
)
def test_relation_rows_match_pairwise_tests(g, k):
    s = _Search(g, k)
    tow, inc = s.rows
    ids = range(len(s.a))
    every = (1 << len(s.a)) - 1
    for x in ids:
        Ax, Bx = s.oriented[x]
        for y in ids:
            Ay, By = s.oriented[y]
            assert (tow[x] >> y & 1) == toward(s, x, y)
            assert (inc[x] >> y & 1) == (Bx <= Ay and By <= Ax)
        m = s.full ^ s.a[x]
        assert s.above(m, every) == sum(1 << y for y in ids if m & ~s.a[y] == 0)


def _random_graph(rng):
    # names drawn at random, so their sorted order is not the order of
    # creation; sparse draws leave some graphs disconnected
    n = rng.randint(1, 8)
    names = [f"x{i}" for i in rng.sample(range(1000), n)]
    p = rng.choice((0.2, 0.4, 0.7))
    edges = {(u, v) if u < v else (v, u) for u, v in combinations(names, 2) if rng.random() < p}
    return FiniteGraph(frozenset(names), frozenset(edges))


def test_separation_masks_match_the_reference(rng):
    empty = FiniteGraph(frozenset(), frozenset())
    cases = [(g, k) for g in connected_graphs_up_to(6) for k in range(1, 7)]  # k > n: A == B
    cases += [
        (grid_graph(3, 4), 3), (grid_graph(4, 4), 3), (grid_graph(4, 5), 3),
        (_petersen(), 4), (complete_graph(6), 4), (cycle_graph(8), 3), (empty, 1), (empty, 2),
    ]
    cases += [(_random_graph(rng), rng.randint(1, 4)) for _ in range(60)]
    for g, k in cases:
        want = reference_separations(g, k)
        assert separations_below_order(g, k) == want
        s = _Search(g, k)
        assert len(s.seps) == len(want)
        assert s.a == side_masks(g, want)
        assert s.to_pairs(range(len(s.a))) == {(A, B) for p in want for A, B in [p, p[::-1]]}


def test_atlas_digest_is_pinned():
    # the 143 connected graphs up to 6 vertices at k = 1..4: each search's
    # tangles in the order found, sides sorted; count_tangles against them;
    # and the star check's orientations and verdict
    h = hashlib.md5()
    for g in connected_graphs_up_to(6):
        for k in (1, 2, 3, 4):
            found = enumerate_tangles(g, k)
            rep = check_star_reduction(g, k)
            record = (
                g.digest(), k,
                [sorted((sorted(A), sorted(B)) for A, B in t) for t in found],
                count_tangles(g, k) == len(found),
                rep["orientations_checked"], rep["ok"],
            )
            h.update(repr(record).encode())
    assert h.hexdigest() == "6e9471b61c83c9ab1897e5f76440881c"


class _Chained(_Search):
    """The refusal tests as calls of ``above``: the reference for the AND
    chains the searches write out, behind the same width bound."""

    def tangle_refused(self, C, o, width):
        a, above = self.a, self.above
        miss = self.full ^ a[o]
        if miss and miss.bit_count() > 2 * width:
            return False
        return not miss or any(above(miss & ~a[c], C) for c in bit_ids(above(miss & -miss, C)))

    def star_refused(self, C, o, width):
        a, above = self.a, self.above
        tow, inc = self.rows
        miss, S = self.full ^ a[o], tow[o] & C
        self.spent += 2
        if inc[o] & C or not miss:
            return True
        if miss.bit_count() > 2 * width:
            return False
        if above(miss, S):
            return True
        for c in bit_ids(above(miss & -miss, S)):
            self.spent += 1
            if above(miss & ~a[c], S & tow[c]):
                return True
        return False

    def refused(self, C, o, star, width):
        return self.star_refused(C, o, width) if star else self.tangle_refused(C, o, width)


def _until_guard(s, star_only, guard):
    """The orientations a search yields, and its spend, or None for the
    spend when the guard trips."""
    found = []
    try:
        for chosen in s.search(star_only, guard):
            found.append(chosen)
    except ResourceGuardError:
        return found, None
    return found, s.spent


@pytest.mark.parametrize("star_only", [False, True])
def test_inline_chains_spend_as_above_does(star_only):
    for g, k in [(grid_graph(4, 4), 3), (_petersen(), 4), (complete_graph(6), 4), (path_graph(3), 4)]:
        want = _until_guard(_Chained(g, k), star_only, 2**23)
        assert _until_guard(_Search(g, k), star_only, 2**23) == want
        # the guard trips after the same chain
        for guard in (want[1] - 1, want[1] // 3, 5):
            got = _until_guard(_Search(g, k), star_only, guard)
            assert got == _until_guard(_Chained(g, k), star_only, guard)


def test_star_test_refuses_exactly_covering_stars():
    # the star-cover reduction says something only if the star search lets
    # through covering triples that are not stars
    s = _Search(cycle_graph(5), 3)
    kinds = set()
    for o, c, d in combinations(range(len(s.a)), 3):
        if s.covers(o, c, d) and not any(s.covers(x, y) for x, y in [(o, c), (o, d), (c, d)]):
            star = toward(s, o, c) and toward(s, o, d) and toward(s, c, d)
            assert s.refused(1 << c | 1 << d, o, True) == star
            kinds.add(star)
    assert kinds == {True, False}


def test_oracle_imports_without_numpy():
    # the package and the command line load neither numpy nor networkx;
    # only the verification suite (atlas and G(n, p) draws) loads networkx
    code = (
        "import sys, tangles, tangles.cli, tangles.finite_tangles\n"
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))\n"
        "import tangles.suite\n"
        "print('networkx' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.split() == ["[]", "True"], proc.stderr


def test_consistency_of_enumerated_tangles():
    for t in enumerate_tangles(cycle_graph(4), 2):
        members = set(t)
        for A, B in members:
            assert (B, A) not in members or A == B


def _gnp_graphs(count: int, sizes: range, p: float):
    import networkx as nx

    out = []
    for seed in range(count):
        G = nx.gnp_random_graph(sizes[seed % len(sizes)], p, seed=seed)
        out.append(FiniteGraph(
            frozenset(f"v{x}" for x in G.nodes),
            frozenset(tuple(sorted((f"v{x}", f"v{y}"))) for x, y in G.edges),
        ))
    return out


def test_width_bound_changes_no_search():
    # every connected graph of at most 7 vertices and 120 G(n, 0.4) draws on
    # 6-11 vertices, at k = 1..4: the searches yield the same orientations in
    # the same order when refused is given no width
    cases = connected_graphs_up_to(7) + _gnp_graphs(120, range(6, 12), 0.4)
    assert len(cases) == 853 + 143 + 120
    skipped = 0
    for g in cases:
        for k in (1, 2, 3, 4):
            s = _Search(g, k)
            for star_only in (False, True):
                bounded = list(s.search(star_only))
                spent = s.spent
                s.refused = lambda C, o, star, width: _Search.refused(s, C, o, star)
                assert list(s.search(star_only)) == bounded, (g.digest(), k, star_only)
                skipped += s.spent > spent
                del s.refused
    assert skipped > 4 * len(cases)  # the bound spares ANDs in most searches


def test_cover_verifier_bound_matches_the_scan():
    # random orientations, most of them covering; orientations of mostly
    # small sides, some of whose covers need three sides; and the cover-free
    # ones the star search finds, some of which the bound decides alone
    rng = random.Random(11)
    kinds, narrow_covers = set(), 0
    graphs = [(g, k) for g in _gnp_graphs(40, range(4, 9), 0.45) for k in (2, 3)]
    graphs += [(grid_graph(3, 4), 3), (_petersen(), 4), (cycle_graph(6), 3)]
    for g, k in graphs:
        s = _Search(g, k)
        orientations = [tuple(rng.choice(b) for b in s.base) for _ in range(10)]
        orientations += [
            tuple(b[-1] if rng.random() < 0.1 else b[0] for b in s.base) for _ in range(10)
        ]
        orientations += list(s.search(star_only=True))
        for chosen in orientations:
            masks = [s.a[o] for o in chosen]
            spent = s.spent
            free = s.full_cover_free(chosen)
            assert free == cover_free(masks, s.full), (g.digest(), k, chosen)
            kinds.add((free, s.spent > spent))
            widest = sorted(m.bit_count() for m in set(masks))[-2:]
            narrow_covers += not free and sum(widest) < s.full.bit_length()
    assert kinds == {(False, True), (True, False), (True, True)}
    assert narrow_covers
