"""Exhaustive enumeration and verification of order-k tangles of finite graphs.

This is the brute-force oracle the symbolic machinery is validated
against.  Separations are generated from (separator, component
bipartition) pairs, which is exhaustive because every component of the
graph minus the separator lies wholly on one side.  An orientation is a
tangle when no one-, two- or three-element multiset drawn from it covers
the whole graph with its left sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, takewhile

import numpy as np

from .semilinear import ResourceGuardError

DEFAULT_GUARD = 2**25

OrientedPair = tuple[frozenset, frozenset]


def _key(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(s)))


def separations_below_order(g, k: int, max_components: int = 20) -> list[OrientedPair]:
    """All unordered separations {A, B} of order < k, as canonical pairs.

    The pair is ordered so that the lexicographically smaller side comes
    first; callers orient them explicitly.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    out: set[OrientedPair] = set()
    verts = sorted(g.vertices)
    for size in range(min(k, len(verts) + 1)):
        for xs in combinations(verts, size):
            X = frozenset(xs)
            comps = g.components(removed=X)
            if len(comps) > max_components:
                raise ResourceGuardError(
                    f"{len(comps)} components behind a separator; bipartition scan too large"
                )
            for mask in range(2 ** len(comps)):
                b_side = [c for j, c in enumerate(comps) if mask >> j & 1]
                a_side = [c for j, c in enumerate(comps) if not mask >> j & 1]
                A = X.union(*a_side) if a_side else X
                B = X.union(*b_side) if b_side else X
                out.add((A, B) if _key(A) <= _key(B) else (B, A))
    return sorted(out, key=lambda ab: (len(ab[0] & ab[1]), _key(ab[0]), _key(ab[1])))


@dataclass
class _Search:
    """Shared precomputation for orientation scans over one (graph, k)."""

    g: object
    k: int

    def __post_init__(self):
        g = self.g
        self.seps = separations_below_order(g, self.k)
        self.vidx = {v: i for i, v in enumerate(sorted(g.vertices))}
        self.eidx = {e: i for i, e in enumerate(sorted(g.edges))}
        self.full_v = (1 << len(self.vidx)) - 1
        self.full_e = (1 << len(self.eidx)) - 1
        oriented: list[OrientedPair] = []
        self.base: list[tuple[int, ...]] = []
        for A, B in self.seps:
            if A == B:
                self.base.append((len(oriented),))
                oriented.append((A, B))
            else:
                self.base.append((len(oriented), len(oriented) + 1))
                oriented.append((A, B))
                oriented.append((B, A))
        self.oriented = oriented
        n = len(oriented)
        self.inv = [
            self.base[i][1 - w] if len(self.base[i]) == 2 else self.base[i][0]
            for i in range(len(self.seps))
            for w in range(len(self.base[i]))
        ]
        self.va = [self._vmask(A) for A, _ in oriented]
        self.vb = [self._vmask(B) for _, B in oriented]
        self.ea = [self._emask(A) for A, _ in oriented]
        # leq[x][y]: sides of x below sides of y in the separation order
        self.leq = [
            [
                (self.va[x] & ~self.va[y]) == 0 and (self.vb[y] & ~self.vb[x]) == 0
                for y in range(n)
            ]
            for x in range(n)
        ]
        # toward[x][y]: x points towards y (x <= inverse of y)
        self.toward = [[self.leq[x][self.inv[y]] for y in range(n)] for x in range(n)]

    def _vmask(self, s) -> int:
        m = 0
        for v in s:
            m |= 1 << self.vidx[v]
        return m

    def _emask(self, s) -> int:
        m = 0
        for e in self.eidx:
            if e[0] in s and e[1] in s:
                m |= 1 << self.eidx[e]
        return m

    def covers(self, *os) -> bool:
        v = e = 0
        for o in os:
            v |= self.va[o]
            e |= self.ea[o]
        return v == self.full_v and e == self.full_e

    def inconsistent_pair(self, x: int, y: int) -> bool:
        ix, iy = self.inv[x], self.inv[y]
        return (self.leq[ix][y] and ix != y) or (self.leq[iy][x] and iy != x)

    def _violates(self, chosen: list[int], o: int, star_only: bool) -> bool:
        """Does adding o create a forbidden covering multiset of size <= 3?"""
        if self.covers(o):
            return True
        for c in chosen + [o]:
            if star_only and not self.toward[o][c] and c != o:
                continue
            if self.covers(o, c):
                return True
        for c1, c2 in combinations(chosen + [o], 2):
            if star_only and not (
                (self.toward[o][c1] or c1 == o)
                and (self.toward[o][c2] or c2 == o)
                and (self.toward[c1][c2] or c1 == c2)
            ):
                continue
            if self.covers(o, c1, c2):
                return True
        return False

    def search(self, star_only: bool, consistency: bool, guard: int = DEFAULT_GUARD):
        """DFS over orientations, pruning forbidden configurations."""
        n = len(self.seps)
        chosen: list[int] = []
        nodes = 0

        def rec(i: int):
            nonlocal nodes
            if i == n:
                yield tuple(chosen)
                return
            for o in self.base[i]:
                nodes += 1
                if nodes > guard:
                    raise ResourceGuardError("orientation search exceeded guard")
                if consistency and any(self.inconsistent_pair(o, c) for c in chosen):
                    continue
                if self._violates(chosen, o, star_only):
                    continue
                chosen.append(o)
                yield from rec(i + 1)
                chosen.pop()

        yield from rec(0)

    def to_pairs(self, chosen) -> frozenset:
        return frozenset(self.oriented[o] for o in chosen)

    def full_cover_free(self, chosen) -> bool:
        """Exact covering-multiset check over all triples, vectorised."""
        va = np.array([self.va[o] for o in chosen], dtype=np.uint64)
        ea = np.array([self.ea[o] for o in chosen], dtype=np.uint64)
        if self.full_v >= 2**63 or self.full_e >= 2**63:
            raise ResourceGuardError("graph too large for vectorised cover check")
        pv = va[:, None] | va[None, :]
        pe = ea[:, None] | ea[None, :]
        for j in range(len(chosen)):
            hit = ((pv | va[j]) == np.uint64(self.full_v)) & (
                (pe | ea[j]) == np.uint64(self.full_e)
            )
            if hit.any():
                return False
        return True


def enumerate_tangles(g, k: int, guard: int = DEFAULT_GUARD) -> list[frozenset]:
    """All order-k tangles, each a frozenset of oriented (A, B) pairs."""
    s = _Search(g, k)
    return [s.to_pairs(c) for c in s.search(star_only=False, consistency=True, guard=guard)]


def count_tangles(g, k: int, guard: int = DEFAULT_GUARD) -> int:
    return len(enumerate_tangles(g, k, guard))


def is_tangle(g, k: int, orientation) -> bool:
    """Whether a full orientation of the order-<k separations is a tangle."""
    s = _Search(g, k)
    pairs = set(orientation)
    chosen = []
    for i in range(len(s.seps)):
        picks = [o for o in s.base[i] if s.oriented[o] in pairs]
        if len(picks) != 1:
            raise ValueError("not a full orientation (one side per separation required)")
        chosen.append(picks[0])
    if len(pairs) != len(s.seps):
        raise ValueError("orientation mentions unknown separations")
    return s.full_cover_free(chosen)


def enumerate_tangles_by_scan(g, k: int, limit: int = 12) -> list[frozenset]:
    """Reference enumeration by unpruned scan; only for small instances."""
    s = _Search(g, k)
    if len(s.seps) > limit:
        raise ResourceGuardError(f"{len(s.seps)} separations is too many for a full scan")
    out = []

    def rec(i, chosen):
        if i == len(s.seps):
            if s.full_cover_free(chosen):
                out.append(s.to_pairs(chosen))
            return
        for o in s.base[i]:
            rec(i + 1, chosen + [o])

    rec(0, [])
    return out


def check_star_reduction(g, k: int, guard: int = DEFAULT_GUARD) -> dict:
    """Verify: consistent orientations free of covering *stars* are fully cover-free.

    Returns a report dict; ``counterexamples`` lists offending orientations.
    """
    s = _Search(g, k)
    checked = 0
    counterexamples = []
    for chosen in s.search(star_only=True, consistency=True, guard=guard):
        checked += 1
        if not s.full_cover_free(list(chosen)):
            counterexamples.append(sorted(map(sorted, s.to_pairs(chosen))))
    return {
        "check": "star-cover reduction",
        "graph": g.digest(),
        "order": k,
        "orientations_checked": checked,
        "counterexamples": counterexamples,
        "ok": not counterexamples,
    }


def check_join_closure(g, k: int, guard: int = DEFAULT_GUARD) -> dict:
    """Every tangle contains (A u A', B n B') for its member pairs when in range."""
    tangles = enumerate_tangles(g, k, guard)
    failures = []
    for t in tangles:
        members = set(t)
        for (A1, B1), (A2, B2) in combinations(sorted(t, key=lambda p: (_key(p[0]), _key(p[1]))), 2):
            A, B = A1 | A2, B1 & B2
            if len(A & B) < k:
                if (A, B) not in members:
                    failures.append((sorted(A1), sorted(B1), sorted(A2), sorted(B2)))
    return {
        "check": "join closure",
        "graph": g.digest(),
        "order": k,
        "tangles": len(tangles),
        "failures": failures,
        "ok": not failures,
    }


def connected_graphs_up_to(n: int):
    """All connected graphs on 1..n vertices, up to isomorphism (atlas order)."""
    import networkx as nx

    from .graphs import FiniteGraph

    # the atlas is ordered by node count, so read it only up to the first
    # larger graph (nx.graph_atlas(i) would reread the file for every i)
    from networkx.generators.atlas import _generate_graphs

    out = []
    for G in takewhile(lambda G: G.number_of_nodes() <= n, _generate_graphs()):
        if G.number_of_nodes() >= 1 and nx.is_connected(G):
            mapping = {v: f"a{v}" for v in G.nodes}
            fg = FiniteGraph(
                frozenset(mapping.values()),
                frozenset(
                    tuple(sorted((mapping[u], mapping[v]))) for u, v in G.edges
                ),
            )
            out.append(fg)
    return out
