"""Exhaustive enumeration and verification of order-k tangles of finite graphs.

This is the brute-force oracle the symbolic machinery is validated
against.  Separations are generated from (separator, component
bipartition) pairs, which is exhaustive because every component of the
graph minus the separator lies wholly on one side.  An orientation is a
tangle when no one-, two- or three-element multiset drawn from it covers
the whole graph with its left sides.

Each oriented separation (A, B) is one Python int with a bit per vertex of
A and per edge inside A: a multiset covers exactly when the OR of its masks
is full, and the separation order is two subset tests.  The searches are
iterative depth-first scans whose guard counts mask tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product, takewhile

from .semilinear import ResourceGuardError

DEFAULT_GUARD = 2**27  # mask tests per search
MAX_COMPONENTS = 20  # components behind one separator; 2**20 bipartitions

OrientedPair = tuple[frozenset, frozenset]


def _key(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(s)))


def separations_below_order(g, k: int) -> list[OrientedPair]:
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
            if len(comps) > MAX_COMPONENTS:
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
    """Shared precomputation for orientation scans over one (graph, k): ``a[o]``
    masks the A-side of oriented separation o and ``a[inv[o]]`` its B-side."""

    g: object
    k: int

    def __post_init__(self):
        g = self.g
        self.seps = separations_below_order(g, self.k)
        bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices))}
        # (mask of both ends, bit of the edge) for every edge
        ends = [(bit[u] | bit[v], 1 << (len(bit) + j)) for j, (u, v) in enumerate(sorted(g.edges))]
        self.full = (1 << (len(bit) + len(ends))) - 1

        def mask(side) -> int:
            m = sum(bit[v] for v in side)
            return m | sum(e for uv, e in ends if m & uv == uv)

        self.oriented: list[OrientedPair] = []
        self.base: list[tuple[int, ...]] = []
        for A, B in self.seps:
            o = len(self.oriented)
            self.oriented += [(A, B)] if A == B else [(A, B), (B, A)]
            self.base.append(tuple(range(o, len(self.oriented))))
        self.inv = [o for b in self.base for o in reversed(b)]
        self.a = [mask(A) for A, _ in self.oriented]

    def covers(self, *os) -> bool:
        m = 0
        for o in os:
            m |= self.a[o]
        return m == self.full

    def toward(self, x: int, y: int) -> bool:
        """x points towards y: A_x lies in B_y and A_y in B_x (symmetric)."""
        a, inv = self.a, self.inv
        return a[x] & ~a[inv[y]] == 0 and a[y] & ~a[inv[x]] == 0

    def star_refusal(self, chosen: list[int], o: int) -> tuple[bool, int]:
        """(refused, mask tests spent) for adding o in the star-only search: o is
        inconsistent with a chosen member, or covers the graph alone or with one
        or two chosen members that pairwise point towards each other and o."""
        a, inv, full = self.a, self.inv, self.full
        ao, bo = a[o], a[inv[o]]
        star = []
        for j, c in enumerate(chosen):
            if bo & ~a[c] == 0 and a[inv[c]] & ~ao == 0:
                return True, j + 1
            if self.toward(o, c):
                star.append(c)
        tests = len(chosen) + 1
        if self.covers(o):
            return True, tests
        for j, c in enumerate(star):
            tests += j + 1
            if self.covers(o, c):
                return True, tests
            u = ao | a[c]
            if any(u | a[d] == full and self.toward(c, d) for d in star[:j]):
                return True, tests
        return False, tests

    def search(self, star_only: bool, guard: int = DEFAULT_GUARD):
        """DFS over orientations, refusing choices that complete a forbidden cover.

        The tangle search refuses o when ``a[o] | u`` is full for some u in
        ``unions`` (0, the chosen masks and their pairwise unions); this implies
        consistency, since inv(x) <= y makes A_x | A_y contain A_x | B_x = V.
        """
        a, full, n = self.a, self.full, len(self.seps)
        levels = self.base + [()]  # the empty level closes a full orientation
        chosen: list[int] = []
        unions = [0]  # distinct, so seen holds exactly its members
        seen = {0}
        marks: list[int] = []  # len(unions) before each choice
        tests = 0
        stack = [iter(levels[0])]
        while stack:
            o = next(stack[-1], None)
            if o is None:
                stack.pop()
                if chosen:
                    chosen.pop()
                    m = marks.pop()
                    seen.difference_update(unions[m:])
                    del unions[m:]
                continue
            if star_only:
                refused, spent = self.star_refusal(chosen, o)
            else:
                ao = a[o]
                refused, spent = any(ao | u == full for u in unions), len(unions)
            tests += spent
            if tests > guard:
                raise ResourceGuardError("orientation search exceeded guard")
            if refused:
                continue
            marks.append(len(unions))
            if not star_only:
                fresh = {ao, *(ao | a[c] for c in chosen)} - seen
                seen |= fresh
                unions += fresh
            chosen.append(o)
            if len(chosen) == n:
                yield tuple(chosen)
            stack.append(iter(levels[len(chosen)]))

    def to_pairs(self, chosen) -> frozenset:
        return frozenset(self.oriented[o] for o in chosen)

    def full_cover_free(self, chosen) -> bool:
        """Exact covering-multiset check over all triples; a pair union cannot
        be completed by any mask when it misses more bits than the largest has."""
        full = self.full
        masks = {self.a[o] for o in chosen}
        pairs = {x | y for x, y in combinations(masks, 2)} | masks
        short = full.bit_length() - max(x.bit_count() for x in masks)
        return not any(p | x == full for p in pairs if p.bit_count() >= short for x in masks)


def enumerate_tangles(g, k: int, guard: int = DEFAULT_GUARD) -> list[frozenset]:
    """All order-k tangles, each a frozenset of oriented (A, B) pairs."""
    s = _Search(g, k)
    return [s.to_pairs(c) for c in s.search(star_only=False, guard=guard)]


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
    return [s.to_pairs(c) for c in product(*s.base) if s.full_cover_free(c)]


def check_star_reduction(g, k: int, guard: int = DEFAULT_GUARD) -> dict:
    """Verify: consistent orientations free of covering *stars* are fully cover-free.

    Returns a report dict; ``counterexamples`` lists offending orientations.
    """
    s = _Search(g, k)
    checked = 0
    counterexamples = []
    for chosen in s.search(star_only=True, guard=guard):
        checked += 1
        if not s.full_cover_free(chosen):
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
