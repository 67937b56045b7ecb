"""Exhaustive enumeration and verification of order-k tangles of finite graphs.

This is the brute-force oracle the symbolic machinery is validated
against.  Separations are generated from (separator, component
bipartition) pairs, which is exhaustive because every component of the
graph minus the separator lies wholly on one side.  An orientation is a
tangle when no one-, two- or three-element multiset drawn from it covers
the whole graph with its left sides.

The oracle works on integers and builds vertex names only for output.  The
generator ``_separation_masks`` puts vertex i of the sorted names at bit
n - 1 - i and finds the components behind each separator by a flood over
neighbour masks.  In that reverse layout, sides of one size compare by their
sorted names as their integers compare in reverse, so the canonical order of
the pairs is a sort on integer keys.  ``separations_below_order`` is the name
view of that list.

The searches put vertex i at bit i and edge j of the sorted edges at bit
n + j: each oriented separation (A, B) is one Python int with a bit per
vertex of A and per edge inside A.  A multiset covers exactly when the OR of
its masks is full, and the separation order is two subset tests.  Transposed,
every bit b of the graph has a row ``holders[b]``, one int with a bit per
oriented separation whose A-side has b; a vertex row is a column of the
generator's masks, and an edge row the AND of its ends' rows.  So
``above(m, within)``, the ids in the bitset ``within`` whose A-side contains
mask m, is one AND per bit of m and stops at 0.

The searches are iterative depth-first scans that keep the chosen ids as one
bitset C, and share one refusal test (``_Search.refused``): o is refused when
``above`` finds in C one or two members completing o's cover.  The star search
filters first.  It reads per oriented separation a row of the ids pointing
towards it and a row of those inconsistent with it, both taken from one
relation down[x] = {y <= x}; it refuses o when C meets o's inconsistent row,
and otherwise looks for covers only among the members of C that point towards
o, a third member also pointing towards the second.

Both searches keep, per depth, the width of the chosen set: the most bits of
any chosen A-side.  One or two members cover at most twice that many, so o
is accepted without a cover search when it misses more.  On a grid most
separations are (X, V), and their small sides X miss nearly everything.
The verifier ``full_cover_free`` likewise answers at once when its three
widest masks hold fewer bits than the graph.  Both bounds only skip ANDs
that would find nothing.  The guard counts ANDs, the row build included,
and the verifier's pair unions and triple tests; one costs about 0.5-0.7 us
in CPython 3.11 on graphs with up to ~10^4 oriented separations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product, takewhile

from .graphs import FiniteGraph, bit_ids
from .semilinear import ResourceGuardError

DEFAULT_GUARD = 2**23  # ANDs, unions and triple tests per search, about 0.5-0.7 us each
MAX_COMPONENTS = 20  # components behind one separator; 2**20 bipartitions

OrientedPair = tuple[frozenset, frozenset]


def _key(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(s)))


def _separation_masks(g, k: int) -> list[tuple[int, int]]:
    """All unordered separations {A, B} of order < k as pairs of vertex masks,
    vertex i of ``g.numbered`` at bit n - 1 - i.

    Each pair is ordered, and the list sorted, as :func:`separations_below_order`
    orders the named sides: by size, then by sorted names.  Among sides of one
    size the sorted names compare as the integers do in reverse, since the
    first name where they differ is the highest bit of A ^ B.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    nbrs = g.numbered[2]
    n = len(nbrs)
    full = (1 << n) - 1
    near = [0] * n  # near[p]: the neighbours of the vertex at bit p
    for i, nb in enumerate(nbrs):
        near[n - 1 - i] = sum(1 << (n - 1 - j) for j in nb)
    keys = []
    for size in range(min(k, n + 1)):
        for xs in combinations([1 << p for p in range(n)], size):
            X = sum(xs)
            rest, comps = full ^ X, []
            while rest:  # flood one component per round from its lowest bit
                comp = todo = rest & -rest
                rest ^= comp
                while todo:
                    low = todo & -todo
                    new = near[low.bit_length() - 1] & rest
                    rest ^= new
                    comp |= new
                    todo ^= low | new
                comps.append(comp)
            if len(comps) > MAX_COMPONENTS:
                raise ResourceGuardError(
                    f"{len(comps)} components behind a separator; bipartition scan too large"
                )
            sides = [X]  # the first component, if any, stays on the B side
            for c in comps[1:]:
                sides += [s | c for s in sides]
            for A in sides:
                B = full ^ A | X
                a, b = A.bit_count(), B.bit_count()
                if a < b or a == b and A > B:
                    keys.append((size, a, -A, b, -B))
                else:
                    keys.append((size, b, -B, a, -A))
    keys.sort()
    return [(-A, -B) for _, _, A, _, B in keys]


def _named(g, seps: list[tuple[int, int]]) -> list[OrientedPair]:
    """The vertex sets of :func:`_separation_masks` pairs."""
    names = g.numbered[0][::-1]  # bit p holds vertex n - 1 - p
    return [tuple(frozenset(names[p] for p in bit_ids(m)) for m in pair) for pair in seps]


def separations_below_order(g, k: int) -> list[OrientedPair]:
    """All unordered separations {A, B} of order < k, as canonical pairs.

    The pair is ordered so that the lexicographically smaller side comes
    first; callers orient them explicitly.
    """
    return _named(g, _separation_masks(g, k))


def _holders(masks: list[int], width: int) -> list[int]:
    """rows[b] is the bitset of the indices i whose masks[i] has bit b."""
    # transpose the masks' binary digits: column j of the text is bit
    # width - 1 - j, and its first character belongs to the last mask
    if not masks:  # no text to take columns from
        return [0] * width
    text = [bin(m | 1 << width)[3:] for m in reversed(masks)]
    return [int("".join(col), 2) for col in reversed(list(zip(*text)))]


@dataclass
class _Search:
    """Shared precomputation for orientation scans over one (graph, k): ``a[o]``
    masks the A-side of oriented separation o and ``a[inv[o]]`` its B-side;
    ``holders[b]`` is the bitset of the ids o whose A-side has bit b.  ``spent``
    counts the ANDs of the running search, which stops beyond ``guard``.

    ``seps`` holds the vertex masks of :func:`_separation_masks`, vertex i at
    bit n - 1 - i; ``a`` and ``holders`` put vertex i at bit i and edge j of
    the sorted edges at bit n + j."""

    g: object
    k: int

    def __post_init__(self):
        nbrs = self.g.numbered[2]
        n = len(nbrs)
        self.seps = _separation_masks(self.g, self.k)
        sides: list[int] = []
        self.base: list[tuple[int, ...]] = []
        for A, B in self.seps:
            o = len(sides)
            sides += [A] if A == B else [A, B]
            self.base.append(tuple(range(o, len(sides))))
        self.inv = [o for b in self.base for o in reversed(b)]
        # a vertex row is a column of the sides' masks, read in reverse to
        # undo their layout; an edge's row is the AND of its ends' rows
        rows = _holders(sides, n)[::-1]
        rows += [rows[i] & rows[j] for i, nb in enumerate(nbrs) for j in nb if i < j]
        self.holders = rows
        self.a = _holders(rows, len(sides))
        self.full = (1 << len(rows)) - 1
        self.vertex_bits = (1 << n) - 1
        self.guard, self.spent = DEFAULT_GUARD, 0

    @cached_property
    def oriented(self) -> list[OrientedPair]:
        """The vertex sets of each oriented separation, by id; built for output."""
        out = []
        for A, B in _named(self.g, self.seps):
            out += [(A, B)] if A == B else [(A, B), (B, A)]
        return out

    def meet(self, rows: list[int], m: int, within: int) -> int:
        """``within`` ANDed with rows[b] for each bit b of m, stopping at 0;
        each AND is one unit of the guard."""
        spent = self.spent
        while m and within:
            low = m & -m
            within &= rows[low.bit_length() - 1]
            m ^= low
            spent += 1
        if spent > self.guard:
            raise ResourceGuardError("orientation search exceeded guard")
        self.spent = spent
        return within

    def above(self, m: int, within: int) -> int:
        """The ids in ``within`` whose A-side contains mask m."""
        return self.meet(self.holders, m, within)

    @cached_property
    def rows(self) -> tuple[list[int], list[int]]:
        """(tow, inc): tow[x] holds the ids y pointing towards x (A_x in B_y and
        A_y in B_x), inc[x] those inconsistent with x (B_x in A_y and B_y in A_x).

        Both are read off one relation, down[x] = {y <= x} (A_y in A_x and B_x
        in B_y): y points towards x when y <= inv x, and is inconsistent with
        x when inv y <= x.  The vertex bits decide these inclusions, since a
        side's mask holds every edge with both ends in it."""
        a, v, n = self.a, self.vertex_bits, self.vertex_bits.bit_length()
        every = (1 << len(a)) - 1
        # ids 2i and 2i + 1 orient separation i; only (V, V), which sorts
        # last, is its own inverse
        top = len(a) // 2 * 2
        even = ((1 << top) - 1) // 3

        def swap(x: int) -> int:  # the bitset x with every id o moved to inv[o]
            return (x & even) << 1 | x >> 1 & even | x >> top << top

        a_lacks = [every ^ h for h in self.holders[:n]]
        b_holders = [swap(h) for h in self.holders[:n]]
        down = [
            self.meet(b_holders, a[x_inv] & v, self.meet(a_lacks, v & ~a[x], every))
            for x, x_inv in enumerate(self.inv)
        ]
        return [down[y] for y in self.inv], [swap(d) for d in down]

    def covers(self, *os) -> bool:
        m = 0
        for o in os:
            m |= self.a[o]
        return m == self.full

    # The refusal test below writes out the AND chains of ``above``: the same
    # ANDs in the same order, the same stops, and the guard tested after
    # each chain.  With a call of ``above`` per chain the searches of the
    # benchmark's finite instances took about a third longer (CPython 3.11).

    def refused(self, C: int, o: int, star: bool, width: int | None = None) -> bool:
        """o covers the graph alone or with one or two members of the chosen
        bitset C.  In a star search (``star``) o is also refused when it is
        inconsistent with a member of C, and the covering members must point
        towards each other and o.  In a tangle search consistency is implied,
        since inv(x) <= y makes A_x | A_y contain A_x | B_x = V.

        ``width``, when given, is the most set bits of a member of C: one or
        two members hold at most twice that many, so o is not refused by a
        cover when it misses more."""
        a, holders, guard = self.a, self.holders, self.guard
        miss = self.full ^ a[o]
        if star:
            tow, inc = self.rows
            self.spent += 2  # the rows of o ANDed with C
            if inc[o] & C:
                return True
            C &= tow[o]
        if not miss:
            return True
        if width is not None and miss.bit_count() > 2 * width:
            return False
        spent = self.spent
        if star:  # one member completing o's cover
            m, W = miss, C
            while m and W:
                low = m & -m
                W &= holders[low.bit_length() - 1]
                m ^= low
                spent += 1
            if spent > guard:
                raise ResourceGuardError("orientation search exceeded guard")
            if W:
                self.spent = spent
                return True
        # a member c of a covering pair or triple holds the lowest bit o
        # misses; in a tangle search the pair is the triple (o, c, c)
        spent += C > 0
        if spent > guard:
            raise ResourceGuardError("orientation search exceeded guard")
        for c in bit_ids(C & holders[(miss & -miss).bit_length() - 1]):
            m, W = miss & ~a[c], C
            if star:
                W &= tow[c]
                spent += 1
            while m and W:
                low = m & -m
                W &= holders[low.bit_length() - 1]
                m ^= low
                spent += 1
            if spent > guard:
                raise ResourceGuardError("orientation search exceeded guard")
            if W:
                self.spent = spent
                return True
        self.spent = spent
        return False

    def search(self, star_only: bool, guard: int = DEFAULT_GUARD):
        """DFS over orientations, refusing choices that complete a forbidden
        cover; the chosen ids are also kept as one bitset C.  ``widths[d]`` is
        the most set bits of the first d chosen A-sides, the width bound of
        :meth:`refused` at depth d."""
        self.guard, self.spent = guard, 0
        if star_only:
            self.rows  # built, and counted, before the first choice
        a, n = self.a, len(self.seps)
        levels = self.base + [()]  # the empty level closes a full orientation
        chosen: list[int] = []
        C = 0
        stack = [iter(levels[0])]
        widths = [0]
        while stack:
            o = next(stack[-1], None)
            if o is None:
                stack.pop()
                widths.pop()
                if chosen:
                    C ^= 1 << chosen.pop()
                continue
            if self.refused(C, o, star_only, widths[-1]):
                continue
            chosen.append(o)
            C |= 1 << o
            if len(chosen) == n:
                yield tuple(chosen)
            stack.append(iter(levels[len(chosen)]))
            widths.append(max(widths[-1], a[o].bit_count()))

    def to_pairs(self, chosen) -> frozenset:
        return frozenset(self.oriented[o] for o in chosen)

    def full_cover_free(self, chosen) -> bool:
        """Exact covering-multiset check over all triples.  No triple covers
        when the three widest masks together hold fewer bits than the graph,
        and a pair union cannot be completed by any mask when it misses more
        bits than the widest has.  Each pair union and each triple test is one
        unit of the running search's guard."""
        full, total = self.full, self.full.bit_length()
        masks = sorted({self.a[o] for o in chosen}, key=int.bit_count, reverse=True)
        if sum(x.bit_count() for x in masks[:3]) < total:
            return True

        def charge(units: int) -> None:
            self.spent += units
            if self.spent > self.guard:
                raise ResourceGuardError("cover verification exceeded guard")

        pairs = set(masks)
        for i, x in enumerate(masks):
            charge(len(masks) - 1 - i)
            pairs.update(x | y for y in masks[i + 1:])
        short = total - masks[0].bit_count()
        for p in pairs:
            if p.bit_count() >= short:
                charge(len(masks))
                if any(p | x == full for x in masks):
                    return False
        return True


def enumerate_tangles(g, k: int, guard: int = DEFAULT_GUARD) -> list[frozenset]:
    """All order-k tangles, each a frozenset of oriented (A, B) pairs."""
    s = _Search(g, k)
    return [s.to_pairs(c) for c in s.search(star_only=False, guard=guard)]


def count_tangles(g, k: int, guard: int = DEFAULT_GUARD) -> int:
    return sum(1 for _ in _Search(g, k).search(star_only=False, guard=guard))


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


def check_join_closure(g, k: int) -> dict:
    """Every tangle contains (A u A', B n B') for its member pairs when in range."""
    tangles = enumerate_tangles(g, k)
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
