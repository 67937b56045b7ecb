"""The finite oracle's separations as plain vertex sets: the reference for
``finite_tangles._separation_masks`` and for the masks ``_Search`` builds;
and the plain triple scan, the reference for ``_Search.full_cover_free``.

One separation per separator X and bipartition of the components of G - X,
deduplicated in a set and sorted on (size, sorted names) keys, as the oracle
generated them before it worked on vertex masks."""

from itertools import combinations, combinations_with_replacement


def _key(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(s)))


def separations_below_order(g, k: int) -> list[tuple[frozenset, frozenset]]:
    """All unordered separations {A, B} of order < k, the side with the
    smaller key first, sorted by order and then by the keys of both sides."""
    if k < 1:
        raise ValueError("order must be >= 1")
    out = set()
    verts = sorted(g.vertices)
    for size in range(min(k, len(verts) + 1)):
        for xs in combinations(verts, size):
            X = frozenset(xs)
            comps = g.components(removed=X)
            for mask in range(2 ** len(comps)):
                b_side = [c for j, c in enumerate(comps) if mask >> j & 1]
                a_side = [c for j, c in enumerate(comps) if not mask >> j & 1]
                A = X.union(*a_side) if a_side else X
                B = X.union(*b_side) if b_side else X
                out.add((A, B) if _key(A) <= _key(B) else (B, A))
    return sorted(out, key=lambda ab: (len(ab[0] & ab[1]), _key(ab[0]), _key(ab[1])))


def side_masks(g, seps) -> list[int]:
    """The A-side mask of every oriented separation, (A, B) then (B, A) for
    each pair with A != B, built edge by edge: vertex i of the sorted names
    at bit i, then a bit per sorted edge with both ends in A."""
    bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices))}
    ends = [(bit[u] | bit[v], 1 << (len(bit) + j)) for j, (u, v) in enumerate(sorted(g.edges))]

    def mask(side) -> int:
        m = sum(bit[v] for v in side)
        return m | sum(e for uv, e in ends if m & uv == uv)

    out = []
    for A, B in seps:
        out += [mask(A)] if A == B else [mask(A), mask(B)]
    return out


def cover_free(masks, full: int) -> bool:
    """No multiset of at most three of the masks has union ``full``: every
    triple of them, repetitions included, scanned without a bound."""
    return not any(x | y | z == full for x, y, z in combinations_with_replacement(set(masks), 3))
