import pytest

from tangles.components import components
from tangles.finite_tangles import separations_below_order
from tangles.graphs import path_graph
from tangles.sampling import random_separation
from tangles.schema import SchemaGraph, vertex_text
from tangles.semilinear import SemilinearSet
from tangles.separations import (
    NotRepresentable,
    from_bipartition,
    from_vertex_sides,
    is_star,
    parse_separation,
)
from tangles.symsets import SymVertexSet

P3 = SchemaGraph(path_graph(3))  # p0 - p1 - p2


def sep_p3(X, toB_names):
    X = frozenset(("core", x) for x in X)
    cs = components(P3, X)
    idxs = [
        k
        for k, c in enumerate(cs.concretes)
        if any(("core", n) in c.vertices for n in toB_names)
    ]
    return from_bipartition(P3, X, cs.selection(concretes=idxs))


def test_from_bipartition_path():
    s = sep_p3({"p1"}, {"p2"})
    assert s.order == 1
    assert ("core", "p0") in s.side_A and ("core", "p2") in s.side_B
    assert ("core", "p1") in s.side_A and ("core", "p1") in s.side_B


def test_empty_separator_full_side():
    cs = components(P3, frozenset())
    s = from_bipartition(P3, frozenset(), cs.select_all())
    assert s.order == 0 and s.is_small
    assert s.side_A.to_explicit() == []


def test_leq_and_inverse():
    s = sep_p3({"p1"}, {"p2"})
    bottom = from_bipartition(P3, frozenset(), components(P3, frozenset()).select_all())
    assert bottom.leq(s)
    assert not s.leq(bottom)
    assert s.inverse().inverse() == s
    # order reversal under involution
    assert s.leq(s) and (bottom.leq(s) == s.inverse().leq(bottom.inverse()))


def test_corner_join_path():
    s = sep_p3({"p1"}, {"p2"})
    t = s.inverse()
    j = s.corner_join(t)
    assert j.side_B.to_explicit() == [("core", "p1")]
    assert j.order == 1
    assert s.corner_join(s) == s


def test_star_examples():
    # ({a,b},{b,c}) and ({c,b},{b,a}) point towards each other
    towards = [sep_p3({"p1"}, {"p2"}), sep_p3({"p1"}, {"p0"})]
    assert is_star(towards)
    # (V, empty) points away from everything that is not small-inverse
    cs = components(P3, frozenset())
    big = from_bipartition(P3, frozenset(), cs.select_none())
    assert not is_star([big, sep_p3({"p1"}, {"p2"})])
    assert is_star([big])  # singletons are stars


def test_small_and_consistency_bottom():
    cs = components(P3, frozenset())
    small = from_bipartition(P3, frozenset(), cs.select_all())
    big = small.inverse()
    assert small.is_small and not big.is_small


def test_is_small_forms():
    # (X, V) is small for any finite X
    for X in ({"p0"}, {"p0", "p2"}):
        Xv = frozenset(("core", x) for x in X)
        cs = components(P3, Xv)
        s = from_bipartition(P3, Xv, cs.select_all())
        assert s.is_small
    assert not sep_p3({"p1"}, {"p2"}).is_small


def test_restrict():
    s = sep_p3({"p1"}, {"p2"})
    Z = [("core", "p0"), ("core", "p2")]
    assert s.restrict(Z) == (frozenset({("core", "p0")}), frozenset({("core", "p2")}))
    assert s.restrict([]) == (frozenset(), frozenset())


def test_restrict_of_small_is_level_and_kernelish(schemas):
    ray = schemas["ray"]
    cs = components(ray, frozenset())
    s = from_bipartition(ray, frozenset(), cs.select_none())  # (V, empty)
    Z = [("ray", "R", 0), ("ray", "R", 2)]
    assert s.restrict(Z) == (frozenset(Z), frozenset())


def test_star_schema_split(schemas):
    star = schemas["star"]
    X = frozenset({("core", "c")})
    cs = components(star, X)
    s = from_bipartition(
        star, X, cs.selection(class_parts={"L": SemilinearSet.progression(0, 2)})
    )
    assert s.order == 1
    assert ("fam", "L", 4, "p") in s.side_B
    assert ("fam", "L", 5, "p") in s.side_A
    assert parse_separation(star, s.text()) == s
    assert s.text() == "sep X={core:c} B={L{0+2t}}"


def test_from_vertex_sides_roundtrip_finite():
    # every separation of a small finite graph canonicalises back to itself
    for n in (4, 5, 6):
        g = path_graph(n)
        schema = SchemaGraph(g)
        for A, B in separations_below_order(g, n + 1):
            sa = SymVertexSet.of(schema, [("core", v) for v in A])
            sb = SymVertexSet.of(schema, [("core", v) for v in B])
            s = from_vertex_sides(schema, sa, sb)
            assert s.side_A == sa and s.side_B == sb
            assert frozenset(v for _, v in s.X) == A & B


def test_from_vertex_sides_rejects_bad_input():
    sa = SymVertexSet.of(P3, [("core", "p0")])
    sb = SymVertexSet.of(P3, [("core", "p2")])
    with pytest.raises(NotRepresentable):
        from_vertex_sides(P3, sa, sb)  # does not cover, and p1 escapes


def test_canonical_soundness_on_truncations(schemas, rng):
    for name in ("ray", "dray", "star", "spider", "comb", "cliq"):
        schema = schemas[name]
        for _ in range(200):
            s = random_separation(schema, rng)
            for n in (10, 20):
                g = schema.truncate(n)
                a = {vertex_text(v) for v in s.side_A.explicit_below(n)}
                b = {vertex_text(v) for v in s.side_B.explicit_below(n)}
                assert a | b == g.vertices
                for u, w in g.edges:
                    assert not (u in a - b and w in b - a)
                    assert not (w in a - b and u in b - a)


def test_order_reversal_sampled(schemas, rng):
    schema = schemas["spider"]
    seps = [random_separation(schema, rng) for _ in range(12)]
    for s in seps:
        for t in seps:
            assert s.leq(t) == t.inverse().leq(s.inverse())


def test_involution_sampled(schemas, rng):
    for name in ("ray", "star", "ladder"):
        schema = schemas[name]
        for _ in range(25):
            s = random_separation(schema, rng)
            assert s.inverse().inverse() == s


def test_corner_join_order_bound(schemas, rng):
    schema = schemas["spider"]
    for _ in range(20):
        s = random_separation(schema, rng)
        t = random_separation(schema, rng)
        j = s.corner_join(t)
        assert j.order <= s.order + t.order
        assert j.side_A == s.side_A | t.side_A
        assert j.side_B == s.side_B & t.side_B
