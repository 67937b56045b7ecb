import random

import pytest
from topology_reference import restrict

from tangles.abstract import finite_far_side
from tangles.builtin import EXTRAS, SUITE
from tangles.components import components
from tangles.finite_tangles import separations_below_order
from tangles.graphs import path_graph
from tangles.infinite_tangles import (
    infinite_star_probe,
    sample_star_in_tangle,
    suite_tangles,
    witness_candidates,
)
from tangles.sampling import random_level, random_selection, random_separation
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
    assert restrict(s, Z) == (frozenset({("core", "p0")}), frozenset({("core", "p2")}))
    assert restrict(s, []) == (frozenset(), frozenset())


def test_restrict_of_small_is_level_and_kernelish(schemas):
    ray = schemas["ray"]
    cs = components(ray, frozenset())
    s = from_bipartition(ray, frozenset(), cs.select_none())  # (V, empty)
    Z = [("ray", "R", 0), ("ray", "R", 2)]
    assert restrict(s, Z) == (frozenset(Z), frozenset())


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


# -- same level: selections against the sides they stand for ---------------------


def reference_sides(s):
    """(A, B) from the definition: X with the other and with the selected components."""
    X = SymVertexSet.of(s.schema, s.X)
    return X | s.toB.complement().union_vertices(), X | s.toB.union_vertices()


def reference_leq(s, t):
    (a, b), (c, d) = reference_sides(s), reference_sides(t)
    return a.issubset(c) and d.issubset(b)


def reference_join(s, t):
    (a, b), (c, d) = reference_sides(s), reference_sides(t)
    return from_vertex_sides(s.schema, a | c, b & d)


def reference_far_side_finite(star):
    far = reference_sides(star[0])[1]
    for s in star[1:]:
        far = far & reference_sides(s)[1]
    return far.is_finite


def check_against_sides(seps):
    for s in seps:
        assert (s.side_A, s.side_B) == reference_sides(s)
        # the member far side of ``axiom_check``
        assert s.toB.union_vertices().is_finite == reference_sides(s)[1].is_finite
    for s in seps:
        for t in seps:
            assert s.leq(t) == reference_leq(s, t), (s, t)
            assert s.corner_join(t) == reference_join(s, t), (s, t)
    assert finite_far_side(seps) == reference_far_side_finite(seps)


@pytest.mark.parametrize("name", SUITE + EXTRAS)
def test_same_level_algebra_matches_the_sides(schemas, name):
    schema = schemas[name]
    rng = random.Random(f"same-level {name}")
    tangles = suite_tangles(schema)
    for _ in range(6):
        X = random_level(schema, rng)
        cs = components(schema, X)
        seps = [from_bipartition(schema, X, random_selection(cs, rng)) for _ in range(4)]
        seps += [s.inverse() for s in seps[:2]]
        seps.append(from_bipartition(schema, X, cs.select_all()))
        check_against_sides(seps)
    for t in tangles:
        for _ in range(3):
            star = sample_star_in_tangle(t, rng)
            assert is_star(star)
            check_against_sides(star)
        for level in witness_candidates(schema):
            cs = components(schema, level)
            for cl in cs.classes:
                if not cl.indices.is_infinite:
                    continue
                probe = infinite_star_probe(t, level, cl.family)
                rest = cl.indices - SemilinearSet.of(cl.indices.min_value())
                rest_copies = cs.selection(class_parts={cl.family: rest})
                far = reference_sides(from_bipartition(schema, level, rest_copies))[1]
                assert probe["far_side_finite"] == (far - rest_copies.union_vertices()).is_finite


@pytest.mark.parametrize("name", SUITE + EXTRAS)
def test_cross_level_algebra_matches_the_sides(schemas, name):
    schema = schemas[name]
    rng = random.Random(f"cross-level {name}")
    for _ in range(8):
        s, t = random_separation(schema, rng), random_separation(schema, rng)
        if s.X == t.X:
            continue
        assert s.leq(t) == reference_leq(s, t)
        assert s.corner_join(t) == reference_join(s, t)
        assert finite_far_side([s, t]) == reference_far_side_finite([s, t])
