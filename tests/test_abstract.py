from components_reference import ray_tail

from tangles.abstract import (
    AbstractSystem,
    finite_far_side,
    from_separations,
    observation_check,
    padding_probe,
    small_inverse_supremum,
    star_supremum,
    validate,
)
from tangles.components import components
from tangles.finite_tangles import separations_below_order
from tangles.graphs import path_graph
from tangles.infinite_tangles import end_catalogue, end_tangle, sample_star_in_tangle, suite_tangles
from tangles.schema import SchemaGraph
from tangles.separations import from_bipartition, from_vertex_sides
from tangles.symsets import SymVertexSet


def p3_system():
    g = path_graph(3)
    schema = SchemaGraph.from_finite(g)
    seps = []
    for A, B in separations_below_order(g, 3):
        a = SymVertexSet.of(schema, [("core", v) for v in A])
        b = SymVertexSet.of(schema, [("core", v) for v in B])
        seps.append(from_vertex_sides(schema, a, b))
        seps.append(from_vertex_sides(schema, b, a))
    return from_separations(seps)


def test_graph_system_is_valid():
    assert validate(p3_system())["ok"]


def test_corruptions_are_rejected(rng):
    sys = p3_system()
    # drop self-inverseness on one element (elements come in inverse pairs,
    # so redirect one image to an unrelated element)
    e0, e2 = sys.elements[0], sys.elements[2]
    inv = dict(sys.involution)
    broken = dict(inv)
    broken[inv[e0]] = e2
    bad = AbstractSystem(sys.elements, sys.order, tuple(broken.items()))
    assert not validate(bad)["ok"]
    # break antisymmetry
    x, y = sys.elements[0], sys.elements[2]
    bad2 = AbstractSystem(sys.elements, sys.order | {(x, y), (y, x)}, sys.involution)
    assert not validate(bad2)["ok"]
    # randomized corruptions: remove order pairs to break reflexivity/transitivity
    rejected = 0
    for _ in range(30):
        order = set(sys.order)
        for pair in rng.sample(sorted(order), 3):
            order.discard(pair)
        if not validate(AbstractSystem(sys.elements, frozenset(order), sys.involution))["ok"]:
            rejected += 1
    assert rejected >= 25


def test_supremum_of_nested_tail_stars(schemas):
    ray = schemas["ray"]
    t = end_tangle(ray, end_catalogue(ray).singles[0])
    X = frozenset({("ray", "R", 4)})
    cs = components(ray, X)
    tail = cs.partition_by(ray_tail(ray, "R", 5))
    s = from_bipartition(ray, X, tail)
    small = from_bipartition(ray, X, cs.select_all())
    star = [s, small]
    sup = star_supremum(star)
    assert not small_inverse_supremum(star)
    assert not finite_far_side(star)


def test_padding_probe_flags_small_inverse(schemas):
    ray = schemas["ray"]
    X = frozenset({("ray", "R", 3)})
    cs = components(ray, X)
    tail = cs.partition_by(ray_tail(ray, "R", 4))
    s = from_bipartition(ray, X, tail)  # ({0..3},{3,4,...})
    probe = padding_probe(s)
    assert probe["small_inverse"] and probe["finite_far"]
    assert "B={}" in probe["supremum"] or "B=" in probe["supremum"]


def test_observation_equivalence_on_suite(schemas, rng):
    for name in ("ray", "spider", "star", "cliq"):
        schema = schemas[name]
        for t in suite_tangles(schema):
            stars = [sample_star_in_tangle(t, rng, depth_bound=6) for _ in range(40)]
            rep = observation_check(t, stars)
            assert rep["ok"], (name, t.id(), rep["mismatches"][:1])
            assert rep["stars_checked"] > 0
