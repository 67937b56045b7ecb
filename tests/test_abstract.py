from components_reference import ray_tail

from tangles.abstract import (
    finite_far_side,
    observation_check,
    padding_probe,
    small_inverse_supremum,
    star_supremum,
)
from tangles.components import components
from tangles.infinite_tangles import end_catalogue, end_tangle, sample_star_in_tangle, suite_tangles
from tangles.separations import from_bipartition


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
            stars = [sample_star_in_tangle(t, rng) for _ in range(40)]
            rep = observation_check(t, stars)
            assert rep["ok"], (name, t.id(), rep["mismatches"][:1])
            assert rep["stars_checked"] > 0
