from collections import Counter

import pytest
from components_reference import ray_tail
from topology_reference import restrict

from tangles.builtin import EXTRAS, SUITE, schema_text
from tangles.components import ComponentSelection, components
from tangles.infinite_tangles import (
    axiom_check,
    census,
    classify,
    end_catalogue,
    end_tangle,
    infinite_star_probe,
    expected_estimate,
    end_count_estimate,
    in_tangle,
    induced_ultrafilter,
    infinite_star_probe,
    leg_end,
    limit_from,
    limit_of_tangle,
    minimal_witness,
    orient,
    sample_star_in_tangle,
    suite_tangles,
    tangle_from_limit,
    uf_tangle,
    witness_candidates,
)
from tangles.sampling import random_level, random_selection, random_separation
from tangles.schema import parse_schema
from tangles.semilinear import SemilinearSet
from tangles.separations import from_bipartition, is_star
from tangles.suite import handles_equivalent
from tangles.symsets import SymVertexSet
from tangles.ultrafilters import (
    PrincipalInputError,
    UltrafilterHandle,
    limit_from_nonprincipal,
    principal_at,
    restrict_ultrafilter,
)


def test_end_counts(schemas):
    assert end_catalogue(schemas["ray"]).finite_count == 1
    assert end_catalogue(schemas["dray"]).finite_count == 2
    cat = end_catalogue(schemas["star"])
    assert cat.finite_count == 0 and not cat.leg_families
    assert end_catalogue(schemas["spider"]).leg_families == ("L",)
    assert end_catalogue(schemas["cliq"]).singles[0].kind == "clique"
    assert end_catalogue(schemas["ladder"]).singles == (
        end_catalogue(schemas["ladder"]).singles[0],
    )  # the two rays merge along the rungs


def test_orient_ray_towards_tail(schemas):
    ray = schemas["ray"]
    t = end_tangle(ray, end_catalogue(ray).singles[0])
    X = frozenset({("ray", "R", 5)})
    cs = components(ray, X)
    tail = cs.partition_by(ray_tail(ray, "R", 6))
    s = from_bipartition(ray, X, tail)
    assert orient(t, s) == s
    assert orient(t, s.inverse()) == s


def test_orient_small_separation_kept(schemas):
    for name in ("ray", "star", "spider", "cliq"):
        schema = schemas[name]
        for t in suite_tangles(schema):
            cs = components(schema, frozenset())
            s = from_bipartition(schema, frozenset(), cs.select_all())
            assert orient(t, s) == s  # (empty, V) lies in every tangle


def test_orient_uf_split_follows_the_ultrafilter(schemas):
    spider = schemas["spider"]
    t = uf_tangle(spider)
    X = frozenset({("core", "c")})
    cs = components(spider, X)
    evens = cs.selection(class_parts={"L": SemilinearSet.progression(0, 2)})
    s = from_bipartition(spider, X, evens)
    u = induced_ultrafilter(t, X)
    expect = u.membership(evens)
    assert (orient(t, s) == s) == expect


def test_induced_ultrafilter_examples(schemas):
    ray = schemas["ray"]
    t = end_tangle(ray, end_catalogue(ray).singles[0])
    u = induced_ultrafilter(t, frozenset({("ray", "R", 5)}))
    assert u.is_principal
    assert ("ray", "R", 6) in u.generator_vertices()

    spider = schemas["spider"]
    tu = uf_tangle(spider)
    back = induced_ultrafilter(tu, tu.witness)
    assert not back.is_principal and back.core is tu.handle.core

    cliq = schemas["cliq"]
    tc = end_tangle(cliq, end_catalogue(cliq).singles[0])
    for X in (frozenset(), frozenset({("cliq", "K", 0), ("cliq", "K", 5)})):
        u = induced_ultrafilter(tc, X)
        assert u.is_principal
        assert u.generator_vertices().cliq_set("K").is_infinite


def test_induced_commutes_with_restriction(schemas, rng):
    for name in ("ray", "spider", "star", "comb"):
        schema = schemas[name]
        for t in suite_tangles(schema):
            for _ in range(10):
                X = random_level(schema, rng, 2)
                Xp = X | random_level(schema, rng, 2)
                assert handles_equivalent(
                    restrict_ultrafilter(induced_ultrafilter(t, Xp), X),
                    induced_ultrafilter(t, X),
                )


def _lift_then_restrict(U, X):
    """The reference transport, written out apart from the code under test:
    lift the lazy handle U to U.level | X, where its class must survive and
    the lift shares its core, then restrict the lift to X."""
    schema, core = U.schema, U.core
    if components(schema, U.level | X).class_for(core.family) is None:
        raise ValueError(f"no {core.family} class at the lifted level")
    cs = components(schema, X)
    if cs.class_for(core.family) is not None:
        return UltrafilterHandle(cs, core=core)
    loc = next(("concrete", k) for k, c in enumerate(cs.concretes)
               if c.vertices.full_copy_indices(core.family).is_infinite)
    return principal_at(cs, loc)


def _holds_the_far_copies(u, family, X):
    """Whether the component generating the principal handle u holds every
    vertex, up to a truncation depth, of the family's copies past all
    indices of X: all but finitely many copies."""
    m = 1 + max((x for v in X for x in v[2:] if isinstance(x, int)), default=0)
    far = SymVertexSet.whole_copies(u.schema, family, SemilinearSet.make(range(m, m + 3)))
    gen = u.cs.vertices(u.gen)
    return all(v in gen for v in far.explicit_below(m + 3))


def test_induced_ultrafilter_matches_lift_then_restrict(rng):
    # a cut leg's finite segment sorts before the hub's component
    pinned = {"spider": [frozenset({("fam", "L", 4, 1), ("fam", "L", 4, 4)})]}
    levels = Counter()
    for name in SUITE + EXTRAS:
        # the twin's tangles commit independently of ours
        schema, twin = (parse_schema(schema_text(name)) for _ in range(2))
        ours = [t for t in suite_tangles(schema) if t.kind == "uf"]
        theirs = [t for t in suite_tangles(twin) if t.kind == "uf"]
        for t, r in zip(ours, theirs):
            drawn = [random_level(schema, rng, 3) for _ in range(12)]
            drawn = [X | t.witness if rng.random() < 0.5 else X for X in drawn]
            for X in drawn + pinned.get(name, []):
                levels[t.witness <= X, None] += 1
                u = induced_ultrafilter(t, X)
                assert handles_equivalent(u, _lift_then_restrict(t.handle, X))
                ref = _lift_then_restrict(r.handle, X)
                assert u.cs == ref.cs and u.gen == ref.gen
                assert u.is_principal == ref.is_principal
                if u.is_principal:
                    levels["principal", u.gen == ("concrete", 0)] += 1
                    assert _holds_the_far_copies(u, t.handle.core.family, X)
                else:
                    assert u.core is t.handle.core
                for _ in range(4):
                    sel = random_selection(u.cs, rng)
                    twin_sel = ComponentSelection.parse(ref.cs, sel.text())
                    assert u.membership(sel) == ref.membership(twin_sel)
    assert levels[True, None] >= 20 and levels[False, None] >= 20
    assert levels["principal", True] >= 10 and levels["principal", False] >= 1


def test_induced_ultrafilter_is_principal_at_the_far_copies():
    # an infinite ray component sorts before the hub that keeps the leaves
    schema = parse_schema(
        "core:\nv b\nv m\nv z\nedge:\ne b m\ne m z\n"
        "ray R at b\nfamily L pattern { v p } attach z p\n"
    )
    t = uf_tangle(schema)
    X = frozenset({("core", "m")})
    u = induced_ultrafilter(t, X)
    assert u.cs.concretes[0].vertices.is_infinite and u.gen == ("concrete", 1)
    assert _holds_the_far_copies(u, "L", X)
    assert handles_equivalent(u, _lift_then_restrict(t.handle, X))


def test_orienting_off_the_witness_leaves_the_lifted_level_unbuilt():
    star = parse_schema(schema_text("star"))  # empty caches
    t = uf_tangle(star)
    X = frozenset({("fam", "L", 2, "p")})
    assert not t.witness <= X
    orient(t, from_bipartition(star, X, components(star, X).select_all()))
    assert limit_of_tangle(t).eval(X | {("fam", "L", 4, "p")}).is_principal
    assert limit_from_nonprincipal(t.handle).eval(X).is_principal
    built = star._component_cache
    assert X in built and t.witness | X not in built
    assert t.witness | X | {("fam", "L", 4, "p")} not in built


def test_classify(schemas):
    spider = schemas["spider"]
    assert classify(uf_tangle(spider)) == "ultrafilter"
    assert classify(end_tangle(spider, leg_end(spider, "L", 3))) == "end"
    ray = schemas["ray"]
    assert classify(end_tangle(ray, end_catalogue(ray).singles[0])) == "end"
    # one call at the core level agrees with walking every witness candidate
    for name in SUITE + EXTRAS:
        schema = schemas[name]
        for t in suite_tangles(schema):
            walk = any(
                not induced_ultrafilter(t, X).is_principal for X in witness_candidates(schema)
            )
            assert classify(t) == ("ultrafilter" if walk else "end")
            assert walk == (t.kind == "uf")


def test_minimal_witness(schemas):
    assert minimal_witness(uf_tangle(schemas["star"])) == frozenset({("core", "c")})
    assert minimal_witness(uf_tangle(schemas["spider"])) == frozenset({("core", "c")})
    two = schemas["twostars"]
    tL = uf_tangle(two, family="L")
    assert minimal_witness(tL) == frozenset({("core", "c")})
    tM = uf_tangle(two, family="M")
    assert minimal_witness(tM) == frozenset({("core", "d")})
    hub2 = schemas["twohub"]
    assert minimal_witness(uf_tangle(hub2)) == frozenset(
        {("core", "c"), ("core", "d")}
    )
    with pytest.raises(ValueError):
        minimal_witness(end_tangle(schemas["ray"], end_catalogue(schemas["ray"]).singles[0]))


def test_witness_sets_behave_monotonically(schemas, rng):
    for name in ("star", "spider", "twohub"):
        schema = schemas[name]
        t = uf_tangle(schema)
        w = minimal_witness(t)
        for _ in range(10):
            sup = w | random_level(schema, rng, 2)
            assert not induced_ultrafilter(t, sup).is_principal
        from itertools import combinations

        ws = sorted(w)
        for r in range(len(ws)):
            for sub in combinations(ws, r):
                assert induced_ultrafilter(t, frozenset(sub)).is_principal


def test_tangle_limit_roundtrip(schemas, rng):
    for name, schema in schemas.items():
        legs = [leg_end(schema, fam, i)
                for fam in end_catalogue(schema).leg_families for i in (1, 7, 20)]
        for t in suite_tangles(schema) + [end_tangle(schema, e) for e in legs]:
            t2 = tangle_from_limit(limit_of_tangle(t))
            assert t2.id() == t.id(), (name, t.id())
            for _ in range(15):
                sep = random_separation(schema, rng)
                assert orient(t, sep) == orient(t2, sep)


def test_limit_from_principal_routing(schemas):
    ray = schemas["ray"]
    cs0 = components(ray, frozenset())
    lim = limit_from(ray, frozenset(), principal_at(cs0, ("concrete", 0)))
    assert tangle_from_limit(lim).id() == "end:R"

    star = schemas["star"]
    cs0 = components(star, frozenset())
    lim = limit_from(star, frozenset(), principal_at(cs0, ("concrete", 0)))
    t = tangle_from_limit(lim)
    assert t.kind == "uf" and minimal_witness(t) == frozenset({("core", "c")})

    spider = schemas["spider"]
    X = frozenset({("core", "c")})
    csX = components(spider, X)
    lim = limit_from(spider, X, principal_at(csX, ("class", 0, 5)))
    assert tangle_from_limit(lim).id() == "end:L:5"


def test_limit_from_rejects_finite_component(schemas):
    star = schemas["star"]
    X = frozenset({("core", "c")})
    cs = components(star, X)
    leaf = principal_at(cs, ("class", 0, 2))  # a single finite leaf
    with pytest.raises(PrincipalInputError):
        limit_from(star, X, leaf)


def test_direction(schemas):
    ray = schemas["ray"]
    t = end_tangle(ray, end_catalogue(ray).singles[0])
    tail = induced_ultrafilter(t, frozenset({("ray", "R", 5)})).generator_vertices()
    assert ("ray", "R", 6) in tail and ("ray", "R", 4) not in tail
    dray = schemas["dray"]
    left = end_tangle(dray, [e for e in end_catalogue(dray).singles if e.names == ("L",)][0])
    at_o = induced_ultrafilter(left, frozenset({("core", "o")})).generator_vertices()
    assert ("ray", "L", 1) in at_o

    cliq = schemas["cliq"]
    tc = end_tangle(cliq, end_catalogue(cliq).singles[0])
    vs = induced_ultrafilter(tc, frozenset({("cliq", "K", 0)})).generator_vertices()
    assert vs.cliq_set("K").is_infinite


def test_direction_monotone(schemas, rng):
    for name in ("ray", "dray", "cliq", "comb"):
        schema = schemas[name]
        t = suite_tangles(schema)[0]

        def direction(X):
            return induced_ultrafilter(t, X).generator_vertices()

        for _ in range(10):
            X = random_level(schema, rng, 2)
            Xp = X | random_level(schema, rng, 2)
            assert direction(Xp).issubset(direction(X))


def test_census_values(schemas):
    expect = {
        "ray": (1, 0),
        "dray": (2, 0),
        "star": (0, 1),
        "spider": ("aleph0", 1),
        "comb": (1, 0),
        "cliq": (1, 0),
    }
    for name, (ends, ufs) in expect.items():
        rep = census(schemas[name])
        assert rep["end_count"] == ends, name
        assert len(rep["uf_classes"]) == ufs, name
        assert rep["tangles_exist"]
    rep = census(schemas["spider"])
    assert rep["uf_classes"][0]["witness"] == ["core:c"]


def test_census_computes_its_verdict(schemas, monkeypatch):
    # with no ends and no ultrafilter classes the report says so
    import tangles.infinite_tangles as it

    monkeypatch.setattr(it, "end_catalogue", lambda schema: it.EndCatalogue((), ()))
    monkeypatch.setattr(it, "uf_classes", lambda schema: [])
    rep = census(schemas["ray"])
    assert rep["tangles_exist"] is False and rep["end_count"] == 0


def test_every_infinite_schema_has_a_tangle(schemas):
    for name, schema in schemas.items():
        if schema.is_infinite:
            assert census(schema)["tangles_exist"], name


def test_locally_finite_schemas_have_no_uf_classes(schemas):
    # no families, no cliques: census reports zero ultrafilter classes
    for name in ("ray", "dray"):
        assert census(schemas[name])["uf_classes"] == []


def test_end_estimate_matches(schemas):
    for name in ("ray", "dray", "star", "spider", "comb", "cliq", "ladder", "fan"):
        schema = schemas[name]
        for n in (20, 40):
            assert end_count_estimate(schema, n) == expected_estimate(schema, n), name


def test_distinct_logs_disagree_on_a_separation(schemas):
    from tangles.infinite_tangles import uf_tangle_from_handle
    from tangles.ultrafilters import LazyCore, UltrafilterHandle

    star = schemas["star"]
    X = frozenset({("core", "c")})
    cs = components(star, X)
    evens = SemilinearSet.progression(0, 2)
    # two lazy representatives concentrated on disjoint infinite sub-classes
    t1 = uf_tangle_from_handle(UltrafilterHandle(cs, core=LazyCore("L", evens)))
    t2 = uf_tangle_from_handle(
        UltrafilterHandle(cs, core=LazyCore("L", evens.complement()))
    )
    s = from_bipartition(star, X, cs.selection(class_parts={"L": evens}))
    assert orient(t1, s) == s and orient(t2, s) == s.inverse()
    assert t1.handle.core.base != t2.handle.core.base


def test_shared_ultrafilter_forces_agreement(schemas, rng):
    spider = schemas["spider"]
    t1 = uf_tangle(spider)
    t2 = uf_tangle(spider, family="L")
    t2.handle.core = t1.handle.core  # same defining ultrafilter
    for _ in range(20):
        sep = random_separation(spider, rng)
        assert orient(t1, sep) == orient(t2, sep)


def test_axiom_check_clean_on_suite(schemas, rng):
    for name in ("ray", "dray", "star", "spider", "comb", "cliq"):
        for t in suite_tangles(schemas[name]):
            rep = axiom_check(t, rng, star_samples=30, perturbation_samples=10, member_samples=10)
            assert rep["ok"], (name, t.id(), rep["findings"][:2])


def _probe_far_side(schema, level, family):
    """The meet of the B-sides of the probe's members: the absorbing member's
    and, for every copy past the first, that of the member pointing away
    from the copy, which together leave out all of those copies."""
    cs = components(schema, level)
    cl = cs.class_for(family)
    rest = cs.selection(class_parts={family: cl.indices - SemilinearSet.of(cl.indices.min_value())})
    absorbing = from_bipartition(schema, level, rest)
    return absorbing.side_B & from_bipartition(schema, level, rest.complement()).side_B


def test_uf_tangles_contain_an_infinite_star_with_finite_far_side(schemas):
    for name in ("star", "spider"):
        schema = schemas[name]
        t = uf_tangle(schema)
        level, family = minimal_witness(t), t.handle.core.family
        probe = infinite_star_probe(t, level, family)
        assert probe["contained"] and probe["witnesses_infinite_star"]
        assert _probe_far_side(schema, level, family).is_finite


def test_infinite_star_probe_orients_per_copy_members(schemas, monkeypatch):
    import tangles.infinite_tangles as it

    star = schemas["star"]
    t = uf_tangle(star)
    level = minimal_witness(t)
    copy1 = components(star, level).member_vertices("L", 1)
    real = it.in_tangle
    # reject the member pointing away from copy 1; the absorbing member keeps it
    monkeypatch.setattr(it, "in_tangle", lambda t, sep: real(t, sep) and copy1.issubset(sep.side_B))
    probe = infinite_star_probe(t, level, "L")
    assert not probe["contained"] and not probe["witnesses_infinite_star"]
    assert _probe_far_side(star, level, "L").is_finite


def test_end_tangles_contain_no_infinite_star_probe(schemas):
    spider = schemas["spider"]
    for i in (0, 4):
        t = end_tangle(spider, leg_end(spider, "L", i))
        probe = infinite_star_probe(t, frozenset({("core", "c")}), "L")
        assert not probe["contained"]


def test_orientation_is_down_closed(schemas, rng):
    # for comparable pairs s <= t with t in the tangle, s is in the tangle
    for name in ("ray", "dray", "star", "spider", "comb", "cliq"):
        schema = schemas[name]
        for t in suite_tangles(schema):
            for _ in range(150):
                big = random_separation(schema, rng)
                extra = random_selection(big.toB.cs, rng) - big.toB
                small = from_bipartition(schema, big.X, big.toB | extra)
                assert small.leq(big)
                if in_tangle(t, big):
                    assert in_tangle(t, small)


def test_small_separations_lie_in_every_tangle(schemas, rng):
    for name in ("ray", "star", "spider", "cliq", "comb"):
        schema = schemas[name]
        for t in suite_tangles(schema)[:2]:
            for _ in range(50):
                A = random_level(schema, rng, 3)
                cs = components(schema, A)
                s = from_bipartition(schema, A, cs.select_all())  # (A, V)
                assert orient(t, s) == s


def test_two_families_on_one_hub(rng):
    from tangles.schema import parse_schema

    schema = parse_schema(
        "core:\nv c\nrayfam S at c\nfamily L pattern { v p } attach c p\n"
    )
    rep = census(schema)
    assert rep["end_count"] == "aleph0"
    assert [u["family"] for u in rep["uf_classes"]] == ["S", "L"]
    ts, tl = uf_tangle(schema, family="S"), uf_tangle(schema, family="L")
    hub = frozenset({("core", "c")})
    assert minimal_witness(ts) == minimal_witness(tl) == hub
    # distinct concentration families disagree on the family-vs-family split
    cs = components(schema, hub)
    legs_side = cs.selection(class_parts={"S": SemilinearSet.naturals()})
    sep = from_bipartition(schema, hub, legs_side)
    assert orient(ts, sep) == sep and orient(tl, sep) == sep.inverse()
    # and each witnesses exactly its own indexed infinite star
    assert infinite_star_probe(ts, hub, "S")["contained"]
    assert not infinite_star_probe(ts, hub, "L")["contained"]
    assert infinite_star_probe(tl, hub, "L")["contained"]
    assert not infinite_star_probe(tl, hub, "S")["contained"]


def test_restriction_to_a_union_determines_the_parts(schemas, rng):
    spider = schemas["spider"]
    for _ in range(15):
        s = random_separation(spider, rng)
        z1 = random_level(spider, rng, 3)
        z2 = random_level(spider, rng, 3)
        a, b = restrict(s, z1 | z2)
        assert restrict(s, z1) == (a & z1, b & z1)
        assert restrict(s, z2) == (a & z2, b & z2)


def test_sampled_stars_are_stars_inside_the_tangle(schemas, rng):
    for name in ("ray", "spider", "cliq"):
        schema = schemas[name]
        for t in suite_tangles(schema)[:2]:
            for _ in range(20):
                star = sample_star_in_tangle(t, rng)
                assert star and is_star(star)
                assert all(in_tangle(t, s) for s in star)
