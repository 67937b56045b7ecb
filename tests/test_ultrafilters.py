import pytest

from tangles.builtin import EXTRAS, SUITE
from tangles.components import components
from tangles.sampling import random_level, random_selection
from tangles.semilinear import SemilinearSet
from tangles.suite import handles_equivalent
from tangles.ultrafilters import (
    PrincipalInputError,
    lazy_on,
    lift_ultrafilter,
    limit_from_nonprincipal,
    principal_at,
    principal_at_vertex,
    restrict_ultrafilter,
)


def star_level(schemas):
    star = schemas["star"]
    X = frozenset({("core", "c")})
    return star, X, components(star, X)


def test_principal_membership(schemas):
    star, X, cs = star_level(schemas)
    u = principal_at_vertex(cs, ("fam", "L", 5, "p"))
    evens = cs.selection(class_parts={"L": SemilinearSet.progression(0, 2)})
    assert not u.membership(evens)
    assert u.membership(evens.complement())


def test_lazy_rejects_finite_and_decides_deterministically(schemas):
    star, X, cs = star_level(schemas)
    u = lazy_on(cs, "L")
    first_ten = cs.selection(class_parts={"L": SemilinearSet.make(range(10))})
    assert not u.membership(first_ten)
    evens = cs.selection(class_parts={"L": SemilinearSet.progression(0, 2)})
    mult4 = cs.selection(class_parts={"L": SemilinearSet.progression(0, 4)})
    assert u.membership(evens)
    assert u.membership(mult4)
    assert not u.membership(evens - mult4)
    # stability: re-asking returns the same answers
    assert u.membership(evens) and u.membership(mult4)


def test_lazy_axioms_across_queries(schemas, rng):
    for name in ("star", "spider", "twostars", "twohub"):
        schema = schemas[name]
        hubs = frozenset(
            ("core", c)
            for f in schema.families
            if f.core_attach and not f.ray_attach
            for c, _ in f.core_attach
        )
        t_cs = components(schema, hubs)
        u = lazy_on(t_cs)
        for _ in range(500):
            sel = random_selection(t_cs, rng)
            a, b = u.membership(sel), u.membership(sel.complement())
            assert a != b  # exactly one of a set and its complement
            if a:
                other = random_selection(t_cs, rng)
                if u.membership(other):
                    assert u.membership(sel & other)  # intersections stay in
                assert u.membership(sel | other)  # supersets stay in
            if sel.count_is_finite:
                assert not a  # no finite collection is a member


def test_ultrafilter_never_contains_empty(schemas, rng):
    star, X, cs = star_level(schemas)
    u = lazy_on(cs)
    assert not u.membership(cs.select_none())
    assert u.membership(cs.select_all())


def test_restrict_principal_maps_principal(schemas):
    star, X, cs = star_level(schemas)
    u = principal_at_vertex(cs, ("fam", "L", 5, "p"))
    down = restrict_ultrafilter(u, frozenset())
    assert down.is_principal
    cs0 = components(star, frozenset())
    assert down.gen == ("concrete", 0) and len(cs0.concretes) == 1


def test_restrict_lazy_to_coarser_level(schemas):
    spider = schemas["spider"]
    X = frozenset({("core", "c")})
    u = lazy_on(components(spider, X))
    down = restrict_ultrafilter(u, frozenset())
    assert down.is_principal  # everything collapses into the one component


def test_restrict_principal_leg_tail(schemas):
    spider = schemas["spider"]
    Xp = frozenset({("core", "c"), ("fam", "L", 3, 0)})
    csp = components(spider, Xp)
    u = principal_at_vertex(csp, ("fam", "L", 3, 5))
    down = restrict_ultrafilter(u, frozenset({("core", "c")}))
    assert down.is_principal and down.gen[0] == "class" and down.gen[2] == 3


@pytest.mark.parametrize("v, message", [
    (("ray", "Nope", 3), "not in schema"),
    (("fam", "L", -1, 2), "not in schema"),
    (("fam", "Q", 1, 1), "not in schema"),
    (("cliq", "K", 2), "not in schema"),
    (("fam", "L", 2, "x"), "not in schema"),
    (("core", "c"), "was removed"),
])
def test_principal_at_vertex_refuses_what_no_component_holds(schemas, v, message):
    cs = components(schemas["spider"], frozenset({("core", "c")}))
    with pytest.raises(ValueError, match=message):
        principal_at_vertex(cs, v)


def test_lift_requires_nonprincipal(schemas):
    star, X, cs = star_level(schemas)
    u = principal_at_vertex(cs, ("fam", "L", 0, "p"))
    with pytest.raises(PrincipalInputError):
        lift_ultrafilter(u, X | {("fam", "L", 1, "p")})


def test_lift_then_restrict_is_identity(schemas, rng):
    for name in ("star", "spider"):
        schema = schemas[name]
        X = frozenset({("core", "c")})
        cs = components(schema, X)
        u = lazy_on(cs)
        for _ in range(25):
            Xp = X | random_level(schema, rng, 2)
            back = restrict_ultrafilter(lift_ultrafilter(u, Xp), X)
            assert handles_equivalent(back, u)
            sel = random_selection(cs, rng)
            assert back.membership(sel) == u.membership(sel)


def test_lifted_discards_finitely_many(schemas):
    star, X, cs = star_level(schemas)
    u = lazy_on(cs)
    Xp = X | {("fam", "L", 0, "p")}
    up = lift_ultrafilter(u, Xp)
    csp = components(star, Xp)
    all_leaves_but_0 = csp.selection(class_parts={"L": SemilinearSet.from_(1)})
    assert up.membership(all_leaves_but_0)


def test_restriction_functorial(schemas, rng):
    for name in ("star", "spider", "twostars", "comb"):
        schema = schemas[name]
        for _ in range(15):
            X = random_level(schema, rng, 2)
            Xp = X | random_level(schema, rng, 2)
            Xpp = Xp | random_level(schema, rng, 2)
            cs = components(schema, Xpp)
            for k in range(len(cs.concretes)):
                u = principal_at(cs, ("concrete", k))
                assert handles_equivalent(
                    restrict_ultrafilter(restrict_ultrafilter(u, Xp), X),
                    restrict_ultrafilter(u, X),
                )


def test_preimage_matches_restriction(schemas, rng):
    checks = 0
    for name in SUITE + EXTRAS:
        schema = schemas[name]
        for _ in range(20):
            X = random_level(schema, rng, 2)
            Xp = X | random_level(schema, rng, 2)
            cs, csp = components(schema, X), components(schema, Xp)
            sel = random_selection(cs, rng)
            pre = csp.partition_by(sel.union_vertices())
            locs = [("concrete", k) for k in range(len(csp.concretes))]
            for kk, cl in enumerate(csp.classes):
                locs += [("class", kk, i) for i in cl.indices.first(3)]
            for loc in locs:
                u = principal_at(csp, loc)
                assert u.membership(pre) == restrict_ultrafilter(u, X).membership(sel)
                checks += 1
    assert checks >= 350


def test_preimage_edge_cases(schemas):
    star = schemas["star"]
    X = frozenset({("core", "c")})
    Xp = X | {("fam", "L", 0, "p")}
    cs, csp = components(star, X), components(star, Xp)
    evens = cs.selection(class_parts={"L": SemilinearSet.progression(0, 2)})
    pre = csp.partition_by(evens.union_vertices())
    assert pre.class_parts[csp.class_index("L")] == SemilinearSet.progression(2, 2)
    assert csp.partition_by(cs.select_none().union_vertices()).is_empty
    assert csp.partition_by(cs.select_all().union_vertices()).is_all


def test_limit_family_compatibility(schemas, rng):
    for name in ("star", "spider", "twohub"):
        schema = schemas[name]
        hubs = frozenset(
            ("core", c) for f in schema.families for c, _ in f.core_attach
        )
        u = lazy_on(components(schema, hubs))
        fam = limit_from_nonprincipal(u)
        assert handles_equivalent(fam.eval(hubs), u)
        for _ in range(15):
            Y = random_level(schema, rng, 2)
            Yp = Y | random_level(schema, rng, 2)
            assert handles_equivalent(
                restrict_ultrafilter(fam.eval(Yp), Y), fam.eval(Y)
            )


def test_limit_eval_examples(schemas):
    star = schemas["star"]
    X = frozenset({("core", "c")})
    u = lazy_on(components(star, X))
    fam = limit_from_nonprincipal(u)
    at_empty = fam.eval(frozenset())
    assert at_empty.is_principal  # the single component of the whole graph
    at_leaf = fam.eval(frozenset({("fam", "L", 0, "p")}))
    assert at_leaf.is_principal  # everything except leaf 0, through the hub
    gen = at_leaf.generator_vertices()
    assert ("core", "c") in gen and ("fam", "L", 0, "p") not in gen
