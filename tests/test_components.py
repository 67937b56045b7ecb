import re
import sys
import time
from pathlib import Path

import pytest
from components_reference import reference_components
from hypothesis import given, settings
from hypothesis import strategies as st
from test_schema import _built_schema_texts
from test_symsets import MIXED

from tangles.builtin import builtin_names, load, schema_text
from tangles.components import ComponentSelection, components
from tangles.graphs import FiniteGraph, GraphParseError, path_graph
from tangles.infinite_tangles import induced_ultrafilter, limit_from, limit_of_tangle, suite_tangles
from tangles.sampling import random_level, random_selection
from tangles.schema import RaySpec, SchemaGraph, parse_schema, vertex_text
from tangles.semilinear import SemilinearSet
from tangles.separations import from_bipartition
from tangles.suite import symbolic_components_below, truncation_components
from tangles.symsets import SymVertexSet
from tangles.topology import basic_open
from tangles.ultrafilters import lift_ultrafilter, restrict_ultrafilter


def test_path_middle_vertex():
    p3 = SchemaGraph(path_graph(3))
    cs = components(p3, {("core", "p1")})
    assert len(cs.concretes) == 2 and not cs.classes
    texts = sorted(c.vertices.text() for c in cs.concretes)
    assert texts == ["core{p0}", "core{p2}"]


def test_star_hub_splits_into_class(schemas):
    cs = components(schemas["star"], {("core", "c")})
    assert not cs.concretes
    assert [(c.family, c.indices) for c in cs.classes] == [
        ("L", SemilinearSet.naturals())
    ]


def test_spider_hub_gives_whole_leg_per_index(schemas):
    spider = schemas["spider"]
    cs = components(spider, {("core", "c")})
    assert [(c.family, c.indices) for c in cs.classes] == [
        ("L", SemilinearSet.naturals())
    ]
    assert symbolic_components_below(spider, {("core", "c")}, 10) == truncation_components(
        spider, {("core", "c")}, 10
    )


def test_spider_leg_cut(schemas):
    spider = schemas["spider"]
    X = {("core", "c"), ("fam", "L", 3, 0)}
    cs = components(spider, X)
    assert cs.class_for("L").indices == SemilinearSet.from_(4)
    tails = [c.vertices.text() for c in cs.concretes]
    assert "fam:L{3} -{fam:L:3:0}" in tails  # leg 3 minus its first position


def test_class_appears_only_when_members_pairwise_disconnected(schemas):
    # deleting a leaf keeps everything else one component through the hub
    cs = components(schemas["star"], {("fam", "L", 0, "p")})
    assert not cs.classes and len(cs.concretes) == 1
    assert ("core", "c") in cs.concretes[0].vertices


def test_empty_deletion_is_one_component(schemas):
    for s in schemas.values():
        cs = components(s, frozenset())
        assert len(cs.concretes) + len(cs.classes) == 1


@pytest.mark.parametrize("name", ["ray", "dray", "star", "spider", "comb", "cliq", "fan", "ladder", "twostars", "twohub"])
def test_oracle_against_truncations(name, schemas, rng):
    schema = schemas[name]
    for _ in range(12):
        X = random_level(schema, rng, 3)
        for n in (10, 14):
            assert symbolic_components_below(schema, X, n) == truncation_components(
                schema, X, n
            ), (name, sorted(map(vertex_text, X)), n)


def test_locate_vertex_and_partition_by(schemas):
    spider = schemas["spider"]
    X = frozenset({("core", "c")})
    cs = components(spider, X)
    kind, k, i = cs.locate_vertex(("fam", "L", 5, 2))
    assert (kind, i) == ("class", 5)
    evens = SemilinearSet.progression(0, 2)
    sel = cs.partition_by(SymVertexSet.whole_copies(spider, "L", evens))
    assert sel == cs.selection(class_parts={"L": evens})
    with pytest.raises(ValueError):
        cs.locate_vertex(("core", "c"))
    # a cut leg's tail is a concrete component, not a class member
    cut = components(spider, X | {("fam", "L", 3, 0)})
    loc = cut.locate_vertex(("fam", "L", 3, 2))
    assert loc[0] == "concrete" and ("fam", "L", 3, 2) in cut.vertices(loc)


def test_selection_algebra_and_text(schemas):
    star = schemas["star"]
    cs = components(star, {("core", "c")})
    evens = cs.selection(class_parts={"L": SemilinearSet.progression(0, 2)})
    odds = evens.complement()
    assert odds.class_parts[0] == SemilinearSet.progression(1, 2)
    assert (evens | odds).is_all
    assert (evens & odds).is_empty
    assert not evens.count_is_finite
    finite = cs.selection(class_parts={"L": SemilinearSet.of(1, 5)})
    assert finite.count_is_finite
    assert ComponentSelection.parse(cs, evens.text()) == evens
    assert evens.text() == "{L{0+2t}}"


def test_text_le_compares_texts_as_streams(schemas, rng):
    for name in ("star", "spider", "twostars", "twohub", "cliq"):
        schema = schemas[name]
        for _ in range(40):
            cs = components(schema, random_level(schema, rng, 3))
            a, b = random_selection(cs, rng), random_selection(cs, rng)
            for x, y in [(a, b), (b, a), (a, a), (a, a.complement()), (a, a | b)]:
                assert x.text_le(y) == (x.text() <= y.text())
    # "{L{1,2}}" sorts before "{L{1}}": "," comes before "}"
    cs = components(schemas["star"], {("core", "c")})
    short = cs.selection(class_parts={"L": SemilinearSet.of(1)})
    long = cs.selection(class_parts={"L": SemilinearSet.of(1, 2)})
    assert long.text_le(short) and not short.text_le(long)


def test_parse_unions_repeated_class_items(schemas):
    cs = components(schemas["star"], {("core", "c")})
    parse = lambda text: ComponentSelection.parse(cs, text)  # noqa: E731
    assert parse("{L{0},L{1}}") == parse("{L{0,1}}")
    assert parse("{L{0+1t},L{}}") == parse("{L{0+1t}}")


ADVERSARIAL = {
    # rungs between two rays plus an extra leaf family on a shared hub
    "braced_ladder": """core:
v c
ray R at c
ray Q at c
family G pattern { v p } attach along R p attach along Q p
family L pattern { v x } attach c x
""",
    # two-vertex teeth glued to the spine at both pattern vertices
    "double_tooth_comb": """ray R
family T pattern { v a ; v b ; e a b } attach along R a attach along R b
""",
    # a family tied to a hub and to a spine at once, next to a clique
    "anchored_fan": """core:
v c
v d
edge:
e c d
ray R at c
family T pattern { v t } attach c t attach along R t
clique K attach d
""",
    # ray family and plain family sharing one hub
    "mixed_hub": """core:
v c
rayfam S at c
family L pattern { v p } attach c p
""",
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_oracle_on_adversarial_schemas(name, rng):
    from tangles.schema import parse_schema

    schema = parse_schema(ADVERSARIAL[name])
    for _ in range(15):
        X = random_level(schema, rng, 4)
        for n in (10, 14):
            assert symbolic_components_below(schema, X, n) == truncation_components(
                schema, X, n
            ), (name, sorted(map(vertex_text, X)), n)


def test_partition_by_rejects_straddling(schemas):
    from tangles.symsets import SymVertexSet

    star = schemas["star"]
    cs = components(star, frozenset())
    half = SymVertexSet.make(star, core=frozenset("c"))
    with pytest.raises(ValueError, match="straddles"):
        cs.partition_by(half)


def test_package_root_leaves_the_components_submodule_alone(schemas):
    import types

    import tangles
    import tangles.components as C

    assert isinstance(C, types.ModuleType) and tangles.components is C
    assert len(C.components(schemas["star"], frozenset()).concretes) == 1


def test_attachments_and_dominators(schemas):
    star, fan, cliq = schemas["star"], schemas["fan"], schemas["cliq"]
    (cl,) = components(star, {("core", "c")}).classes
    assert cl.attach == frozenset({("core", "c")})
    cs = components(star, frozenset())
    assert cs.dominators(("concrete", 0)) == SymVertexSet.of(star, [("core", "c")])
    # the hub reaches infinitely many teeth, which a deleted spine prefix leaves alone
    cs = components(fan, {("core", "c"), ("ray", "R", 2)})
    k = cs.locate(lambda vs: vs.ray_set("R").is_infinite)
    assert cs.dominators(k) == SymVertexSet.of(fan, [("core", "c")])
    # a deleted clique vertex still sees all of the rest
    cs = components(cliq, {("cliq", "K", 0)})
    assert cs.dominators(("concrete", 0)).cliq_set("K") == SemilinearSet.naturals()
    spider = schemas["spider"]
    cs = components(spider, {("core", "c")})
    assert cs.dominators(("class", 0, 4)).is_empty


def test_invalid_vertex_raises_on_an_uncached_level():
    from tangles.schema import parse_schema

    schema = parse_schema(ADVERSARIAL["braced_ladder"])
    components(schema, {("core", "c")})
    bad = frozenset({("core", "c"), ("ray", "Nope", 0)})
    with pytest.raises(ValueError, match="not in schema"):
        components(schema, bad)
    assert bad not in schema._component_cache
    # a position equal to a cached valid one, but not an int
    components(schema, {("ray", "R", 1)})
    with pytest.raises(ValueError, match="not in schema"):
        components(schema, {("ray", "R", 1.0)})


# Each entry that takes a level, called with a bad one.  ``good`` is a valid
# level, computed first, and ``t`` the schema's last representative tangle
# (the ray's end, the spider's ultrafilter tangle), so restricting and
# lifting reach the level's own check.
LEVEL_ENTRIES = {
    "components": lambda s, good, t, bad: components(s, bad),
    "induced_ultrafilter": lambda s, good, t, bad: induced_ultrafilter(t, bad),
    "from_bipartition": lambda s, good, t, bad: from_bipartition(
        s, bad, components(s, good).select_all()
    ),
    "basic_open": lambda s, good, t, bad: basic_open(s, bad, components(s, good).select_all()),
    "restrict_ultrafilter": lambda s, good, t, bad: restrict_ultrafilter(
        induced_ultrafilter(t, good), bad
    ),
    "lift_ultrafilter": lambda s, good, t, bad: lift_ultrafilter(
        induced_ultrafilter(t, good), good | bad
    ),
    "limit_from": lambda s, good, t, bad: limit_from(s, bad, induced_ultrafilter(t, good)),
    "limit_of_tangle.eval": lambda s, good, t, bad: limit_of_tangle(t).eval(bad),
}
GOOD_LEVELS = {"ray": frozenset({("ray", "R", 1)}), "spider": frozenset({("core", "c")})}


@pytest.mark.parametrize("entry", LEVEL_ENTRIES)
@pytest.mark.parametrize(
    "name, bad",
    [
        ("ray", frozenset({("ray", "Nope", 0)})),
        ("spider", frozenset({("fam", "L", 0, "x")})),
        ("ray", frozenset({("ray", "R", 1.0)})),  # equal to the cached {ray:R:1}
        ("ray", frozenset({("ray", "R", True)})),  # likewise, and an int instance
    ],
)
def test_every_entry_refuses_a_bad_level(entry, name, bad):
    schema = parse_schema(schema_text(name))  # empty caches
    good = GOOD_LEVELS[name]
    components(schema, good)
    with pytest.raises(ValueError):
        LEVEL_ENTRIES[entry](schema, good, suite_tangles(schema)[-1], bad)
    cache = schema._component_cache
    levels = [*cache, *(cs.removed for cs in cache.values())]
    assert all(
        schema.contains_vertex(v) and all(type(i) in (int, str) for i in v[2:])
        for X in levels
        for v in X
    )


def test_parse_splits_on_commas_outside_braces(schemas):
    cs = components(schemas["twostars"], {("core", "c"), ("core", "d")})
    sel = ComponentSelection.parse(cs, "{ L{0,2+3t} ,M{1,4} , }")
    assert sel == cs.selection(
        class_parts={"L": SemilinearSet.make([0], [(2, 3)]), "M": SemilinearSet.of(1, 4)}
    )
    cs = components(schemas["spider"], {("core", "c"), ("fam", "L", 0, 1)})
    assert ComponentSelection.parse(cs, "{c1,c0}") == cs.selection(concretes=[0, 1])
    # linear in the text: a scan to the next brace at every comma took
    # seconds on this one
    start = time.perf_counter()
    long_text = "{" + ",".join(["c0", "c1"] * 10_000) + "}"
    assert ComponentSelection.parse(cs, long_text) == cs.selection(concretes=[0, 1])
    assert time.perf_counter() - start < 1
    for text, message in [
        ("L{0}", "bad selection text"),
        ("{c2}", "no concrete component 'c2'"),
        ("{Z{0},c0}", "no component class 'Z'"),
        ("{c0,x}", "bad selection item 'x'"),
    ]:
        with pytest.raises(ValueError, match=message):
            ComponentSelection.parse(cs, text)


def test_parse_reads_component_numbers_as_ascii_decimals(schemas):
    cs = components(schemas["spider"], {("core", "c"), ("fam", "L", 0, 1)})
    assert ComponentSelection.parse(cs, "{c0}") == cs.selection(concretes=[0])
    for number in ("\u0660", "0_0", "+0", ""):
        with pytest.raises(ValueError, match=re.escape(f"bad concrete component number {number!r}")):
            ComponentSelection.parse(cs, "{c" + number + "}")
    with pytest.raises(ValueError, match="bad index item '1_0'"):
        ComponentSelection.parse(cs, "{L{1_0}}")


def test_concretes_sort_by_full_text_when_a_first_bit_is_a_prefix():
    # "core{a}" is a prefix of "core{a}}": first bits alone cannot order them
    schema = parse_schema("core:\nv h\nv a\nv a}\nedge:\ne h a\ne h a}\nray R at a\n")
    texts = [c.vertices.text() for c in components(schema, {("core", "h")}).concretes]
    assert texts == sorted(texts) == ["core{a} ray:R{0+1t}", "core{a}}"]
    # a name running on below the space sorts before the text its prefix starts
    odd = "a}\x1f"
    core = FiniteGraph(frozenset({"h", "a", odd}), frozenset({("h", "a"), ("h", odd)}))
    schema = SchemaGraph(core, rays=(RaySpec("R", "a"),))
    texts = [c.vertices.text() for c in components(schema, {("core", "h")}).concretes]
    assert texts == sorted(texts) == ["core{a}\x1f}", "core{a} ray:R{0+1t}"]


# every bundled schema, and one with every kind of part
REFERENCE_SCHEMAS = {**{name: load(name) for name in builtin_names()}, "mixed": MIXED}


def _parsed(text):
    try:
        return parse_schema(text)
    except GraphParseError:
        return None


# schemas built from random parts; texts that do not parse are skipped
BUILT_SCHEMAS = _built_schema_texts().map(_parsed).filter(lambda s: s is not None)


@st.composite
def levels(draw, schemas=st.sampled_from(sorted(REFERENCE_SCHEMAS)).map(REFERENCE_SCHEMAS.get)):
    """A random core subset plus 0-4 vertices of the depth-8 truncation."""
    schema = draw(schemas)
    names = sorted(schema.core.vertices)
    core = draw(st.frozensets(st.sampled_from(names)) if names else st.just(frozenset()))
    extra = draw(st.lists(st.sampled_from(schema.vertices_below(8)), max_size=4))
    return schema, frozenset({("core", c) for c in core}.union(extra))


def _shape(cs):
    return (
        cs.removed,
        [(c.vertices, c.vertices.text(), frozenset(c.near), c.cliques) for c in cs.concretes],
        [(c.family, c.indices, c.attach) for c in cs.classes],
    )


@given(levels())
@settings(max_examples=300, deadline=None)
def test_components_match_the_reference_builder(level):
    schema, X = level
    assert _shape(components(schema, X)) == _shape(reference_components(schema, X))


@given(levels(BUILT_SCHEMAS))
@settings(max_examples=300, deadline=None)
def test_components_match_the_reference_builder_on_built_schemas(level):
    schema, X = level
    assert _shape(components(schema, X)) == _shape(reference_components(schema, X))


def test_perfbench_pinned_query_digest():
    # the recorded answers name components c0, c1, ... by position, so any
    # change of the concrete order shows here
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    assert workloads.pinned_digest() == workloads.PINNED_DIGEST
