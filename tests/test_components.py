import pytest

from tangles.components import ComponentSelection, components
from tangles.graphs import path_graph
from tangles.sampling import random_level
from tangles.schema import SchemaGraph, vertex_text
from tangles.semilinear import SemilinearSet
from tangles.suite import symbolic_components_below, truncation_components
from tangles.symsets import SymVertexSet


def test_path_middle_vertex():
    p3 = SchemaGraph.from_finite(path_graph(3))
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
        X = random_level(schema, rng, 3, 6)
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
    assert finite.count_is_finite and finite.count() == 2
    assert ComponentSelection.parse(cs, evens.text()) == evens
    assert evens.text() == "{L{0+2t}}"


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
        X = random_level(schema, rng, 4, 6)
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
