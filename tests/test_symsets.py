import random

import pytest
from components_reference import copy_tail
from hypothesis import example, given, settings
from hypothesis import strategies as st
from symsets_reference import make_set

from tangles.builtin import EXTRAS, SUITE, load
from tangles.sampling import random_separation
from tangles.schema import parse_schema, vertex_text
from tangles.semilinear import SemilinearSet
from tangles.symsets import SymVertexSet, union_all

FAN = load("fan")  # core c, ray R, family T attached to c and along R
# every kind of part: a hub, a ray, a clique, a ray family and a family
# with a two-vertex pattern attached both to the hub and along the ray
MIXED = parse_schema(
    """core:
v c
ray R at c
rayfam L at c
family T pattern { v a ; v b ; e a b } attach c a attach along R b
clique K attach c
"""
)

sls = st.builds(
    SemilinearSet.make,
    st.frozensets(st.integers(0, 12), max_size=4),
    st.lists(st.tuples(st.integers(0, 8), st.integers(1, 3)), max_size=2).map(tuple),
)


@st.composite
def symsets(draw):
    core = draw(st.frozensets(st.sampled_from(["c"]), max_size=1))
    ray = draw(sls)
    whole = draw(sls)
    loose = draw(st.frozensets(st.tuples(st.integers(0, 9)), max_size=3))
    plus = frozenset(("fam", "T", i, "t") for (i,) in loose if i not in whole)
    return make_set(
        FAN, core=core, ray_pos={"R": ray}, fam_whole={"T": whole}, fam_plus=plus
    )


@st.composite
def mixed_sets(draw):
    """Sets over MIXED with partial and holed copies in both families."""
    finite_pattern = st.tuples(st.just("T"), st.integers(0, 9), st.sampled_from("ab"))
    ray_family = st.tuples(st.just("L"), st.integers(0, 9), st.integers(0, 9))
    loose = st.frozensets(st.one_of(finite_pattern, ray_family).map(lambda v: ("fam", *v)), max_size=5)
    plus, minus = draw(loose), draw(loose)
    return make_set(
        MIXED,
        core=draw(st.frozensets(st.just("c"))),
        ray_pos={"R": draw(sls)},
        cliq_idx={"K": draw(sls)},
        fam_whole={"T": draw(sls), "L": draw(sls)},
        fam_plus=plus,
        fam_minus=minus - plus,
    )


def members_below(s, n=20):
    return {vertex_text(v) for v in s.explicit_below(n)}


def test_examples_from_ray_positions():
    evens = make_set(FAN, ray_pos={"R": SemilinearSet.progression(0, 2)})
    odds = make_set(FAN, ray_pos={"R": SemilinearSet.progression(1, 2)})
    union = evens | odds
    assert union.ray_set("R") == SemilinearSet.naturals()
    assert not union.is_finite
    assert (evens & odds).is_empty
    prefix = make_set(FAN, ray_pos={"R": SemilinearSet.make(range(10))})
    assert prefix.complement().ray_set("R") == SemilinearSet.from_(10)


def test_finiteness_rules():
    star = load("star")
    finite_leaves = SymVertexSet.whole_copies(star, "L", SemilinearSet.of(1, 2))
    assert finite_leaves.is_finite
    assert len(finite_leaves.to_explicit()) == 2
    all_leaves = SymVertexSet.whole_copies(star, "L", SemilinearSet.naturals())
    assert not all_leaves.is_finite
    spider = load("spider")
    one_leg = SymVertexSet.whole_copies(spider, "L", SemilinearSet.of(3))
    assert not one_leg.is_finite  # a whole ray copy is infinite
    tail = copy_tail(spider, "L", 3, 5)
    assert not tail.is_finite
    assert ("fam", "L", 3, 4) not in tail and ("fam", "L", 3, 5) in tail


def test_full_copy_indices_ignores_holed_copies():
    spider = load("spider")
    s = make_set(
        spider,
        fam_whole={"L": SemilinearSet.make(range(4))},
        fam_minus={("fam", "L", 2, 0)},
    )
    assert s.full_copy_indices("L") == SemilinearSet.of(0, 1, 3)
    assert 2 in s.whole_set("L")


def test_finite_pattern_partial_copies_canonicalise_to_plus():
    star = load("star")
    a = make_set(
        star,
        fam_whole={"L": SemilinearSet.of(0, 1)},
        fam_minus={("fam", "L", 1, "p")},
    )
    b = make_set(star, fam_whole={"L": SemilinearSet.of(0)})
    assert a == b  # the leaf family pattern has one vertex, so the hole kills copy 1
    c = make_set(star, fam_plus={("fam", "L", 5, "p")})
    assert c.whole_set("L") == SemilinearSet.of(5)  # promoted to a whole copy


def test_mismatched_schema_rejected():
    with pytest.raises(ValueError):
        SymVertexSet.empty(FAN).union(SymVertexSet.empty(load("star")))


def test_of_and_some_vertex():
    vs = [("core", "c"), ("ray", "R", 4), ("fam", "T", 2, "t")]
    s = SymVertexSet.of(FAN, vs)
    assert all(v in s for v in vs)
    assert sorted(s.to_explicit()) == sorted(vs)
    assert s.depth() == 4 and SymVertexSet.empty(FAN).depth() == 0
    deep = [("fam", "L", 3, 7), ("fam", "L", 9, 2), ("fam", "T", 5, "a"), ("cliq", "K", 6)]
    assert SymVertexSet.of(MIXED, deep).depth() == max(map(MIXED.depth, deep)) == 9
    with pytest.raises(ValueError):
        SymVertexSet.whole_copies(MIXED, "L", SemilinearSet.of(0)).depth()


def test_of_trips_the_width_guard_before_building_a_mask():
    from tangles.semilinear import WIDTH_CAP, ResourceGuardError

    with pytest.raises(ResourceGuardError):
        SymVertexSet.of(FAN, [("ray", "R", 10**12)])
    # a ray-family position is a mask bit of its leg ...
    with pytest.raises(ResourceGuardError):
        SymVertexSet.of(MIXED, [("fam", "L", 0, WIDTH_CAP)])
    # ... and its copy index names the leg, not a mask bit
    far = ("fam", "L", WIDTH_CAP, 0)
    assert far in SymVertexSet.of(MIXED, [far])


def test_raw_parts_are_canonical_alone(rng):
    # ``assemble`` takes a slot's lone pattern as it stands
    for _ in range(200):
        a, b = rng.randrange(70), rng.randrange(6)
        gone = rng.sample(range(70), rng.randrange(5))
        parts = [
            SymVertexSet.ray_tail_part("R", a),
            SymVertexSet.copies_part(MIXED, "T", a),
            SymVertexSet.copies_part(MIXED, "L", a),
            SymVertexSet.copy_tail_part("L", a, b),
            SymVertexSet.clique_rest_part("K", gone),
        ]
        for pairs in parts:
            for _, p in pairs:
                assert SemilinearSet(*p) == SemilinearSet.union_patterns([p]), p


@given(symsets(), symsets())
@settings(max_examples=80, deadline=None)
def test_ops_match_pointwise_oracle(a, b):
    n = 16
    assert members_below(a | b, n) == members_below(a, n) | members_below(b, n)
    assert members_below(a & b, n) == members_below(a, n) & members_below(b, n)
    assert members_below(a - b, n) == members_below(a, n) - members_below(b, n)


@given(symsets(), symsets())
@settings(max_examples=80, deadline=None)
def test_algebra_identities(a, b):
    assert a.complement().complement() == a
    assert (a | b).complement() == a.complement() & b.complement()
    assert (a - b) == (a & b.complement())
    assert a.issubset(a | b)
    assert (a & b).issubset(a)


@given(symsets())
@settings(max_examples=60, deadline=None)
def test_complement_partitions_universe(a):
    full = SymVertexSet.empty(FAN).complement()
    assert (a | a.complement()) == full
    assert (a & a.complement()).is_empty


@given(
    st.sampled_from(SUITE + EXTRAS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
)
@example("star", 0, 0)
@example("spider", 1, 1)
@settings(max_examples=60, deadline=None)
def test_union_all_matches_pairwise_fold(name, seed, count):
    schema = load(name)
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        sep = random_separation(schema, rng)
        side = rng.choice((sep.side_A, sep.side_B))
        sets.append(side.complement() if rng.random() < 0.3 else side)
    fold = SymVertexSet.empty(schema)
    for s in sets:
        fold = fold.union(s)
    assert union_all(schema, sets) == fold
    assert union_all(schema, sets).text() == fold.text()


@given(mixed_sets(), mixed_sets(), mixed_sets())
@settings(max_examples=150, deadline=None)
def test_mixed_ops_match_pointwise_oracle(a, b, c):
    n = 8  # below the largest drawn copy and position
    universe = set(MIXED.vertices_below(n))
    ea, eb, ec = (s.explicit_below(n) for s in (a, b, c))
    assert ea <= universe
    assert (a | b).explicit_below(n) == ea | eb
    assert (a & b).explicit_below(n) == ea & eb
    assert (a - b).explicit_below(n) == ea - eb
    assert a.complement().explicit_below(n) == universe - ea
    assert union_all(MIXED, [a, b, c]).explicit_below(n) == ea | eb | ec
    assert all((v in a) == (v in ea) for v in universe)


@given(mixed_sets(), mixed_sets())
@settings(max_examples=150, deadline=None)
def test_listed_legs_differ_from_their_default(a, b):
    # a leg's default is every position when its copy lies in ("fam", F)
    for s in (a, a.complement(), a | b, a & b, a - b):
        whole = s.whole_set("L")
        for key, leg in s.slots:
            if key[0] != "leg":
                continue
            _, fam, i = key
            assert fam == "L"
            assert leg != (SemilinearSet.naturals() if i in whole else SemilinearSet.empty())
            assert leg.is_finite == (i not in whole)


def test_mixed_text_examples():
    partial = make_set(MIXED, fam_plus={("fam", "T", 3, "a")})
    assert partial.text() == "+{fam:T:3:a}"
    assert partial.whole_set("T").is_empty
    holed = make_set(
        MIXED, fam_whole={"L": SemilinearSet.of(2)}, fam_minus={("fam", "L", 2, 0)}
    )
    assert holed.text() == "fam:L{2} -{fam:L:2:0}"
    whole = make_set(
        MIXED, fam_whole={"T": SemilinearSet.of(1, 3)}, fam_minus={("fam", "T", 3, "b")}
    )
    assert whole.text() == "fam:T{1} +{fam:T:3:a}"
    assert (whole | partial) == whole
    assert (holed | SymVertexSet.of(MIXED, [("fam", "L", 2, 0)])).text() == "fam:L{2}"
    assert partial.complement().text() == (
        "core{c} ray:R{0+1t} fam:L{0+1t} fam:T{0,1,2,4+1t} cliq:K{0+1t} +{fam:T:3:b}"
    )
