import hashlib
import json
import os
import random
import subprocess
import sys

import networkx as nx
import pytest
from dsl_reference import clique_block
from nx_reference import to_networkx
from topology_reference import kernel_join, restrict

from tangles.components import components
from tangles.infinite_tangles import (
    end_catalogue,
    end_tangle,
    in_tangle,
    leg_end,
    orient,
    suite_tangles,
    uf_tangle,
)
from tangles.sampling import random_level, random_separation
from tangles.schema import parse_schema, vertex_text
from tangles.builtin import builtin_names, load
from tangles.semilinear import ResourceGuardError, SemilinearSet
from tangles.separations import from_bipartition
from tangles.symsets import SymVertexSet
from tangles.topology import (
    basic_open,
    closure_probe,
    default_schedule,
    extract_subcover,
    is_closed,
    kernel,
    kernel_orientation_agrees,
    level_member,
    nonclosed_witness_separation,
    parse_basic_open,
)


def star_opens(schemas):
    star = schemas["star"]
    X = frozenset({("core", "c")})
    cs = components(star, X)
    evens = cs.selection(class_parts={"L": SemilinearSet.progression(0, 2)})
    return star, X, cs, evens


def test_basic_open_membership(schemas):
    star, X, cs, evens = star_opens(schemas)
    odds_open = basic_open(star, X, evens.complement())
    assert odds_open.contains_vertex(("fam", "L", 7, "p"))
    assert not odds_open.contains_vertex(("fam", "L", 8, "p"))
    assert not odds_open.contains_vertex(("core", "c"))  # the level is not inside
    assert odds_open.contains_edge_point(("core", "c"), ("fam", "L", 7, "p"))
    assert not odds_open.contains_edge_point(("core", "c"), ("fam", "L", 8, "p"))
    t = uf_tangle(star)
    u = t.handle
    in_odds = u.membership(evens.complement())
    assert odds_open.contains_tangle(t) == in_odds


def test_basic_open_text_roundtrip(schemas):
    star, X, cs, evens = star_opens(schemas)
    o = basic_open(star, X, evens)
    assert parse_basic_open(star, o.text()).selection == o.selection


def test_subcover_confirmed_and_refuted(schemas):
    star, X, cs, evens = star_opens(schemas)
    o_even = basic_open(star, X, evens)
    o_odd = basic_open(star, X, evens.complement())
    rep = extract_subcover(star, [o_even, o_odd])
    assert rep["verdict"] == "CONFIRMED"
    assert rep["absorbed_vertices"] == []
    rep = extract_subcover(star, [o_even])
    assert rep["verdict"] == "REFUTED"
    assert rep["witness_kind"] == "uf"
    assert rep["missed_by_every_open"]


def test_subcover_ray(schemas):
    ray = schemas["ray"]
    X = frozenset({("ray", "R", 0)})
    cs = components(ray, X)
    rep = extract_subcover(ray, [basic_open(ray, X, cs.select_all())])
    assert rep["verdict"] == "CONFIRMED"


@pytest.mark.parametrize(
    "name, text, witness",
    [
        # an infinite leftover concrete component: the ray's tail
        ("ray", "open X={ray:R:0} C={}", "end:R"),
        # a leftover class member of a ray family: the first odd leg
        ("spider", "open X={core:c} C={L{0+2t}}", "end:L:1"),
    ],
)
def test_subcover_refuted_through_a_principal_seed(schemas, name, text, witness):
    schema = schemas[name]
    rep = extract_subcover(schema, [parse_basic_open(schema, text)])
    assert (rep["verdict"], rep["witness"], rep["witness_kind"]) == ("REFUTED", witness, "end")
    assert rep["missed_by_every_open"]


def test_subcover_confirmed_covers_truncation_points(schemas):
    star, X, cs, evens = star_opens(schemas)
    opens = [basic_open(star, X, evens), basic_open(star, X, evens.complement())]
    rep = extract_subcover(star, opens)
    assert rep["verdict"] == "CONFIRMED"
    n = 30
    g = star.truncate(n)
    absorbed = set(rep["absorbed_vertices"]) | set(rep["union_level"])
    from tangles.schema import parse_vertex

    for vt in sorted(g.vertices):
        v = parse_vertex(star, vt)
        assert vt in absorbed or any(o.contains_vertex(v) for o in opens)
    for ut, wt in sorted(g.edges):
        u, w = parse_vertex(star, ut), parse_vertex(star, wt)
        covered = any(o.contains_edge_point(u, w) for o in opens)
        assert covered or (ut in absorbed and wt in absorbed)
    for t in suite_tangles(star):
        assert any(o.contains_tangle(t) for o in opens)


def test_agree_on(schemas):
    ray = schemas["ray"]
    t = end_tangle(ray, end_catalogue(ray).singles[0])
    s = nonclosed_witness_separation(t)  # (V, empty)
    m = level_member(t, 4, kernel(t))
    Z = [("ray", "R", 0), ("ray", "R", 1)]
    assert restrict(s, Z) == restrict(m, Z)
    assert restrict(s, [("ray", "R", 5)]) != restrict(m, [("ray", "R", 5)])


def test_kernel_values(schemas):
    ray_t = end_tangle(schemas["ray"], end_catalogue(schemas["ray"]).singles[0])
    assert kernel(ray_t).is_empty
    cliq_t = end_tangle(schemas["cliq"], end_catalogue(schemas["cliq"]).singles[0])
    k = kernel(cliq_t)
    assert k.cliq_set("K") == SemilinearSet.naturals()
    fan_t = end_tangle(schemas["fan"], end_catalogue(schemas["fan"]).singles[0])
    assert kernel(fan_t).to_explicit() == [("core", "c")]
    uf = uf_tangle(schemas["spider"])
    assert kernel(uf).to_explicit() == [("core", "c")]
    leg = end_tangle(schemas["spider"], leg_end(schemas["spider"], "L", 2))
    assert kernel(leg).is_empty


def test_kernel_matches_membership_definition(schemas, rng):
    # no member of the tangle puts a kernel vertex strictly on the near side,
    # and every non-kernel vertex is stripped by an explicit member
    for name in ("ray", "cliq", "fan", "spider", "comb"):
        schema = schemas[name]
        for t in suite_tangles(schema)[:2]:
            k = kernel(t)
            for _ in range(40):
                sep = orient(t, random_separation(schema, rng))
                for v in k.explicit_below(6):
                    assert not (v in sep.side_A and v not in sep.side_B)
            if t.kind == "end":
                for v in schema.vertices_below(3):
                    if v in k:
                        continue
                    m = level_member(t, 6, k)
                    assert in_tangle(t, m)
                    assert v in m.side_A and v not in m.side_B


def test_kernel_vertices_not_finitely_separable_on_truncations(schemas):
    # min vertex cuts between a kernel vertex and the deep part of the kernel
    # grow past the probe bound
    for name, depth in (("cliq", 6), ("fan", 4)):
        schema = schemas[name]
        t = suite_tangles(schema)[0]
        k = kernel(t)
        n = 20
        G = to_networkx(schema.truncate(n))
        deep = [
            vertex_text(v)
            for v in k.explicit_below(n)
            if schema.depth(v) >= n // 2
        ]
        if name == "fan":  # the kernel is one hub; probe against the spine tail
            deep = [vertex_text(("ray", "R", p)) for p in range(10, n)]
        G.add_node("_sink")
        for d in deep:
            G.add_edge(d, "_sink")
        for v in k.explicit_below(3):
            cut = nx.minimum_node_cut(G, vertex_text(v), "_sink")
            assert len(cut) >= depth


def test_is_closed(schemas):
    assert not is_closed(uf_tangle(schemas["star"]))
    assert not is_closed(uf_tangle(schemas["spider"]))
    assert is_closed(end_tangle(schemas["cliq"], end_catalogue(schemas["cliq"]).singles[0]))
    for name in ("ray", "dray", "comb", "spider"):
        schema = schemas[name]
        for t in suite_tangles(schema):
            if t.kind == "end":
                assert not is_closed(t), name
    assert not is_closed(end_tangle(schemas["fan"], end_catalogue(schemas["fan"]).singles[0]))


def test_closed_tangle_orientation_rule(schemas, rng):
    cliq = schemas["cliq"]
    t = end_tangle(cliq, end_catalogue(cliq).singles[0])
    for _ in range(50):
        sep = random_separation(cliq, rng)
        assert kernel_orientation_agrees(t, sep)


def test_uf_limit_point_evidence(schemas):
    for name in ("star", "spider", "twohub"):
        schema = schemas[name]
        t = uf_tangle(schema)
        s = nonclosed_witness_separation(t)
        assert not in_tangle(t, s)
        rep = closure_probe(t, s, default_schedule(schema, 5))
        assert rep["limit_point_evidence"], (name, rep)


def test_end_limit_point_evidence(schemas):
    for name in ("ray", "dray", "comb", "spider", "fan"):
        schema = schemas[name]
        for t in suite_tangles(schema):
            if t.kind != "end":
                continue
            s = nonclosed_witness_separation(t)
            rep = closure_probe(t, s, default_schedule(schema, 5))
            assert rep["limit_point_evidence"], (name, t.id(), rep)


def test_closure_probe_surfaces_internal_failures(schemas, monkeypatch):
    import tangles.topology as top

    t = uf_tangle(schemas["star"])
    for error in (AssertionError, ValueError):

        def broken(*_):
            raise error("cut failed")

        monkeypatch.setattr(top, "_component_move", broken)
        with pytest.raises(error, match="cut failed"):
            closure_probe(t, nonclosed_witness_separation(t), default_schedule(schemas["star"], 2))


def test_kernel_move_that_keeps_a_probe_vertex_is_no_canonical_move(schemas, monkeypatch):
    import tangles.topology as top

    ray = schemas["ray"]
    t = end_tangle(ray, end_catalogue(ray).singles[0])
    s = nonclosed_witness_separation(t)  # (V, empty)
    original = top.level_member
    # cutting at depth 1 leaves ray:R:2 and ray:R:3 on the end's side
    monkeypatch.setattr(top, "level_member", lambda tangle, n, k: original(tangle, 1, k))
    rep = closure_probe(t, s, [frozenset({("ray", "R", p) for p in range(4)})])
    (entry,) = rep["evidence"]
    assert entry["result"] == "no_canonical_move"
    assert rep["limit_point_evidence"] is False


def _probe_digest(reports) -> str:
    h = hashlib.md5()
    for rep in reports:
        h.update(json.dumps(rep, sort_keys=True).encode())
    return h.hexdigest()


def test_witness_probe_reports_are_pinned():
    # every non-closed suite tangle of every builtin against its canonical
    # non-member, over the default schedules of 1, 3, 5 and 8 levels; the
    # non-member is taken afresh each time, since a lazy ultrafilter
    # tangle's commitments move its witness
    reports = []
    for name in builtin_names():
        schema = load(name)
        for t in suite_tangles(schema):
            if is_closed(t):
                continue
            for levels in (1, 3, 5, 8):
                s = nonclosed_witness_separation(t)
                reports.append(closure_probe(t, s, default_schedule(schema, levels)))
    assert len(reports) == 52
    assert _probe_digest(reports) == "01edd3af6ac7afcf514a2b94fe978226"


def test_random_probe_reports_are_pinned():
    # random non-members over random levels reach all three results
    rng = random.Random(21)
    reports = []
    for name in builtin_names():
        schema = load(name)
        for t in suite_tangles(schema):
            for _ in range(4):
                s = random_separation(schema, rng)
                if in_tangle(t, s):
                    s = s.inverse()
                schedule = [random_level(schema, rng, 8) for _ in range(3)]
                reports.append(closure_probe(t, s, schedule))
    results = [e["result"] for rep in reports for e in rep["evidence"]]
    assert len(reports) == 56
    assert results.count("agreeing_member") == 81
    assert results.count("no_canonical_move") == 77
    assert results.count("no_agreeing_member") == 10
    assert _probe_digest(reports) == "55f9b300fce7785c60ee702d678aee42"


def test_ray_evidence_is_the_shifted_prefix(schemas):
    ray = schemas["ray"]
    t = end_tangle(ray, end_catalogue(ray).singles[0])
    s = nonclosed_witness_separation(t)  # (V, empty)
    rep = closure_probe(t, s, [frozenset({("ray", "R", p) for p in range(3)})])
    (entry,) = rep["evidence"]
    assert entry["result"] == "agreeing_member"
    assert "ray:R" in entry["member"]
    # an empty schedule is no evidence
    assert closure_probe(t, s, [])["limit_point_evidence"] is False


WITH_TWO_CLIQUES = "core:\nv c\nv d\nedge:\ne c d\nclique K attach c\nclique M attach c d\nray R at d\n"


def test_closed_kernels_are_the_infinite_blocks(schemas):
    cases = list(schemas.values()) + [parse_schema(WITH_TWO_CLIQUES)]
    for schema in cases:
        kernels = sorted(kernel(t).text() for t in suite_tangles(schema) if is_closed(t))
        assert kernels == sorted(clique_block(schema, c.name).text() for c in schema.cliques)
    assert len(kernels) == 2


def test_closed_tangle_certificate(schemas):
    cliq = schemas["cliq"]
    t = end_tangle(cliq, end_catalogue(cliq).singles[0])
    X = frozenset({("cliq", "K", 1)})
    cs = components(cliq, X)
    s = from_bipartition(cliq, X, cs.select_none())  # kernel vertex 0 on the near side
    rep = closure_probe(t, s, [frozenset({("cliq", "K", 0)})])
    assert rep["evidence"][0]["result"] == "no_agreeing_member"
    assert rep["evidence"][0]["kernel_vertex"] == "cliq:K:0"


def test_closure_probe_rejects_members(schemas):
    ray = schemas["ray"]
    t = end_tangle(ray, end_catalogue(ray).singles[0])
    cs = components(ray, frozenset())
    member = from_bipartition(ray, frozenset(), cs.select_all())
    with pytest.raises(ValueError):
        closure_probe(t, member, [frozenset()])


def test_kernel_move_is_the_corner_join_fold(schemas):
    from tangles.topology import _kernel_move

    rng = random.Random(20)
    ends = 0
    for schema in list(schemas.values()) + [parse_schema(WITH_TWO_CLIQUES)]:
        for t in suite_tangles(schema):
            k = kernel(t)
            if t.kind != "end" or not k.is_finite:
                continue
            ends += 1
            s = nonclosed_witness_separation(t)  # (V, K): traces like (V, K) on every Z
            verts = schema.vertices_below(6)
            probes = list(default_schedule(schema, 6)) + [frozenset(k.to_explicit())]
            probes += [frozenset(rng.sample(verts, rng.randint(0, min(8, len(verts))))) for _ in range(30)]
            for Z in probes:
                zs = SymVertexSet.of(schema, Z)
                got = _kernel_move(t, zs, (s.side_A & zs, s.side_B & zs), k, k & zs)
                assert got == kernel_join(t, Z), (t.id(), sorted(Z))
    assert ends == 9


def _cliq_probe(Xs, Zs):
    cliq = load("cliq")
    t = end_tangle(cliq, end_catalogue(cliq).singles[0])
    X = frozenset(("cliq", "K", i) for i in Xs)
    s = from_bipartition(cliq, X, components(cliq, X).select_none())
    return closure_probe(t, s, [frozenset(("cliq", "K", i) for i in Z) for Z in Zs])


def test_closed_tangle_certificate_names_the_least_blocked_vertex():
    # every kernel vertex of Z outside X is blocked; the least by vertex_sort_key is named
    rep = _cliq_probe([1], [(0, 2, 3), (3, 2, 1), (2, 3, 10), (1, 4, 7, 5)])
    assert [e["kernel_vertex"] for e in rep["evidence"]] == [
        "cliq:K:0", "cliq:K:2", "cliq:K:10", "cliq:K:4",
    ]
    rep = _cliq_probe([0, 2], [(0, 9, 2, 6), (8, 0, 7)])
    assert [e["kernel_vertex"] for e in rep["evidence"]] == ["cliq:K:6", "cliq:K:7"]


def test_closed_tangle_certificate_ignores_the_hash_seed():
    code = (
        "import json, test_topology as tt; "
        "print(json.dumps(tt._cliq_probe([1], [(0, 2, 3)]), sort_keys=True))"
    )
    tests_dir = os.path.dirname(__file__)
    outs = []
    for seed in ("0", "1"):  # blocked[0] named cliq:K:0 and cliq:K:2 under these
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=os.environ | {
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join([tests_dir] + sys.path),
            },
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert '"kernel_vertex": "cliq:K:0"' in outs[0]


def test_default_schedule_is_lazy(schemas):
    schedule = default_schedule(schemas["spider"], 10**9)
    assert next(schedule) == frozenset(schemas["spider"].vertices_below(1))


def test_closure_probe_caps_the_level_size(schemas):
    spider = schemas["spider"]
    t = end_tangle(spider, leg_end(spider, "L", 0))
    s = nonclosed_witness_separation(t)
    with pytest.raises(ResourceGuardError, match="probe level"):
        closure_probe(t, s, [frozenset(spider.vertices_below(130))])
