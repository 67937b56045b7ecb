"""The verification suite: one check function per acceptance criterion.

Each check computes its verdicts over the built-in schemas and small
finite graphs and returns ``{"checks": [records], **counts}``: one record
(``name``, ``target``, ``ok``, details) per verdict, plus counts of what
was sampled.  ``tangles check`` (``run_suite``) and
``tests/test_acceptance.py`` run the same functions, at reduced and at
pinned counts respectively.
"""

from __future__ import annotations

import random
from itertools import combinations

# The suite draws G(n, p) graphs and reads networkx's graph atlas
# (``connected_graphs_up_to``); nothing else in the package needs networkx.
# Importing it here puts its load time on ``import tangles.suite`` rather
# than inside the first check that uses it, so per-check times stay comparable.
import networkx as nx

from . import builtin
from .abstract import observation_check
from .blocks import build_clique_subdivision, is_inseparable, verify_subdivision
from .components import components
from .finite_tangles import (
    check_join_closure, check_star_reduction, connected_graphs_up_to, count_tangles,
)
from .graphs import complete_graph, cycle_graph, from_edges, grid_graph, path_graph
from .infinite_tangles import (
    axiom_check, census, end_count_estimate, expected_estimate, induced_ultrafilter,
    limit_of_tangle, minimal_witness, orient, sample_star_in_tangle, suite_tangles,
    tangle_from_limit,
)
from .sampling import random_level, random_selection, random_separation
from .schema import parse_vertex, vertex_text
from .semilinear import SemilinearSet
from .topology import (
    basic_open, closure_probe, default_schedule, extract_subcover, is_closed, kernel,
    kernel_orientation_agrees, nonclosed_witness_separation,
)
from .ultrafilters import (
    lazy_on, lift_ultrafilter, limit_from_nonprincipal, principal_at, restrict_ultrafilter,
)

# end count and the minimal witnesses of the ultrafilter classes
EXPECTED_CENSUS = {
    "ray": (1, []), "dray": (2, []), "star": (0, [["core:c"]]),
    "spider": ("aleph0", [["core:c"]]), "comb": (1, []), "cliq": (1, []),
}
SPIDER_END_CLASSES = [{"family": "L", "one_end_per_index": True}]
LAZY_SCHEMAS = ("star", "spider", "twohub")


def handles_equivalent(u1, u2) -> bool:
    if u1.is_principal != u2.is_principal:
        return False
    return u1.gen == u2.gen if u1.is_principal else u1.core is u2.core


def symbolic_components_below(schema, X, n: int) -> list:
    """The components of G - X cut down to depth < n, as sorted vertex texts."""
    cs = components(schema, X)
    out = [frozenset(map(vertex_text, c.vertices.explicit_below(n))) for c in cs.concretes]
    for cl in cs.classes:
        fam = schema.family_spec(cl.family)
        copy = range(n) if fam.is_ray_family else fam.pattern_vertices()
        out += [frozenset(vertex_text(("fam", cl.family, i, p)) for p in copy)
                for i in cl.indices.elements_below(n)]
    return sorted(map(sorted, filter(None, out)))


def truncation_components(schema, X, n: int) -> list:
    """The components of trunc(n) - X, as sorted vertex texts."""
    removed = frozenset(map(vertex_text, X))
    return sorted(map(sorted, schema.truncate(n).components(removed=removed)))


def _record(name, target, ok, **details) -> dict:
    return {"name": name, "target": target, "ok": bool(ok), **details}


def _tangles(names=builtin.SUITE):
    for name in names:
        schema = builtin.load(name)
        for t in suite_tangles(schema):
            yield name, schema, t


def tangle_counts() -> dict:
    """01: the finite oracle's tangle counts on K3@3, K4@2 and C4@2."""
    checks = []
    for g, k, want in ((complete_graph(3), 3, 0), (complete_graph(4), 2, 1), (cycle_graph(4), 2, 1)):
        got = count_tangles(g, k)
        checks.append(_record("finite-oracle/tangle-count", f"{g!r}@{k}", got == want, got=got, want=want))
    return {"checks": checks}


def star_cover_reduction(max_vertices: int, orders) -> dict:
    """02: the star-cover reduction on every connected graph up to a size."""
    return {"checks": [
        _record("finite-oracle/star-cover-reduction", g.digest(),
                all(check_star_reduction(g, k)["ok"] for k in orders))
        for g in connected_graphs_up_to(max_vertices)
    ]}


def join_closure(cases: int) -> dict:
    """03: every enumerated tangle is closed under joins, on the first cases."""
    graphs = ((complete_graph(4), 2), (cycle_graph(4), 2), (complete_graph(5), 3),
              (grid_graph(3, 3), 3), (path_graph(5), 2), (cycle_graph(6), 2))
    return {"checks": [
        _record("finite-oracle/join-closure", f"{g!r}@{k}", check_join_closure(g, k)["ok"])
        for g, k in graphs[:cases]
    ]}


def component_oracle(rng: random.Random, levels: int, sizes) -> dict:
    """04: symbolic components match the components of truncations."""
    checks = []
    for name in builtin.SUITE:
        schema = builtin.load(name)
        bad = 0
        for _ in range(levels):
            X = random_level(schema, rng, 3)
            bad += sum(symbolic_components_below(schema, X, n) != truncation_components(schema, X, n)
                       for n in sizes)
        checks.append(_record("graph-model/component-oracle", name, bad == 0))
    return {"checks": checks}


def inverse_system(rng: random.Random, chains: int, probes: int, pairs: int) -> dict:
    """05: restriction is functorial, lift-then-restrict is the identity,
    and a limit family is compatible with restriction."""
    checks, counts = [], {"chains": 0, "probes": 0, "pairs": 0}
    for name in ("star", "spider", "twostars", "twohub", "comb"):
        schema = builtin.load(name)
        done = bad = 0
        while done < chains:
            X = random_level(schema, rng, 2)
            Xp = X | random_level(schema, rng, 2)
            cs = components(schema, Xp | random_level(schema, rng, 2))
            if not cs.concretes:
                continue
            done += 1
            u = principal_at(cs, ("concrete", rng.randrange(len(cs.concretes))))
            two = restrict_ultrafilter(restrict_ultrafilter(u, Xp), X)
            bad += not handles_equivalent(two, restrict_ultrafilter(u, X))
        counts["chains"] += done
        checks.append(_record("ultrafilters/restriction-functorial", name, bad == 0))
    for name in LAZY_SCHEMAS:
        schema = builtin.load(name)
        t = suite_tangles(schema)[-1]  # the lazy representative
        u, bad = t.handle, 0
        for _ in range(probes):
            Xp = t.witness | random_level(schema, rng, 2)
            back = restrict_ultrafilter(lift_ultrafilter(u, Xp), t.witness)
            sel = random_selection(u.cs, rng)
            bad += back.membership(sel) != u.membership(sel) or not handles_equivalent(back, u)
        counts["probes"] += probes
        checks.append(_record("ultrafilters/lift-then-restrict-identity", name, bad == 0))
    for name in LAZY_SCHEMAS:
        schema = builtin.load(name)
        fam = limit_from_nonprincipal(lazy_on(components(schema, suite_tangles(schema)[-1].witness)))
        bad = 0
        for _ in range(pairs):
            Y = random_level(schema, rng, 2)
            Yp = Y | random_level(schema, rng, 2)
            bad += not handles_equivalent(restrict_ultrafilter(fam.eval(Yp), Y), fam.eval(Y))
        counts["pairs"] += pairs
        checks.append(_record("ultrafilters/limit-compatible", name, bad == 0))
    return {"checks": checks, **counts}


def limit_roundtrip(rng: random.Random, samples: int) -> dict:
    """06: tangle -> limit -> tangle orients alike, and the two limits agree."""
    bad = dict.fromkeys(builtin.SUITE, 0)
    for name, schema, t in _tangles():
        lim = limit_of_tangle(t)
        t2 = tangle_from_limit(lim)
        lim2 = limit_of_tangle(t2)
        for _ in range(samples):
            sep = random_separation(schema, rng)
            bad[name] += orient(t, sep) != orient(t2, sep)
            Y = random_level(schema, rng, 2)
            sel = random_selection(components(schema, Y), rng)
            bad[name] += lim.eval(Y).membership(sel) != lim2.eval(Y).membership(sel)
    return {"checks": [_record("tangles/limit-roundtrip", name, n == 0) for name, n in bad.items()]}


def census_values(sizes) -> dict:
    """07: census values, uf witnesses and truncation end counts."""
    checks = []
    for name in builtin.SUITE:
        schema = builtin.load(name)
        rep = census(schema)
        ends, witnesses = EXPECTED_CENSUS[name]
        ok = rep["end_count"] == ends and rep["tangles_exist"]
        ok = ok and [u["witness"] for u in rep["uf_classes"]] == witnesses
        ok = ok and (name != "spider" or rep["ends"]["classes"] == SPIDER_END_CLASSES)
        ok = ok and all(end_count_estimate(schema, n) == expected_estimate(schema, n) for n in sizes)
        checks.append(_record("census/expected", name, ok, report=rep))
    return {"checks": checks}


def minimal_witnesses(rng: random.Random, supersets: int, others: int) -> dict:
    """08: a uf tangle's minimal witness and its supersets induce
    non-principal ultrafilters; proper subsets and other levels do not."""
    checks = []
    for name, schema, t in _tangles(builtin.SUITE + ("twostars", "twohub")):
        if t.kind != "uf":
            continue
        w = minimal_witness(t)
        ok = not induced_ultrafilter(t, w).is_principal
        for _ in range(supersets):
            sup = w | random_level(schema, rng, 2)
            ok = ok and not induced_ultrafilter(t, sup).is_principal
        for r in range(len(w)):
            for sub in combinations(sorted(w), r):
                ok = ok and induced_ultrafilter(t, frozenset(sub)).is_principal
        seen = 0
        while seen < others:
            other = random_level(schema, rng, 3)
            if w <= other:
                continue
            seen += 1
            ok = ok and induced_ultrafilter(t, other).is_principal
        checks.append(_record("tangles/minimal-witness", f"{name}:{t.id()}", ok,
                              witness=sorted(map(vertex_text, w))))
    return {"checks": checks}


def axioms(rng: random.Random, star_samples: int, perturbation_samples: int,
           member_samples: int) -> dict:
    """09: sampled tangle axioms; only uf tangles witness an indexed infinite star."""
    checks, stars = [], []
    for name, schema, t in _tangles():
        rep = axiom_check(t, rng, star_samples=star_samples, perturbation_samples=perturbation_samples,
                          member_samples=member_samples)
        stars.append(rep["stars_checked"])
        checks.append(_record("tangles/axioms", f"{name}:{t.id()}", rep["ok"]))
    return {"checks": checks, "stars_checked": min(stars)}


def closedness(rng: random.Random, levels: int, samples: int) -> dict:
    """10: the cliq end tangle is closed and orients by its kernel; every
    other tangle shows limit-point evidence against a non-member."""
    checks = []
    for name, schema, t in _tangles():
        closed = is_closed(t)
        if t.kind != "uf" and name == "cliq":
            ok = closed and kernel(t).cliq_set("K") == SemilinearSet.naturals()
            for _ in range(samples):
                sep = random_separation(schema, rng)
                ok = ok and kernel_orientation_agrees(t, sep)
            checks.append(_record("topology/closed-orientation-rule", f"{name}:{t.id()}", ok))
        else:
            rep = closure_probe(t, nonclosed_witness_separation(t), default_schedule(schema, levels))
            ok = not closed and rep["limit_point_evidence"] and rep["levels"] == levels
            checks.append(_record("topology/limit-point-evidence", f"{name}:{t.id()}", ok))
    return {"checks": checks}


def subcover(n: int) -> dict:
    """11: complementary opens on the star cover it, soundly on trunc(n);
    a single open on the ray covers it; one star open alone is REFUTED."""
    star, X = builtin.load("star"), frozenset({("core", "c")})
    evens = components(star, X).selection(class_parts={"L": SemilinearSet.progression(0, 2)})
    opens = [basic_open(star, X, evens), basic_open(star, X, evens.complement())]
    rep = extract_subcover(star, opens)
    ok = rep["verdict"] == "CONFIRMED"
    absorbed = set(rep["absorbed_vertices"]) | set(rep["union_level"])
    g = star.truncate(n)
    for vt in sorted(g.vertices):
        ok = ok and (vt in absorbed or any(o.contains_vertex(parse_vertex(star, vt)) for o in opens))
    for ut, wt in sorted(g.edges):
        u, w = parse_vertex(star, ut), parse_vertex(star, wt)
        ok = ok and (any(o.contains_edge_point(u, w) for o in opens) or {ut, wt} <= absorbed)
    ok = ok and all(any(o.contains_tangle(t) for o in opens) for t in suite_tangles(star))
    ray, X0 = builtin.load("ray"), frozenset({("ray", "R", 0)})
    rep_ray = extract_subcover(ray, [basic_open(ray, X0, components(ray, X0).select_all())])
    rep_one = extract_subcover(star, opens[:1])
    refuted = rep_one["verdict"] == "REFUTED" and rep_one["missed_by_every_open"]
    return {"checks": [
        _record("topology/subcover-two-opens", "star", ok),
        _record("topology/subcover-one-open", "ray", rep_ray["verdict"] == "CONFIRMED"),
        _record("topology/subcover-missing-tangle", "star", refuted and rep_one["witness_kind"] == "uf"),
    ]}


def clique_subdivisions(rng: random.Random, graphs: int) -> dict:
    """12: clique-subdivision certificates on K5, on K5 minus an edge, and
    on random branch 4-sets of the first ``graphs`` G(8, 0.78) graphs."""
    k5 = complete_graph(5)
    cert = build_clique_subdivision(k5, k5.vertices)
    ok = cert["ok"] and verify_subdivision(k5, k5.vertices, cert)
    checks = [_record("blocks/clique-subdivision", "K5", ok)]
    # five branch vertices cannot carry ten internally disjoint connections
    # on nine edges; the builder reports the missing pair, which also
    # violates the inseparability precondition
    edges = sorted(k5.edges)
    k5e = from_edges(edges[:-1])
    cert = build_clique_subdivision(k5e, k5.vertices)
    ok = not cert["ok"] and tuple(sorted(cert["blocking_pair"])) == edges[-1]
    checks.append(_record("blocks/clique-subdivision-blocked", "K5-e",
                          ok and not is_inseparable(k5e, k5.vertices, 5)))
    built, ok = 0, True
    for seed in range(graphs):
        G = nx.gnp_random_graph(8, 0.78, seed=seed)
        if not nx.is_connected(G):
            continue
        g = from_edges((f"v{u}", f"v{v}") for u, v in G.edges)
        K = set(rng.sample(sorted(g.vertices), 4))
        if not is_inseparable(g, K, len(K)):
            continue
        cert = build_clique_subdivision(g, K)
        if cert["ok"]:
            built += 1
            ok = ok and verify_subdivision(g, K, cert)
    checks.append(_record("blocks/clique-subdivision", f"G(8,0.78) x{graphs}", ok, built=built))
    return {"checks": checks, "built": built}


def observation(rng: random.Random, stars: int) -> dict:
    """13: a star in a tangle has a small-inverse supremum exactly when its
    far sides meet finitely."""
    checks, checked = [], []
    for name, schema, t in _tangles():
        rep = observation_check(t, [sample_star_in_tangle(t, rng) for _ in range(stars)])
        checked.append(rep["stars_checked"])
        checks.append(_record("abstract/small-inverse-supremum", f"{name}:{t.id()}", rep["ok"]))
    return {"checks": checks, "stars_checked": min(checked)}


def run_suite(seed: int = 0, samples: int = 10) -> dict:
    """Every check at reduced counts, in criterion order, drawing from one rng."""
    rng = random.Random(seed)
    few = max(1, samples // 2)
    parts = [
        tangle_counts(),
        star_cover_reduction(4, (3,)),
        join_closure(2),
        component_oracle(rng, samples, (10,)),
        inverse_system(rng, few, samples, few),
        limit_roundtrip(rng, samples),
        census_values((20,)),
        minimal_witnesses(rng, few, few),
        axioms(rng, samples, few, few),
        closedness(rng, 3, samples),
        subcover(10),
        clique_subdivisions(rng, few),
        observation(rng, few),
    ]
    checks = [c for part in parts for c in part["checks"]]
    failed = sum(not c["ok"] for c in checks)
    return {"seed": seed, "samples": samples, "checks": checks,
            "passed": len(checks) - failed, "failed": failed, "ok": failed == 0}
