"""Tangles of schema graphs: end tangles and ultrafilter tangles.

A tangle orients every representable finite-order separation.  End
tangles answer through the component their end lives in; ultrafilter
tangles answer through a single non-principal ultrafilter fixed at their
least witness level.  The ultrafilter it induces at another level is read
at that level alone, which is what lifting and then restricting gives
(the inverse-system checks still do both).  This module also provides
the end catalogue of a schema, the classification and witness machinery,
conversions between tangles and compatible ultrafilter families, a
census, and sampled axiom checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .abstract import finite_far_side
from .components import ComponentSet, FamilyClass, components, core_components
from .sampling import SAMPLE_DEPTH, random_level, random_selection, random_separation
from .schema import SchemaGraph, Vertex, vertex_sort_key, vertex_text
from .semilinear import SemilinearSet
from .separations import OrientedSeparation, from_bipartition, from_vertex_sides, is_star
from .symsets import SymVertexSet
from .ultrafilters import (
    LimitFamily,
    PrincipalInputError,
    UltrafilterHandle,
    induced_by_core,
    lazy_on,
    limit_from_nonprincipal,
    principal_at,
    restrict_ultrafilter,
)

# -- ends ---------------------------------------------------------------------


@dataclass(frozen=True)
class End:
    kind: str  # "rays" | "leg" | "clique"
    names: tuple[str, ...]  # merged single-ray names, or (family,) or (clique,)
    index: int | None = None  # leg index for kind "leg"

    def id(self) -> str:
        if self.kind == "leg":
            return f"end:{self.names[0]}:{self.index}"
        return "end:" + "+".join(self.names)

    @property
    def copy(self) -> tuple[str, int] | None:
        """The family copy a leg end runs along."""
        return None if self.index is None else (self.names[0], self.index)

    def lives_in(self, vs: SymVertexSet) -> bool:
        """Whether the end lives in the vertex set: it holds a tail of the
        end's rays, of its leg, or infinitely many clique vertices."""
        if self.kind == "leg":
            return self.index in vs.whole_set(self.names[0])
        slot = vs.ray_set if self.kind == "rays" else vs.cliq_set
        return slot(self.names[0]).is_infinite


@dataclass(frozen=True)
class EndCatalogue:
    singles: tuple[End, ...]  # one entry per end
    leg_families: tuple[str, ...]  # one end per index of each of these families

    @property
    def finite_count(self) -> int:
        return len(self.singles)

    @property
    def has_infinitely_many(self) -> bool:
        return bool(self.leg_families)


def end_catalogue(schema: SchemaGraph) -> EndCatalogue:
    """All ends, read from the core level: one per concrete component (its
    clique, or its rays, merged along the families that bridge them), and
    one per copy of each ray family."""
    cs = core_components(schema)
    singles = []
    for c in cs.concretes:
        rays = sorted(r.name for r in schema.rays if not c.vertices.ray_set(r.name).is_empty)
        singles.append(End("clique", c.cliques) if c.cliques else End("rays", tuple(rays)))
    singles.sort(key=lambda e: e.id())
    legs = tuple(cl.family for cl in cs.classes if schema.family_spec(cl.family).is_ray_family)
    return EndCatalogue(tuple(singles), legs)


def leg_end(schema: SchemaGraph, family: str, index: int) -> End:
    ray_families = [f.name for f in schema.families if f.is_ray_family]
    if family not in ray_families:
        raise ValueError(
            f"family {family!r} is not a ray family; ray families: "
            + (", ".join(ray_families) or "none")
        )
    if index < 0:
        raise ValueError(f"leg index {index} is negative")
    return End("leg", (family,), index)


def end_component(end: End, cs: ComponentSet):
    """The component of (graph minus X) the end lives in, as a locator."""
    loc = cs.locate(end.lives_in, end.copy)
    if loc is None:
        raise AssertionError(f"end {end.id()} lost")
    return loc


# -- tangles -------------------------------------------------------------------


@dataclass
class Tangle:
    schema: SchemaGraph
    end: End | None = None  # end tangles
    handle: UltrafilterHandle | None = None  # uf tangles: non-principal, at the witness level

    @property
    def kind(self) -> str:
        return "end" if self.end is not None else "uf"

    @property
    def witness(self) -> frozenset | None:
        """The level of the defining ultrafilter (uf tangles only)."""
        return None if self.handle is None else self.handle.level

    def id(self) -> str:
        if self.kind == "end":
            return self.end.id()
        return "uf:" + self.handle.core.family

    def __repr__(self) -> str:
        return f"Tangle({self.id()})"


def end_tangle(schema: SchemaGraph, end: End) -> Tangle:
    return Tangle(schema, end=end)


def uf_tangle(schema: SchemaGraph, family: str | None = None) -> Tangle:
    """A fresh ultrafilter tangle concentrated on a family's copy class,
    by default the first family that carries one, at its least witness."""
    cl = critical_class(schema, family)
    return Tangle(schema, handle=lazy_on(components(schema, cl.attach), cl.family))


def uf_tangle_from_handle(handle: UltrafilterHandle) -> Tangle:
    if handle.is_principal:
        raise PrincipalInputError("ultrafilter tangles need a non-principal handle")
    return Tangle(handle.schema, handle=handle)


def critical_classes(schema: SchemaGraph) -> list[FamilyClass]:
    """The infinite component classes at the core level, in schema order.

    Each is infinitely many copies of one family with the same
    neighbourhood ``attach``, a critical vertex set: a finite X such that
    infinitely many components of G - X have neighbourhood exactly X.  The
    ultrafilter tangles are the non-principal ultrafilters on these
    classes, so these are the families that carry one.
    """
    order = {f.name: k for k, f in enumerate(schema.families)}
    classes = [cl for cl in core_components(schema).classes if cl.indices.is_infinite]
    return sorted(classes, key=lambda cl: order[cl.family])


def critical_class(schema: SchemaGraph, family: str | None = None) -> FamilyClass:
    """The critical class of the given family, by default the first."""
    classes = critical_classes(schema)
    for cl in classes:
        if family in (None, cl.family):
            return cl
    carriers = ", ".join(cl.family for cl in classes) or "none"
    subject = "the schema" if family is None else f"family {family!r}"
    raise ValueError(
        f"{subject} carries no ultrafilter tangle; families that carry one: {carriers}"
    )


def induced_ultrafilter(tangle: Tangle, X) -> UltrafilterHandle:
    """The ultrafilter the tangle induces on the components at level X."""
    cs = components(tangle.schema, X)
    if tangle.kind == "end":
        return principal_at(cs, end_component(tangle.end, cs))
    return induced_by_core(cs, tangle.handle.core)


def orient(tangle: Tangle, sep: OrientedSeparation) -> OrientedSeparation:
    """The orientation of the given separation that lies in the tangle."""
    u = induced_ultrafilter(tangle, sep.X)
    return sep if u.membership(sep.toB) else sep.inverse()


def in_tangle(tangle: Tangle, sep: OrientedSeparation) -> bool:
    return orient(tangle, sep) == sep


# -- classification and witnesses ----------------------------------------------


def witness_candidates(schema: SchemaGraph) -> list[frozenset]:
    """The empty level and every critical vertex set: the least levels at
    which infinitely many components split off."""
    return list(dict.fromkeys([frozenset(), *(cl.attach for cl in critical_classes(schema))]))


def classify(tangle: Tangle) -> str:
    """"end" if every induced ultrafilter is principal, else "ultrafilter".

    Every critical vertex set lies in the core, so a non-principal induced
    ultrafilter, if any, shows at the core level.
    """
    core_level = core_components(tangle.schema).removed
    return "end" if induced_ultrafilter(tangle, core_level).is_principal else "ultrafilter"


def minimal_witness(tangle: Tangle) -> frozenset[Vertex]:
    """The least level whose induced ultrafilter is non-principal."""
    if tangle.kind != "uf":
        raise ValueError("end tangles have no witness")
    return critical_class(tangle.schema, tangle.handle.core.family).attach


# -- limits <-> tangles -----------------------------------------------------------


def limit_from(schema: SchemaGraph, X, u: UltrafilterHandle) -> LimitFamily:
    """Extend an ultrafilter at level X to a compatible family of all levels.

    Principal inputs must be generated by an infinite component; such a
    component either contains a ray (the family is then the end tangle's)
    or has a finite hub set whose removal splits it into infinitely many
    pieces, through which a non-principal seed is routed.
    """
    if components(schema, X).removed != u.level:
        raise ValueError("handle is not at the stated level")
    if not u.is_principal:
        return limit_from_nonprincipal(u)
    gen = u.generator_vertices()
    if gen.is_finite:
        raise PrincipalInputError("no tangle induces a principal ultrafilter at a finite component")
    end = _end_in(schema, gen)
    if end is not None:
        return limit_of_tangle(end_tangle(schema, end))
    # rayless infinite component: split it at the attachments of a class inside it
    for cl in critical_classes(schema):
        if gen.full_copy_indices(cl.family).is_infinite:
            level = u.level | cl.attach
            return limit_from_nonprincipal(lazy_on(components(schema, level), cl.family))
    raise AssertionError("infinite rayless component without a critical class")


def _end_in(schema: SchemaGraph, vs: SymVertexSet) -> End | None:
    """Some end living inside the given component vertex set, if any: a
    single end, else the leg of the least whole copy of a leg family."""
    cat = end_catalogue(schema)
    legs = [leg_end(schema, fam, vs.whole_set(fam).min_value())
            for fam in cat.leg_families if not vs.whole_set(fam).is_empty]
    return next((e for e in (*cat.singles, *legs) if e.lives_in(vs)), None)


def limit_of_tangle(tangle: Tangle) -> LimitFamily:
    return LimitFamily(tangle.schema, lambda Y: induced_ultrafilter(tangle, Y))


def tangle_from_limit(limit: LimitFamily) -> Tangle:
    """The tangle whose induced ultrafilters agree with the family."""
    schema = limit.schema
    # every critical set lies in the core, and each infinite component at
    # the core level holds exactly one end
    u = limit.eval(core_components(schema).removed)
    if not u.is_principal:
        least = critical_class(schema, u.core.family).attach
        return uf_tangle_from_handle(restrict_ultrafilter(u, least))
    end = _end_in(schema, u.generator_vertices())
    if end is None:
        raise AssertionError("limit family matches no tangle")
    return end_tangle(schema, end)


# -- census ---------------------------------------------------------------------


def uf_classes(schema: SchemaGraph) -> list[dict]:
    return [
        {"witness": [vertex_text(v) for v in sorted(cl.attach, key=vertex_sort_key)],
         "family": cl.family}
        for cl in critical_classes(schema)
    ]


def census(schema: SchemaGraph) -> dict:
    if not schema.is_infinite:
        raise ValueError("census applies to infinite schemas")
    cat = end_catalogue(schema)
    ends = {
        "singles": [e.id() for e in cat.singles],
        "classes": [{"family": f, "one_end_per_index": True} for f in cat.leg_families],
    }
    ufs = uf_classes(schema)
    return {
        "schema": schema.digest(),
        "ends": ends,
        "end_count": "aleph0" if cat.has_infinitely_many else cat.finite_count,
        "uf_classes": ufs,
        "tangles_exist": bool(cat.singles or cat.leg_families or ufs),
    }


def end_count_estimate(schema: SchemaGraph, n: int) -> int:
    """Truncation oracle: components of trunc(n) minus the depth-3 ball that
    are of growing size.  Leg families contribute n apiece at level n."""
    r = 3
    g = schema.truncate(n)
    shallow = frozenset(
        vertex_text(v) for v in schema.vertices_below(n) if schema.depth(v) < r
    )
    big = 0
    for comp in g.components(removed=shallow & g.vertices):
        if len(comp) >= (n - r) / 2:
            big += 1
    return big


def expected_estimate(schema: SchemaGraph, n: int) -> int:
    cat = end_catalogue(schema)
    return cat.finite_count + n * len(cat.leg_families)


def suite_tangles(schema: SchemaGraph) -> list[Tangle]:
    """Representatives: every single end, two legs per leg family, one lazy
    ultrafilter tangle per critical class."""
    cat = end_catalogue(schema)
    out = [end_tangle(schema, e) for e in cat.singles]
    for fam in cat.leg_families:
        out.append(end_tangle(schema, leg_end(schema, fam, 0)))
        out.append(end_tangle(schema, leg_end(schema, fam, 3)))
    out += [uf_tangle(schema, family=cl.family) for cl in critical_classes(schema)]
    return out


# -- sampled axiom checks ----------------------------------------------------------


def sample_star_in_tangle(tangle: Tangle, rng: random.Random) -> list[OrientedSeparation]:
    """A random finite star contained in the tangle.

    Members split the components at one level into disjoint selections,
    each oriented away from its selection, plus optionally a small
    separation; the home component of the tangle is never given away.
    """
    schema = tangle.schema
    X = random_level(schema, rng)
    cs = components(schema, X)
    u = induced_ultrafilter(tangle, X)
    size = rng.randrange(1, 7)  # 1 to 6 draws
    star, used = [], cs.select_none()
    for _ in range(size):
        pick = random_selection(cs, rng) - used
        if pick.is_empty:
            continue
        sep = from_bipartition(schema, X, pick.complement())
        if u.membership(pick):
            continue  # would point at the tangle's home
        star.append(sep)
        used = used | pick
    if not star or rng.random() < 0.3:
        star.append(from_bipartition(schema, X, cs.select_all()))
    return star


def sample_perturbation(
    tangle: Tangle, sep: OrientedSeparation, rng: random.Random
) -> OrientedSeparation:
    """A finite perturbation of a tangle member: flip finitely many finite
    components across, or absorb an extra vertex into the separator."""
    schema = tangle.schema
    cs = sep.toB.cs
    mode = rng.randrange(2)
    if mode == 0:
        finite_flags = [
            k
            for k, c in enumerate(cs.concretes)
            if c.vertices.is_finite and rng.random() < 0.5
        ]
        parts = {
            c.family: SemilinearSet.make(
                [x for x in c.indices.first(6) if rng.random() < 0.3]
            )
            for c in cs.classes
            if not schema.family_spec(c.family).is_ray_family
        }
        moved = cs.selection(concretes=finite_flags, class_parts=parts)
        if moved.union_vertices().is_finite:
            return sep.flip_finite(moved)
        return sep
    pool = [v for v in schema.vertices_below(SAMPLE_DEPTH) if v not in sep.X]
    if not pool:
        return sep
    v = rng.choice(pool)
    extra = SymVertexSet.of(schema, [v])
    return from_vertex_sides(schema, sep.side_A | extra, sep.side_B | extra)


def infinite_star_probe(tangle: Tangle, level: frozenset, family: str) -> dict:
    """Evaluate the indexed infinite star that points away from each copy of
    the family class at the given level (one member absorbs the other
    components).  Reports whether the tangle contains all members (for a
    uf tangle, the per-copy members of the first three copies) and whether
    the members' far sides meet finitely."""
    schema = tangle.schema
    cs = components(schema, level)
    cl = cs.class_for(family)
    if cl is None or not cl.indices.is_infinite:
        raise ValueError("no infinite class at this level")
    rest = cl.indices - SemilinearSet.of(cl.indices.min_value())
    rest_copies = cs.selection(class_parts={family: rest})
    # the member absorbing the first copy and every non-class component on its near side
    sep0 = from_bipartition(schema, level, rest_copies)
    contained = in_tangle(tangle, sep0)
    # the per-copy members (level u copy_i, everything else) for i in rest
    if tangle.kind == "uf":
        for i in rest.first(3):
            copy_i = cs.selection(class_parts={family: SemilinearSet.of(i)})
            contained = contained and in_tangle(tangle, from_bipartition(schema, level, copy_i.complement()))
    else:
        contained = contained and not rest_copies.contains_component(
            end_component(tangle.end, cs)
        )
    # copy i's member has all but copy i on its far side
    far_side_finite = (sep0.toB - rest_copies).union_vertices().is_finite
    return {
        "level": sorted(map(vertex_text, level)),
        "family": family,
        "contained": contained,
        "far_side_finite": far_side_finite,
        "witnesses_infinite_star": contained and far_side_finite,
    }


def axiom_check(
    tangle: Tangle,
    rng: random.Random,
    star_samples: int = 50,
    perturbation_samples: int = 25,
    member_samples: int = 25,
) -> dict:
    """Sampled tangle-axiom report: contained finite stars have an infinite
    common far side, members survive finite perturbation, every member's
    far side is infinite, and indexed infinite-star probes behave by kind."""
    schema = tangle.schema
    findings = []
    stars = members = 0
    for _ in range(star_samples):
        star = sample_star_in_tangle(tangle, rng)
        if not star:
            continue
        if not all(in_tangle(tangle, s) for s in star):
            findings.append(("star_member_escaped", [s.text() for s in star]))
            continue
        if not is_star(star):
            findings.append(("not_a_star", [s.text() for s in star]))
            continue
        stars += 1
        if finite_far_side(star):
            findings.append(("finite_far_side", [s.text() for s in star]))
    perturbs = 0
    for _ in range(perturbation_samples):
        sep = orient(tangle, random_separation(schema, rng))
        pert = sample_perturbation(tangle, sep, rng)
        perturbs += 1
        if not in_tangle(tangle, pert):
            findings.append(("perturbation_escaped", sep.text(), pert.text()))
    for _ in range(member_samples):
        sep = orient(tangle, random_separation(schema, rng))
        members += 1
        if sep.toB.union_vertices().is_finite:
            findings.append(("finite_member_far_side", sep.text()))
    probes = []
    for level in witness_candidates(schema):
        cs = components(schema, level)
        for cl in cs.classes:
            if cl.indices.is_infinite:
                probes.append(infinite_star_probe(tangle, level, cl.family))
    witnessed = [p for p in probes if p["witnesses_infinite_star"]]
    if tangle.kind == "uf" and not witnessed:
        findings.append(("missing_infinite_star_witness",))
    if tangle.kind == "end" and witnessed:
        findings.append(("end_tangle_contains_infinite_star", witnessed))
    return {
        "tangle": tangle.id(),
        "stars_checked": stars,
        "perturbations_checked": perturbs,
        "members_checked": members,
        "infinite_star_probes": probes,
        "findings": findings,
        "ok": not findings,
    }
