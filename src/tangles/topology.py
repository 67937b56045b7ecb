"""The compactified space and the separation-space topology.

Basic open sets of the compactification are given by a finite level X
and a sub-collection of the components of (graph minus X): the open set
holds those components' vertices, the inner points of edges from X into
them, and every tangle whose induced ultrafilter at X contains the
collection.  On oriented separations, basic opens fix the trace on a
finite vertex set Z; a tangle is closed in that space exactly when its
kernel (the intersection of all its members' far sides) is infinite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .components import ComponentSelection, components, core_components
from .infinite_tangles import (
    Tangle,
    end_component,
    in_tangle,
    induced_ultrafilter,
    limit_from,
    tangle_from_limit,
)
from .schema import SchemaGraph, Vertex, level_text, parse_level, vertex_text
from .semilinear import SemilinearSet
from .separations import OrientedSeparation, from_bipartition
from .symsets import SymVertexSet, union_all
from .ultrafilters import LazyCore, UltrafilterHandle, principal_at


@dataclass(frozen=True)
class BasicOpen:
    level: frozenset[Vertex]
    selection: ComponentSelection

    @property
    def schema(self) -> SchemaGraph:
        return self.selection.cs.schema

    def contains_vertex(self, v: Vertex) -> bool:
        return v in self.selection.union_vertices()

    def contains_edge_point(self, u: Vertex, w: Vertex) -> bool:
        """Inner points of an edge: inside the selected components, or from
        the level into them."""
        if not self.schema.has_edge(u, w):
            raise ValueError("not an edge")
        sel = self.selection.union_vertices()
        if u in sel and w in sel:
            return True
        return (u in self.level and w in sel) or (w in self.level and u in sel)

    def contains_tangle(self, tangle: Tangle) -> bool:
        return induced_ultrafilter(tangle, self.level).membership(self.selection)

    def contains_point(self, point) -> bool:
        """Point forms: ("vertex", v), ("edge", u, w, t) with 0<t<1, ("tangle", tangle)."""
        match point:
            case ("vertex", v):
                return self.contains_vertex(v)
            case ("edge", u, w, t):
                if not 0 < t < 1:
                    raise ValueError("edge points are interior")
                return self.contains_edge_point(u, w)
            case ("tangle", tangle):
                return self.contains_tangle(tangle)
        raise ValueError(f"bad point {point!r}")

    def text(self) -> str:
        return f"open {level_text(self.level)} C={self.selection.text()}"


def basic_open(schema: SchemaGraph, X, selection: ComponentSelection) -> BasicOpen:
    X = schema.check_vertices(X)
    cs = components(schema, X)
    if selection.cs is not cs and selection.cs != cs:
        raise ValueError("selection does not match the level")
    return BasicOpen(X, selection)


_OPEN_RE = re.compile(r"^open X=\{(.*?)\} C=(\{.*\})$")


def parse_basic_open(schema: SchemaGraph, text: str) -> BasicOpen:
    m = _OPEN_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad open set text {text!r}")
    X = parse_level(schema, m.group(1))
    cs = components(schema, X)
    return BasicOpen(X, ComponentSelection.parse(cs, m.group(2)))


# -- finite subcovers ---------------------------------------------------------


def extract_subcover(schema: SchemaGraph, opens: list[BasicOpen]) -> dict:
    """Rewrite a finite family of basic opens at the union of their levels.

    CONFIRMED: together with the finite graph on the union level plus the
    finitely many leftover finite components, the opens cover everything.
    REFUTED: some tangle escapes every open; a witness is materialised
    from the leftover (a principal seed at an infinite leftover component,
    or a lazy seed on an infinite leftover class).
    """
    if not opens:
        raise ValueError("empty cover")
    union_level = frozenset().union(*(o.level for o in opens))
    fine = components(schema, union_level)
    # a fine component lies in an open's selected set or misses it, so it
    # lies in their union exactly when some open selects it
    covered = fine.partition_by(union_all(schema, [o.selection.union_vertices() for o in opens]))
    leftover = covered.complement()
    base = {
        "union_level": sorted(vertex_text(v) for v in union_level),
        "opens": [o.text() for o in opens],
    }
    if leftover.count_is_finite and leftover.union_vertices().is_finite:
        absorbed = leftover.union_vertices()
        return base | {
            "verdict": "CONFIRMED",
            "absorbed_vertices": sorted(
                vertex_text(v) for v in absorbed.to_explicit()
            ),
        }
    witness = _leftover_tangle(schema, union_level, fine, leftover)
    missed = [not o.contains_tangle(witness) for o in opens]
    return base | {
        "verdict": "REFUTED",
        "witness": witness.id(),
        "witness_kind": witness.kind,
        "missed_by_every_open": all(missed),
    }


def _leftover_tangle(schema, level, fine, leftover) -> Tangle:
    # an infinite leftover component gives a principal seed
    for k, c in enumerate(fine.concretes):
        if leftover.concrete_flags[k] and c.vertices.is_infinite:
            seed = principal_at(fine, ("concrete", k))
            return tangle_from_limit(limit_from(schema, level, seed))
    for k, cl in enumerate(fine.classes):
        part = leftover.class_parts[k]
        if part.is_empty:
            continue
        if schema.family_spec(cl.family).is_ray_family:
            seed = principal_at(fine, ("class", k, part.min_value()))
            return tangle_from_limit(limit_from(schema, level, seed))
        if part.is_infinite:
            seed = UltrafilterHandle(fine, core=LazyCore(cl.family, part))
            return tangle_from_limit(limit_from(schema, level, seed))
    raise AssertionError("infinite leftover without a tangle seed")


# -- the separation space -----------------------------------------------------


def agree_on(s: OrientedSeparation, t: OrientedSeparation, Z) -> bool:
    return s.restrict(Z) == t.restrict(Z)


def kernel(tangle: Tangle) -> SymVertexSet:
    """Vertices on the far side of every member of the tangle.

    These are the vertices that no finite deletion avoiding them separates
    from the tangle: the dominators of its induced ultrafilter at the core
    level.  For an end that is its component's dominators (the clique and
    its attached cores for a clique end, none for a leg); for an
    ultrafilter tangle, the attachments of its critical class.
    """
    return induced_ultrafilter(tangle, core_components(tangle.schema).removed).dominators()


def is_closed(tangle: Tangle) -> bool:
    """Closed in the separation space iff the kernel is infinite."""
    return kernel(tangle).is_infinite


def kernel_orientation_agrees(tangle: Tangle, sep: OrientedSeparation) -> bool:
    """For closed tangles the members are exactly the separations whose far
    side holds the kernel."""
    k = kernel(tangle)
    return in_tangle(tangle, sep) == k.issubset(sep.side_B)


def level_cut(schema: SchemaGraph, tangle: Tangle, n: int) -> frozenset[Vertex]:
    """A finite set separating everything of depth < n from the end."""
    end = tangle.end
    cut = set(kernel(tangle).to_explicit())  # finite for non-clique ends
    if end.kind == "rays":
        cut |= {("ray", r, n) for r in end.names}
    else:
        cut.add(("fam", end.names[0], end.index, n))
    return frozenset(cut)


def member_avoiding(tangle: Tangle, z: Vertex, n: int) -> OrientedSeparation:
    """A member of the end tangle with z strictly on the near side."""
    schema = tangle.schema
    cut = level_cut(schema, tangle, n)
    if z in cut:
        raise ValueError("vertex sits on the cut")
    cs = components(schema, cut)
    sep = from_bipartition(schema, cut, cs.only(end_component(schema, tangle.end, cs)))
    if z in sep.side_B:
        raise AssertionError("cut failed to strip the vertex from the end side")
    return sep


def closure_probe(tangle: Tangle, sep: OrientedSeparation, schedule) -> dict:
    """Limit-point evidence for a non-member separation.

    For each probe set Z, try the two canonical constructions of a
    tangle member agreeing with ``sep`` on Z: moving the near-side
    components that avoid Z across, and (when the kernel K is finite and
    ``sep`` traces like (V, K)) joining per-vertex members below K.  If a
    kernel vertex of a closed tangle sits strictly on the near side
    within Z, no agreeing member exists at all.
    """
    if in_tangle(tangle, sep):
        raise ValueError("probe expects a non-member separation")
    schema = tangle.schema
    k = kernel(tangle)
    evidence = []
    for Z in schedule:
        Z = schema.check_vertices(Z)
        blocked = [
            z for z in Z if z in k and z in sep.side_A and z not in sep.side_B
        ]
        if blocked and is_closed(tangle):
            evidence.append(
                {
                    "Z": sorted(map(vertex_text, Z)),
                    "result": "no_agreeing_member",
                    "kernel_vertex": vertex_text(blocked[0]),
                }
            )
            continue
        member = _agreeing_member(tangle, sep, Z)
        if member is not None:
            evidence.append(
                {
                    "Z": sorted(map(vertex_text, Z)),
                    "result": "agreeing_member",
                    "member": member.text(),
                }
            )
        else:
            evidence.append(
                {"Z": sorted(map(vertex_text, Z)), "result": "no_canonical_move"}
            )
    found = [e for e in evidence if e["result"] == "agreeing_member"]
    return {
        "tangle": tangle.id(),
        "separation": sep.text(),
        "levels": len(evidence),
        "limit_point_evidence": bool(evidence) and len(found) == len(evidence),
        "evidence": evidence,
    }


def _agreeing_member(tangle, sep, Z) -> OrientedSeparation | None:
    for builder in (_component_move, _kernel_join_move):
        try:
            cand = builder(tangle, sep, Z)
        except ValueError:  # NotRepresentable among others
            cand = None
        if cand is not None and in_tangle(tangle, cand) and agree_on(sep, cand, Z):
            return cand
    return None


def _component_move(tangle, sep, Z) -> OrientedSeparation | None:
    """Push every near-side component that avoids Z across to the far side."""
    cs = sep.toB.cs
    near = sep.toB.complement()
    flags = []
    for kk, c in enumerate(cs.concretes):
        if near.concrete_flags[kk] and not any(z in c.vertices for z in Z):
            flags.append(kk)
    parts = {}
    for cl, part in zip(cs.classes, near.class_parts):
        touching = SemilinearSet.make(
            {z[2] for z in Z if z[0] == "fam" and z[1] == cl.family}
        )
        parts[cl.family] = part - touching
    moved = cs.selection(concretes=flags, class_parts=parts)
    if moved.is_empty:
        return None
    return from_bipartition(tangle.schema, sep.X, sep.toB | moved)


def _kernel_join_move(tangle, sep, Z) -> OrientedSeparation | None:
    """Join members avoiding each probe vertex below a finite kernel."""
    if tangle.kind != "end":
        return None
    k = kernel(tangle)
    if not k.is_finite:
        return None
    if sep.restrict(Z) != (frozenset(Z), frozenset(z for z in Z if z in k)):
        return None
    schema = tangle.schema
    kx = frozenset(k.to_explicit())
    n = 2 + max([schema.depth(z) for z in Z] + [0])
    cs0 = components(schema, kx)
    join = from_bipartition(schema, kx, cs0.select_all())  # the member (K, V)
    for z in Z:
        if z in kx:
            continue
        join = join.corner_join(member_avoiding(tangle, z, n))
    return join


def nonclosed_witness_separation(tangle: Tangle) -> OrientedSeparation:
    """The canonical non-member every neighbourhood of which meets the tangle."""
    schema = tangle.schema
    if tangle.kind == "uf":
        cs = tangle.handle.cs
        fam = tangle.handle.core.family
        chosen = cs.selection(class_parts={fam: tangle.handle.core.base})
        return from_bipartition(schema, tangle.witness, chosen.complement())
    kx = frozenset(kernel(tangle).to_explicit())
    cs = components(schema, kx)
    return from_bipartition(schema, kx, cs.select_none())  # (V, K)


def default_schedule(schema: SchemaGraph, levels: int = 5) -> list[frozenset]:
    return [frozenset(schema.vertices_below(m + 1)) for m in range(levels)]
