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
from collections.abc import Iterator
from dataclasses import dataclass

from .components import (
    QUOTIENT_CAP, ComponentSelection, components, core_components, parse_at_level,
)
from .infinite_tangles import (
    Tangle,
    end_component,
    in_tangle,
    induced_ultrafilter,
    limit_from,
    tangle_from_limit,
)
from .schema import SchemaGraph, Vertex, level_text, vertex_text
from .semilinear import ResourceGuardError
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

    def text(self) -> str:
        return f"open {level_text(self.level)} C={self.selection.text()}"


def basic_open(schema: SchemaGraph, X, selection: ComponentSelection) -> BasicOpen:
    cs = components(schema, X)
    if selection.cs is not cs and selection.cs != cs:
        raise ValueError("selection does not match the level")
    return BasicOpen(cs.removed, selection)


_OPEN_RE = re.compile(r"^open X=\{(.*?)\} C=(\{.*\})$")


def parse_basic_open(schema: SchemaGraph, text: str) -> BasicOpen:
    return BasicOpen(*parse_at_level(schema, text, _OPEN_RE, "open set"))


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


def level_member(tangle: Tangle, n: int, k: SymVertexSet) -> OrientedSeparation:
    """The member of an end tangle with finite kernel ``k`` that cuts the end
    off at depth n: separator k plus the end's depth-n vertices, with the
    end's component on the far side."""
    schema, end = tangle.schema, tangle.end
    cut = set(k.to_explicit())
    if end.kind == "rays":
        cut |= {("ray", r, n) for r in end.names}
    else:
        cut.add(("fam", end.names[0], end.index, n))
    cs = components(schema, cut)
    return from_bipartition(schema, cut, cs.only(end_component(end, cs)))


def closure_probe(tangle: Tangle, sep: OrientedSeparation, schedule) -> dict:
    """Limit-point evidence for a non-member separation.

    Each probe set Z is read once as one vertex set, for ``sep``'s trace
    (A n Z, B n Z) and Z's kernel vertices K n Z, each one set operation,
    and gets one evidence entry whose ``result`` is:

    - ``agreeing_member``: a canonical move gave a tangle member with the
      same trace, printed as ``member``.  One move pushes the near-side
      components that avoid Z across; the other (finite kernel K, ``sep``
      tracing like (V, K)) cuts the end off below Z around K.
    - ``no_agreeing_member``: a kernel vertex of a closed tangle lies
      strictly on the near side within Z, so no member agrees; the least
      such vertex is named as ``kernel_vertex``.
    - ``no_canonical_move``: no move applies, or its member traces
      differently on Z.

    Levels are read one at a time; one of more than ``QUOTIENT_CAP``
    vertices raises ``ResourceGuardError``.
    """
    if in_tangle(tangle, sep):
        raise ValueError("probe expects a non-member separation")
    k = kernel(tangle)
    evidence = []
    for level in schedule:
        level = frozenset(level)
        if len(level) > QUOTIENT_CAP:
            raise ResourceGuardError(
                f"probe level of {len(level)} vertices exceeds the cap of {QUOTIENT_CAP}"
            )
        entry = {"Z": sorted(map(vertex_text, level))}
        Z = SymVertexSet.of(tangle.schema, level)
        trace = (sep.side_A & Z, sep.side_B & Z)
        kz = k & Z
        blocked = (trace[0] - trace[1]) & kz
        if not blocked.is_empty and k.is_infinite:
            entry |= {
                "result": "no_agreeing_member",
                "kernel_vertex": vertex_text(blocked.to_explicit()[0]),
            }
        elif (member := _agreeing_member(tangle, sep, Z, trace, k, kz)) is not None:
            entry |= {"result": "agreeing_member", "member": member.text()}
        else:
            entry["result"] = "no_canonical_move"
        evidence.append(entry)
    return {
        "tangle": tangle.id(),
        "separation": sep.text(),
        "levels": len(evidence),
        "limit_point_evidence": bool(evidence)
        and all(e["result"] == "agreeing_member" for e in evidence),
        "evidence": evidence,
    }


def _agreeing_member(tangle, sep, Z, trace, k, kz) -> OrientedSeparation | None:
    """The first canonical move that is a tangle member tracing like ``sep`` on Z."""
    moves = (
        lambda: _component_move(tangle, sep, Z),
        lambda: _kernel_move(tangle, Z, trace, k, kz),
    )
    for move in moves:
        cand = move()
        if cand is not None and in_tangle(tangle, cand) and (cand.side_A & Z, cand.side_B & Z) == trace:
            return cand
    return None


def _component_move(tangle, sep, Z) -> OrientedSeparation | None:
    """Push every near-side component that avoids Z across to the far side."""
    cs = sep.toB.cs
    near = sep.toB.complement()
    flags = [
        kk for kk, c in enumerate(cs.concretes)
        if near.concrete_flags[kk] and c.vertices.isdisjoint(Z)
    ]
    outside = Z.complement()
    parts = {
        cl.family: part & outside.full_copy_indices(cl.family)
        for cl, part in zip(cs.classes, near.class_parts)
    }
    moved = cs.selection(concretes=flags, class_parts=parts)
    if moved.is_empty:
        return None
    return from_bipartition(tangle.schema, sep.X, sep.toB | moved)


def _kernel_move(tangle, Z, trace, k, kz) -> OrientedSeparation | None:
    """For a ``trace`` of (Z, K n Z) with a finite kernel K: the member (K, V)
    when Z lies in K, else the level member at depth two past Z's deepest
    vertex, which puts every probe vertex outside K strictly on its near
    side (a member that does not fails the caller's trace comparison).
    (Joining (K, V) with that member once per probe vertex gives the
    member itself, since K lies in its separator.)"""
    if tangle.kind != "end" or not k.is_finite or trace != (Z, kz):
        return None
    if kz == Z:
        kx = frozenset(k.to_explicit())
        return from_bipartition(tangle.schema, kx, components(tangle.schema, kx).select_all())
    return level_member(tangle, 2 + Z.depth(), k)


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


def default_schedule(schema: SchemaGraph, levels: int) -> Iterator[frozenset]:
    """The depth-1, ..., depth-``levels`` truncations' vertex sets, built lazily."""
    return (frozenset(schema.vertices_below(m + 1)) for m in range(levels))
