"""Exact components of (schema minus finite vertex set), with selections.

Deleting a finite explicit set X from a schema graph leaves finitely many
describable components: each is either a single symbolic vertex set
(``Concrete``) or an indexed class of pairwise disconnected, isomorphic,
identically attached family copies (``FamilyClass``, one component per
index).

The computation works on a finite quotient graph whose nodes are the
explicit vertices near X, one tail node per ray (and per touched
ray-family copy), one node per untouched copy class, and one remainder
node per clique.  A copy class splits into per-index components exactly
when its node is isolated after deleting X.

This module is the one place that reads how parts attach.  Each class
records ``attach``, the neighbourhood of every copy (its node's quotient
neighbours).  Each concrete component records the explicit neighbours of
its class and clique nodes and the cliques it holds, from which
``ComponentSet.dominators`` gives the vertices with infinitely many
neighbours in it.  At the core level (``core_components``) the infinite
classes are the critical vertex sets of the graph, the sets X with
infinitely many components of G - X whose neighbourhood is exactly X, and
every concrete component holds exactly one end; witnesses and kernels are
read from there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .semilinear import ResourceGuardError, SemilinearSet
from .schema import SchemaGraph, Vertex
from .symsets import SymVertexSet, union_all

_NAT = SemilinearSet.naturals()

# Explicit quotient nodes allowed per level: core vertices, ray prefixes,
# family copies times their pattern size, ray-family tails and legs.  A
# ray-family copy i carries an i-bit tail, so memory grows with the square
# of the copy count; past the cap the level is refused.
QUOTIENT_CAP = 1 << 14


@dataclass(frozen=True, slots=True)
class Concrete:
    vertices: SymVertexSet
    # the explicit neighbours of its class and clique nodes, and those cliques
    near: tuple[Vertex, ...] = field(compare=False)
    cliques: tuple[str, ...] = field(compare=False)


@dataclass(frozen=True)
class FamilyClass:
    family: str
    indices: SemilinearSet  # one component per index; all copies whole
    attach: frozenset[Vertex] = field(compare=False)  # the neighbourhood of every copy


@dataclass(frozen=True)
class ComponentSet:
    schema: SchemaGraph = field(compare=False, repr=False)
    removed: frozenset[Vertex]
    concretes: tuple[Concrete, ...]
    classes: tuple[FamilyClass, ...]

    # -- inspection --------------------------------------------------------

    def class_for(self, family: str) -> FamilyClass | None:
        for c in self.classes:
            if c.family == family:
                return c
        return None

    def class_index(self, family: str) -> int:
        for k, c in enumerate(self.classes):
            if c.family == family:
                return k
        raise KeyError(family)

    def member_vertices(self, family: str, copy: int) -> SymVertexSet:
        return SymVertexSet.whole_copies(self.schema, family, SemilinearSet.of(copy))

    def vertices(self, loc) -> SymVertexSet:
        """The vertex set of the component a locator names."""
        if loc[0] == "concrete":
            return self.concretes[loc[1]].vertices
        return self.member_vertices(self.classes[loc[1]].family, loc[2])

    def dominators(self, loc) -> SymVertexSet:
        """The vertices with infinitely many neighbours in the component a
        locator names, removed or not: those next to its class and clique
        nodes, and those cliques.  A class member, one copy, has none."""
        if loc[0] != "concrete":
            return SymVertexSet.empty(self.schema)
        c = self.concretes[loc[1]]
        cliques = [SymVertexSet.clique_part(self.schema, k, _NAT) for k in c.cliques]
        return union_all(self.schema, [SymVertexSet.of(self.schema, c.near), *cliques])

    def only(self, loc) -> "ComponentSelection":
        """The selection of the one component a locator names."""
        if loc[0] == "concrete":
            return self.selection(concretes=[loc[1]])
        return self.selection(
            class_parts={self.classes[loc[1]].family: SemilinearSet.of(loc[2])}
        )

    def locate(self, holds, copy: tuple[str, int] | None = None):
        """The locator of the first component whose vertex set satisfies
        ``holds``, among the concrete ones and the class member of the given
        family copy; None if none does."""
        locs = [("concrete", k) for k in range(len(self.concretes))]
        if copy is not None and (cl := self.class_for(copy[0])) and copy[1] in cl.indices:
            locs.append(("class", self.class_index(copy[0]), copy[1]))
        return next((loc for loc in locs if holds(self.vertices(loc))), None)

    def locate_vertex(self, v: Vertex):
        """The locator of the component holding v."""
        if v in self.removed:
            raise ValueError(f"{v} was removed")
        loc = self.locate(lambda vs: v in vs, v[1:3] if v[0] == "fam" else None)
        if loc is None:
            raise ValueError(f"{v} not found in any component")
        return loc

    # -- selections --------------------------------------------------------

    def selection(self, concretes=(), class_parts=None) -> "ComponentSelection":
        chosen = set(concretes)
        flags = tuple(k in chosen for k in range(len(self.concretes)))
        class_parts = class_parts or {}
        parts = tuple(
            class_parts.get(c.family, SemilinearSet.empty()) & c.indices for c in self.classes
        )
        return ComponentSelection(self, flags, parts)

    def select_none(self) -> "ComponentSelection":
        return self.selection()

    def select_all(self) -> "ComponentSelection":
        return self.selection().complement()

    def partition_by(self, inside: SymVertexSet) -> "ComponentSelection":
        """Selection of the components lying wholly inside ``inside``.

        Raises if a concrete component is only partially covered, or if a
        class splits along a non-semilinear boundary (cannot happen for
        sets built by this library's algebra).
        """
        flags = []
        for c in self.concretes:
            if c.vertices.issubset(inside):
                flags.append(True)
            elif c.vertices.isdisjoint(inside):
                flags.append(False)
            else:
                raise ValueError("concrete component straddles the given set")
        parts = []
        for cl in self.classes:
            ins = cl.indices & inside.full_copy_indices(cl.family)
            parts.append(ins)
        return ComponentSelection(self, tuple(flags), tuple(parts))


@dataclass(frozen=True)
class ComponentSelection:
    """A sub-collection of the components of a ComponentSet."""

    cs: ComponentSet = field(compare=False, repr=False)
    concrete_flags: tuple[bool, ...]
    class_parts: tuple[SemilinearSet, ...]

    def _combine(self, other, flag_op, part_op) -> "ComponentSelection":
        if self.cs is not other.cs and self.cs != other.cs:
            raise ValueError("selections over different component sets")
        return ComponentSelection(
            self.cs,
            tuple(map(flag_op, self.concrete_flags, other.concrete_flags)),
            tuple(map(part_op, self.class_parts, other.class_parts)),
        )

    def union(self, other):
        return self._combine(other, operator.or_, operator.or_)

    def intersection(self, other):
        return self._combine(other, operator.and_, operator.and_)

    def difference(self, other):
        return self._combine(other, lambda a, b: a and not b, operator.sub)

    def complement(self):
        return ComponentSelection(
            self.cs,
            tuple(not f for f in self.concrete_flags),
            tuple(c.indices - p for c, p in zip(self.cs.classes, self.class_parts)),
        )

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    @property
    def is_empty(self) -> bool:
        return not any(self.concrete_flags) and all(p.is_empty for p in self.class_parts)

    @property
    def is_all(self) -> bool:
        return all(self.concrete_flags) and all(
            (c.indices - p).is_empty for c, p in zip(self.cs.classes, self.class_parts)
        )

    @property
    def count_is_finite(self) -> bool:
        """Whether the selection contains finitely many components."""
        return all(p.is_finite for p in self.class_parts)

    def count(self) -> int:
        if not self.count_is_finite:
            raise ValueError("infinitely many components selected")
        n = sum(1 for f in self.concrete_flags if f)
        return n + sum(p.count_below(p.bound) for p in self.class_parts)

    def union_vertices(self) -> SymVertexSet:
        sets = [
            c.vertices
            for c, f in zip(self.cs.concretes, self.concrete_flags)
            if f
        ]
        sets += [
            SymVertexSet.whole_copies(self.cs.schema, c.family, p)
            for c, p in zip(self.cs.classes, self.class_parts)
            if not p.is_empty
        ]
        return union_all(self.cs.schema, sets)

    def contains_component(self, loc) -> bool:
        """Membership for a ``locate_vertex``-style component reference."""
        if loc[0] == "concrete":
            return self.concrete_flags[loc[1]]
        return loc[2] in self.class_parts[loc[1]]

    def text(self) -> str:
        items = [f"c{k}" for k, f in enumerate(self.concrete_flags) if f]
        items += [
            f"{c.family}{p.text()}"
            for c, p in zip(self.cs.classes, self.class_parts)
            if not p.is_empty
        ]
        return "{" + ",".join(items) + "}"

    @classmethod
    def parse(cls, cs: ComponentSet, text: str) -> "ComponentSelection":
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"bad selection text {text!r}")
        body = text[1:-1].strip()
        flags = [False] * len(cs.concretes)
        parts = {c.family: SemilinearSet.empty() for c in cs.classes}
        # split on commas not inside braces
        items, depth, cur = [], 0, ""
        for ch in body:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            if ch == "," and depth == 0:
                items.append(cur)
                cur = ""
            else:
                cur += ch
        if cur.strip():
            items.append(cur)
        for item in items:
            item = item.strip()
            if not item:
                continue
            if item.startswith("c") and item[1:].isdigit():
                k = int(item[1:])
                if k >= len(flags):
                    raise ValueError(f"no concrete component {item!r}")
                flags[k] = True
            elif "{" in item:
                fam, sls = item.split("{", 1)
                if fam not in parts:
                    raise ValueError(f"no component class {fam!r}")
                parts[fam] |= SemilinearSet.parse("{" + sls)
            else:
                raise ValueError(f"bad selection item {item!r}")
        return cs.selection(
            concretes=[k for k, f in enumerate(flags) if f], class_parts=parts
        )


# -- the quotient computation -------------------------------------------------


def components(schema: SchemaGraph, X) -> ComponentSet:
    """The components of the schema graph minus the finite explicit set X."""
    X = schema.check_vertices(X)
    cache = schema._component_cache
    if X in cache:
        return cache[X]

    m_ray = {r.name: -1 for r in schema.rays}
    t_fam = {f.name: -1 for f in schema.families}
    leg_pos: dict[tuple[str, int], int] = {}
    deleted_cliq: dict[str, set[int]] = {c.name: set() for c in schema.cliques}
    for v in X:
        match v:
            case ("ray", n, p):
                m_ray[n] = max(m_ray[n], p)
            case ("fam", n, i, pv):
                t_fam[n] = max(t_fam[n], i)
                if schema.family_spec(n).is_ray_family:
                    key = (n, i)
                    leg_pos[key] = max(leg_pos.get(key, -1), pv)
            case ("cliq", n, i):
                deleted_cliq[n].add(i)

    # aligned families tie their bound to the explicit prefix of their rays
    changed = True
    while changed:
        changed = False
        for f in schema.families:
            if not f.ray_attach:
                continue
            b = max([t_fam[f.name]] + [m_ray[rn] for rn in schema.aligned_rays(f)])
            if b > t_fam[f.name]:
                t_fam[f.name] = b
                changed = True
            for rn in schema.aligned_rays(f):
                if b > m_ray[rn]:
                    m_ray[rn] = b
                    changed = True

    size = len(schema.core.vertices) + sum(m + 1 for m in m_ray.values())
    size += sum(m + 1 for m in leg_pos.values())
    for f in schema.families:
        size += (t_fam[f.name] + 1) * (1 if f.is_ray_family else len(f.pattern_vertices()))
    if size > QUOTIENT_CAP:
        raise ResourceGuardError(
            f"quotient of {size} explicit nodes exceeds the cap of {QUOTIENT_CAP}"
        )

    adj: dict[object, set] = {}
    vsets: dict[object, SymVertexSet] = {}  # explicit ("v", v) nodes carry none

    def add_node(n, vset=None):
        if n not in adj:
            adj[n] = set()
            if vset is not None:
                vsets[n] = vset

    def add_edge(a, b):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)

    def vnode(v: Vertex):
        return ("v", v)

    for x in schema.core.vertices:
        add_node(vnode(("core", x)))
    for u, v in schema.core.edges:
        add_edge(vnode(("core", u)), vnode(("core", v)))

    for r in schema.rays:
        m = m_ray[r.name]
        for p in range(m + 1):
            add_node(vnode(("ray", r.name, p)))
            if p > 0:
                add_edge(vnode(("ray", r.name, p - 1)), vnode(("ray", r.name, p)))
        tail = ("rtail", r.name)
        add_node(tail, SymVertexSet.ray_tail(schema, r.name, m + 1))
        if m >= 0:
            add_edge(vnode(("ray", r.name, m)), tail)
        if r.hub is not None:
            hub = vnode(("core", r.hub))
            add_edge(hub, vnode(("ray", r.name, 0)) if m >= 0 else tail)

    for f in schema.families:
        bound = t_fam[f.name] + 1
        cls_node = ("fclass", f.name)
        add_node(
            cls_node, SymVertexSet.whole_copies(schema, f.name, SemilinearSet.from_(bound))
        )
        for c, pv in f.core_attach:
            if f.is_ray_family and pv != 0:
                continue
            add_edge(vnode(("core", c)), cls_node)
        for rn, pv in f.ray_attach:
            add_edge(("rtail", rn), cls_node)
        for i in range(bound):
            if f.is_ray_family:
                m = leg_pos.get((f.name, i), -1)
                for p in range(m + 1):
                    vv = ("fam", f.name, i, p)
                    add_node(vnode(vv))
                    if p > 0:
                        add_edge(vnode(("fam", f.name, i, p - 1)), vnode(vv))
                tail = ("ftail", f.name, i)
                add_node(tail, SymVertexSet.copy_tail(schema, f.name, i, m + 1))
                if m >= 0:
                    add_edge(vnode(("fam", f.name, i, m)), tail)
                for c, _ in f.core_attach:
                    hub = vnode(("core", c))
                    add_edge(hub, vnode(("fam", f.name, i, 0)) if m >= 0 else tail)
            else:
                for pv in f.pattern_vertices():
                    add_node(vnode(("fam", f.name, i, pv)))
                for u, v in f.pattern.edges:
                    add_edge(vnode(("fam", f.name, i, u)), vnode(("fam", f.name, i, v)))
                for c, pv in f.core_attach:
                    add_edge(vnode(("core", c)), vnode(("fam", f.name, i, pv)))
                for rn, pv in f.ray_attach:
                    # copy i binds to ray position i, explicit because i <= m_ray
                    add_edge(vnode(("ray", rn, i)), vnode(("fam", f.name, i, pv)))

    for c in schema.cliques:
        rest = _NAT - SemilinearSet.make(deleted_cliq[c.name])
        node = ("crem", c.name)
        add_node(node, SymVertexSet.clique_part(schema, c.name, rest))
        for cv in c.attach:
            add_edge(vnode(("core", cv)), node)

    removed_nodes = {vnode(v) for v in X}
    seen = set(removed_nodes)
    comps: list[list] = []
    for start in adj:
        if start in seen:
            continue
        stack, comp = [start], [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(comp)

    concretes: list[Concrete] = []
    classes: list[FamilyClass] = []
    for comp in comps:
        if len(comp) == 1 and comp[0][0] == "fclass":
            fname = comp[0][1]
            indices = SemilinearSet.from_(t_fam[fname] + 1)
            classes.append(FamilyClass(fname, indices, frozenset(y[1] for y in adj[comp[0]])))
        else:
            explicit = SymVertexSet.of(schema, [n[1] for n in comp if n[0] == "v"])
            parts = [n for n in comp if n[0] != "v"]
            vs = union_all(schema, [explicit] + [vsets[n] for n in parts])
            if not vs.is_empty:
                hubs = [n for n in parts if n[0] in ("fclass", "crem")]
                near = tuple({y[1] for n in hubs for y in adj[n] if y[0] == "v"})
                cliques = tuple(n[1] for n in hubs if n[0] == "crem")
                concretes.append(Concrete(vs, near, cliques))

    concretes.sort(key=lambda c: c.vertices.text())
    classes.sort(key=lambda c: c.family)
    cs = ComponentSet(schema, X, tuple(concretes), tuple(classes))
    cache[X] = cs
    return cs


def core_components(schema: SchemaGraph) -> ComponentSet:
    """The components at the core level, the level of every core vertex.

    Deleting the core detaches every family attached to the core alone, so
    the infinite classes here are exactly the families whose copies split
    off at some finite level, the least such level being ``attach``.  No
    other part is cut, so each concrete component holds exactly one end.
    """
    return components(schema, {("core", c) for c in schema.core.vertices})
