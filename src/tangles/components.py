"""Exact components of (schema minus finite vertex set), with selections.

Deleting a finite explicit set X from a schema graph leaves finitely many
describable components: each is either a single symbolic vertex set
(``Concrete``) or an indexed class of pairwise disconnected, isomorphic,
identically attached family copies (``FamilyClass``, one component per
index).

The computation works on a finite quotient graph.  Its nodes are the
explicit vertices near X themselves, and four kinds of part node: one
tail per ray (``rtail``) and per touched ray-family copy (``ftail``), one
node per untouched copy class (``fclass``) and one remainder per clique
(``crem``).  A copy class splits into per-index components exactly when
its node is isolated after deleting X; the walk starts with X seen.  A
part node carries a raw part (``SymVertexSet.ray_tail_part`` and its
siblings: canonical slot patterns; a ray-family tail is its copy's bit
and its leg's positions).  One assembler builds every vertex set, here
and in ``SymVertexSet.of``: it reads a component's nodes in one pass
(``SymVertexSet.assemble``).  Concretes are ordered by their text,
compared on first bits where those decide it (``_text_order``).

Each concrete keeps the nodes its walk collected; ``ComponentSet.locate``
looks a vertex or a node up among them.  A ray position past the explicit
prefix goes to ``("rtail", R)``, a clique vertex to ``("crem", K)``, and a
family vertex or ``("ftail", F, i)`` to copy i's tail where that node exists,
else to class member i where F's class survives, else to ``("fclass", F)``.
For X inside X' the bounds of X' (ray prefixes, copy counts, leg prefixes)
are at least those of X, so each node of X' lies inside one node or
component of X: ``locate`` of a node of X' is the restriction map.

This module is the one place that reads how parts attach.  Each class
records ``attach``, the neighbourhood of every copy (its node's quotient
neighbours).  Each concrete component records the explicit neighbours of
its class and clique nodes and the cliques it holds, from which
``ComponentSet.dominators`` gives the vertices with infinitely many
neighbours in it.  At the core level (``core_components``) the infinite
classes are the critical vertex sets of the graph, the sets X with
infinitely many components of G - X whose neighbourhood is exactly X, and
every concrete component holds exactly one end.  The quotient's readers:
``SchemaGraph._check_connected`` (the empty level leaves one component);
at the core level ``infinite_tangles.end_catalogue`` (one end per concrete
component and per copy of a ray-family class), ``critical_classes`` (the
witnesses and ultrafilter classes), ``classify`` and ``tangle_from_limit``
(the induced ultrafilter), ``topology.kernel`` and
``blocks.infinite_blocks`` (dominators); at any level, through ``locate``,
``end_component``, ``induced_by_core``, ``restrict_ultrafilter`` and
``principal_at_vertex``.

A level is validated here and nowhere else: ``components()`` checks X on a
cache miss, and a hit trusts only a level with int or str indices, since
only checked levels are cached.  Separations, basic opens, ultrafilters and
limits take their level from ``components()`` and store ``cs.removed``.
``parse_at_level`` reads the level and the selection of a separation's or a
basic open's text.
"""

from __future__ import annotations

import operator
import re
from itertools import chain, zip_longest
from dataclasses import dataclass, field

from .semilinear import ResourceGuardError, SemilinearSet, from_pattern, parse_nat, text_patterns
from .schema import SchemaGraph, Vertex, parse_level
from .symsets import SymVertexSet, union_all

_NAT = SemilinearSet.naturals()
# index types a cache hit trusts: an index equal to a valid one is valid
# only if it is an int or str itself (1.0 == 1 is no position)
_INDEX_TYPES = (int, str)
_SELECTION_PUNCT = re.compile(r"[{},]")

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
    nodes: tuple = field(compare=False)  # its quotient nodes, in walk order


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
    # node -> concrete locator, filled by the first ``locate``
    _where: dict = field(default_factory=dict, compare=False, repr=False)

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

    def node(self, loc) -> tuple:
        """A quotient node inside the component a locator names: a concrete's
        first node, or the tail of a class member's copy."""
        if loc[0] == "concrete":
            return self.concretes[loc[1]].nodes[0]
        return ("ftail", self.classes[loc[1]].family, loc[2])

    def locate(self, x):
        """The locator of the component holding ``x``: a vertex not removed,
        or a quotient node of this level or of a finer one."""
        if x in self.removed:
            raise ValueError(f"{x} was removed")
        where = self._where
        if not where:
            for k, c in enumerate(self.concretes):
                where.update(dict.fromkeys(c.nodes, ("concrete", k)))
        if x in where:  # a node of this level's concretes
            return where[x]
        if x[0] in ("ray", "cliq"):
            return where[("rtail" if x[0] == "ray" else "crem", x[1])]
        # a family vertex or a copy's tail
        if (tail := ("ftail", x[1], x[2])) in where:
            return where[tail]
        if self.class_for(x[1]) is not None:
            return ("class", self.class_index(x[1]), x[2])
        return where[("fclass", x[1])]

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

    def union_vertices(self, *extra: SymVertexSet) -> SymVertexSet:
        """The vertices of the selected components and of ``extra``, in one union."""
        sets = [*extra]
        sets += [c.vertices for c, f in zip(self.cs.concretes, self.concrete_flags) if f]
        sets += [
            SymVertexSet.whole_copies(self.cs.schema, c.family, p)
            for c, p in zip(self.cs.classes, self.class_parts)
            if not p.is_empty
        ]
        return union_all(self.cs.schema, sets)

    def contains_component(self, loc) -> bool:
        """Whether the component a locator names is selected."""
        if loc[0] == "concrete":
            return self.concrete_flags[loc[1]]
        return loc[2] in self.class_parts[loc[1]]

    def _text_chunks(self):
        """The text form in pieces, index sets item by item."""
        yield "{"
        sep = ""
        for k, f in enumerate(self.concrete_flags):
            if f:
                yield f"{sep}c{k}"
                sep = ","
        for c, p in zip(self.cs.classes, self.class_parts):
            if not p.is_empty:
                yield f"{sep}{c.family}{{"
                sep = ","
                for j, item in enumerate(p.items()):
                    yield "," + item if j else item
                yield "}"
        yield "}"

    def text(self) -> str:
        return "".join(self._text_chunks())

    def text_le(self, other: "ComponentSelection") -> bool:
        """``self.text() <= other.text()``, reading both texts only up to
        their first difference."""
        mine, theirs = (chain.from_iterable(s._text_chunks()) for s in (self, other))
        for x, y in zip_longest(mine, theirs):
            if x != y:
                return x is None or (y is not None and x < y)
        return True

    @classmethod
    def parse(cls, cs: ComponentSet, text: str) -> "ComponentSelection":
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"bad selection text {text!r}")
        body = text[1:-1].strip()
        flags = [False] * len(cs.concretes)
        raw = {c.family: [] for c in cs.classes}  # each family's item patterns
        # split on commas not inside braces, visiting only the punctuation
        items, depth, start = [], 0, 0
        for m in _SELECTION_PUNCT.finditer(body):
            if m.group() == "{":
                depth += 1
            elif m.group() == "}":
                depth -= 1
            elif depth == 0:
                items.append(body[start : m.start()])
                start = m.end()
        items.append(body[start:])
        for item in items:
            item = item.strip()
            if not item:
                continue
            if "{" in item:
                fam, sls = item.split("{", 1)
                if fam not in raw:
                    raise ValueError(f"no component class {fam!r}")
                raw[fam] += text_patterns("{" + sls)
            elif item.startswith("c"):
                k = parse_nat(item[1:], "concrete component number")
                if k >= len(flags):
                    raise ValueError(f"no concrete component {item!r}")
                flags[k] = True
            else:
                raise ValueError(f"bad selection item {item!r}")
        parts = {fam: SemilinearSet.union_patterns(ps) for fam, ps in raw.items() if ps}
        return cs.selection(
            concretes=[k for k, f in enumerate(flags) if f], class_parts=parts
        )


# -- the quotient computation -------------------------------------------------


def components(schema: SchemaGraph, X) -> ComponentSet:
    """The components of the schema graph minus the finite explicit set X."""
    X = frozenset(X)
    cache = schema._component_cache
    # only valid levels are cached
    if X in cache and all(type(i) in _INDEX_TYPES for v in X for i in v[2:]):
        return cache[X]
    schema.check_vertices(X)

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

    # explicit vertices are their own nodes; the part nodes ("rtail", R),
    # ("fclass", F), ("ftail", F, i) and ("crem", K) are keys of ``parts``
    nodes = [("core", x) for x in schema.core.vertices]
    edges = [(("core", u), ("core", v)) for u, v in schema.core.edges]
    parts: dict[tuple, tuple] = {}

    for r in schema.rays:
        m = m_ray[r.name]
        tail = ("rtail", r.name)
        parts[tail] = SymVertexSet.ray_tail_part(r.name, m + 1)
        path = [("ray", r.name, p) for p in range(m + 1)] + [tail]
        nodes += path
        edges += zip(path, path[1:])
        if r.hub is not None:
            edges.append((("core", r.hub), path[0]))

    for f in schema.families:
        bound = t_fam[f.name] + 1
        cls_node = ("fclass", f.name)
        nodes.append(cls_node)
        parts[cls_node] = SymVertexSet.copies_part(schema, f.name, bound)
        edges += [(("core", c), cls_node) for c, _ in f.core_attach]
        edges += [(("rtail", rn), cls_node) for rn, _ in f.ray_attach]
        if f.is_ray_family:
            for i in range(bound):
                tail = ("ftail", f.name, i)
                m = leg_pos.get((f.name, i), -1)
                parts[tail] = SymVertexSet.copy_tail_part(f.name, i, m + 1)
                path = [("fam", f.name, i, p) for p in range(m + 1)] + [tail]
                nodes += path
                edges += zip(path, path[1:])
                edges += [(("core", c), path[0]) for c, _ in f.core_attach]
        else:
            n, copies, pvs = f.name, range(bound), f.pattern_vertices()
            nodes += [("fam", n, i, pv) for i in copies for pv in pvs]
            edges += [(("fam", n, i, u), ("fam", n, i, v)) for i in copies for u, v in f.pattern.edges]
            edges += [(("core", c), ("fam", n, i, pv)) for i in copies for c, pv in f.core_attach]
            # copy i binds to ray position i, explicit because i <= m_ray
            edges += [(("ray", rn, i), ("fam", n, i, pv)) for i in copies for rn, pv in f.ray_attach]

    for c in schema.cliques:
        node = ("crem", c.name)
        nodes.append(node)
        parts[node] = SymVertexSet.clique_rest_part(c.name, deleted_cliq[c.name])
        edges += [(("core", cv), node) for cv in c.attach]

    adj: dict[tuple, list] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set(X)
    concretes: list[Concrete] = []
    classes: list[FamilyClass] = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for x in comp:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        if len(comp) == 1 and start[0] == "fclass":
            indices = SemilinearSet(*from_pattern(t_fam[start[1]] + 1))
            classes.append(FamilyClass(start[1], indices, frozenset(adj[start])))
            continue
        vs = SymVertexSet.assemble(schema, comp, parts)
        if not vs.is_empty:
            hubs = [n for n in comp if n[0] in ("fclass", "crem")]
            near = tuple({y for n in hubs for y in adj[n] if y not in parts})
            cliques = tuple(n[1] for n in hubs if n[0] == "crem")
            concretes.append(Concrete(vs, near, cliques, tuple(comp)))

    if len(concretes) > 1:
        concretes = _text_order(concretes)
    classes.sort(key=lambda c: c.family)
    cs = ComponentSet(schema, X, tuple(concretes), tuple(classes))
    cache[X] = cs
    return cs


def _text_order(concretes: list[Concrete]) -> list[Concrete]:
    """The concretes sorted by the text of their vertex sets.

    Texts whose first bits differ, neither a prefix of the other, compare as
    those bits do, so whole texts are built only when two first bits are
    equal or one is a prefix of another; after sorting on first bits, that
    shows in a pair of neighbours.
    """
    keyed = sorted(
        ((c.vertices.first_text_bit(), c) for c in concretes), key=operator.itemgetter(0)
    )
    if any(b.startswith(a) for (a, _), (b, _) in zip(keyed, keyed[1:])):
        return sorted(concretes, key=lambda c: c.vertices.text())
    return [c for _, c in keyed]


def parse_at_level(schema: SchemaGraph, text: str, pattern: re.Pattern, what: str):
    """The level and the selection a text names: ``pattern`` matches the
    level's vertex texts as its first group and the selection as its second.
    Returns ``(cs.removed, selection)``."""
    m = pattern.match(text.strip())
    if not m:
        raise ValueError(f"bad {what} text {text!r}")
    cs = components(schema, parse_level(schema, m.group(1)))
    return cs.removed, ComponentSelection.parse(cs, m.group(2))


def core_components(schema: SchemaGraph) -> ComponentSet:
    """The components at the core level, the level of every core vertex.

    Deleting the core detaches every family attached to the core alone, so
    the infinite classes here are exactly the families whose copies split
    off at some finite level, the least such level being ``attach``.  No
    other part is cut, so each concrete component holds exactly one end.
    """
    return components(schema, {("core", c) for c in schema.core.vertices})
