"""Symbolic vertex sets over a schema, closed under exact boolean algebra.

A set is the disjoint union of
* a finite set of core vertices,
* per single ray, a semilinear set of positions,
* per clique, a semilinear set of indices,
* per family, a semilinear set of *fully included* copies plus finite
  exception sets: ``fam_plus`` holds vertices of partially included
  copies, ``fam_minus`` holds the finitely many holes inside included
  ray-family copies.

Canonical form: for finite patterns, partially included copies always use
``fam_plus`` (so ``fam_whole`` names exactly the full copies); for ray
families an included copy missing finitely many positions stays in
``fam_whole`` with the holes in ``fam_minus``.  Membership precedence is
plus > minus > whole.  Equality of canonical forms decides set equality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

from .semilinear import SemilinearSet
from .schema import SchemaGraph, Vertex, vertex_sort_key, vertex_text

_EMPTY = SemilinearSet.empty()


def _as_items(mapping) -> tuple:
    items = mapping.items() if isinstance(mapping, dict) else mapping
    return tuple(sorted((n, s) for n, s in items if not s.is_empty))


@dataclass(frozen=True)
class SymVertexSet:
    schema: SchemaGraph = field(compare=False, repr=False)
    core: frozenset[str]
    ray_pos: tuple[tuple[str, SemilinearSet], ...]
    cliq_idx: tuple[tuple[str, SemilinearSet], ...]
    fam_whole: tuple[tuple[str, SemilinearSet], ...]
    fam_plus: frozenset[Vertex]
    fam_minus: frozenset[Vertex]

    # -- construction ----------------------------------------------------

    @classmethod
    def make(
        cls,
        schema: SchemaGraph,
        core=(),
        ray_pos=(),
        cliq_idx=(),
        fam_whole=(),
        fam_plus=(),
        fam_minus=(),
    ) -> "SymVertexSet":
        core = frozenset(core)
        whole = dict(_as_items(fam_whole))
        plus = set(fam_plus)
        minus = set(fam_minus)
        if plus & minus:
            raise ValueError("fam_plus and fam_minus overlap")
        # drop redundant exceptions
        plus = {v for v in plus if v[2] not in whole.get(v[1], _EMPTY)}
        minus = {v for v in minus if v[2] in whole.get(v[1], _EMPTY)}
        # canonicalise per family
        for f in schema.families:
            name = f.name
            w = whole.get(name, _EMPTY)
            if f.is_ray_family:
                # full-copy promotion impossible (copies are infinite)
                continue
            pvs = set(f.pattern.vertices)
            # demote whole copies with holes to plus representation
            holed = {v[2] for v in minus if v[1] == name}
            for i in sorted(holed):
                copy_minus = {v for v in minus if v[1] == name and v[2] == i}
                minus -= copy_minus
                w = w - SemilinearSet.of(i)
                plus |= {("fam", name, i, pv) for pv in pvs} - {
                    ("fam", name, i, pv) for pv in (v[3] for v in copy_minus)
                }
            # promote plus copies that are complete
            by_copy: dict[int, set] = {}
            for v in plus:
                if v[1] == name:
                    by_copy.setdefault(v[2], set()).add(v[3])
            for i, got in by_copy.items():
                if got == pvs:
                    w = w | SemilinearSet.of(i)
                    plus -= {("fam", name, i, pv) for pv in pvs}
            if w.is_empty:
                whole.pop(name, None)
            else:
                whole[name] = w
        return cls(
            schema,
            core,
            _as_items(ray_pos),
            _as_items(cliq_idx),
            _as_items(whole),
            frozenset(plus),
            frozenset(minus),
        )

    @classmethod
    def empty(cls, schema: SchemaGraph) -> "SymVertexSet":
        return cls.make(schema)

    @classmethod
    def all_vertices(cls, schema: SchemaGraph) -> "SymVertexSet":
        nat = SemilinearSet.naturals()
        return cls.make(
            schema,
            core=schema.core.vertices,
            ray_pos={r.name: nat for r in schema.rays},
            cliq_idx={c.name: nat for c in schema.cliques},
            fam_whole={f.name: nat for f in schema.families},
        )

    @classmethod
    def of(cls, schema: SchemaGraph, vertices) -> "SymVertexSet":
        core, plus = set(), set()
        rays: dict[str, set[int]] = {}
        cliqs: dict[str, set[int]] = {}
        for v in schema.check_vertices(vertices):
            match v:
                case ("core", x):
                    core.add(x)
                case ("ray", n, p):
                    rays.setdefault(n, set()).add(p)
                case ("cliq", n, i):
                    cliqs.setdefault(n, set()).add(i)
                case ("fam", *_):
                    plus.add(v)
        return cls.make(
            schema,
            core=core,
            ray_pos={n: SemilinearSet.make(ps) for n, ps in rays.items()},
            cliq_idx={n: SemilinearSet.make(ps) for n, ps in cliqs.items()},
            fam_plus=plus,
        )

    @classmethod
    def ray_tail(cls, schema: SchemaGraph, ray: str, from_pos: int) -> "SymVertexSet":
        return cls.make(schema, ray_pos={ray: SemilinearSet.from_(from_pos)})

    @classmethod
    def whole_copies(cls, schema: SchemaGraph, fam: str, indices: SemilinearSet) -> "SymVertexSet":
        return cls.make(schema, fam_whole={fam: indices})

    @classmethod
    def copy_tail(cls, schema: SchemaGraph, fam: str, copy: int, from_pos: int) -> "SymVertexSet":
        """A ray-family copy minus its first ``from_pos`` positions."""
        f = schema.family_spec(fam)
        if not f.is_ray_family:
            raise ValueError(f"{fam} is not a ray family")
        return cls.make(
            schema,
            fam_whole={fam: SemilinearSet.of(copy)},
            fam_minus={("fam", fam, copy, p) for p in range(from_pos)},
        )

    @classmethod
    def clique_part(cls, schema: SchemaGraph, clique: str, indices: SemilinearSet) -> "SymVertexSet":
        return cls.make(schema, cliq_idx={clique: indices})

    # -- lookups ---------------------------------------------------------

    @cached_property
    def _ray(self) -> dict[str, SemilinearSet]:
        return dict(self.ray_pos)

    @cached_property
    def _cliq(self) -> dict[str, SemilinearSet]:
        return dict(self.cliq_idx)

    @cached_property
    def _whole(self) -> dict[str, SemilinearSet]:
        return dict(self.fam_whole)

    def ray_set(self, name: str) -> SemilinearSet:
        return self._ray.get(name, _EMPTY)

    def cliq_set(self, name: str) -> SemilinearSet:
        return self._cliq.get(name, _EMPTY)

    def whole_set(self, name: str) -> SemilinearSet:
        return self._whole.get(name, _EMPTY)

    def __contains__(self, v: Vertex) -> bool:
        match v:
            case ("core", x):
                return x in self.core
            case ("ray", n, p):
                return p in self.ray_set(n)
            case ("cliq", n, i):
                return i in self.cliq_set(n)
            case ("fam", n, i, _):
                if v in self.fam_plus:
                    return True
                if v in self.fam_minus:
                    return False
                return i in self.whole_set(n)
        return False

    @property
    def is_empty(self) -> bool:
        return (
            not self.core
            and not self.ray_pos
            and not self.cliq_idx
            and not self.fam_whole
            and not self.fam_plus
        )

    @property
    def is_finite(self) -> bool:
        if any(not s.is_finite for _, s in self.ray_pos):
            return False
        if any(not s.is_finite for _, s in self.cliq_idx):
            return False
        for name, s in self.fam_whole:
            if self.schema.family_spec(name).is_ray_family:
                return False  # any whole ray copy is infinite
            if not s.is_finite:
                return False
        return True

    @property
    def is_infinite(self) -> bool:
        return not self.is_finite

    def full_copy_indices(self, fam: str) -> SemilinearSet:
        """Indices whose copy is included with no holes."""
        holed = {v[2] for v in self.fam_minus if v[1] == fam}
        w = self.whole_set(fam)
        return w - SemilinearSet.make(holed) if holed else w

    def copy_cofinitely_in(self, fam: str, copy: int) -> bool:
        return copy in self.whole_set(fam)

    # -- algebra ---------------------------------------------------------

    def _check(self, other: "SymVertexSet"):
        if self.schema is not other.schema:
            raise ValueError("sets over different schemas")

    def _merge(self, other: "SymVertexSet", op) -> "SymVertexSet":
        """Apply ``op`` (``operator.or_``, ``and_`` or ``sub``) part by part."""
        self._check(other)
        rays = {n: op(self.ray_set(n), other.ray_set(n)) for n in _names(self, other, "ray_pos")}
        cliqs = {n: op(self.cliq_set(n), other.cliq_set(n)) for n in _names(self, other, "cliq_idx")}
        whole = {n: op(self.whole_set(n), other.whole_set(n)) for n in _names(self, other, "fam_whole")}
        loose = self.fam_plus | self.fam_minus | other.fam_plus | other.fam_minus
        inside = op({v for v in loose if v in self}, {v for v in loose if v in other})
        return _assemble(self.schema, op(self.core, other.core), rays, cliqs, whole, loose, inside)

    def union(self, other: "SymVertexSet") -> "SymVertexSet":
        return self._merge(other, operator.or_)

    def intersection(self, other: "SymVertexSet") -> "SymVertexSet":
        return self._merge(other, operator.and_)

    def difference(self, other: "SymVertexSet") -> "SymVertexSet":
        return self._merge(other, operator.sub)

    def complement(self) -> "SymVertexSet":
        sch = self.schema
        nat = SemilinearSet.naturals()
        return SymVertexSet.make(
            sch,
            core=sch.core.vertices - self.core,
            ray_pos={r.name: self.ray_set(r.name).complement() for r in sch.rays},
            cliq_idx={c.name: self.cliq_set(c.name).complement() for c in sch.cliques},
            fam_whole={f.name: (nat - self.whole_set(f.name)) for f in sch.families},
            fam_plus=self.fam_minus,
            fam_minus=self.fam_plus,
        )

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def issubset(self, other: "SymVertexSet") -> bool:
        return self.difference(other).is_empty

    def isdisjoint(self, other: "SymVertexSet") -> bool:
        return self.intersection(other).is_empty

    # -- materialisation ---------------------------------------------------

    def to_explicit(self) -> list[Vertex]:
        """All vertices; requires the set to be finite."""
        if not self.is_finite:
            raise ValueError("set is infinite")
        out: list[Vertex] = [("core", x) for x in self.core]
        for n, s in self.ray_pos:
            out += [("ray", n, p) for p in s.elements_below(s.bound)]
        for n, s in self.cliq_idx:
            out += [("cliq", n, i) for i in s.elements_below(s.bound)]
        for n, s in self.fam_whole:
            f = self.schema.family_spec(n)
            for i in s.elements_below(s.bound):
                out += [("fam", n, i, pv) for pv in f.pattern_vertices()]
        out += list(self.fam_plus)
        return sorted(out, key=vertex_sort_key)

    def explicit_below(self, n: int) -> set[Vertex]:
        """Intersection with the depth-n truncation's vertex set."""
        out: set[Vertex] = {("core", x) for x in self.core}
        for name, s in self.ray_pos:
            out |= {("ray", name, p) for p in s.elements_below(n)}
        for name, s in self.cliq_idx:
            out |= {("cliq", name, i) for i in s.elements_below(n)}
        for name, s in self.fam_whole:
            f = self.schema.family_spec(name)
            for i in s.elements_below(n):
                if f.is_ray_family:
                    out |= {("fam", name, i, p) for p in range(n)}
                else:
                    out |= {("fam", name, i, pv) for pv in f.pattern_vertices()}
        for v in self.fam_plus:
            f = self.schema.family_spec(v[1])
            if v[2] < n and (not f.is_ray_family or v[3] < n):
                out.add(v)
        out -= set(self.fam_minus)
        return out

    def some_vertex(self) -> Vertex:
        """A deterministic representative element."""
        if self.core:
            return ("core", min(self.core))
        if self.fam_plus:
            return min(self.fam_plus, key=vertex_sort_key)
        for n, s in self.ray_pos:
            return ("ray", n, s.min_value())
        for n, s in self.fam_whole:
            f = self.schema.family_spec(n)
            i = s.min_value()
            if f.is_ray_family:
                p = 0
                while ("fam", n, i, p) in self.fam_minus:
                    p += 1
                return ("fam", n, i, p)
            for pv in f.pattern_vertices():
                return ("fam", n, i, pv)
        for n, s in self.cliq_idx:
            return ("cliq", n, s.min_value())
        raise ValueError("empty set")

    def text(self) -> str:
        bits = []
        if self.core:
            bits.append("core{" + ",".join(sorted(self.core)) + "}")
        for n, s in self.ray_pos:
            bits.append(f"ray:{n}{s.text()}")
        for n, s in self.fam_whole:
            bits.append(f"fam:{n}{s.text()}")
        for n, s in self.cliq_idx:
            bits.append(f"cliq:{n}{s.text()}")
        if self.fam_plus:
            bits.append("+{" + ",".join(sorted(map(vertex_text, self.fam_plus))) + "}")
        if self.fam_minus:
            bits.append("-{" + ",".join(sorted(map(vertex_text, self.fam_minus))) + "}")
        return " ".join(bits) if bits else "{}"

    def __repr__(self) -> str:
        return f"SymVertexSet({self.text()})"


def _names(a: SymVertexSet, b: SymVertexSet, part: str) -> set[str]:
    return {n for n, _ in getattr(a, part)} | {n for n, _ in getattr(b, part)}


def _assemble(sch, core, rays, cliqs, whole, loose, inside) -> SymVertexSet:
    """The set with these parts, whose vertices of ``loose`` copies are
    members exactly when they lie in ``inside``."""
    plus, minus = set(), set()
    for v in loose:
        if v[2] in whole.get(v[1], _EMPTY):
            if v not in inside:
                minus.add(v)
        elif v in inside:
            plus.add(v)
    return SymVertexSet.make(
        sch, core=core, ray_pos=rays, cliq_idx=cliqs, fam_whole=whole,
        fam_plus=plus, fam_minus=minus,
    )


def union_all(schema: SchemaGraph, sets) -> SymVertexSet:
    """The union of any number of sets: one n-ary index-set union per part."""
    sets = list(sets)
    if any(s.schema is not schema for s in sets):
        raise ValueError("sets over different schemas")

    def gather(part: str) -> dict[str, SemilinearSet]:
        by_name: dict[str, list[SemilinearSet]] = {}
        for s in sets:
            for n, x in getattr(s, part):
                by_name.setdefault(n, []).append(x)
        return {n: SemilinearSet.union_all(xs) for n, xs in by_name.items()}

    loose = frozenset().union(*(s.fam_plus | s.fam_minus for s in sets))
    inside = {v for v in loose if any(v in s for s in sets)}
    core = frozenset().union(*(s.core for s in sets))
    return _assemble(
        schema, core, gather("ray_pos"), gather("cliq_idx"), gather("fam_whole"), loose, inside
    )
