"""Symbolic vertex sets over a schema, closed under exact boolean algebra.

A set is stored as three things:

* ``core``, the finite set of its core vertices;
* ``slots``, one index set per slot, sorted by key, empty slots left out.
  The slots are ``("ray", R)`` (positions of ray R), ``("cliq", K)``
  (indices of clique K), ``("fam", F, pv)`` (the copies of a
  finite-pattern family F whose pattern vertex ``pv`` is a member) and
  ``("fam", F)`` (the copies of a ray family F that are members
  cofinitely);
* ``flips``, a finite set of ray-family vertices whose membership differs
  from their copy's slot: ``("fam", F, i, p)`` is a member exactly when
  ``(i in slot) != (vertex in flips)``.

Every other vertex is a member exactly when its index (position, clique
index or copy number) lies in its slot, so the form is canonical and
equality decides set equality.  Union, intersection, difference and
complement are one index-set operation per slot; only the flipped
vertices are looked up one by one.

``assemble`` builds a set from explicit vertices and raw parts in one pass:
a core vertex gives its name, a ray, clique or finite-family vertex one bit
of its slot's mask, a ray-family vertex a flip candidate, and a part its
slot patterns and holes.  A family's slot keys come from the schema's
``family_slots`` table.

The slots of one finite-pattern family differ in finitely many copies.
The text form prints the copies in all of a family's slots (its whole
copies) as ``fam:F{...}``, the other members of those slots and the
flips outside their copy's slot as ``+{...}``, and the holes of whole
ray-family copies as ``-{...}``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce

from .semilinear import SemilinearSet, all_but_pattern, from_pattern, guard_width, points_pattern
from .schema import SchemaGraph, Vertex, vertex_sort_key, vertex_text

_EMPTY = SemilinearSet.empty()


def _slot_key(schema: SchemaGraph, v: Vertex) -> tuple:
    """The slot of a non-core vertex; its index in the slot is ``v[2]``."""
    if v[0] == "fam" and not schema.family_spec(v[1]).is_ray_family:
        return ("fam", v[1], v[3])
    return v[:2]


def _holds_rays(key: tuple) -> bool:
    """Whether a slot holds the copies of a ray family."""
    return key[0] == "fam" and len(key) == 2


def _flips(slots: dict, loose, inside) -> frozenset[Vertex]:
    """The ray-family vertices of ``loose`` whose membership (lying in
    ``inside``) differs from their copy's slot."""
    if not loose:
        return frozenset()
    return frozenset(v for v in loose if (v in inside) != (v[2] in slots.get(v[:2], _EMPTY)))


@dataclass(frozen=True)
class SymVertexSet:
    schema: SchemaGraph = field(compare=False, repr=False)
    core: frozenset[str]
    slots: tuple[tuple[tuple, SemilinearSet], ...]
    flips: frozenset[Vertex]

    # -- construction ----------------------------------------------------

    @classmethod
    def _build(cls, schema: SchemaGraph, core, slots: dict, flips) -> "SymVertexSet":
        slots = sorted((k, s) for k, s in slots.items() if not s.is_empty)
        return cls(schema, frozenset(core), tuple(slots), frozenset(flips))

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
        """Core vertices, ray positions, clique indices and whole family
        copies by name, with the family vertices of ``fam_plus`` added and
        those of ``fam_minus`` removed."""
        plus, minus = frozenset(fam_plus), frozenset(fam_minus)
        if plus & minus:
            raise ValueError("fam_plus and fam_minus overlap")
        slots = {("ray", n): s for n, s in dict(ray_pos).items()}
        slots |= {("cliq", n): s for n, s in dict(cliq_idx).items()}
        for n, s in dict(fam_whole).items():
            slots |= dict.fromkeys(schema.family_slots[n], s)
        loose, edits = set(), {}
        for v in plus | minus:
            key = _slot_key(schema, v)
            if _holds_rays(key):
                loose.add(v)
            else:
                edits.setdefault(key, ([], []))[v in minus].append(v[2])
        for key, (add, drop) in edits.items():
            got = slots.get(key, _EMPTY) | SemilinearSet.make(add)
            slots[key] = got - SemilinearSet.make(drop)
        return cls._build(schema, core, slots, _flips(slots, loose, plus))

    @classmethod
    def empty(cls, schema: SchemaGraph) -> "SymVertexSet":
        return cls(schema, frozenset(), (), frozenset())

    @classmethod
    def of(cls, schema: SchemaGraph, vertices) -> "SymVertexSet":
        return cls.assemble(schema, schema.check_vertices(vertices), {})

    @classmethod
    def assemble(cls, schema: SchemaGraph, nodes, parts: dict) -> "SymVertexSet":
        """The union of ``nodes``, each an explicit vertex (not validated) or
        a key of ``parts``, in one pass.  A core vertex adds its name; a ray,
        clique or finite-family vertex sets its index bit in its slot's mask;
        a ray-family vertex is a flip candidate; a part adds its patterns and
        holes.  A slot of bits alone or of one pattern alone is canonical as
        it stands; any other is one index-set union."""
        core, bits, raw, inside, holes = [], {}, {}, [], []
        for v in nodes:
            tag = v[0]
            if tag == "core":
                core.append(v[1])
            elif tag == "fam" and _holds_rays(schema.family_slots[v[1]][0]):
                inside.append(v)
            elif tag in ("ray", "cliq", "fam"):
                guard_width(v[2] + 1)
                key = v[:2] + v[3:]
                bits[key] = bits.get(key, 0) | 1 << v[2]
            else:
                pairs, part_holes = parts[v]
                for key, pattern in pairs:
                    raw.setdefault(key, []).append(pattern)
                holes += part_holes
        slots = {}
        for key, mask in bits.items():
            pattern = (mask.bit_length(), 1, mask, 0)
            if key in raw:
                raw[key].append(pattern)
            else:
                slots[key] = SemilinearSet(*pattern)
        for key, ps in raw.items():
            slots[key] = SemilinearSet(*ps[0]) if len(ps) == 1 else SemilinearSet.union_patterns(ps)
        return cls._build(schema, core, slots, _flips(slots, inside + holes, set(inside)))

    # A part for ``assemble`` is a pair: its slot patterns, as ``(key,
    # pattern)`` with a canonical ``semilinear`` pattern, and the ray-family
    # vertices it leaves out of its copies.

    @staticmethod
    def ray_tail_part(ray: str, from_pos: int) -> tuple:
        """The positions of a ray from ``from_pos`` on."""
        return (((("ray", ray), from_pattern(from_pos)),), ())

    @staticmethod
    def copies_part(schema: SchemaGraph, fam: str, from_copy: int) -> tuple:
        """The whole copies of a family from ``from_copy`` on."""
        pattern = from_pattern(from_copy)
        return tuple((key, pattern) for key in schema.family_slots[fam]), ()

    @staticmethod
    def copy_tail_part(fam: str, copy: int, from_pos: int) -> tuple:
        """A ray-family copy minus its first ``from_pos`` positions."""
        holes = tuple(("fam", fam, copy, p) for p in range(from_pos))
        return (((("fam", fam), points_pattern((copy,))),), holes)

    @staticmethod
    def clique_rest_part(clique: str, gone) -> tuple:
        """The vertices of a clique outside the indices ``gone``."""
        return (((("cliq", clique), all_but_pattern(gone)),), ())

    @classmethod
    def whole_copies(cls, schema: SchemaGraph, fam: str, indices: SemilinearSet) -> "SymVertexSet":
        return cls.make(schema, fam_whole={fam: indices})

    @classmethod
    def clique_part(cls, schema: SchemaGraph, clique: str, indices: SemilinearSet) -> "SymVertexSet":
        return cls.make(schema, cliq_idx={clique: indices})

    # -- lookups ---------------------------------------------------------

    @cached_property
    def _slot(self) -> dict[tuple, SemilinearSet]:
        return dict(self.slots)

    @cached_property
    def _wholes(self) -> dict[str, SemilinearSet]:
        """Each family's copies that lie in all of its slots, by name; empty
        ones left out."""
        by_fam: dict[str, list[SemilinearSet]] = {}
        for key, s in self.slots:  # sorted by key, so by family name
            if key[0] == "fam":
                by_fam.setdefault(key[1], []).append(s)
        out, table = {}, self.schema.family_slots
        for n, sets in by_fam.items():
            if len(sets) < len(table[n]):
                continue  # an empty slot leaves no whole copy
            w = reduce(operator.and_, sets)
            if not w.is_empty:
                out[n] = w
        return out

    @cached_property
    def _exceptions(self) -> tuple[list[Vertex], list[Vertex]]:
        """The family vertices outside whole copies, and the holes of whole
        ray-family copies."""
        plus, minus = [], []
        for v in self.flips:
            (minus if v[2] in self._slot.get(v[:2], _EMPTY) else plus).append(v)
        for key, s in self.slots:
            if key[0] == "fam" and not _holds_rays(key):
                rest = s - self.whole_set(key[1])
                plus += [("fam", key[1], i, key[2]) for i in rest.elements_below(rest.bound)]
        return plus, minus

    def ray_set(self, name: str) -> SemilinearSet:
        return self._slot.get(("ray", name), _EMPTY)

    def cliq_set(self, name: str) -> SemilinearSet:
        return self._slot.get(("cliq", name), _EMPTY)

    def whole_set(self, name: str) -> SemilinearSet:
        return self._wholes.get(name, _EMPTY)

    def __contains__(self, v: Vertex) -> bool:
        if v[0] == "core":
            return v[1] in self.core
        return (v[2] in self._slot.get(_slot_key(self.schema, v), _EMPTY)) != (v in self.flips)

    @property
    def is_empty(self) -> bool:
        return not self.core and not self.slots and not self.flips

    @property
    def is_finite(self) -> bool:
        # any copy in a ray family's slot is an infinite ray
        return all(s.is_finite and not _holds_rays(key) for key, s in self.slots)

    @property
    def is_infinite(self) -> bool:
        return not self.is_finite

    def full_copy_indices(self, fam: str) -> SemilinearSet:
        """Indices whose copy is included with no holes."""
        holed = [v[2] for v in self.flips if v[1] == fam]
        w = self.whole_set(fam)
        return w - SemilinearSet.make(holed) if holed else w

    def copy_cofinitely_in(self, fam: str, copy: int) -> bool:
        return copy in self.whole_set(fam)

    # -- algebra ---------------------------------------------------------

    def _check(self, other: "SymVertexSet"):
        if self.schema is not other.schema:
            raise ValueError("sets over different schemas")

    def _merge(self, other: "SymVertexSet", op) -> "SymVertexSet":
        """Apply ``op`` (``operator.or_``, ``and_`` or ``sub``) slot by slot."""
        self._check(other)
        a, b = self._slot, other._slot
        slots = {k: op(a.get(k, _EMPTY), b.get(k, _EMPTY)) for k in a.keys() | b.keys()}
        loose = self.flips | other.flips
        inside = op({v for v in loose if v in self}, {v for v in loose if v in other})
        return SymVertexSet._build(self.schema, op(self.core, other.core), slots, _flips(slots, loose, inside))

    def union(self, other: "SymVertexSet") -> "SymVertexSet":
        return self._merge(other, operator.or_)

    def intersection(self, other: "SymVertexSet") -> "SymVertexSet":
        return self._merge(other, operator.and_)

    def difference(self, other: "SymVertexSet") -> "SymVertexSet":
        return self._merge(other, operator.sub)

    def complement(self) -> "SymVertexSet":
        # complementing every slot keeps each flip a flip
        sch = self.schema
        keys = [("ray", r.name) for r in sch.rays] + [("cliq", c.name) for c in sch.cliques]
        keys += [k for fam in sch.family_slots.values() for k in fam]
        slots = {k: self._slot.get(k, _EMPTY).complement() for k in keys}
        return SymVertexSet._build(sch, sch.core.vertices - self.core, slots, self.flips)

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
        out: list[Vertex] = [("core", x) for x in self.core] + list(self.flips)
        for key, s in self.slots:
            out += [key[:2] + (i,) + key[2:] for i in s.elements_below(s.bound)]
        return sorted(out, key=vertex_sort_key)

    def explicit_below(self, n: int) -> set[Vertex]:
        """Intersection with the depth-n truncation's vertex set."""
        out: set[Vertex] = {("core", x) for x in self.core}
        for key, s in self.slots:
            for i in s.elements_below(n):
                if _holds_rays(key):
                    out |= {key + (i, p) for p in range(n)}
                else:
                    out.add(key[:2] + (i,) + key[2:])
        out ^= {v for v in self.flips if v[2] < n and v[3] < n}
        return out

    def some_vertex(self) -> Vertex:
        """A deterministic representative element."""
        if self.core:
            return ("core", min(self.core))
        plus, _ = self._exceptions
        if plus:
            return min(plus, key=vertex_sort_key)
        for key, s in self.slots:
            if key[0] == "ray":
                return ("ray", key[1], s.min_value())
        for n, w in self._wholes.items():
            f = self.schema.family_spec(n)
            i = w.min_value()
            if not f.is_ray_family:
                return ("fam", n, i, f.pattern_vertices()[0])
            p = 0
            while ("fam", n, i, p) in self.flips:
                p += 1
            return ("fam", n, i, p)
        for key, s in self.slots:
            if key[0] == "cliq":
                return ("cliq", key[1], s.min_value())
        raise ValueError("empty set")

    def _text_bits(self):
        """The space-separated bits of the text form, in order, built one at
        a time."""
        if self.core:
            yield "core{" + ",".join(sorted(self.core)) + "}"
        for k, s in self.slots:
            if k[0] == "ray":
                yield f"ray:{k[1]}{s.text()}"
        for n, w in self._wholes.items():
            yield f"fam:{n}{w.text()}"
        for k, s in self.slots:
            if k[0] == "cliq":
                yield f"cliq:{k[1]}{s.text()}"
        for sign, vs in zip("+-", self._exceptions):
            if vs:
                yield sign + "{" + ",".join(sorted(map(vertex_text, vs))) + "}"

    def text(self) -> str:
        return " ".join(self._text_bits()) or "{}"

    def first_text_bit(self) -> str:
        """The first of the text's bits: texts whose first bits differ,
        neither a prefix of the other, sort as those bits do."""
        return next(self._text_bits(), "{}")

    def __repr__(self) -> str:
        return f"SymVertexSet({self.text()})"


def union_all(schema: SchemaGraph, sets) -> SymVertexSet:
    """The union of any number of sets: one n-ary index-set union per slot."""
    sets = list(sets)
    if any(s.schema is not schema for s in sets):
        raise ValueError("sets over different schemas")
    by_slot: dict[tuple, list[SemilinearSet]] = {}
    for s in sets:
        for k, x in s.slots:
            by_slot.setdefault(k, []).append(x)
    slots = {k: SemilinearSet.union_all(xs) for k, xs in by_slot.items()}
    loose = frozenset().union(*(s.flips for s in sets))
    inside = {v for v in loose if any(v in s for s in sets)}
    core = frozenset().union(*(s.core for s in sets))
    return SymVertexSet._build(schema, core, slots, _flips(slots, loose, inside))
