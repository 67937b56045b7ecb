"""Symbolic vertex sets over a schema, closed under exact boolean algebra.

A set is stored as two things:

* ``core``, the finite set of its core vertices;
* ``slots``, one index set per slot, sorted by key.  The slots are
  ``("ray", R)`` (positions of ray R), ``("cliq", K)`` (indices of
  clique K), ``("fam", F, pv)`` (the copies of a finite-pattern family F
  whose pattern vertex ``pv`` is a member), ``("fam", F)`` (the copies of
  a ray family F that are members cofinitely) and ``("leg", F, i)`` (the
  positions of copy i of a ray family F).

Every non-core vertex is a member exactly when its index (position,
clique index or copy number; a position for a ray-family vertex
``("fam", F, i, p)``) lies in its slot.  A slot is listed only where it
differs from its default: the empty set, except for a leg, whose default
is every position when its copy lies in ``("fam", F)``.  A listed leg is
therefore finite (its copy outside ``("fam", F)``) or cofinite (inside),
the form is canonical and equality decides set equality.  Union,
intersection, difference and complement are one index-set operation per
slot, an unlisted leg read as its default.

``assemble`` builds a set from explicit vertices and raw parts in one pass:
a core vertex gives its name, any other vertex one bit of its slot's mask,
and a part its slot patterns.  A family's slot keys come from the schema's
``family_slots`` table.

The slots of one finite-pattern family differ in finitely many copies.
The text form prints the copies in all of a family's slots (its whole
copies) as ``fam:F{...}``, the other members of those slots and the
members of finite legs as ``+{...}``, and the positions missing from
cofinite legs (the holes of whole ray-family copies) as ``-{...}``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce

from .semilinear import SemilinearSet, all_but_pattern, from_pattern, guard_width, points_pattern
from .schema import SchemaGraph, Vertex, vertex_sort_key, vertex_text

_EMPTY = SemilinearSet.empty()
_NAT = SemilinearSet.naturals()


def _slot_of(schema: SchemaGraph, v: Vertex) -> tuple[tuple, int]:
    """The slot of a non-core vertex and its index in the slot."""
    if v[0] == "fam" and schema.family_spec(v[1]).is_ray_family:
        return ("leg", v[1], v[2]), v[3]
    return v[:2] + v[3:], v[2]


def _vertex(key: tuple, i: int) -> Vertex:
    """The vertex at index ``i`` of slot ``key``."""
    if key[0] == "leg":
        return ("fam", key[1], key[2], i)
    return key[:2] + (i,) + key[2:]


def _holds_rays(key: tuple) -> bool:
    """Whether a slot holds the copies of a ray family."""
    return key[0] == "fam" and len(key) == 2


def _default(slots: dict, key: tuple) -> SemilinearSet:
    """An unlisted slot: every position for a leg whose copy is in ``("fam", F)``, else empty."""
    if key[0] == "leg" and key[2] in slots.get(("fam", key[1]), _EMPTY):
        return _NAT
    return _EMPTY


@dataclass(frozen=True)
class SymVertexSet:
    schema: SchemaGraph = field(compare=False, repr=False)
    core: frozenset[str]
    slots: tuple[tuple[tuple, SemilinearSet], ...]

    # -- construction ----------------------------------------------------

    @classmethod
    def _build(cls, schema: SchemaGraph, core, slots: dict) -> "SymVertexSet":
        """The set of ``core`` and ``slots``, each slot at its default left out."""
        listed = sorted(
            (k, s) for k, s in slots.items()
            if (s != _default(slots, k) if k[0] == "leg" else not s.is_empty)
        )
        return cls(schema, frozenset(core), tuple(listed))

    @classmethod
    def empty(cls, schema: SchemaGraph) -> "SymVertexSet":
        return cls(schema, frozenset(), ())

    @classmethod
    def of(cls, schema: SchemaGraph, vertices) -> "SymVertexSet":
        return cls.assemble(schema, schema.check_vertices(vertices), {})

    @classmethod
    def assemble(cls, schema: SchemaGraph, nodes, parts: dict) -> "SymVertexSet":
        """The union of ``nodes``, each an explicit vertex (not validated) or
        a key of ``parts``, in one pass.  A core vertex adds its name; any
        other vertex sets its index bit in its slot's mask; a part adds its
        patterns.  A slot of bits alone or of one pattern alone is canonical
        as it stands; any other is one index-set union."""
        core, bits, raw = [], {}, {}
        for v in nodes:
            tag = v[0]
            if tag == "core":
                core.append(v[1])
            elif tag in ("ray", "cliq", "fam"):
                key, i = _slot_of(schema, v)
                guard_width(i + 1)
                bits[key] = bits.get(key, 0) | 1 << i
            else:
                for key, pattern in parts[v]:
                    raw.setdefault(key, []).append(pattern)
        slots = {}
        for key, mask in bits.items():
            pattern = (mask.bit_length(), 1, mask, 0)
            if key in raw:
                raw[key].append(pattern)
            else:
                slots[key] = SemilinearSet(*pattern)
        for key, ps in raw.items():
            slots[key] = SemilinearSet(*ps[0]) if len(ps) == 1 else SemilinearSet.union_patterns(ps)
        return cls._build(schema, core, slots)

    # A part for ``assemble`` is its slot patterns, as ``(key, pattern)``
    # pairs with a canonical ``semilinear`` pattern.

    @staticmethod
    def ray_tail_part(ray: str, from_pos: int) -> tuple:
        """The positions of a ray from ``from_pos`` on."""
        return ((("ray", ray), from_pattern(from_pos)),)

    @staticmethod
    def copies_part(schema: SchemaGraph, fam: str, from_copy: int) -> tuple:
        """The whole copies of a family from ``from_copy`` on."""
        pattern = from_pattern(from_copy)
        return tuple((key, pattern) for key in schema.family_slots[fam])

    @staticmethod
    def copy_tail_part(fam: str, copy: int, from_pos: int) -> tuple:
        """A ray-family copy minus its first ``from_pos`` positions."""
        return (("fam", fam), points_pattern((copy,))), (("leg", fam, copy), from_pattern(from_pos))

    @staticmethod
    def clique_rest_part(clique: str, gone) -> tuple:
        """The vertices of a clique outside the indices ``gone``."""
        return ((("cliq", clique), all_but_pattern(gone)),)

    @classmethod
    def whole_copies(cls, schema: SchemaGraph, fam: str, indices: SemilinearSet) -> "SymVertexSet":
        return cls._build(schema, (), dict.fromkeys(schema.family_slots[fam], indices))

    @classmethod
    def clique_part(cls, schema: SchemaGraph, clique: str, indices: SemilinearSet) -> "SymVertexSet":
        return cls._build(schema, (), {("cliq", clique): indices})

    # -- lookups ---------------------------------------------------------

    @cached_property
    def _slot(self) -> dict[tuple, SemilinearSet]:
        return dict(self.slots)

    def _get(self, key: tuple) -> SemilinearSet:
        """A slot's index set, read as its default when it is not listed."""
        return self._slot.get(key) or _default(self._slot, key)

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
        for key, s in self.slots:
            if key[0] == "leg":
                out, s = (plus, s) if s.is_finite else (minus, s.complement())
            elif key[0] == "fam" and not _holds_rays(key):
                out, s = plus, s - self.whole_set(key[1])
            else:
                continue
            out += [_vertex(key, i) for i in s.elements_below(s.bound)]
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
        key, i = _slot_of(self.schema, v)
        return i in self._get(key)

    @property
    def is_empty(self) -> bool:
        return not self.core and not self.slots

    @property
    def is_finite(self) -> bool:
        # any copy in a ray family's slot is an infinite ray
        return all(s.is_finite and not _holds_rays(key) for key, s in self.slots)

    @property
    def is_infinite(self) -> bool:
        return not self.is_finite

    def full_copy_indices(self, fam: str) -> SemilinearSet:
        """Indices whose copy is included with no holes."""
        legs = [key[2] for key, _ in self.slots if key[0] == "leg" and key[1] == fam]
        w = self.whole_set(fam)
        return w - SemilinearSet.make(legs) if legs else w

    def depth(self) -> int:
        """The depth of the deepest vertex of a finite set (0 when empty)."""
        if not self.is_finite:
            raise ValueError("set is infinite")
        legs = [key[2] for key, _ in self.slots if key[0] == "leg"]
        return max([s.bound - 1 for _, s in self.slots] + legs, default=0)

    # -- algebra ---------------------------------------------------------

    def _check(self, other: "SymVertexSet"):
        if self.schema is not other.schema:
            raise ValueError("sets over different schemas")

    def _merge(self, other: "SymVertexSet", op) -> "SymVertexSet":
        """Apply ``op`` (``operator.or_``, ``and_`` or ``sub``) slot by slot."""
        self._check(other)
        keys = self._slot.keys() | other._slot.keys()
        slots = {k: op(self._get(k), other._get(k)) for k in keys}
        return SymVertexSet._build(self.schema, op(self.core, other.core), slots)

    def union(self, other: "SymVertexSet") -> "SymVertexSet":
        return self._merge(other, operator.or_)

    def intersection(self, other: "SymVertexSet") -> "SymVertexSet":
        return self._merge(other, operator.and_)

    def difference(self, other: "SymVertexSet") -> "SymVertexSet":
        return self._merge(other, operator.sub)

    def complement(self) -> "SymVertexSet":
        # a listed leg stays listed: its default is complemented with it
        sch = self.schema
        keys = [("ray", r.name) for r in sch.rays] + [("cliq", c.name) for c in sch.cliques]
        keys += [k for fam in sch.family_slots.values() for k in fam]
        keys += [k for k, _ in self.slots if k[0] == "leg"]
        slots = {k: self._get(k).complement() for k in keys}
        return SymVertexSet._build(sch, sch.core.vertices - self.core, slots)

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
        for key, s in self.slots:
            out += [_vertex(key, i) for i in s.elements_below(s.bound)]
        return sorted(out, key=vertex_sort_key)

    def explicit_below(self, n: int) -> set[Vertex]:
        """Intersection with the depth-n truncation's vertex set."""
        out: set[Vertex] = {("core", x) for x in self.core}
        for key, s in self.slots:
            if _holds_rays(key):
                # a listed leg gives the copy's positions itself
                for i in s.elements_below(n):
                    if ("leg", key[1], i) not in self._slot:
                        out |= {key + (i, p) for p in range(n)}
            elif key[0] != "leg" or key[2] < n:
                out |= {_vertex(key, i) for i in s.elements_below(n)}
        return out

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
    for k, xs in by_slot.items():
        if k[0] == "leg":  # the sets that do not list a leg hold its default
            xs += [s._get(k) for s in sets if k not in s._slot]
    slots = {k: SemilinearSet.union_all(xs) for k, xs in by_slot.items()}
    core = frozenset().union(*(s.core for s in sets))
    return SymVertexSet._build(schema, core, slots)
