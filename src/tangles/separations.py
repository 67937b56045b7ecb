"""Oriented finite-order separations in canonical form.

A separation is stored as its finite separator X together with an
assignment of every component of (graph minus X) to one of the two
sides; the B side is the selected sub-collection.  For any separation
{A, B} of finite order, every component of the graph minus the separator
lies wholly on one side, so this catalogue is exhaustive, and equality of
canonical forms decides equality of separations.

At one level X the components are disjoint and non-empty, so the B side
X u (the selected components) and the A side X u (the others) are decided
by the selection S alone: (X, S) <= (X, T) exactly when T is a subset of
S, and the corner join of (X, S) and (X, T) is (X, S n T).  ``leq`` and
``corner_join`` read the selections there and build no vertex set;
separations at different levels are compared and joined by their sides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .components import ComponentSelection, components, parse_at_level
from .schema import SchemaGraph, Vertex, level_text
from .symsets import SymVertexSet


class NotRepresentable(ValueError):
    """A requested separation or side split falls outside the canonical catalogue."""


@dataclass(frozen=True)
class OrientedSeparation:
    schema: SchemaGraph = field(compare=False, repr=False)
    X: frozenset[Vertex]
    toB: ComponentSelection

    # -- sides -------------------------------------------------------------

    @cached_property
    def separator_set(self) -> SymVertexSet:
        return SymVertexSet.of(self.schema, self.X)

    @cached_property
    def side_B(self) -> SymVertexSet:
        return self.toB.union_vertices(self.separator_set)

    @cached_property
    def side_A(self) -> SymVertexSet:
        return self.toB.complement().union_vertices(self.separator_set)

    @property
    def order(self) -> int:
        return len(self.X)

    # -- algebra -------------------------------------------------------------

    def inverse(self) -> "OrientedSeparation":
        return OrientedSeparation(self.schema, self.X, self.toB.complement())

    def leq(self, other: "OrientedSeparation") -> bool:
        """(A,B) <= (C,D) iff A is contained in C and B contains D."""
        if self.schema is not other.schema:
            raise ValueError("separations over different graphs")
        if self.X == other.X:
            return (other.toB - self.toB).is_empty
        return self.side_A.issubset(other.side_A) and other.side_B.issubset(self.side_B)

    @property
    def is_small(self) -> bool:
        """Whether the separation points at everything: B = V."""
        return self.toB.is_all

    def corner_join(self, other: "OrientedSeparation") -> "OrientedSeparation":
        """(A u A', B n B'), canonicalised; order <= order(s)+order(t)."""
        if self.schema is not other.schema:
            raise ValueError("separations over different graphs")
        if self.X == other.X:
            return OrientedSeparation(self.schema, self.X, self.toB & other.toB)
        return from_vertex_sides(
            self.schema, self.side_A | other.side_A, self.side_B & other.side_B
        )

    def flip_finite(self, moved: ComponentSelection) -> "OrientedSeparation":
        """Move a finite sub-collection of components to the other side."""
        if not moved.count_is_finite or not moved.union_vertices().is_finite:
            raise ValueError("can only flip finitely many finite components")
        return OrientedSeparation(
            self.schema, self.X, (self.toB - moved) | (moved - self.toB)
        )

    # -- text ----------------------------------------------------------------

    def text(self) -> str:
        return f"sep {level_text(self.X)} B={self.toB.text()}"

    def __repr__(self) -> str:
        return f"OrientedSeparation({self.text()})"


def from_bipartition(schema: SchemaGraph, X, toB: ComponentSelection) -> OrientedSeparation:
    cs = components(schema, X)
    if toB.cs is not cs and toB.cs != cs:
        raise ValueError("selection does not match components of X")
    return OrientedSeparation(schema, cs.removed, toB)


def from_vertex_sides(
    schema: SchemaGraph, A: SymVertexSet, B: SymVertexSet
) -> OrientedSeparation:
    """Canonicalise an (A, B) pair into separator-plus-sides form."""
    if not (A | B).complement().is_empty:
        raise NotRepresentable("sides do not cover the vertex set")
    xset = A & B
    if not xset.is_finite:
        raise NotRepresentable("separator is infinite")
    X = frozenset(xset.to_explicit())
    cs = components(schema, X)
    try:
        toB = cs.partition_by(B)
    except ValueError as exc:
        raise NotRepresentable(str(exc)) from exc
    # every component must land on one side entirely
    rest = cs.select_all() - toB - cs.partition_by(A)
    if not rest.is_empty:
        raise NotRepresentable("a component escapes both sides")
    return OrientedSeparation(schema, X, toB)


# -- stars --------------------------------------------------------------------


def is_star(seps) -> bool:
    """Whether all members pairwise point towards each other."""
    seps = list(seps)
    for s, t in combinations(seps, 2):
        if not (s.leq(t.inverse()) and t.leq(s.inverse())):
            return False
    return True


# -- text round-trip ----------------------------------------------------------

_SEP_RE = re.compile(r"^sep X=\{(.*?)\} B=(\{.*\})$")


def parse_separation(schema: SchemaGraph, text: str) -> OrientedSeparation:
    return OrientedSeparation(schema, *parse_at_level(schema, text, _SEP_RE, "separation"))
