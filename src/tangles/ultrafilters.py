"""Ultrafilters on the component sets of (graph minus finite X).

A handle is either principal (generated by one component) or lazy: a
non-principal ultrafilter concentrated on an infinite family class,
realised one decision at a time.  A lazy handle keeps a commitment log;
a query whose answer is not yet forced by earlier commitments commits
the part whose canonical text sorts first.  Handles at different levels
that arise from each other by restriction or lifting share one
commitment state, so the whole compatible family behaves as a single
object.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .components import ComponentSelection, ComponentSet, components
from .schema import SchemaGraph, Vertex
from .semilinear import SemilinearSet
from .symsets import SymVertexSet


class PrincipalInputError(ValueError):
    """An operation that needs a non-principal ultrafilter got a principal one."""


@dataclass
class LazyCore:
    """Shared commitment state of one lazily realised non-principal ultrafilter."""

    family: str
    base: SemilinearSet  # infinite; intersection of the concentration class with all commitments
    log: list[tuple[SemilinearSet, bool, bool]] = field(default_factory=list)  # (trace, answer, forced)

    def __post_init__(self):
        if self.base.is_finite:
            raise ValueError("concentration base must be infinite")

    def decide(self, trace: SemilinearSet, tie_break: Callable[[], bool]) -> bool:
        """Decide whether a collection with the given index trace is in the
        filter; ``tie_break()`` is called only if the answer is not forced."""
        inside = trace & self.base
        outside = self.base - trace
        if inside.is_finite:
            answer, forced = False, True
        elif outside.is_finite:
            answer, forced = True, True
        else:
            answer, forced = tie_break(), False
        self.base = inside if answer else outside
        self.log.append((trace, answer, forced))
        return answer

    def log_json(self) -> list[dict]:
        return [
            {"trace": q.text(), "answer": a, "forced": forced} for q, a, forced in self.log
        ]

    @classmethod
    def replay(cls, family: str, initial_base: SemilinearSet, entries) -> "LazyCore":
        """Rebuild a core from a dumped log, re-validating every decision."""
        core = cls(family, initial_base)
        for e in entries:
            trace, want = e["trace"], e["answer"]
            got = core.decide(SemilinearSet.parse(trace), lambda: want)
            if got != want:
                raise ValueError(f"log entry {trace} -> {want} contradicts earlier commitments")
        return core


@dataclass
class UltrafilterHandle:
    cs: ComponentSet
    gen: tuple | None = None  # principal: the generating component's locator
    core: LazyCore | None = None  # lazy: the shared commitment state

    @property
    def schema(self) -> SchemaGraph:
        return self.cs.schema

    @property
    def level(self) -> frozenset[Vertex]:
        return self.cs.removed

    @property
    def is_principal(self) -> bool:
        return self.core is None

    def generator_vertices(self) -> SymVertexSet:
        if not self.is_principal:
            raise ValueError("lazy handle has no generating component")
        return self.cs.vertices(self.gen)

    def dominators(self) -> SymVertexSet:
        """The vertices with infinitely many neighbours in every member: those
        of the generating component, or the attachments of the class."""
        if self.is_principal:
            return self.cs.dominators(self.gen)
        return SymVertexSet.of(self.schema, self.cs.class_for(self.core.family).attach)

    def membership(self, sel: ComponentSelection) -> bool:
        if sel.cs is not self.cs and sel.cs != self.cs:
            raise ValueError("selection over a different component set")
        if self.is_principal:
            return sel.contains_component(self.gen)
        k = self.cs.class_index(self.core.family)
        trace = sel.class_parts[k]
        # commit the part whose canonical text sorts first
        return self.core.decide(trace, lambda: sel.text() <= sel.complement().text())

    def describe(self) -> dict:
        if self.is_principal:
            return {"kind": "principal", "component": list(self.gen)}
        return {
            "kind": "lazy",
            "family": self.core.family,
            "base": self.core.base.text(),
            "log": self.core.log_json(),
        }


# -- constructors ---------------------------------------------------------


def principal_at(cs: ComponentSet, loc) -> UltrafilterHandle:
    return UltrafilterHandle(cs, gen=loc)


def principal_at_vertex(cs: ComponentSet, v: Vertex) -> UltrafilterHandle:
    return principal_at(cs, cs.locate_vertex(v))


def lazy_on(cs: ComponentSet, family: str | None = None) -> UltrafilterHandle:
    """A fresh non-principal handle concentrated on an infinite component class."""
    candidates = [c for c in cs.classes if c.indices.is_infinite]
    if family is not None:
        candidates = [c for c in candidates if c.family == family]
    if not candidates:
        raise ValueError("no infinite component class at this level")
    cl = candidates[0]
    return UltrafilterHandle(cs, core=LazyCore(cl.family, cl.indices))


def lazy_sharing(cs: ComponentSet, core: LazyCore) -> UltrafilterHandle:
    if cs.class_for(core.family) is None:
        raise ValueError(f"no {core.family} class at this level")
    return UltrafilterHandle(cs, core=core)


# -- the inverse system -----------------------------------------------------


def restrict_ultrafilter(U: UltrafilterHandle, X) -> UltrafilterHandle:
    """Push a handle at level X' down to a coarser level X (X inside X')."""
    schema = U.schema
    X = schema.check_vertices(X)
    if not X <= U.level:
        raise ValueError("can only restrict to a subset of the current level")
    cs = components(schema, X)
    if U.is_principal:
        gen_set = U.generator_vertices()
        loc = cs.locate_vertex(gen_set.some_vertex())
        return principal_at(cs, loc)
    cl = cs.class_for(U.core.family)
    if cl is not None:
        return lazy_sharing(cs, U.core)
    # all but finitely many copies of the family now sit in one component
    loc = cs.locate(lambda vs: vs.full_copy_indices(U.core.family).is_infinite)
    if loc is None:
        raise AssertionError("concentration class vanished")
    return principal_at(cs, loc)


def lift_ultrafilter(U: UltrafilterHandle, Xp) -> UltrafilterHandle:
    """The unique handle at a finer level X' restricting back to U (non-principal only)."""
    schema = U.schema
    Xp = schema.check_vertices(Xp)
    if not U.level <= Xp:
        raise ValueError("can only lift to a superset of the current level")
    if U.is_principal:
        raise PrincipalInputError("lifting needs a non-principal ultrafilter")
    cs = components(schema, Xp)
    return lazy_sharing(cs, U.core)


def preimage_selection(sel: ComponentSelection, fine: ComponentSet) -> ComponentSelection:
    """The components at the finer level contained in some selected coarse component."""
    if not sel.cs.removed <= fine.removed:
        raise ValueError("preimage goes from coarse to fine levels")
    return fine.partition_by(sel.union_vertices())


# -- limits ------------------------------------------------------------------


@dataclass
class LimitFamily:
    """A compatible family of ultrafilters, one per finite level, given by a seed."""

    schema: SchemaGraph
    seed_level: frozenset[Vertex]
    _evaluator: object  # frozenset -> UltrafilterHandle

    def eval(self, Y) -> UltrafilterHandle:
        return self._evaluator(self.schema.check_vertices(Y))


def limit_from_nonprincipal(U: UltrafilterHandle) -> LimitFamily:
    """Extend a non-principal handle to every level by lift-then-restrict."""
    if U.is_principal:
        raise PrincipalInputError("seed must be non-principal")
    X = U.level

    def ev(Y: frozenset) -> UltrafilterHandle:
        return restrict_ultrafilter(lift_ultrafilter(U, X | Y), Y)

    return LimitFamily(U.schema, X, ev)
