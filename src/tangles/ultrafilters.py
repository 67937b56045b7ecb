"""Ultrafilters on the component sets of (graph minus finite X).

A handle is either principal (generated by one component) or lazy: a
non-principal ultrafilter concentrated on an infinite family class,
realised one decision at a time.  A lazy handle keeps a commitment log;
a query whose answer is not yet forced by earlier commitments commits
the part whose canonical text sorts first, comparing the two texts only
up to their first difference.  Handles at different levels share one
commitment state, so the whole compatible family behaves as a single
object.

The handle a lazy ultrafilter induces at a level X is read at X alone
(``induced_by_core``): it shares the core where the family's class
survives, and is principal at the component holding cofinitely many
copies where it does not.  That is the restriction of its lift to any
finer level, so induced ultrafilters and limit families never build the
finer level; ``lift_ultrafilter`` stays for the inverse-system checks.
Restriction is by containment: a component at a finer level lies inside
the one at the coarser level that ``ComponentSet.locate`` gives for its node.
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
        return self.core.decide(trace, lambda: sel.text_le(sel.complement()))

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
    """The principal handle at the component holding a vertex of the schema."""
    cs.schema.check_vertices((v,))
    return principal_at(cs, cs.locate(v))


def lazy_on(cs: ComponentSet, family: str | None = None) -> UltrafilterHandle:
    """A fresh non-principal handle concentrated on an infinite component
    class, by default that of the first such family in schema order."""
    candidates = {c.family: c for c in cs.classes if c.indices.is_infinite}
    names = [f.name for f in cs.schema.families] if family is None else [family]
    cl = next((candidates[n] for n in names if n in candidates), None)
    if cl is None:
        raise ValueError("no infinite component class at this level")
    return UltrafilterHandle(cs, core=LazyCore(cl.family, cl.indices))


def induced_by_core(cs: ComponentSet, core: LazyCore) -> UltrafilterHandle:
    """The handle a lazy ultrafilter induces at the level of ``cs``.

    Where the family's class survives, the handle shares the core.  Else
    all but finitely many copies of the family sit in one component, and
    the handle is principal there.  Both depend on this level alone.
    """
    if cs.class_for(core.family) is not None:
        return UltrafilterHandle(cs, core=core)
    return principal_at(cs, cs.locate(("fclass", core.family)))


# -- the inverse system -----------------------------------------------------


def restrict_ultrafilter(U: UltrafilterHandle, X) -> UltrafilterHandle:
    """Push a handle at level X' down to a coarser level X (X inside X'):
    a principal handle to the component of X holding a node of its
    generator, which holds the whole generator."""
    if not frozenset(X) <= U.level:
        raise ValueError("can only restrict to a subset of the current level")
    cs = components(U.schema, X)
    if U.is_principal:
        return principal_at(cs, cs.locate(U.cs.node(U.gen)))
    return induced_by_core(cs, U.core)


def lift_ultrafilter(U: UltrafilterHandle, Xp) -> UltrafilterHandle:
    """The unique handle at a finer level X' restricting back to U
    (non-principal only): it shares U's core, so the family's class must
    survive at X'."""
    if not U.level <= frozenset(Xp):
        raise ValueError("can only lift to a superset of the current level")
    if U.is_principal:
        raise PrincipalInputError("lifting needs a non-principal ultrafilter")
    cs = components(U.schema, Xp)
    if cs.class_for(U.core.family) is None:
        raise ValueError(f"no {U.core.family} class at this level")
    return UltrafilterHandle(cs, core=U.core)


# -- limits ------------------------------------------------------------------


@dataclass
class LimitFamily:
    """A compatible family of ultrafilters, one per finite level, evaluated on demand."""

    schema: SchemaGraph
    _evaluator: object  # level -> UltrafilterHandle, through components()

    def eval(self, Y) -> UltrafilterHandle:
        return self._evaluator(Y)


def limit_from_nonprincipal(U: UltrafilterHandle) -> LimitFamily:
    """Extend a non-principal handle to every level: at each level, the
    handle its core induces there (the restriction of its lift)."""
    if U.is_principal:
        raise PrincipalInputError("seed must be non-principal")
    schema, core = U.schema, U.core
    return LimitFamily(schema, lambda Y: induced_by_core(components(schema, Y), core))
