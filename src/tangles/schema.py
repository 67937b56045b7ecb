"""Finitely presented infinite graphs.

A schema assembles an infinite graph from four kinds of parts:

* a finite ``core`` graph,
* single one-way infinite ``ray``s, optionally attached to a core vertex
  at position 0,
* ``family``s: one disjoint copy of a finite connected pattern per index
  i in N, every copy attached the same way.  An attachment is either to a
  core vertex (the same vertex for every copy) or *along* a single ray,
  in which case copy i attaches to ray position i.  A family whose
  pattern is a ray (``rayfam``) gives an indexed family of disjoint rays
  hanging off a hub,
* ``clique``s: an infinite complete graph on indices in N, each vertex
  attached to every listed core vertex.

Vertices are tagged tuples::

    ("core", id)  ("ray", name, pos)  ("fam", name, copy, pv)  ("cliq", name, idx)

where ``pv`` is a pattern vertex id for finite patterns and an integer
position for ray families.  Schemas must present connected graphs.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

from .graphs import FiniteGraph, GraphParseError, read_graph_line
from .semilinear import ResourceGuardError, parse_nat

Vertex = tuple


@dataclass(frozen=True)
class RaySpec:
    name: str
    hub: str | None  # core vertex adjacent to position 0, if any


@dataclass(frozen=True)
class FamilySpec:
    name: str
    pattern: FiniteGraph | None  # None: every copy is a ray over positions 0,1,...
    core_attach: tuple[tuple[str, object], ...]  # (core vertex, pattern vertex)
    ray_attach: tuple[tuple[str, object], ...]  # (ray name, pattern vertex), copy i at position i

    @property
    def is_ray_family(self) -> bool:
        return self.pattern is None

    def pattern_vertices(self) -> list:
        if self.pattern is None:
            raise ValueError("ray family has no finite pattern")
        return sorted(self.pattern.vertices)


@dataclass(frozen=True)
class CliqueSpec:
    name: str
    attach: tuple[str, ...]  # core vertices adjacent to every clique vertex


def vertex_text(v: Vertex) -> str:
    return ":".join(str(part) for part in v)


def vertex_sort_key(v: Vertex):
    return tuple(str(part) for part in v)


class SchemaError(ValueError):
    pass


# Vertices plus edges allowed in one truncation.  A ray family or a clique
# brings about n^2 of them at depth n; past the cap the depth is refused.
TRUNCATION_CAP = 1 << 15


class SchemaGraph:
    """A validated schema.  Instances are immutable; compare by identity."""

    def __init__(self, core: FiniteGraph, rays=(), families=(), cliques=()):
        self.core = core
        self.rays = tuple(rays)
        self.families = tuple(families)
        self.cliques = tuple(cliques)
        self._component_cache: dict[frozenset, object] = {}
        self._truncation_cache: dict[int, FiniteGraph] = {}
        self._rays = {r.name: r for r in self.rays}
        self._families = {f.name: f for f in self.families}
        self._cliques = {c.name: c for c in self.cliques}
        self._validate()

    # -- validation --------------------------------------------------------

    def _validate(self):
        counts = Counter(p.name for p in (*self.rays, *self.families, *self.cliques))
        dupes = [n for n, k in counts.items() if k > 1]
        if dupes:
            raise SchemaError(f"duplicate part name(s): {sorted(dupes)}")
        for r in self.rays:
            if r.hub is not None and r.hub not in self.core.vertices:
                raise SchemaError(f"ray {r.name}: unknown core vertex {r.hub!r}")
        for f in self.families:
            if f.pattern is not None:
                if not f.pattern.vertices:
                    raise SchemaError(f"family {f.name}: empty pattern")
                if not f.pattern.is_connected():
                    raise SchemaError(f"family {f.name}: pattern must be connected")
            for c, pv in f.core_attach:
                if c not in self.core.vertices:
                    raise SchemaError(f"family {f.name}: unknown core vertex {c!r}")
                self._check_pattern_vertex(f, pv)
            for rn, pv in f.ray_attach:
                if rn not in self._rays:
                    raise SchemaError(f"family {f.name}: unknown ray {rn!r}")
                self._check_pattern_vertex(f, pv)
            if f.is_ray_family and f.ray_attach:
                raise SchemaError(f"ray family {f.name}: attachments must be to core vertices")
            if not f.core_attach and not f.ray_attach:
                raise SchemaError(f"family {f.name}: unattached family disconnects the graph")
        for c in self.cliques:
            for cv in c.attach:
                if cv not in self.core.vertices:
                    raise SchemaError(f"clique {c.name}: unknown core vertex {cv!r}")
        self._check_connected()

    def _check_pattern_vertex(self, f: FamilySpec, pv):
        if f.is_ray_family:
            if pv != 0:
                raise SchemaError(f"ray family {f.name}: attachments bind position 0 only")
        elif pv not in f.pattern.vertices:
            raise SchemaError(f"family {f.name}: unknown pattern vertex {pv!r}")

    def _check_connected(self):
        from .components import components  # components reads the schema

        cs = components(self, ())
        parts = len(cs.concretes) + len(cs.classes)
        if not parts:
            raise SchemaError("empty schema")
        if parts > 1:
            raise SchemaError("schema is not connected")

    # -- basic structure -----------------------------------------------------

    @cached_property
    def is_infinite(self) -> bool:
        return bool(self.rays or self.families or self.cliques)

    @cached_property
    def family_slots(self) -> dict[str, tuple[tuple, ...]]:
        """Each family's index-set slots by name (see ``symsets``): one per
        pattern vertex, or one for a ray family."""
        return {
            f.name: (("fam", f.name),)
            if f.is_ray_family
            else tuple(("fam", f.name, pv) for pv in f.pattern_vertices())
            for f in self.families
        }

    def ray_spec(self, name: str) -> RaySpec:
        return self._rays[name]

    def family_spec(self, name: str) -> FamilySpec:
        return self._families[name]

    def clique_spec(self, name: str) -> CliqueSpec:
        return self._cliques[name]

    def aligned_rays(self, fam: FamilySpec) -> list[str]:
        return sorted({rn for rn, _ in fam.ray_attach})

    def contains_vertex(self, v: Vertex) -> bool:
        match v:
            case ("core", x):
                return x in self.core.vertices
            case ("ray", name, pos):
                return type(pos) is int and pos >= 0 and name in self._rays
            case ("fam", name, copy, pv):
                f = self._families.get(name)
                if f is None or not (type(copy) is int and copy >= 0):
                    return False
                if f.is_ray_family:
                    return type(pv) is int and pv >= 0
                return pv in f.pattern.vertices
            case ("cliq", name, idx):
                return type(idx) is int and idx >= 0 and name in self._cliques
        return False

    def check_vertices(self, vs) -> frozenset:
        vs = frozenset(vs)
        for v in vs:
            if not self.contains_vertex(v):
                raise ValueError(f"vertex {vertex_text(v)} not in schema")
        return vs

    def depth(self, v: Vertex) -> int:
        match v:
            case ("core", _):
                return 0
            case ("ray", _, pos):
                return pos
            case ("fam", name, copy, pv):
                if self.family_spec(name).is_ray_family:
                    return max(copy, pv)
                return copy
            case ("cliq", _, idx):
                return idx
        raise ValueError(v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            return False
        a, b = sorted((u, v), key=vertex_sort_key)
        match (a, b):
            case (("cliq", n1, i1), ("cliq", n2, i2)):
                return n1 == n2 and i1 != i2
            case (("core", x), ("cliq", n, _)) | (("cliq", n, _), ("core", x)):
                return x in self.clique_spec(n).attach
            case (("ray", n1, p1), ("ray", n2, p2)):
                return n1 == n2 and abs(p1 - p2) == 1
            case (("core", x), ("ray", n, p)) | (("ray", n, p), ("core", x)):
                return p == 0 and self.ray_spec(n).hub == x
            case (("core", x), ("core", y)):
                return self.core.has_edge(x, y)
            case (("fam", n1, c1, p1), ("fam", n2, c2, p2)):
                if n1 != n2 or c1 != c2:
                    return False
                f = self.family_spec(n1)
                if f.is_ray_family:
                    return abs(p1 - p2) == 1
                return f.pattern.has_edge(p1, p2)
            case (("core", x), ("fam", n, _, pv)) | (("fam", n, _, pv), ("core", x)):
                f = self.family_spec(n)
                return (x, pv) in f.core_attach
            case (("ray", rn, p), ("fam", n, c, pv)) | (("fam", n, c, pv), ("ray", rn, p)):
                f = self.family_spec(n)
                return p == c and (rn, pv) in f.ray_attach
        return False

    # -- truncation ------------------------------------------------------

    def vertices_below(self, n: int) -> list[Vertex]:
        """Vertices of the depth-n truncation, deterministically ordered."""
        out: list[Vertex] = [("core", x) for x in sorted(self.core.vertices)]
        for r in self.rays:
            out += [("ray", r.name, p) for p in range(n)]
        for f in self.families:
            for i in range(n):
                if f.is_ray_family:
                    out += [("fam", f.name, i, p) for p in range(n)]
                else:
                    out += [("fam", f.name, i, pv) for pv in f.pattern_vertices()]
        for c in self.cliques:
            out += [("cliq", c.name, i) for i in range(n)]
        return out

    def truncation_size(self, n: int) -> int:
        """Vertices plus edges of the depth-n truncation, counted from the
        parts (repeated attachments counted each time)."""
        size = len(self.core.vertices) + len(self.core.edges)
        size += sum(2 * n - 1 + (r.hub is not None) for r in self.rays)
        for f in self.families:
            copy = 2 * n - 1 if f.is_ray_family else len(f.pattern.vertices) + len(f.pattern.edges)
            size += n * (copy + len(f.core_attach) + len(f.ray_attach))
        size += sum(n * (n + 1) // 2 + n * len(c.attach) for c in self.cliques)
        return size

    def truncate(self, n: int) -> FiniteGraph:
        """Finite graph on core plus ray positions < n and part indices < n."""
        if n < 1:
            raise ValueError("truncation level must be >= 1")
        if n in self._truncation_cache:
            return self._truncation_cache[n]
        size = self.truncation_size(n)
        if size > TRUNCATION_CAP:
            raise ResourceGuardError(
                f"depth-{n} truncation of {size} vertices and edges exceeds the cap of "
                f"{TRUNCATION_CAP}"
            )
        verts = {vertex_text(v) for v in self.vertices_below(n)}
        edges: set[tuple[str, str]] = set()

        def add(u: Vertex, v: Vertex):
            a, b = vertex_text(u), vertex_text(v)
            edges.add((a, b) if a <= b else (b, a))

        for u, v in self.core.edges:
            add(("core", u), ("core", v))
        for r in self.rays:
            for p in range(n - 1):
                add(("ray", r.name, p), ("ray", r.name, p + 1))
            if r.hub is not None:
                add(("core", r.hub), ("ray", r.name, 0))
        for f in self.families:
            for i in range(n):
                if f.is_ray_family:
                    for p in range(n - 1):
                        add(("fam", f.name, i, p), ("fam", f.name, i, p + 1))
                    for c, pv in f.core_attach:
                        add(("core", c), ("fam", f.name, i, pv))
                else:
                    for u, v in f.pattern.edges:
                        add(("fam", f.name, i, u), ("fam", f.name, i, v))
                    for c, pv in f.core_attach:
                        add(("core", c), ("fam", f.name, i, pv))
                    for rn, pv in f.ray_attach:
                        if i < n:
                            add(("ray", rn, i), ("fam", f.name, i, pv))
        for c in self.cliques:
            for i in range(n):
                for j in range(i + 1, n):
                    add(("cliq", c.name, i), ("cliq", c.name, j))
                for cv in c.attach:
                    add(("core", cv), ("cliq", c.name, i))
        g = FiniteGraph(frozenset(verts), frozenset(edges))
        self._truncation_cache[n] = g
        return g

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        if self.core.vertices:
            lines.append("core:")
            lines += [f"v {v}" for v in sorted(self.core.vertices)]
            if self.core.edges:
                lines.append("edge:")
                lines += [f"e {u} {v}" for u, v in sorted(self.core.edges)]
        for r in self.rays:
            lines.append(f"ray {r.name} at {r.hub}" if r.hub else f"ray {r.name}")
        for f in self.families:
            if f.is_ray_family:
                hubs = " ".join(c for c, _ in f.core_attach)
                lines.append(f"rayfam {f.name}" + (f" at {hubs}" if hubs else ""))
            else:
                pat = "; ".join(
                    [f"v {v}" for v in sorted(f.pattern.vertices)]
                    + [f"e {u} {v}" for u, v in sorted(f.pattern.edges)]
                )
                attaches = [f"attach {c} {pv}" for c, pv in f.core_attach]
                attaches += [f"attach along {rn} {pv}" for rn, pv in f.ray_attach]
                # a pattern vertex or ray named 'attach' would split a trailing
                # clause, so such attachments go on lines of their own
                sep = "\n" if any("attach" in a for a in f.core_attach + f.ray_attach) else " "
                lines.append(f"family {f.name} pattern {{ {pat} }}{sep}" + sep.join(attaches))
        for c in self.cliques:
            lines.append(f"clique {c.name}" + (f" attach {' '.join(c.attach)}" if c.attach else ""))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return (
            f"SchemaGraph(core={len(self.core.vertices)}v, rays={len(self.rays)}, "
            f"families={len(self.families)}, cliques={len(self.cliques)})"
        )


def parse_vertex(schema: SchemaGraph, text: str) -> Vertex:
    parts = text.split(":")
    try:
        match parts:
            case ["core", x]:
                v = ("core", x)
            case ["ray", name, pos]:
                v = ("ray", name, parse_nat(pos, "position"))
            case ["fam", name, copy, pv]:
                f = schema.family_spec(name)
                pv = parse_nat(pv, "leg position") if f.is_ray_family else pv
                v = ("fam", name, parse_nat(copy, "copy"), pv)
            case ["cliq", name, idx]:
                v = ("cliq", name, parse_nat(idx, "clique index"))
            case _:
                raise ValueError
    except (ValueError, KeyError):
        raise ValueError(f"bad vertex text {text!r}") from None
    if not schema.contains_vertex(v):
        raise ValueError(f"vertex {text!r} not in schema")
    return v


def parse_level(schema: SchemaGraph, text: str) -> frozenset[Vertex]:
    """A finite level from comma-separated vertex texts; blank entries are skipped."""
    return frozenset(parse_vertex(schema, t.strip()) for t in text.split(",") if t.strip())


def level_text(X) -> str:
    """``X={...}`` with the level's vertex texts in canonical order."""
    return "X={" + ",".join(vertex_text(v) for v in sorted(X, key=vertex_sort_key)) + "}"


# -- DSL parser -------------------------------------------------------------


def parse_schema(text: str) -> SchemaGraph:
    """Parse the schema DSL.

    Sections/directives::

        core:                        # core vertex declarations follow (v lines)
        edge:                        # core edge declarations follow (e lines)
        ray NAME [at COREVERTEX]
        rayfam NAME [at COREVERTEX ...]
        family NAME pattern { v/e entries } attach COREVERTEX PV [PV ...]
                                     ... attach along RAY PV [PV ...]
        clique NAME [attach COREVERTEX ...]

    Pattern entries may be separated by newlines or ``;`` and follow the
    same ``v``/``e`` rules as core lines.  Every ``attach`` clause starts
    with the word ``attach``, whether it trails the closing brace or stands
    on its own line after the block.
    """
    core_v: set[str] = set()
    core_e: set[tuple[str, str]] = set()
    rays: list[RaySpec] = []
    families: list[FamilySpec] = []
    cliques: list[CliqueSpec] = []
    section = None
    block = None  # (name, vertices, edges) of the open pattern block
    attachable = False  # whether an ``attach`` line extends families[-1]

    def err(msg: str, ln: int):
        raise GraphParseError(msg, ln)

    def attach(tokens: list[str], ln: int):
        # tokens after 'attach'; extends the last family
        f = families[-1]
        if not tokens:
            err("empty attach clause", ln)
        if tokens[0] == "along":
            if len(tokens) < 3:
                err("attach along needs a ray and pattern vertices", ln)
            f = replace(f, ray_attach=f.ray_attach + tuple((tokens[1], pv) for pv in tokens[2:]))
        else:
            if len(tokens) < 2:
                err("attach needs a core vertex and pattern vertices", ln)
            f = replace(f, core_attach=f.core_attach + tuple((tokens[0], pv) for pv in tokens[1:]))
        families[-1] = f

    def read_block(body: str, ln: int):
        # pattern entries up to '}', then the trailing attach clauses
        nonlocal block
        name, verts, edges = block
        entries, closed, rest = body.partition("}")
        for entry in map(str.strip, entries.split(";")):
            if entry:
                read_graph_line(entry, verts, edges, ln)
        if not closed:
            return
        block = None
        families.append(FamilySpec(name, FiniteGraph(frozenset(verts), frozenset(edges)), (), ()))
        stray, *clauses = f" {rest.strip()}".split(" attach ")
        if stray.strip():
            err("unexpected text after pattern block", ln)
        for clause in clauses:
            attach(clause.split(), ln)

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if block is not None:
            read_block(line, ln)
            continue
        tokens = line.split()
        head = tokens[0]
        if attachable and head == "attach":
            attach(tokens[1:], ln)
            continue
        attachable = False
        if line == "core:":
            section = "core"
        elif line == "edge:":
            section = "edge"
        elif head == "v" and section != "core":
            err("vertex line outside core section", ln)
        elif head == "e" and section not in ("core", "edge"):
            err("edge line outside core/edge section", ln)
        elif head in ("v", "e"):
            read_graph_line(line, core_v, core_e, ln)
        elif head == "ray":
            if len(tokens) == 2:
                rays.append(RaySpec(tokens[1], None))
            elif len(tokens) == 4 and tokens[2] == "at":
                rays.append(RaySpec(tokens[1], tokens[3]))
            else:
                err("malformed ray line", ln)
        elif head == "rayfam":
            if len(tokens) == 2:
                families.append(FamilySpec(tokens[1], None, (), ()))
            elif len(tokens) >= 4 and tokens[2] == "at":
                families.append(
                    FamilySpec(tokens[1], None, tuple((c, 0) for c in tokens[3:]), ())
                )
            else:
                err("malformed rayfam line", ln)
        elif head == "family":
            if len(tokens) < 3 or tokens[2] != "pattern" or "{" not in line:
                err("malformed family line", ln)
            block, attachable = (tokens[1], set(), set()), True
            read_block(line.split("{", 1)[1], ln)
        elif head == "clique":
            if len(tokens) == 2:
                cliques.append(CliqueSpec(tokens[1], ()))
            elif len(tokens) >= 4 and tokens[2] == "attach":
                cliques.append(CliqueSpec(tokens[1], tuple(tokens[3:])))
            else:
                err("malformed clique line", ln)
        else:
            err(f"malformed line {line!r}", ln)
    if block is not None:
        err(f"family {block[0]}: unterminated pattern block", len(text.splitlines()))
    core = FiniteGraph(frozenset(core_v), frozenset(core_e))
    try:
        return SchemaGraph(core, rays, families, cliques)
    except SchemaError as exc:
        raise GraphParseError(str(exc), 0) from exc
