"""Finite graphs: the substrate for truncation oracles and exhaustive checks.

Vertices are string identifiers.  The file format is line based:
``v <id>`` declares a vertex, ``e <id> <id>`` an edge, ``#`` starts a
comment.  Loops and parallel edges are rejected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def bit_ids(x: int):
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class FiniteGraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    @cached_property
    def numbered(self) -> tuple[tuple[str, ...], dict[str, int], tuple[tuple[int, ...], ...]]:
        """The vertices in sorted order, the position of each, and for each
        position the positions of its neighbours, ascending."""
        order = tuple(sorted(self.vertices))
        index = {v: i for i, v in enumerate(order)}
        nbrs = tuple(tuple(sorted(index[w] for w in self.adjacency[v])) for v in order)
        return order, index, nbrs

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adjacency[v]

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: str, v: str) -> bool:
        return _edge(u, v) in self.edges

    def components(self, removed: frozenset[str] = frozenset()) -> list[frozenset[str]]:
        """Connected components of the graph minus ``removed``, sorted."""
        seen: set[str] = set(removed)
        comps = []
        for start in sorted(self.vertices):
            if start in seen:
                continue
            stack, comp = [start], {start}
            seen.add(start)
            while stack:
                x = stack.pop()
                for y in self.adjacency[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            comps.append(frozenset(comp))
        return sorted(comps, key=lambda c: sorted(c))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def relabel(self, mapping: dict[str, str]) -> "FiniteGraph":
        return FiniteGraph(
            frozenset(mapping[v] for v in self.vertices),
            frozenset(_edge(mapping[u], mapping[v]) for u, v in self.edges),
        )

    def digest(self) -> str:
        text = ";".join(sorted(self.vertices)) + "|" + ";".join(
            f"{u},{v}" for u, v in sorted(self.edges)
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in sorted(self.vertices):
            lines.append(f'  "{v}";')
        for u, v in sorted(self.edges):
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"FiniteGraph({len(self.vertices)}v,{len(self.edges)}e)"


def read_graph_line(line: str, vertices: set[str], edges: set[tuple[str, str]], ln: int) -> None:
    """Add one ``v <id>`` or ``e <id> <id>`` line to ``vertices``/``edges``."""
    parts = line.split()
    if parts[0] == "v":
        if len(parts) != 2:
            raise GraphParseError("malformed vertex line", ln)
        if parts[1] in vertices:
            raise GraphParseError(f"duplicate vertex {parts[1]!r}", ln)
        vertices.add(parts[1])
    elif parts[0] == "e":
        if len(parts) != 3:
            raise GraphParseError("malformed edge line", ln)
        u, v = parts[1], parts[2]
        if u == v:
            raise GraphParseError(f"loop at {u!r}", ln)
        for x in (u, v):
            if x not in vertices:
                raise GraphParseError(f"undeclared endpoint {x!r}", ln)
        e = _edge(u, v)
        if e in edges:
            raise GraphParseError(f"duplicate edge {u!r} {v!r}", ln)
        edges.add(e)
    else:
        raise GraphParseError(f"malformed line {line!r}", ln)


def parse_finite(text: str) -> FiniteGraph:
    vertices: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            read_graph_line(line, vertices, edges, ln)
    return FiniteGraph(frozenset(vertices), frozenset(edges))


def render_finite(g: FiniteGraph) -> str:
    lines = [f"v {v}" for v in sorted(g.vertices)]
    lines += [f"e {u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


# -- builders --------------------------------------------------------------


def path_graph(n: int) -> FiniteGraph:
    ids = [f"p{i}" for i in range(n)]
    return FiniteGraph(
        frozenset(ids), frozenset(_edge(ids[i], ids[i + 1]) for i in range(n - 1))
    )


def cycle_graph(n: int) -> FiniteGraph:
    ids = [f"c{i}" for i in range(n)]
    return FiniteGraph(
        frozenset(ids),
        frozenset(_edge(ids[i], ids[(i + 1) % n]) for i in range(n)),
    )


def complete_graph(n: int) -> FiniteGraph:
    ids = [f"k{i}" for i in range(n)]
    return FiniteGraph(
        frozenset(ids), frozenset(_edge(u, v) for u, v in combinations(ids, 2))
    )


def grid_graph(rows: int, cols: int) -> FiniteGraph:
    def vid(r, c):
        return f"g{r}_{c}"

    verts = frozenset(vid(r, c) for r in range(rows) for c in range(cols))
    edges = set()
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.add(_edge(vid(r, c), vid(r + 1, c)))
            if c + 1 < cols:
                edges.add(_edge(vid(r, c), vid(r, c + 1)))
    return FiniteGraph(verts, frozenset(edges))


def from_edges(pairs) -> FiniteGraph:
    verts, edges = set(), set()
    for u, v in pairs:
        verts.update((u, v))
        edges.add(_edge(u, v))
    return FiniteGraph(frozenset(verts), frozenset(edges))
