"""The attachment rules of the schema language, read off the schema text:
an independent reference for the connectivity check, the end catalogue,
the infinite blocks, the witnesses, ultrafilter classes and kernels that
the engine reads from the component quotient."""

from tangles.graphs import FiniteGraph
from tangles.infinite_tangles import End, EndCatalogue
from tangles.schema import SchemaGraph, vertex_sort_key, vertex_text
from tangles.semilinear import SemilinearSet
from tangles.symsets import SymVertexSet


def part_graph(schema: SchemaGraph) -> FiniteGraph:
    """One node per core vertex and per part, hub edges as declared.
    Family copies along a ray touch it, so they join its node."""
    nodes = [f"core:{v}" for v in schema.core.vertices]
    nodes += [f"part:{p.name}" for p in (*schema.rays, *schema.families, *schema.cliques)]
    edges = [(f"core:{u}", f"core:{v}") for u, v in schema.core.edges]
    edges += [(f"core:{r.hub}", f"part:{r.name}") for r in schema.rays if r.hub is not None]
    for f in schema.families:
        edges += [(f"core:{c}", f"part:{f.name}") for c, _ in f.core_attach]
        edges += [(f"part:{rn}", f"part:{f.name}") for rn, _ in f.ray_attach]
    for c in schema.cliques:
        edges += [(f"core:{cv}", f"part:{c.name}") for cv in c.attach]
    return FiniteGraph(frozenset(nodes), frozenset(edges))


def is_connected(schema: SchemaGraph) -> bool:
    """Whether the schema is non-empty and its part graph connected."""
    g = part_graph(schema)
    return bool(g.vertices) and g.is_connected()


def end_catalogue(schema: SchemaGraph) -> EndCatalogue:
    """Single rays merged along shared bridging families, leg families
    (one end per copy), and one end per clique."""
    parent = {r.name: r.name for r in schema.rays}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in schema.families:
        rays = schema.aligned_rays(f)
        for a, b in zip(rays, rays[1:]):
            parent[find(a)] = find(b)
    groups: dict[str, list[str]] = {}
    for r in schema.rays:
        groups.setdefault(find(r.name), []).append(r.name)
    singles = [End("rays", tuple(sorted(g))) for g in groups.values()]
    singles += [End("clique", (c.name,)) for c in schema.cliques]
    singles.sort(key=lambda e: e.id())
    legs = tuple(sorted(f.name for f in schema.families if f.is_ray_family))
    return EndCatalogue(tuple(singles), legs)


def clique_block(schema: SchemaGraph, clique: str) -> SymVertexSet:
    """A clique together with its attached cores, which meet every clique
    vertex and so cannot be cut off from it."""
    return SymVertexSet.make(
        schema,
        core=frozenset(schema.clique_spec(clique).attach),
        cliq_idx={clique: SemilinearSet.naturals()},
    )


def infinite_blocks(schema: SchemaGraph) -> list[dict]:
    return [
        {
            "clique": c.name,
            "vertices": clique_block(schema, c.name).text(),
            "attached_cores": sorted(c.attach),
        }
        for c in schema.cliques
    ]


def splittable_families(schema: SchemaGraph) -> list[str]:
    """Families attached to the core only: deleting their hubs detaches
    every copy, so infinitely many components split off."""
    return [f.name for f in schema.families if f.core_attach and not f.ray_attach]


def hub_vertices(schema: SchemaGraph, family: str) -> frozenset:
    return frozenset(("core", c) for c, _ in schema.family_spec(family).core_attach)


def uf_classes(schema: SchemaGraph) -> list[dict]:
    return [
        {"witness": [vertex_text(v) for v in sorted(hub_vertices(schema, name), key=vertex_sort_key)],
         "family": name}
        for name in splittable_families(schema)
    ]


def kernel(tangle) -> SymVertexSet:
    """The hubs of a uf tangle's family; the clique and its attached cores
    for a clique end; nothing for a leg; for a ray end, the cores of the
    core-attached families aligned to its rays."""
    schema = tangle.schema
    if tangle.kind == "uf":
        return SymVertexSet.of(schema, hub_vertices(schema, tangle.handle.core.family))
    end = tangle.end
    if end.kind == "clique":
        return clique_block(schema, end.names[0])
    if end.kind == "leg":
        return SymVertexSet.empty(schema)
    cores = {
        c
        for f in schema.families
        if any(rn in end.names for rn in schema.aligned_rays(f))
        for c, _ in f.core_attach
    }
    return SymVertexSet.make(schema, core=cores)
