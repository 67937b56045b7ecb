"""The attachment rules of the schema language, read off the schema text:
an independent reference for the witnesses, ultrafilter classes and
kernels that the engine reads from the core-level quotient."""

from tangles.blocks import clique_block
from tangles.schema import SchemaGraph, vertex_sort_key, vertex_text
from tangles.symsets import SymVertexSet


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
