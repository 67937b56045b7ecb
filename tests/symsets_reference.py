"""Vertex sets built by name, for tests and the test references."""

from tangles.schema import SchemaGraph
from tangles.symsets import SymVertexSet


def make_set(
    schema: SchemaGraph,
    core=(),
    ray_pos=(),
    cliq_idx=(),
    fam_whole=(),
    fam_plus=(),
    fam_minus=(),
) -> SymVertexSet:
    """Core vertices, ray positions, clique indices and whole family copies
    by name, with the family vertices of ``fam_plus`` added and those of
    ``fam_minus`` removed."""
    plus, minus = frozenset(fam_plus), frozenset(fam_minus)
    if plus & minus:
        raise ValueError("fam_plus and fam_minus overlap")
    slots = {("ray", n): s for n, s in dict(ray_pos).items()}
    slots |= {("cliq", n): s for n, s in dict(cliq_idx).items()}
    for n, s in dict(fam_whole).items():
        slots |= dict.fromkeys(schema.family_slots[n], s)
    built = SymVertexSet._build(schema, core, slots)
    return (built | SymVertexSet.of(schema, plus)) - SymVertexSet.of(schema, minus)
