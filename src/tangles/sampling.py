"""Seeded samplers for vertices, index sets, selections and separations.

Everything is driven by a caller-supplied ``random.Random`` so that runs
are reproducible from a single seed.
"""

from __future__ import annotations

import random

from .components import ComponentSelection, ComponentSet, components
from .schema import SchemaGraph, Vertex
from .semilinear import SemilinearSet
from .separations import OrientedSeparation, from_bipartition

# Samplers draw vertices from the truncation of this depth.
SAMPLE_DEPTH = 6


def random_semilinear(rng: random.Random, within: SemilinearSet) -> SemilinearSet:
    """A random semilinear subset of ``within``."""
    kind = rng.randrange(6)
    if kind == 0:
        return SemilinearSet.empty()
    if kind == 1:
        return within
    pool = within.first(12)
    if kind == 2:
        picked = [x for x in pool if rng.random() < 0.4]
        return SemilinearSet.make(picked)
    if kind == 3:
        picked = [x for x in pool if rng.random() < 0.4]
        return within - SemilinearSet.make(picked)
    prog = SemilinearSet.progression(rng.randrange(8), rng.randrange(1, 4))
    if kind == 4:
        return within & prog
    return within - prog


def random_vertices(schema: SchemaGraph, rng: random.Random, count: int) -> frozenset[Vertex]:
    pool = schema.vertices_below(SAMPLE_DEPTH)
    count = min(count, len(pool))
    return frozenset(rng.sample(pool, count))


def random_level(schema: SchemaGraph, rng: random.Random, max_size: int = 3) -> frozenset[Vertex]:
    return random_vertices(schema, rng, rng.randrange(max_size + 1))


def random_selection(cs: ComponentSet, rng: random.Random) -> ComponentSelection:
    flags = [rng.random() < 0.5 for _ in cs.concretes]
    parts = {c.family: random_semilinear(rng, c.indices) for c in cs.classes}
    return cs.selection(
        concretes=[k for k, f in enumerate(flags) if f], class_parts=parts
    )


def random_separation(schema: SchemaGraph, rng: random.Random) -> OrientedSeparation:
    X = random_level(schema, rng)
    cs = components(schema, X)
    return from_bipartition(schema, X, random_selection(cs, rng))
