"""The closure probe's kernel move as a corner-join fold: the member (K, V)
joined with one member per probe vertex outside the finite kernel K, each
cutting the end off two past the deepest probe vertex.  The engine returns
the single member this fold always equals.  ``restrict`` reads a
separation's trace on a finite vertex set vertex by vertex."""

from tangles.components import components
from tangles.infinite_tangles import end_component
from tangles.separations import from_bipartition
from tangles.topology import kernel


def restrict(sep, Z):
    """Induced separation (A n Z, B n Z) of the finite induced subgraph."""
    Z = sep.schema.check_vertices(Z)
    return (
        frozenset(v for v in Z if v in sep.side_A),
        frozenset(v for v in Z if v in sep.side_B),
    )


def member_avoiding(tangle, z, n):
    """A member of the end tangle with z strictly on the near side."""
    schema, end = tangle.schema, tangle.end
    cut = set(kernel(tangle).to_explicit())
    if end.kind == "rays":
        cut |= {("ray", r, n) for r in end.names}
    else:
        cut.add(("fam", end.names[0], end.index, n))
    if z in cut:
        raise ValueError("vertex sits on the cut")
    cs = components(schema, cut)
    sep = from_bipartition(schema, cut, cs.only(end_component(end, cs)))
    if z in sep.side_B:
        raise AssertionError("cut failed to strip the vertex from the end side")
    return sep


def kernel_join(tangle, Z):
    """(K, V) corner-joined with ``member_avoiding(tangle, z, n)`` for each z
    of Z outside K, where n is two past the deepest vertex of Z."""
    schema = tangle.schema
    kx = frozenset(kernel(tangle).to_explicit())
    n = 2 + max([schema.depth(z) for z in Z] + [0])
    join = from_bipartition(schema, kx, components(schema, kx).select_all())
    for z in Z:
        if z not in kx:
            join = join.corner_join(member_avoiding(tangle, z, n))
    return join
