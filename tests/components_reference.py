"""The quotient computation of ``components()`` as a plain reference: one
``SymVertexSet`` per non-explicit quotient node, each component's set as
``SymVertexSet.of`` of its explicit vertices united with its node sets,
and the concretes always sorted by text.  No cache."""

from symsets_reference import make_set
from tangles.components import QUOTIENT_CAP, ComponentSet, Concrete, FamilyClass
from tangles.semilinear import ResourceGuardError, SemilinearSet
from tangles.schema import SchemaGraph, Vertex
from tangles.symsets import SymVertexSet, union_all

_NAT = SemilinearSet.naturals()


def ray_tail(schema: SchemaGraph, ray: str, from_pos: int) -> SymVertexSet:
    """The positions of a ray from ``from_pos`` on."""
    return make_set(schema, ray_pos={ray: SemilinearSet.from_(from_pos)})


def copy_tail(schema: SchemaGraph, fam: str, copy: int, from_pos: int) -> SymVertexSet:
    """A ray-family copy minus its first ``from_pos`` positions."""
    if not schema.family_spec(fam).is_ray_family:
        raise ValueError(f"{fam} is not a ray family")
    return make_set(
        schema,
        fam_whole={fam: SemilinearSet.of(copy)},
        fam_minus={("fam", fam, copy, p) for p in range(from_pos)},
    )


def reference_components(schema: SchemaGraph, X) -> ComponentSet:
    X = schema.check_vertices(X)
    m_ray = {r.name: -1 for r in schema.rays}
    t_fam = {f.name: -1 for f in schema.families}
    leg_pos: dict[tuple[str, int], int] = {}
    deleted_cliq: dict[str, set[int]] = {c.name: set() for c in schema.cliques}
    for v in X:
        match v:
            case ("ray", n, p):
                m_ray[n] = max(m_ray[n], p)
            case ("fam", n, i, pv):
                t_fam[n] = max(t_fam[n], i)
                if schema.family_spec(n).is_ray_family:
                    key = (n, i)
                    leg_pos[key] = max(leg_pos.get(key, -1), pv)
            case ("cliq", n, i):
                deleted_cliq[n].add(i)

    # aligned families tie their bound to the explicit prefix of their rays
    changed = True
    while changed:
        changed = False
        for f in schema.families:
            if not f.ray_attach:
                continue
            b = max([t_fam[f.name]] + [m_ray[rn] for rn in schema.aligned_rays(f)])
            if b > t_fam[f.name]:
                t_fam[f.name] = b
                changed = True
            for rn in schema.aligned_rays(f):
                if b > m_ray[rn]:
                    m_ray[rn] = b
                    changed = True

    size = len(schema.core.vertices) + sum(m + 1 for m in m_ray.values())
    size += sum(m + 1 for m in leg_pos.values())
    for f in schema.families:
        size += (t_fam[f.name] + 1) * (1 if f.is_ray_family else len(f.pattern_vertices()))
    if size > QUOTIENT_CAP:
        raise ResourceGuardError(f"quotient of {size} explicit nodes exceeds the cap")

    adj: dict[object, set] = {}
    vsets: dict[object, SymVertexSet] = {}

    def add_node(n, vset=None):
        if n not in adj:
            adj[n] = set()
            if vset is not None:
                vsets[n] = vset

    def add_edge(a, b):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)

    def vnode(v: Vertex):
        return ("v", v)

    for x in schema.core.vertices:
        add_node(vnode(("core", x)))
    for u, v in schema.core.edges:
        add_edge(vnode(("core", u)), vnode(("core", v)))

    for r in schema.rays:
        m = m_ray[r.name]
        for p in range(m + 1):
            add_node(vnode(("ray", r.name, p)))
            if p > 0:
                add_edge(vnode(("ray", r.name, p - 1)), vnode(("ray", r.name, p)))
        tail = ("rtail", r.name)
        add_node(tail, ray_tail(schema, r.name, m + 1))
        if m >= 0:
            add_edge(vnode(("ray", r.name, m)), tail)
        if r.hub is not None:
            hub = vnode(("core", r.hub))
            add_edge(hub, vnode(("ray", r.name, 0)) if m >= 0 else tail)

    for f in schema.families:
        bound = t_fam[f.name] + 1
        cls_node = ("fclass", f.name)
        add_node(
            cls_node, SymVertexSet.whole_copies(schema, f.name, SemilinearSet.from_(bound))
        )
        for c, pv in f.core_attach:
            if f.is_ray_family and pv != 0:
                continue
            add_edge(vnode(("core", c)), cls_node)
        for rn, pv in f.ray_attach:
            add_edge(("rtail", rn), cls_node)
        for i in range(bound):
            if f.is_ray_family:
                m = leg_pos.get((f.name, i), -1)
                for p in range(m + 1):
                    vv = ("fam", f.name, i, p)
                    add_node(vnode(vv))
                    if p > 0:
                        add_edge(vnode(("fam", f.name, i, p - 1)), vnode(vv))
                tail = ("ftail", f.name, i)
                add_node(tail, copy_tail(schema, f.name, i, m + 1))
                if m >= 0:
                    add_edge(vnode(("fam", f.name, i, m)), tail)
                for c, _ in f.core_attach:
                    hub = vnode(("core", c))
                    add_edge(hub, vnode(("fam", f.name, i, 0)) if m >= 0 else tail)
            else:
                for pv in f.pattern_vertices():
                    add_node(vnode(("fam", f.name, i, pv)))
                for u, v in f.pattern.edges:
                    add_edge(vnode(("fam", f.name, i, u)), vnode(("fam", f.name, i, v)))
                for c, pv in f.core_attach:
                    add_edge(vnode(("core", c)), vnode(("fam", f.name, i, pv)))
                for rn, pv in f.ray_attach:
                    add_edge(vnode(("ray", rn, i)), vnode(("fam", f.name, i, pv)))

    for c in schema.cliques:
        rest = _NAT - SemilinearSet.make(deleted_cliq[c.name])
        node = ("crem", c.name)
        add_node(node, SymVertexSet.clique_part(schema, c.name, rest))
        for cv in c.attach:
            add_edge(vnode(("core", cv)), node)

    removed_nodes = {vnode(v) for v in X}
    seen = set(removed_nodes)
    comps: list[list] = []
    for start in adj:
        if start in seen:
            continue
        stack, comp = [start], [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(comp)

    concretes: list[Concrete] = []
    classes: list[FamilyClass] = []
    for comp in comps:
        if len(comp) == 1 and comp[0][0] == "fclass":
            fname = comp[0][1]
            indices = SemilinearSet.from_(t_fam[fname] + 1)
            classes.append(FamilyClass(fname, indices, frozenset(y[1] for y in adj[comp[0]])))
        else:
            explicit = SymVertexSet.of(schema, [n[1] for n in comp if n[0] == "v"])
            parts = [n for n in comp if n[0] != "v"]
            vs = union_all(schema, [explicit] + [vsets[n] for n in parts])
            if not vs.is_empty:
                hubs = [n for n in parts if n[0] in ("fclass", "crem")]
                near = tuple({y[1] for n in hubs for y in adj[n] if y[0] == "v"})
                cliques = tuple(n[1] for n in hubs if n[0] == "crem")
                nodes = tuple(n[1] if n[0] == "v" else n for n in comp)
                concretes.append(Concrete(vs, near, cliques, nodes))

    concretes.sort(key=lambda c: c.vertices.text())
    classes.sort(key=lambda c: c.family)
    return ComponentSet(schema, X, tuple(concretes), tuple(classes))
