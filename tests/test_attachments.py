"""Witnesses, ultrafilter classes and kernels read from the core-level
quotient agree with the schema language's attachment rules."""

import pytest
from dsl_reference import hub_vertices, kernel as reference_kernel, splittable_families, uf_classes
from test_topology import WITH_TWO_CLIQUES

from tangles.builtin import builtin_names, load
from tangles.infinite_tangles import (
    census,
    critical_classes,
    end_catalogue,
    end_tangle,
    leg_end,
    minimal_witness,
    suite_tangles,
    witness_candidates,
)
from tangles.schema import parse_schema
from tangles.topology import is_closed, kernel

ONE_HUB = "core:\nv c\nrayfam S at c\nfamily L pattern { v p } attach c p\n"
TEXTS = {"two_cliques": WITH_TWO_CLIQUES, "one_hub": ONE_HUB}


def _schema(name):
    return parse_schema(TEXTS[name]) if name in TEXTS else load(name)


@pytest.mark.parametrize("name", [*builtin_names(), *TEXTS])
def test_core_level_matches_the_attachment_rules(name):
    schema = _schema(name)
    assert [cl.family for cl in critical_classes(schema)] == splittable_families(schema)
    assert census(schema)["uf_classes"] == uf_classes(schema)
    hubs = [hub_vertices(schema, f) for f in splittable_families(schema)]
    assert witness_candidates(schema) == list(dict.fromkeys([frozenset(), *hubs]))
    legs = [end_tangle(schema, leg_end(schema, fam, i))
            for fam in end_catalogue(schema).leg_families for i in (1, 9)]
    for t in suite_tangles(schema) + legs:
        assert kernel(t) == reference_kernel(t), t.id()
        assert is_closed(t) == (t.kind == "end" and reference_kernel(t).is_infinite)
        if t.kind == "uf":
            assert minimal_witness(t) == hub_vertices(schema, t.handle.core.family)
