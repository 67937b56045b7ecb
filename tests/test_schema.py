import re
import time
from itertools import combinations
from unittest import mock

import pytest
from dsl_reference import is_connected
from hypothesis import given, settings
from hypothesis import strategies as st

from tangles.builtin import load, schema_text
from tangles.graphs import GraphParseError
from tangles.schema import TRUNCATION_CAP, SchemaGraph, parse_schema, parse_vertex, vertex_text
from tangles.semilinear import ResourceGuardError


def test_builtin_suite_parses(schemas):
    assert schemas["ray"].rays[0].hub is None
    assert schemas["dray"].core.vertices == {"o"}
    assert schemas["spider"].families[0].is_ray_family
    assert schemas["comb"].families[0].ray_attach == (("R", "t"),)
    assert schemas["cliq"].cliques[0].attach == ()


def test_free_ray_schema():
    s = parse_schema("ray R\n")
    assert len(s.rays) == 1 and not s.core.vertices


def test_star_schema_valid():
    s = parse_schema("core:\nv c\nfamily L pattern { v p } attach c p\n")
    assert s.families[0].core_attach == (("c", "p"),)


def test_unknown_attachment_vertex():
    with pytest.raises(GraphParseError, match="unknown core vertex"):
        parse_schema("core:\nv c\nfamily L pattern { v p } attach z p\n")


def test_duplicate_names_rejected():
    bad = "core:\nv c\nray R at c\nclique R attach c\n"
    with pytest.raises(GraphParseError, match="duplicate part name"):
        parse_schema(bad)


def test_empty_pattern_rejected():
    with pytest.raises(GraphParseError, match="empty pattern"):
        parse_schema("core:\nv c\nfamily L pattern { } attach c p\n")


def test_disconnected_schema_rejected():
    with pytest.raises(GraphParseError, match="not connected"):
        parse_schema("core:\nv c\nray R\nray Q at c\n")
    # with no core the family alone quotients to one node, so only the
    # unattached-family check can reject these
    for text in ("core:\nv c\nrayfam L\n", "rayfam L\n", "family F pattern { v p }\n"):
        with pytest.raises(GraphParseError, match="disconnect"):
            parse_schema(text)


def test_multiline_pattern_block():
    s = parse_schema(
        """core:
v c
family F pattern {
  v p
  v q
  e p q
} attach c p
attach c q
"""
    )
    assert len(s.families[0].pattern.vertices) == 2
    assert set(s.families[0].core_attach) == {("c", "p"), ("c", "q")}


def test_disconnected_pattern_rejected():
    with pytest.raises(GraphParseError, match="pattern must be connected"):
        parse_schema("core:\nv c\nfamily F pattern { v p ; v q } attach c p\n")


def test_truncate_examples(schemas):
    assert len(schemas["ray"].truncate(3).vertices) == 3
    assert len(schemas["ray"].truncate(3).edges) == 2
    star5 = schemas["star"].truncate(5)
    assert len(star5.vertices) == 6 and len(star5.edges) == 5
    cliq4 = schemas["cliq"].truncate(4)
    assert len(cliq4.vertices) == 4 and len(cliq4.edges) == 6


def test_truncate_monotone(schemas):
    for s in schemas.values():
        small, big = s.truncate(4), s.truncate(7)
        assert small.vertices <= big.vertices
        assert small.edges <= big.edges


def test_truncation_size_counts_what_truncate_builds(schemas):
    for s in schemas.values():
        for n in (1, 2, 5, 17):
            g = s.truncate(n)
            assert s.truncation_size(n) == len(g.vertices) + len(g.edges)


def test_truncation_past_the_cap_is_refused_before_it_is_built(schemas):
    spider = schemas["spider"]
    assert spider.truncation_size(127) <= TRUNCATION_CAP < spider.truncation_size(128)
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="cap"):
        spider.truncate(5000)
    assert time.perf_counter() - start < 0.5
    assert 5000 not in spider._truncation_cache


def test_truncation_edges_match_has_edge(schemas):
    for s in schemas.values():
        g = s.truncate(5)
        verts = s.vertices_below(5)
        expect = set()
        for i, u in enumerate(verts):
            for w in verts[i + 1 :]:
                if s.has_edge(u, w):
                    a, b = sorted((vertex_text(u), vertex_text(w)))
                    expect.add((a, b))
        assert expect == set(g.edges)


def test_vertex_text_roundtrip(schemas):
    for s in schemas.values():
        for v in s.vertices_below(4):
            assert parse_vertex(s, vertex_text(v)) == v
    with pytest.raises(ValueError):
        parse_vertex(schemas["ray"], "ray:R:-1")
    with pytest.raises(ValueError):
        parse_vertex(schemas["ray"], "cliq:K:0")


@pytest.mark.parametrize(
    "name, text",
    [("ray", "ray:R:1_0"), ("ray", "ray:R:+1"), ("ray", "ray:R:\u0661"),
     ("cliq", "cliq:K:0_1"), ("star", "fam:L:\u0663:p"), ("spider", "fam:L:0:1_0"),
     ("ray", "ray:R:05"), ("cliq", "cliq:K:00"), ("star", "fam:L:01:p"), ("spider", "fam:L:0:007")],
)
def test_vertex_indices_are_ascii_decimals(schemas, name, text):
    with pytest.raises(ValueError, match=re.escape(f"bad vertex text {text!r}")):
        parse_vertex(schemas[name], text)


def test_depth(schemas):
    spider = schemas["spider"]
    assert spider.depth(("core", "c")) == 0
    assert spider.depth(("fam", "L", 2, 9)) == 9
    comb = schemas["comb"]
    assert comb.depth(("fam", "T", 4, "t")) == 4
    assert comb.depth(("ray", "R", 6)) == 6


def test_to_text_reparses(schemas):
    for name, s in schemas.items():
        again = parse_schema(s.to_text())
        assert again.to_text() == s.to_text()
        assert again.digest() == s.digest()


def test_schema_text_matches_bundled_files():
    assert "rayfam L at c" in schema_text("spider")
    assert load("spider").digest() == parse_schema(schema_text("spider")).digest()


@pytest.mark.parametrize(
    "text",
    [
        "core:\nv c\nfamily F pattern {\n v p\n} c p\n",
        "core:\nv c\nfamily F pattern { v p } c p\n",
        "core:\nv c\nfamily F pattern { v p } attachx c p\nattach c p\n",
    ],
)
def test_text_after_pattern_block_must_be_attach_clause(text):
    with pytest.raises(GraphParseError, match="unexpected text after pattern block"):
        parse_schema(text)


def test_attach_splits_on_whole_word():
    for text in (
        "core:\nv c\nfamily F pattern { v xattach } attach c xattach\n",
        "core:\nv c\nfamily F pattern {\nv xattach\n} attach c xattach\n",
    ):
        assert parse_schema(text).families[0].core_attach == (("c", "xattach"),)


@pytest.mark.parametrize(
    "text,line,msg",
    [
        ("core:\nv c\nfamily F pattern {\n v p\n e p p\n} attach c p\n", 5, "loop at 'p'"),
        ("core:\nv c\nfamily F pattern { v p ; v p } attach c p\n", 3, "duplicate vertex 'p'"),
        ("core:\nv c\nfamily F pattern {\n v p\n e p q\n} attach c p\n", 5, "undeclared endpoint 'q'"),
        ("core:\nv c\nfamily F pattern {\n v p\n", 4, "family F: unterminated pattern block"),
        ("ray R\nv c\n", 2, "vertex line outside core section"),
        ("core:\nv c\nray R at\n", 3, "malformed ray line"),
        ("core:\nv c\nrayfam L c\n", 3, "malformed rayfam line"),
        ("core:\nv c\nclique K c\n", 3, "malformed clique line"),
    ],
)
def test_parse_errors_name_the_line(text, line, msg):
    with pytest.raises(GraphParseError, match=msg) as exc:
        parse_schema(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ")


def test_pattern_vertex_named_attach_round_trips():
    s = parse_schema(
        "core:\nv c\nray R at c\n"
        "family F pattern { v attach ; v q ; e attach q } attach along R q attach c attach\n"
    )
    assert s.families[0].core_attach == (("c", "attach"),)
    assert parse_schema(s.to_text()).families == s.families


# Every DSL token may also stand where a name goes.
_KEYWORDS = ["core:", "edge:", "v", "e", "ray", "rayfam", "family", "pattern", "clique",
             "at", "attach", "along", "{", "}", ";"]
_WORDS = st.sampled_from(["c", "d", "p", "q", "R", "xattach"]) | st.sampled_from(_KEYWORDS)
_TEMPLATES = [
    "core:", "edge:", "v {0}", "e {0} {1}", "ray {0} at {1}", "rayfam {0} at {1}",
    "clique {0} attach {1}", "attach {0} {1}", "attach along {0} {1}", "{0} {1} {2}",
    "family {0} pattern {{ v {1} }} attach {2} {1}",
    "family {0} pattern {{ v {1} ; v {2} ; e {1} {2} }} attach {3} {1} attach {3} {2}",
    "family {0} pattern {{ v {1} ; v {2} ; e {1} {2} }} attach along R {2} attach {3} {1}",
    "family {0} pattern {{", "}} attach {0} {1}", "}} {0} {1} {2}",
]


@st.composite
def _schema_texts(draw):
    lines = ["core:", "v c", "v d", "e c d", "ray R at c"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 4))):
        template = draw(st.sampled_from(_TEMPLATES))
        lines.append(template.format(*(draw(_WORDS) for _ in range(5))))
    return "\n".join(lines) + "\n"


@st.composite
def _built_schema_texts(draw):
    """Texts assembled from declared parts, so that most of them parse: 1-4
    core vertices with random core edges, 0-2 rays at core vertices, 0-2
    families of the four kinds attached to declared parts, 0-1 clique."""
    core = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    hub = st.sampled_from(core)
    lines = ["core:", *(f"v {c}" for c in core)]
    lines += [f"e {a} {b}" for a, b in combinations(core, 2) if draw(st.booleans())]
    rays = [f"R{i}" for i in range(draw(st.integers(0, 2)))]
    lines += [f"ray {r} at {draw(hub)}" for r in rays]
    kinds = [
        "rayfam F{0} at {1}",
        "family F{0} pattern {{ v p }} attach {1} p",
        "family F{0} pattern {{ v p ; v q ; e p q }} attach {1} p attach {2} q",
    ]
    if rays:
        kinds.append("family F{0} pattern {{ v p }} attach along {3} p")
    for i in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(kinds))
        lines.append(kind.format(i, draw(hub), draw(hub), draw(st.sampled_from(rays or [""]))))
    if draw(st.booleans()):
        lines.append(" ".join(["clique K", "attach", *draw(st.sets(hub, min_size=1, max_size=2))]))
    return "\n".join(lines) + "\n"


_DSL_TEXTS = st.one_of(_schema_texts(), _built_schema_texts())


@settings(max_examples=500, deadline=None)
@given(_DSL_TEXTS)
def test_dsl_text_is_rejected_or_round_trips(text):
    try:
        s = parse_schema(text)
    except GraphParseError:
        return
    again = parse_schema(s.to_text())
    assert (again.core, again.rays, again.families, again.cliques) == (
        s.core, s.rays, s.families, s.cliques
    )
    assert again.to_text() == s.to_text()


@settings(max_examples=500, deadline=None)
@given(_DSL_TEXTS)
def test_dsl_text_is_accepted_exactly_when_its_part_graph_is_connected(text):
    # the parts as declared, before the connectivity check
    with mock.patch.object(SchemaGraph, "_check_connected", lambda self: None):
        try:
            unchecked = parse_schema(text)
        except GraphParseError:
            unchecked = None
    try:
        parse_schema(text)
        accepted = True
    except GraphParseError:
        accepted = False
    assert accepted == (unchecked is not None and is_connected(unchecked))
