"""The three benchmark workloads: input generation, timed execution, checks.

Every call into the program looks its function up on the module object at
call time (modules come from ``importlib``, which reads ``sys.modules``),
so a self-test's deliberately broken stand-ins are what the workload calls.

``query``  - closed loop, one client: synthetic multi-query sessions of text
             orientation queries over all bundled schemas, modelling
             library use; not the one-query-per-process ``tangles orient``.
``verify`` - cold ``run_suite`` passes, each in a fresh interpreter, as
             ``tangles check`` runs it.
``finite`` - the finite oracle and k-blocks over a fixed instance list.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from math import lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"  # the program under test, imported from source

# -- query ---------------------------------------------------------------------

# Periods for index-set progressions.  Their lcm is 420; with unbounded
# prime periods the lazy commitment log grows periods without limit and a
# single query can take tens of seconds.
PERIODS = (1, 2, 3, 4, 6, 10, 15, 21, 35)
# Each core vertex lies in the levels of CORE_QUERIES of a session's
# queries, since deleting hubs is what splits families into classes of
# components (and sends ultrafilter-tangle queries down the lazy write
# path).  Every class gets an index set of two progressions, so a session
# whose single hub splits a family (star, spider, twostars) deals at least
# 10 periods from its deck of 9 and its lazy commitments reach the full
# lcm: the slowest queries look alike across seeds.  A level also gets up
# to MAX_LEVEL vertices of the depth-10 truncation: a wide pool, so levels
# repeat less often than in verify.
CORE_QUERIES = 5
LEVEL_DEPTH = 10
MAX_LEVEL = 3
# A round is the timed unit: one session of SESSION_QUERIES queries per
# bundled schema, in seeded order, against freshly parsed schemas (cold
# caches, as for a new process).  Every round has the same make-up, so
# rounds from different seeds are comparable.
SESSION_QUERIES = 10
PINNED_SEED = 7
PINNED_ROUNDS = 3
# sha256 of the pinned stream's answers; a change means answers changed
PINNED_DIGEST = "0edad911d3f02251300461273ed876cd80fd2c11ecf148f93e3eb633a8bad3eb"
TRACE_QUERY_ROUNDS = 12


def _mod(name: str):
    return importlib.import_module(name)


@dataclass
class Query:
    tangle: str
    text: str  # as the user typed it
    answers: tuple[str, str]  # canonical texts of the separation and its inverse
    lcm: int
    uf: bool


@dataclass
class Session:
    schema: str
    queries: list[Query]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    op_s: list[float] = field(default_factory=list)  # latency per operation
    pass_s: list[float] = field(default_factory=list)  # time per fixed unit of work
    busy_s: float = 0.0  # total measured time, for throughput
    rss_mb: float | None = None  # set when the work ran in child processes
    properties: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def fresh_schemas() -> dict:
    """One newly parsed instance of every bundled schema, with empty caches."""
    B, S = _mod("tangles.builtin"), _mod("tangles.schema")
    return {name: S.parse_schema(B.schema_text(name)) for name in B.builtin_names()}


class _Deck:
    """Seeded draws that use every item equally often: a shuffled deck that is
    reshuffled when it runs out.  It keeps the make-up of rounds alike across
    seeds without fixing any single draw."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _index_text(periods: _Deck, rng: random.Random) -> tuple[str, int]:
    progs = [(rng.randrange(8), periods.draw()) for _ in range(2)]
    explicit = sorted(rng.sample(range(12), rng.randint(0, 2)))
    items = [str(x) for x in explicit] + [f"{a}+{d}t" for a, d in progs]
    return "{" + ",".join(items) + "}", lcm(*(d for _, d in progs))


def generate_round(rng: random.Random) -> list[Session]:
    """One seeded session per bundled schema, worked out on schema instances
    of its own so that generating it leaves the program's caches untouched."""
    S, C = _mod("tangles.schema"), _mod("tangles.components")
    SEP, IT = _mod("tangles.separations"), _mod("tangles.infinite_tangles")
    gen = fresh_schemas()
    names = sorted(gen)
    rng.shuffle(names)
    out = []
    for name in names:
        schema = gen[name]
        tangles = _Deck(rng, [t.id() for t in IT.suite_tangles(schema)])
        sizes, periods = _Deck(rng, range(MAX_LEVEL + 1)), _Deck(rng, PERIODS)
        pool = schema.vertices_below(LEVEL_DEPTH)
        core = [v for v in pool if v[0] == "core"]
        with_hub = {v: set(rng.sample(range(SESSION_QUERIES), CORE_QUERIES)) for v in core}
        queries = []
        for j in range(SESSION_QUERIES):
            tid = tangles.draw()
            X = {v for v in core if j in with_hub[v]}
            X.update(rng.sample(pool, sizes.draw()))
            X = sorted(X, key=S.vertex_sort_key)
            cs = C.components(schema, X)
            items = [f"c{k}" for k in range(len(cs.concretes)) if rng.random() < 0.5]
            period_lcm = 1
            for cl in cs.classes:
                body, d = _index_text(periods, rng)
                items.append(cl.family + body)
                period_lcm = lcm(period_lcm, d)
            xs = ",".join(S.vertex_text(v) for v in X)
            text = f"sep X={{{xs}}} B={{{','.join(items)}}}"
            sep = SEP.parse_separation(schema, text)
            queries.append(
                Query(tid, text, (sep.text(), sep.inverse().text()), period_lcm, tid.startswith("uf:"))
            )
        out.append(Session(name, queries))
    return out


def passes(seconds: float):
    """Count passes until the time is used: a pass starts while at least half
    of the previous pass's duration is left, so runs end close to ``seconds``."""
    start = time.perf_counter()
    n, last = 0, 0.0
    while n == 0 or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        yield n
        last = time.perf_counter() - t0
        n += 1


def _timed(out: Outcome, fn, *args):
    """Call fn and record its latency; an exception is returned, not raised,
    because a crash is a failed operation rather than a failed run."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        result = exc
    out.op_s.append(time.perf_counter() - t0)
    return result


def _ask(tangle, schema, text: str) -> str:
    """One text query: parse the separation, orient it, print the answer."""
    IT, SEP = _mod("tangles.infinite_tangles"), _mod("tangles.separations")
    return IT.orient(tangle, SEP.parse_separation(schema, text)).text()


def run_round(sessions: list[Session], out: Outcome, answers: list | None = None) -> float:
    """Run sessions against freshly parsed schemas; returns the wall time."""
    IT = _mod("tangles.infinite_tangles")
    schemas = fresh_schemas()
    t_round = time.perf_counter()
    for session in sessions:
        schema = schemas[session.schema]
        tangles = {t.id(): t for t in IT.suite_tangles(schema)}
        for q in session.queries:
            out.attempted += 1
            got = _timed(out, _ask, tangles[q.tangle], schema, q.text)
            if isinstance(got, Exception):
                got = f"{type(got).__name__}: {got}"
            if got not in q.answers:
                out.fail(f"{session.schema} {q.tangle} {q.text}: answered {got}")
            if answers is not None:
                answers.append(f"{session.schema}|{q.tangle}|{q.text}|{got}")
    return time.perf_counter() - t_round


def pinned_digest() -> str:
    rng = random.Random(PINNED_SEED)
    answers: list[str] = []
    for _ in range(PINNED_ROUNDS):
        run_round(generate_round(rng), Outcome(), answers)
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()


def check_pinned(out: Outcome):
    out.attempted += 1
    got = pinned_digest()
    if got != PINNED_DIGEST:
        out.fail(f"answer digest at seed {PINNED_SEED} is {got}, recorded {PINNED_DIGEST}")


def count_queries(sessions: list[Session], tally: Counter):
    for q in (q for s in sessions for q in s.queries):
        tally["queries"] += 1
        tally["lcm_above_12"] += q.lcm > 12
        tally["uf"] += q.uf


def query_properties(tally: Counter) -> dict:
    n = tally["queries"]
    return {
        "queries": n,
        "lcm_above_12_share": tally["lcm_above_12"] / n,
        "uf_query_share": tally["uf"] / n,
        "end_query_share": 1 - tally["uf"] / n,
    }


def query(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    rng = random.Random(seed)
    tally = Counter()
    for _ in passes(seconds):
        sessions = generate_round(rng)
        count_queries(sessions, tally)
        out.pass_s.append(run_round(sessions, out))
    out.busy_s = sum(out.pass_s)
    out.properties.update(query_properties(tally))
    check_pinned(out)
    return out


def query_traced(seed: int, tracer) -> tuple[Outcome, float, dict]:
    """A fixed number of rounds run untraced, then traced."""
    rng = random.Random(seed)
    rounds = [generate_round(rng) for _ in range(TRACE_QUERY_ROUNDS)]
    t_plain = sum(run_round(r, Outcome()) for r in rounds)
    out = Outcome()
    tracer.install()
    try:
        t_traced = sum(run_round(r, out) for r in rounds)
    finally:
        tracer.uninstall()
    tally = Counter()
    for r in rounds:
        count_queries(r, tally)
    out.properties.update(query_properties(tally))
    return out, t_traced / t_plain - 1.0, tracer.metrics()


# -- verify ----------------------------------------------------------------------


def cold(*args: str) -> dict:
    """Run perfbench/cold.py in a fresh interpreter and return its report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _verify_pass(suite_seed: int, out: Outcome, trace: bool) -> dict:
    rep = cold("verify", "--suite-seed", str(suite_seed), *(["--trace"] if trace else []))
    out.attempted += rep["checks"]
    for name in rep["failed_checks"]:
        out.fail(f"suite seed {suite_seed}: check {name} not ok")
    return rep


def verify(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    rng = random.Random(seed)
    rss = []
    for _ in passes(seconds):
        rep = _verify_pass(rng.randrange(10**6), out, trace=False)
        out.pass_s.append(rep["verify_s"])
        rss.append(rep["rss_mb"])
    out.op_s = list(out.pass_s)
    out.busy_s = sum(out.pass_s)
    out.rss_mb = statistics.median(rss)
    return out


def verify_traced(seed: int, tracer) -> tuple[Outcome, float, dict]:
    """One suite seed run cold untraced, then cold traced (the tracer runs in
    the traced interpreter, so ``tracer`` is unused here)."""
    out = Outcome()
    suite_seed = random.Random(seed).randrange(10**6)
    plain = _verify_pass(suite_seed, Outcome(), trace=False)["verify_s"]
    rep = _verify_pass(suite_seed, out, trace=True)
    return out, rep["verify_s"] / plain - 1.0, rep["layers"]


# -- finite ----------------------------------------------------------------------

SCAN_LIMIT = 12  # instances with at most this many separations are checked by full scan
# An operation is the oracle work on one instance.  With 5 random graphs a
# pass has 15 operations, an odd number, so the median and tail fall inside
# one instance's times rather than in the gap between two instances.
RANDOM_GRAPHS = 5


def _petersen():
    G = _mod("tangles.graphs")
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    return G.from_edges(outer + spokes + inner)


def finite_instances(seed: int) -> tuple[list, list]:
    """(name, graph, k, recorded tangle count or None) and (name, graph, k, recorded block count)."""
    G = _mod("tangles.graphs")
    FT = _mod("tangles.finite_tangles")
    pet = _petersen()
    tangles = [
        ("grid3x4", G.grid_graph(3, 4), 3, 1),
        ("grid4x4", G.grid_graph(4, 4), 3, 1),
        ("grid3x5", G.grid_graph(3, 5), 3, 1),
        ("grid4x5", G.grid_graph(4, 5), 3, 1),
        ("petersen", pet, 3, 1),
        ("petersen", pet, 4, 1),
        ("K6", G.complete_graph(6), 4, 1),
        ("C8", G.cycle_graph(8), 3, 0),
    ]
    rng = random.Random(seed)
    while len(tangles) < 8 + RANDOM_GRAPHS:
        g, k = _random_connected(rng)
        if len(FT.separations_below_order(g, k)) <= SCAN_LIMIT:
            tangles.append((f"random{len(tangles) - 8}", g, k, None))
    blocks = [("grid5x5", G.grid_graph(5, 5), 3, 5), ("grid6x6", G.grid_graph(6, 6), 4, 1)]
    return tangles, blocks


def _random_connected(rng: random.Random):
    G = _mod("tangles.graphs")
    n = rng.randint(5, 7)
    vs = [f"r{i}" for i in range(n)]
    edges = {(vs[rng.randrange(i)], vs[i]) for i in range(1, n)}  # a random tree
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((vs[u], vs[v]))
    return G.from_edges(sorted(edges)), rng.choice((2, 3))


def _oracle(g, k: int):
    FT = _mod("tangles.finite_tangles")
    return FT.count_tangles(g, k), FT.check_star_reduction(g, k)


def _finite_pass(tangles, blocks, refs: dict, out: Outcome) -> float:
    """One pass over the instance list; returns the time spent in the program."""
    FT, BL = _mod("tangles.finite_tangles"), _mod("tangles.blocks")
    start = len(out.op_s)
    for name, g, k, want in tangles:
        label = f"{name}@{k}"
        if label not in refs:
            refs[label] = want if want is not None else len(FT.enumerate_tangles_by_scan(g, k, SCAN_LIMIT))
        out.attempted += 2
        got = _timed(out, _oracle, g, k)
        n, rep = (got, got) if isinstance(got, Exception) else got
        if n != refs[label]:
            out.fail(f"count_tangles {label} = {n!r}, expected {refs[label]}")
        if isinstance(rep, Exception) or rep["ok"] is not True:
            out.fail(f"check_star_reduction {label}: {rep!r}")
    for name, g, k, want in blocks:
        label = f"blocks {name}@{k}"
        out.attempted += 1
        found = _timed(out, BL.k_blocks, g, k)
        if isinstance(found, Exception):
            out.fail(f"k_blocks {label}: {found!r}")
            continue
        key = (label, tuple(sorted(tuple(sorted(b)) for b in found)))
        if key not in refs:  # an identical answer was verified in an earlier pass
            refs[key] = len(found) == want and all(BL.is_inseparable(g, b, k) for b in found)
        if not refs[key]:
            out.fail(f"k_blocks {label}: {len(found)} blocks, expected {want} inseparable ones")
    return sum(out.op_s[start:])


def finite(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    tangles, blocks = finite_instances(seed)
    FT = _mod("tangles.finite_tangles")
    out.properties["separations"] = {
        f"{name}@{k}": len(FT.separations_below_order(g, k)) for name, g, k, _ in tangles
    }
    refs: dict = {}
    for _ in passes(seconds):
        out.pass_s.append(_finite_pass(tangles, blocks, refs, out))
    out.busy_s = sum(out.pass_s)
    return out


def finite_traced(seed: int, tracer) -> tuple[Outcome, float, dict]:
    tangles, blocks = finite_instances(seed)
    refs: dict = {}
    t_plain = _finite_pass(tangles, blocks, refs, Outcome())
    out = Outcome()
    tracer.install()
    try:
        t_traced = _finite_pass(tangles, blocks, refs, out)
    finally:
        tracer.uninstall()
    return out, t_traced / t_plain - 1.0, tracer.metrics()


# workload -> (timed run, traced run)
WORKLOADS = {
    "query": (query, query_traced),
    "verify": (verify, verify_traced),
    "finite": (finite, finite_traced),
}
