"""Command-line front end.

One subcommand per feature; every run is reproducible from its seed, and
``--json`` emits a canonical report carrying the input digest and seed.
Exit codes: 0 all checks pass, 1 check failure, 2 bad input, 3 resource
guard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from . import builtin
from .abstract import observation_check
from .blocks import build_clique_subdivision, infinite_blocks, k_blocks, verify_subdivision
from .components import ComponentSelection, components
from .finite_tangles import count_tangles, enumerate_tangles
from .graphs import GraphParseError, parse_finite
from .infinite_tangles import (
    census,
    classify,
    end_tangle,
    leg_end,
    minimal_witness,
    orient,
    sample_star_in_tangle,
    suite_tangles,
    uf_tangle,
)
from .schema import SchemaGraph, parse_level, parse_schema, parse_vertex, vertex_text
from .semilinear import ResourceGuardError, parse_nat
from .separations import parse_separation
from .topology import (
    closure_probe,
    default_schedule,
    extract_subcover,
    is_closed,
    kernel,
    nonclosed_witness_separation,
    parse_basic_open,
)
from .ultrafilters import lazy_on, principal_at_vertex


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _emit(args, report: dict, ok: bool = True) -> int:
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
    else:
        _print_plain(report)
    return 0 if ok else 1


def _print_plain(report, indent=0, item=False):
    pad = "  " * indent
    if isinstance(report, dict):
        for k, v in report.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_plain(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(report, list):
        for v in report:
            if item and isinstance(v, list):  # a list in a list item: a tk entry's path
                _print_plain(v, indent + 1, item=True)
            elif isinstance(v, (dict, list)):
                _print_plain(v, indent, item=True)
                print()
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{report}")


def _load_schema(path: str) -> tuple[SchemaGraph, str]:
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        text = builtin.schema_text(name)
        return builtin.load(name), _digest(text)
    with open(path) as fh:
        text = fh.read()
    return parse_schema(text), _digest(text)


def _load_finite(path: str):
    with open(path) as fh:
        text = fh.read()
    return parse_finite(text), _digest(text)


def _find_tangle(schema: SchemaGraph, tid: str):
    for t in suite_tangles(schema):
        if t.id() == tid:
            return t
    parts = tid.split(":")
    if parts[0] == "end" and len(parts) == 3:
        return end_tangle(schema, leg_end(schema, parts[1], parse_nat(parts[2], "leg index")))
    if parts[0] == "uf" and len(parts) == 2:
        return uf_tangle(schema, family=parts[1])
    raise ValueError(f"unknown tangle id {tid!r}; try `tangles census`")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="tangles", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a canonical JSON report")
    common.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    s = sub.add_parser("finite", help="enumerate tangles of a finite graph")
    s.add_argument("graph")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--count-only", action="store_true")

    s = sub.add_parser("census", help="ends and ultrafilter-tangle classes of a schema")
    s.add_argument("schema")

    s = sub.add_parser("uf", help="query an ultrafilter handle")
    s.add_argument("schema")
    s.add_argument("--at", default="", help="comma-separated deleted vertices")
    s.add_argument("--kind", default="lazy", help="lazy | principal:<vertex>")
    s.add_argument("--query", action="append", default=[], help="component selection, e.g. {L{0+2t}}")

    s = sub.add_parser("orient", help="orient a separation in a tangle")
    s.add_argument("schema")
    s.add_argument("--tangle", required=True)
    s.add_argument("--sep", required=True, help='separation text: sep X={...} B={...}')

    s = sub.add_parser("classify", help="classify a tangle as end or ultrafilter")
    s.add_argument("schema")
    s.add_argument("--tangle", required=True)

    s = sub.add_parser("witness", help="least witness level of an ultrafilter tangle")
    s.add_argument("schema")
    s.add_argument("--tangle", required=True)

    s = sub.add_parser("closed", help="closedness of a tangle in the separation space")
    s.add_argument("schema")
    s.add_argument("--tangle", required=True)
    s.add_argument("--levels", type=int, default=5)

    s = sub.add_parser("subcover", help="rewrite and check a finite cover of basic opens")
    s.add_argument("schema")
    s.add_argument("--cover", required=True, help="file with one `open X={...} C={...}` per line")

    s = sub.add_parser("blocks", help="k-blocks of a finite graph, or the infinite blocks of a schema")
    s.add_argument("graph")
    s.add_argument("--k", type=int, default=0, help="block order (finite graphs)")

    s = sub.add_parser("tk", help="greedy clique-subdivision certificate")
    s.add_argument("graph")
    s.add_argument("--set", required=True, help="comma-separated branch vertices")

    s = sub.add_parser("observation", help="small-inverse-supremum vs finite far side, sampled")
    s.add_argument("schema")
    s.add_argument("--samples", type=int, default=20, help="stars sampled per tangle")

    s = sub.add_parser("check", help="run the bundled verification suite")
    s.add_argument("--samples", type=int, default=20, help="sample count; the suite runs a quarter of it, at least 2")

    s = sub.add_parser("dot", help="export a finite graph or truncated schema as DOT")
    s.add_argument("graph")
    s.add_argument("--truncation", type=int, default=20, help="truncation depth for schemas")

    s = sub.add_parser("dump-schema", help="print a bundled schema file")
    s.add_argument("name", choices=builtin.builtin_names())

    args = p.parse_args(argv)
    try:
        return _dispatch(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (GraphParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    rng = random.Random(args.seed)
    if args.cmd == "finite":
        g, digest = _load_finite(args.graph)
        if args.count_only:
            n = count_tangles(g, args.order)
            return _emit(args, {"input": digest, "order": args.order, "count": n})
        tangles = enumerate_tangles(g, args.order)
        return _emit(
            args,
            {
                "input": digest,
                "order": args.order,
                "count": len(tangles),
                "tangles": [
                    sorted(f"({sorted(a)},{sorted(b)})" for a, b in t) for t in tangles
                ],
            },
        )

    if args.cmd == "census":
        schema, digest = _load_schema(args.schema)
        rep = census(schema) | {"input": digest}
        return _emit(args, rep)

    if args.cmd == "uf":
        schema, digest = _load_schema(args.schema)
        X = parse_level(schema, args.at)
        cs = components(schema, X)
        if args.kind == "lazy":
            u = lazy_on(cs)
        elif args.kind.startswith("principal:"):
            u = principal_at_vertex(cs, parse_vertex(schema, args.kind.split(":", 1)[1]))
        else:
            raise ValueError(f"bad --kind {args.kind!r}")
        answers = []
        for q in args.query:
            sel = ComponentSelection.parse(cs, q)
            answers.append({"query": q, "member": u.membership(sel)})
        return _emit(
            args,
            {"input": digest, "seed": args.seed, "handle": u.describe(), "answers": answers},
        )

    if args.cmd == "orient":
        schema, digest = _load_schema(args.schema)
        t = _find_tangle(schema, args.tangle)
        sep = parse_separation(schema, args.sep)
        oriented = orient(t, sep)
        return _emit(
            args,
            {
                "input": digest,
                "tangle": t.id(),
                "separation": sep.text(),
                "oriented": oriented.text(),
                "reversed": oriented != sep,
            },
        )

    if args.cmd == "classify":
        schema, digest = _load_schema(args.schema)
        t = _find_tangle(schema, args.tangle)
        return _emit(args, {"input": digest, "tangle": t.id(), "class": classify(t)})

    if args.cmd == "witness":
        schema, digest = _load_schema(args.schema)
        t = _find_tangle(schema, args.tangle)
        w = minimal_witness(t)
        return _emit(
            args,
            {"input": digest, "tangle": t.id(), "witness": sorted(map(vertex_text, w))},
        )

    if args.cmd == "closed":
        if args.levels < 1:
            raise ValueError("--levels must be at least 1")
        schema, digest = _load_schema(args.schema)
        t = _find_tangle(schema, args.tangle)
        closed = is_closed(t)
        rep = {
            "input": digest,
            "tangle": t.id(),
            "closed": closed,
            "kernel": kernel(t).text(),
        }
        if not closed:
            sep = nonclosed_witness_separation(t)
            rep["probe"] = closure_probe(t, sep, default_schedule(schema, args.levels))
        return _emit(args, rep)

    if args.cmd == "subcover":
        schema, digest = _load_schema(args.schema)
        with open(args.cover) as fh:
            opens = [
                parse_basic_open(schema, line)
                for line in fh
                if line.strip() and not line.startswith("#")
            ]
        rep = extract_subcover(schema, opens) | {"input": digest}
        return _emit(args, rep, ok=True)

    if args.cmd == "blocks":
        try:
            g, digest = _load_finite(args.graph)
        except (GraphParseError, FileNotFoundError, IsADirectoryError):
            schema, digest = _load_schema(args.graph)
            return _emit(args, {"input": digest, "infinite_blocks": infinite_blocks(schema)})
        if args.k < 1:
            raise ValueError("--k is required for finite graphs")
        blocks = k_blocks(g, args.k)
        return _emit(
            args,
            {"input": digest, "k": args.k, "blocks": [sorted(b) for b in blocks]},
        )

    if args.cmd == "tk":
        g, digest = _load_finite(args.graph)
        K = [v.strip() for v in getattr(args, "set").split(",")]
        cert = build_clique_subdivision(g, K)
        ok = cert["ok"] and verify_subdivision(g, K, cert)
        return _emit(args, {"input": digest, "branch_vertices": sorted(K)} | cert, ok=ok)

    if args.cmd == "observation":
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
        schema, digest = _load_schema(args.schema)
        reports = []
        for t in suite_tangles(schema):
            stars = [sample_star_in_tangle(t, rng) for _ in range(args.samples)]
            reports.append(observation_check(t, stars))
        ok = all(r["ok"] for r in reports)
        return _emit(args, {"input": digest, "seed": args.seed, "reports": reports}, ok=ok)

    if args.cmd == "check":
        from .suite import run_suite  # loads networkx, which no other command needs

        rep = run_suite(seed=args.seed, samples=max(2, args.samples // 4))
        return _emit(args, rep, ok=rep["ok"])

    if args.cmd == "dot":
        try:
            g, _ = _load_finite(args.graph)
        except (GraphParseError, FileNotFoundError, IsADirectoryError):
            schema, _ = _load_schema(args.graph)
            g = schema.truncate(args.truncation)
        print(g.to_dot())
        return 0

    if args.cmd == "dump-schema":
        print(builtin.schema_text(args.name), end="")
        return 0

    raise AssertionError(args.cmd)


if __name__ == "__main__":
    sys.exit(main())
