"""Measurements that need a fresh interpreter; prints one JSON line.

    cold.py setup            time `import tangles` and parsing the bundled schemas
    cold.py deps             time importing numpy and networkx on their own
    cold.py verify --suite-seed N [--trace]
                             time one cold run_suite pass and report its checks

Run with the repository's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def setup() -> dict:
    t0 = time.perf_counter()
    import tangles  # noqa: F401  (the import is what is timed)
    from tangles import builtin, schema

    t1 = time.perf_counter()
    parsed = [schema.parse_schema(builtin.schema_text(n)) for n in builtin.builtin_names()]
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "parse_s": t2 - t1, "schemas": len(parsed)}


def deps() -> dict:
    t0 = time.perf_counter()
    import networkx  # noqa: F401
    import numpy  # noqa: F401

    return {"deps_s": time.perf_counter() - t0}


def verify(suite_seed: int, trace: bool) -> dict:
    from tangles import suite

    tracer = None
    if trace:
        from layertrace import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        # 5 samples is what `tangles check` passes at its default --samples 20
        checks = suite.run_suite(suite_seed, 5)["checks"]
        failed = [f"{c['name']}:{c['target']}" for c in checks if c["ok"] is not True]
    except Exception as exc:  # a crashed pass is one failed check, not a failed run
        checks, failed = [None], [f"run_suite raised {type(exc).__name__}: {exc}"]
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    out = {"verify_s": dt, "checks": len(checks), "failed_checks": failed, "rss_mb": _rss_mb()}
    if tracer is not None:
        out["layers"] = tracer.metrics()
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "deps", "verify"))
    p.add_argument("--suite-seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    a = p.parse_args()
    if a.mode == "setup":
        rep = setup()
    elif a.mode == "deps":
        rep = deps()
    else:
        rep = verify(a.suite_seed, a.trace)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
