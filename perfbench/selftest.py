"""Self-test of the benchmark's output checks.

Each case swaps one program function for a deliberately wrong stand-in and
shows that the workload counts the wrong answer as a failed operation.
Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402


class Swap:
    """Replace ``module.name`` for the duration of a ``with`` block."""

    def __init__(self, module: str, name: str, make):
        self.mod = importlib.import_module(module)
        self.name = name
        self.orig = getattr(self.mod, name)
        self.new = make(self.orig)

    def __enter__(self):
        setattr(self.mod, self.name, self.new)

    def __exit__(self, *exc):
        setattr(self.mod, self.name, self.orig)


def small_round(seed: int = 3):
    return workloads.generate_round(random.Random(seed))[:3]


class QueryChecks(unittest.TestCase):
    def test_correct_answers_pass(self):
        out = workloads.Outcome()
        workloads.run_round(small_round(), out)
        self.assertGreater(out.attempted, 0)
        self.assertEqual(out.failed, 0, out.failures)

    def test_answer_outside_the_separation_pair_fails(self):
        def make(orient):
            def wrong(tangle, sep):
                return orient(tangle, sep).toB.cs.select_none()  # not a separation at all

            return wrong

        out = workloads.Outcome()
        with Swap("tangles.infinite_tangles", "orient", make):
            workloads.run_round(small_round(), out)
        self.assertEqual(out.failed, out.attempted)

    def test_flipped_orientation_fails_the_pinned_digest(self):
        def make(orient):
            def flipped(tangle, sep):
                return orient(tangle, sep).inverse()

            return flipped

        out = workloads.Outcome()
        with Swap("tangles.infinite_tangles", "orient", make):
            workloads.check_pinned(out)
        self.assertEqual((out.attempted, out.failed), (1, 1))

    def test_crash_is_a_failed_query(self):
        def make(orient):
            def crash(tangle, sep):
                raise RuntimeError("deliberate")

            return crash

        out = workloads.Outcome()
        with Swap("tangles.infinite_tangles", "orient", make):
            workloads.run_round(small_round(), out)
        self.assertEqual(out.failed, out.attempted)


class FiniteChecks(unittest.TestCase):
    def instances(self):
        G = importlib.import_module("tangles.graphs")
        return [("K4", G.complete_graph(4), 2, 1), ("C4", G.cycle_graph(4), 2, None)], [
            ("grid3x3", G.grid_graph(3, 3), 3, 5)
        ]

    def test_correct_answers_pass(self):
        out = workloads.Outcome()
        workloads._finite_pass(*self.instances(), {}, out)
        self.assertEqual((out.attempted, out.failed), (5, 0), out.failures)

    def test_wrong_count_fails(self):
        out = workloads.Outcome()
        with Swap("tangles.finite_tangles", "count_tangles", lambda f: lambda g, k: f(g, k) + 1):
            workloads._finite_pass(*self.instances(), {}, out)
        self.assertEqual(out.failed, 2)

    def test_separable_block_fails(self):
        def make(k_blocks):
            # opposite corners are cut apart by the two neighbours of either
            return lambda g, k: k_blocks(g, k)[:-1] + [frozenset({"g0_0", "g1_1", "g2_2"})]

        out = workloads.Outcome()
        with Swap("tangles.blocks", "k_blocks", make):
            workloads._finite_pass(*self.instances(), {}, out)
        self.assertEqual(out.failed, 1)


class VerifyChecks(unittest.TestCase):
    def test_check_not_ok_fails(self):
        report = {"verify_s": 0.1, "checks": 3, "failed_checks": ["census/expected:ray"], "rss_mb": 1.0}
        orig = workloads.cold
        workloads.cold = lambda *args: report
        try:
            out = workloads.Outcome()
            workloads._verify_pass(1, out, trace=False)
        finally:
            workloads.cold = orig
        self.assertEqual((out.attempted, out.failed), (3, 1))


class TracerChecks(unittest.TestCase):
    def test_uninstall_restores_the_program(self):
        classes = [importlib.import_module(m).__dict__[c] for m, c in (
            ("tangles.semilinear", "SemilinearSet"), ("tangles.separations", "NotRepresentable"),
            ("tangles.ultrafilters", "LazyCore"), ("tangles.finite_tangles", "_Search"),
            ("tangles.schema", "SchemaGraph"))]
        before = [dict(vars(cls)) for cls in classes]
        tracer = Tracer()
        tracer.install()
        try:
            out = workloads.Outcome()
            workloads.run_round(small_round(), out)
        finally:
            tracer.uninstall()
        self.assertEqual(before, [dict(vars(cls)) for cls in classes])
        self.assertEqual(out.failed, 0, out.failures)
        m = tracer.metrics()
        self.assertEqual(m["infinite_tangles.orient_calls"], out.attempted)
        self.assertGreater(m["semilinear.calls"], 0)
        self.assertGreater(m["semilinear.self_s"], 0)
        self.assertGreater(m["components.misses"], 0)
        self.assertLessEqual(m["components.misses"], m["components.calls"])


if __name__ == "__main__":
    unittest.main()
