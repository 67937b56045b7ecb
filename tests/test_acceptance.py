"""Acceptance criteria, one test per criterion.

Each test calls the criterion's check function from ``tangles.suite`` (the
same functions ``tangles check`` runs at reduced counts) at the pinned
counts below, asserts the floors and prints a single verdict line (run
with ``-s`` or check the captured output).  The sampling seed defaults
to 7 and can be moved with --acceptance-seed.
"""

import json
import random

import pytest

from tangles import suite
from tangles.suite import run_suite


def verdict(num: int, title: str, ok: bool):
    print(f"[criterion {num:02d}] {title}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {title}"


def all_ok(rep: dict) -> bool:
    return all(c["ok"] for c in rep["checks"])


@pytest.fixture()
def arng(acceptance_seed):
    return random.Random(acceptance_seed)


def test_criterion_01_finite_tangle_oracle_regressions():
    rep = suite.tangle_counts()
    verdict(1, "finite tangle oracle regressions (K3@3, K4@2, C4@2)", all_ok(rep))


def test_criterion_02_star_cover_reduction():
    rep = suite.star_cover_reduction(5, (1, 2, 3))
    verdict(2, "star-cover reduction on connected graphs <= 5 vertices, k <= 3", all_ok(rep))


def test_criterion_03_join_closure():
    rep = suite.join_closure(6)
    verdict(3, "join closure for every enumerated finite tangle", all_ok(rep))


def test_criterion_04_component_oracle(arng):
    rep = suite.component_oracle(arng, 30, (10, 20, 40))
    verdict(4, "symbolic components match truncations (30 X, n in 10/20/40)", all_ok(rep))


def test_criterion_05_inverse_system_laws(arng):
    rep = suite.inverse_system(arng, chains=10, probes=40, pairs=17)
    assert rep["chains"] >= 50
    assert rep["probes"] >= 100
    assert rep["pairs"] >= 50
    verdict(5, "inverse-system laws (functoriality, lift-restrict, limits)", all_ok(rep))


def test_criterion_06_tangle_limit_roundtrips(arng):
    rep = suite.limit_roundtrip(arng, 50)
    verdict(6, "tangle/limit bijection round-trips (50 samples each way)", all_ok(rep))


def test_criterion_07_census():
    rep = suite.census_values((20, 40))
    verdict(7, "census values and truncation end counts (n in 20/40)", all_ok(rep))


def test_criterion_08_minimal_witness(arng):
    rep = suite.minimal_witnesses(arng, supersets=20, others=20)
    verdict(8, "minimal witness: up-set splits, down-set and incomparables do not", all_ok(rep))


def test_criterion_09_tangle_axioms(arng):
    rep = suite.axioms(arng, star_samples=200, perturbation_samples=100, member_samples=100)
    ok = all_ok(rep) and rep["stars_checked"] >= 150
    verdict(9, "tangle axioms: finite stars, perturbations, infinite far sides", ok)


def test_criterion_10_closedness(arng):
    rep = suite.closedness(arng, levels=5, samples=200)
    verdict(10, "closedness: kernel criterion, probes and the far-side rule", all_ok(rep))


def test_criterion_11_subcover_extraction():
    rep = suite.subcover(50)
    verdict(11, "finite subcover: CONFIRMED sound on trunc(50), lone open REFUTED", all_ok(rep))


def test_criterion_12_clique_subdivisions(arng):
    rep = suite.clique_subdivisions(arng, graphs=20)
    ok = all_ok(rep) and rep["built"] >= 5
    verdict(12, "clique subdivision certificates (K5, K5 minus an edge, random)", ok)


def test_criterion_13_observation(arng):
    rep = suite.observation(arng, stars=300)
    ok = all_ok(rep) and rep["stars_checked"] >= 250
    verdict(13, "small-inverse supremum iff finite far side (300 stars/tangle)", ok)


def test_criterion_14_determinism(acceptance_seed):
    a = json.dumps(run_suite(seed=acceptance_seed, samples=4), sort_keys=True)
    b = json.dumps(run_suite(seed=acceptance_seed, samples=4), sort_keys=True)
    ok = a == b and json.loads(a)["ok"]
    from tangles.cli import main
    import io, contextlib

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["check", "--seed", str(acceptance_seed), "--samples", "8", "--json"])
        outs.append(buf.getvalue())
        ok = ok and code == 0
    ok = ok and outs[0] == outs[1]
    verdict(14, "identical seeds give byte-identical reports", ok)
