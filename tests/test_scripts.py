"""Every runnable experiment in scripts/ exits cleanly at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SMALL_ARGS = {
    "finite_tangle_census.py": ["--max-n", "4", "--max-k", "3"],
    "schema_tour.py": ["--samples", "2"],
    "subcover_demo.py": ["--modulus", "2"],
}


def test_every_script_has_small_arguments():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_script_runs(name):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *SMALL_ARGS[name]],
        capture_output=True, text=True, timeout=120,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
