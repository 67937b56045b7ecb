"""Pinned command outputs.

``golden_outputs.json`` maps each name to a list of argvs and the md5 of
their stdouts, concatenated in order.  A file an argv names is read from
the repository root.  The CI steps that run the same
commands through the installed ``tangles`` read their digests from it.
Run as a script, this module prints the digests as JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from tangles.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_outputs.json").read_text())
ROOT = Path(__file__).resolve().parent.parent
PINNED = {name: entry["md5"] for name, entry in GOLDEN.items()}


def digests() -> dict[str, str]:
    out, cwd = {}, os.getcwd()
    os.chdir(ROOT)
    try:
        for name, entry in GOLDEN.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                for argv in entry["argvs"]:
                    assert main(argv) == 0, argv
            out[name] = hashlib.md5(buf.getvalue().encode()).hexdigest()
    finally:
        os.chdir(cwd)
    return out


def test_golden_outputs_in_process():
    assert digests() == PINNED


def test_golden_outputs_under_a_fixed_hash_seed():
    # a fresh interpreter with empty caches; the in-process run above uses
    # the session's own hash seed, random unless the environment fixes it
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, timeout=120,
        env=os.environ | {"PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PINNED


if __name__ == "__main__":
    print(json.dumps(digests()))
