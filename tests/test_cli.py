import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from tangles import cli
from tangles.cli import main
from tangles.graphs import render_finite, complete_graph


@pytest.fixture()
def k4_file(tmp_path):
    p = tmp_path / "k4.g"
    p.write_text(render_finite(complete_graph(4)))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_finite_count_only(capsys, k4_file):
    code, out = run(capsys, "finite", k4_file, "--order", "2", "--count-only")
    assert code == 0 and "count: 1" in out


def test_finite_json(capsys, k4_file):
    code, out = run(capsys, "finite", k4_file, "--order", "2", "--json")
    data = json.loads(out)
    assert data["count"] == 1 and len(data["tangles"]) == 1


def test_census_builtin_and_file(capsys, tmp_path):
    code, out = run(capsys, "census", "builtin:spider", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["end_count"] == "aleph0"
    assert data["uf_classes"] == [{"family": "L", "witness": ["core:c"]}]
    code, out = run(capsys, "dump-schema", "spider")
    p = tmp_path / "spider.schema"
    p.write_text(out)
    code, out2 = run(capsys, "census", str(p), "--json")
    assert json.loads(out2)["ends"] == data["ends"]


def test_uf_queries(capsys):
    code, out = run(
        capsys,
        "uf",
        "builtin:star",
        "--at",
        "core:c",
        "--query",
        "{L{0+2t}}",
        "--query",
        "{L{0,1,2}}",
        "--json",
    )
    data = json.loads(out)
    assert [a["member"] for a in data["answers"]] == [True, False]
    assert data["handle"]["kind"] == "lazy"
    code, out = run(
        capsys,
        "uf",
        "builtin:star",
        "--at",
        "core:c",
        "--kind",
        "principal:fam:L:5:p",
        "--query",
        "{L{0+2t}}",
        "--json",
    )
    data = json.loads(out)
    assert data["handle"]["kind"] == "principal"
    assert data["answers"] == [{"query": "{L{0+2t}}", "member": False}]


def test_orient_classify_witness_closed(capsys):
    code, out = run(
        capsys,
        "orient",
        "builtin:ray",
        "--tangle",
        "end:R",
        "--sep",
        "sep X={ray:R:5} B={c1}",
        "--json",
    )
    data = json.loads(out)
    assert code == 0 and data["reversed"] is False

    code, out = run(capsys, "classify", "builtin:spider", "--tangle", "uf:L", "--json")
    assert json.loads(out)["class"] == "ultrafilter"

    code, out = run(capsys, "witness", "builtin:spider", "--tangle", "uf:L", "--json")
    assert json.loads(out)["witness"] == ["core:c"]

    code, out = run(capsys, "closed", "builtin:cliq", "--tangle", "end:K", "--json")
    data = json.loads(out)
    assert data["closed"] is True and data["kernel"].startswith("cliq:K")

    code, out = run(capsys, "closed", "builtin:ray", "--tangle", "end:R", "--json")
    data = json.loads(out)
    assert data["closed"] is False
    assert data["probe"]["limit_point_evidence"] is True


def test_subcover_cli(capsys, tmp_path):
    cover = tmp_path / "cover.txt"
    cover.write_text("open X={core:c} C={L{0+2t}}\nopen X={core:c} C={L{1+2t}}\n")
    code, out = run(capsys, "subcover", "builtin:star", "--cover", str(cover), "--json")
    assert json.loads(out)["verdict"] == "CONFIRMED"
    cover.write_text("open X={core:c} C={L{0+2t}}\n")
    code, out = run(capsys, "subcover", "builtin:star", "--cover", str(cover), "--json")
    data = json.loads(out)
    assert data["verdict"] == "REFUTED" and data["missed_by_every_open"]


def test_blocks_and_tk(capsys, k4_file):
    code, out = run(capsys, "blocks", k4_file, "--k", "3", "--json")
    assert json.loads(out)["blocks"] == [["k0", "k1", "k2", "k3"]]
    code, out = run(capsys, "blocks", "builtin:cliq", "--json")
    assert json.loads(out)["infinite_blocks"][0]["clique"] == "K"
    code, out = run(capsys, "tk", k4_file, "--set", "k0,k1,k2,k3", "--json")
    assert code == 0 and json.loads(out)["ok"]


def test_observation_cli(capsys):
    code, out = run(capsys, "observation", "builtin:ray", "--samples", "6", "--json")
    assert code == 0
    assert all(r["ok"] for r in json.loads(out)["reports"])


def test_check_deterministic(capsys):
    code1, out1 = run(capsys, "check", "--seed", "7", "--samples", "8", "--json")
    code2, out2 = run(capsys, "check", "--seed", "7", "--samples", "8", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"]


def test_check_seed7_json_is_pinned(capsys):
    code, out = run(capsys, "check", "--seed", "7", "--json")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "f031b3fcc583937821bb846daa3a8228"


def test_check_fails_on_a_wrong_oracle_answer(capsys, monkeypatch):
    from tangles import suite

    monkeypatch.setattr(suite, "count_tangles", lambda g, k: 7)
    failed = [c for c in suite.run_suite(seed=7, samples=2)["checks"] if not c["ok"]]
    assert {c["name"] for c in failed} == {"finite-oracle/tangle-count"}
    assert len(failed) == 3
    code, out = run(capsys, "check", "--seed", "7", "--samples", "8", "--json")
    assert code == 1 and not json.loads(out)["ok"]


def test_check_has_no_suite_option(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--suite", "all"])


def test_sample_and_truncation_options_only_where_used(capsys, k4_file):
    for argv in (["finite", k4_file, "--order", "2", "--truncation", "5"],
                 ["census", "builtin:ray", "--samples", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_bad_inputs_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("v a\ne a a\n")
    assert main(["finite", str(bad), "--order", "2"]) == 2
    assert main(["census", str(tmp_path / "missing.schema")]) == 2
    assert main(["dot", "builtin:nosuch"]) == 2
    sep = "sep X={core:c} B={L{0}}"
    assert main(["orient", "builtin:spider", "--tangle", "end:L:-1", "--sep", sep]) == 2
    # no verdict over zero probe levels or zero sampled stars
    assert main(["closed", "builtin:star", "--tangle", "uf:L", "--levels", "0"]) == 2
    assert main(["observation", "builtin:ray", "--samples", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["orient", "builtin:ray", "--tangle", "end:R", "--sep", "sep X={ray:R:99999999} B={c1}"],
        ["uf", "builtin:spider", "--at", "fam:L:262144:0"],
    ],
)
def test_deep_level_trips_the_guard(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 2
    assert "resource guard" in capsys.readouterr().err


def test_dot_output(capsys, k4_file):
    code, out = run(capsys, "dot", k4_file)
    assert code == 0 and out.count("--") == 6
    code, out = run(capsys, "dot", "builtin:ray", "--truncation", "3")
    assert out.count("--") == 2


def test_tk_exit_code_follows_verification(capsys, k4_file, monkeypatch):
    monkeypatch.setattr(cli, "verify_subdivision", lambda g, K, cert: False)
    code, out = run(capsys, "tk", k4_file, "--set", "k0,k1,k2,k3", "--json")
    assert json.loads(out)["ok"] and code == 1


def test_wide_index_set_query_terminates():
    # three coprime periods align to a 716,539-bit pattern
    proc = subprocess.run(
        [sys.executable, "-m", "tangles.cli", "uf", "builtin:star", "--at", "core:c",
         "--query", "{L{3+97t,5+89t,7+83t}}"],
        capture_output=True, text=True, timeout=120,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode in (0, 3), proc.stderr


def test_uf_tangle_on_a_family_without_one(capsys):
    assert main(["witness", "builtin:star", "--tangle", "uf:Z"]) == 2
    err = capsys.readouterr().err
    assert "family 'Z' carries no ultrafilter tangle; families that carry one: L" in err
    assert main(["witness", "builtin:fan", "--tangle", "uf:T"]) == 2
    err = capsys.readouterr().err
    assert "family 'T' carries no ultrafilter tangle; families that carry one: none" in err
