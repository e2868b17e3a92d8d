"""The benchmark's correctness gates, replayed on one seed each.

``perfbench/run.py`` fails a ``suite_stu`` run when any (id, sample)
pass/fail outcome differs from ``perfbench/inputs.json`` (a known failure
that starts to pass counts too), or when two reports written in one process
differ.  Seed 9 holds a known failure: a stencil point that stops 12% under
Newton's exit tolerance, so it is where a drift in chart arithmetic shows
first.  ``suite_sec5`` has the same gate with no known failure.  A
``point_queries`` run fails when any query's exit code or output misses
its check.  These tests read ``inputs.json`` and ``run.py`` and write
nothing under ``perfbench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

from skcone import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INPUTS = PERFBENCH / "inputs.json"
SEED = 9


def test_suite_stu_seed_9_replays_the_benchmark_gate(tmp_path, capsys):
    inputs = json.loads(INPUTS.read_text())
    config = tmp_path / "suite_stu.config.json"
    config.write_text(json.dumps(dict(inputs["configs"]["suite_stu"], seed=SEED), indent=2))
    failing = {tuple(pair) for pair in inputs["known_failures"]["suite_stu"][str(SEED)]}
    assert failing
    expected = {(cid, sample): (cid, sample) not in failing for cid, sample in inputs["expected"]["suite_stu"]}

    reports = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        assert cli.main(["verify", f"--config={config}", f"--out={out}"]) == 1
        reports.append(out.read_bytes())
        got = {(c["id"], c["point"].get("sample")): c["pass"] for c in json.loads(reports[-1])["checks"]}
        assert got == expected
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_suite_sec5_replays_the_benchmark_gate(tmp_path, capsys):
    """The ten sec5 ids at the config's own seed: each passes, exit 0, the same bytes twice."""
    inputs = json.loads(INPUTS.read_text())
    config = tmp_path / "suite_sec5.config.json"
    config.write_text(json.dumps(inputs["configs"]["suite_sec5"], indent=2))
    assert "suite_sec5" not in inputs["known_failures"]
    expected = {(cid, sample): True for cid, sample in inputs["expected"]["suite_sec5"]}

    reports = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        assert cli.main(["verify", f"--config={config}", f"--out={out}"]) == 0
        reports.append(out.read_bytes())
        got = {(c["id"], c["point"].get("sample")): c["pass"] for c in json.loads(reports[-1])["checks"]}
        assert got == expected
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_point_queries_replays_the_benchmark_gate(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    units = run.QueryWorkload(seed=1).units()
    for _ in range(2):
        block = next(units)
        assert len(block) == run.QueryWorkload.unit_size == 56
        for argv, check in block:
            code, _, stdout = run.run_cli(cli, argv)
            assert run._checked(check, code, stdout)[:2] == (1, 0), argv
