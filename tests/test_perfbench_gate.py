"""The benchmark's correctness gate, replayed on one seed.

``perfbench/run.py`` fails a ``suite_stu`` run when any (id, sample)
pass/fail outcome differs from ``perfbench/inputs.json`` (a known failure
that starts to pass counts too), or when two reports written in one process
differ.  Seed 9 holds a known failure: a stencil point that stops 12% under
Newton's exit tolerance, so it is where a drift in chart arithmetic shows
first.  This test reads ``inputs.json`` and writes nothing under
``perfbench/``.
"""

import json
from pathlib import Path

from skcone import cli

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.json"
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
