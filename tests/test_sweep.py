import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
_SPEC = importlib.util.spec_from_file_location("sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def test_a_sweep_diffed_against_itself_reports_nothing(tmp_path, capsys):
    assert sweep.main(["run", str(_PATH.parent.parent / "configs" / "fs.json"), "0-1"]) == 0
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(line["config"][-7:], line["seed"]) for line in lines] == [("fs.json", 0), ("fs.json", 1)]
    assert all(len(line["sha256"]) == 64 and line["results"] for line in lines)
    path = tmp_path / "fs.jsonl"
    path.write_text(out)
    assert sweep.main(["diff", str(path), str(path)]) == 0
    assert capsys.readouterr().out == ""

    # a residual that moved past its tolerance in one report is a changed report and a new failure
    cid, sample, _, _ = lines[1]["results"][0]
    lines[1]["sha256"] = "0" * 64
    lines[1]["results"][0] = [cid, sample, 2 * lines[1]["tolerances"][cid], False]
    moved = tmp_path / "moved.jsonl"
    moved.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert sweep.main(["diff", str(path), str(moved)]) == 1
    report = capsys.readouterr().out
    assert "changed reports: 1\n" in report and "new failures: 1\n" in report and "new passes" not in report
    assert f"  {cid}: " in report
