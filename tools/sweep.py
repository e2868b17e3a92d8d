"""Seed sweeps of ``run_suite``, and the diff of two sweeps.

    PYTHONPATH=src python tools/sweep.py run CONFIG SEEDS [CONFIG SEEDS ...] > sweep.jsonl
    PYTHONPATH=src python tools/sweep.py diff before.jsonl after.jsonl

CONFIG is a config file (``configs/stu.json``) or a name in
``perfbench/inputs.json``'s ``configs`` (``suite_stu``); SEEDS is a list of
seeds and ranges, such as ``0-399,603``.  ``run`` runs each seed in this
process, one after another, and prints one JSON line per (config, seed): the
report's sha256, its tolerances and every (id, sample, residual, pass).  To
sweep another source tree, point PYTHONPATH at its ``src``.

``diff`` prints nothing and exits 0 when both sweeps hold the same reports.
Otherwise it prints the changed reports, the new failures and passes, and
per id whose residuals moved the largest |residual change| and the headroom
(tolerance / largest residual) before and after, and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

from skcone import verify
from skcone.errors import SkconeError

ROOT = Path(__file__).resolve().parent.parent


def load(config: str):
    if Path(config).is_file():
        return verify.load_config(config)
    inputs = json.loads((ROOT / "perfbench" / "inputs.json").read_text(encoding="utf-8"))
    return verify.config_from_dict(inputs["configs"][config])


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(config: str, seed: int) -> dict:
    line = {"config": config, "seed": seed}
    try:
        report = verify.run_suite(dataclasses.replace(load(config), seed=seed))
    except (SkconeError, ValueError) as exc:
        return {**line, "error": f"{type(exc).__name__}: {exc}"}
    text = report.to_json()
    return {**line, "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "tolerances": {r.id: r.tolerance for r in report.checks},
            "results": [[r.id, r.point.get("sample"), r.residual, r.passed] for r in report.checks]}


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(text) for text in fh if text.strip()]
    return {(line["config"], line["seed"]): line for line in lines}


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


def _worst(lines, cid):
    """The largest residual of ``cid`` over ``lines`` (NaN if any is NaN), or None."""
    worst = None
    for line in lines:
        for rid, _, r, _ in line.get("results", ()):
            if rid == cid and r is not None:
                worst = r if worst is None or math.isnan(r) else max(worst, r)
    return worst


def _headroom(line_sets, cid):
    tol = next(line["tolerances"][cid] for lines in line_sets for line in lines if cid in line.get("tolerances", {}))
    return " -> ".join("n/a" if w is None else f"{tol / w:.3g}" if w else "inf"
                       for w in (_worst(lines, cid) for lines in line_sets))


def diff(before: dict, after: dict) -> list:
    """What differs between two sweeps, as printable lines; empty when they agree."""
    out = [f"only in {'before' if key in before else 'after'}: {key[0]} seed {key[1]}"
           for key in sorted(before.keys() ^ after.keys())]
    changed, failures, passes, drift = [], [], [], {}
    for key in sorted(before.keys() & after.keys()):
        a, b = before[key], after[key]
        if a.get("sha256") == b.get("sha256") and a.get("error") == b.get("error"):
            continue
        changed.append(f"  {key[0]} seed {key[1]}" + "".join(f" ({side}: {line['error']})"
                                                           for side, line in (("before", a), ("after", b))
                                                           if "error" in line))
        old = {(cid, s): (r, p) for cid, s, r, p in a.get("results", ())}
        new = {(cid, s): (r, p) for cid, s, r, p in b.get("results", ())}
        for cid, s in sorted(old.keys() | new.keys(), key=lambda k: (k[0], -1 if k[1] is None else k[1])):
            (r0, p0), (r1, p1) = old.get((cid, s), (None, None)), new.get((cid, s), (None, None))
            where = f"  {key[0]} seed {key[1]}: {cid}" + ("" if s is None else f" sample {s}") + f" ({r0} -> {r1})"
            if p0 and not p1:
                failures.append(where)
            elif p1 and not p0:
                passes.append(where)
            if not _same(r0, r1):
                delta = abs(r1 - r0) if r0 is not None and r1 is not None else math.nan
                prev = drift.get(cid, 0.0)
                drift[cid] = delta if math.isnan(delta) or math.isnan(prev) else max(prev, delta)
    for title, rows in (("changed reports", changed), ("new failures", failures), ("new passes", passes)):
        if rows:
            out += [f"{title}: {len(rows)}", *rows]
    if drift:
        out.append("largest |residual change| per id; headroom (tolerance / largest residual) before -> after:")
        out += [f"  {cid}: {delta:.3g}; {_headroom((before.values(), after.values()), cid)}"
                for cid, delta in sorted(drift.items())]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="sweep configs over seeds, one JSON line per (config, seed)")
    p_run.add_argument("specs", nargs="+", metavar="CONFIG SEEDS")
    p_diff = sub.add_parser("diff", help="compare two sweeps")
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        if len(args.specs) % 2:
            parser.error("run takes CONFIG SEEDS pairs")
        for config, spec in zip(args.specs[::2], args.specs[1::2]):
            for seed in seeds(spec):
                print(json.dumps(run(config, seed)), flush=True)
        return 0
    lines = diff(_read(args.before), _read(args.after))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
