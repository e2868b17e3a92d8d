"""skcone benchmark: seeded workloads run in-process through ``skcone.cli.main``.

    python3 perfbench/run.py --workload suite_stu --seed 7 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  The lines before it repeat the metrics
as a table.  Any wrong output counts as a failed op and makes ``correct``
false; the exit code is 1 when ``correct`` is false.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_PROBES = 5

# A fresh interpreter pays this before its first command.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import skcone.cli, skcone.verify as v; [v.load_config(p) for p in sys.argv[2:]]"
)


def run_cli(cli, argv):
    """One ``skcone`` command in-process: (exit code, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed, out.getvalue()


# ---------------------------------------------------------------------------
# Suite workloads
# ---------------------------------------------------------------------------


class SuiteWorkload:
    """Repeated ``skcone verify --config`` calls on one seeded config.

    Each repeat must give, result by result, the pass/fail outcome the
    package gave when the benchmark was defined: every check passes and
    the exit code is 0, except for the results ``inputs.json`` lists under
    ``known_failures`` for this seed, which failed then too and must fail
    again (exit code 1).  Every repeat must write the same report bytes.
    """

    unit_size = 1

    def __init__(self, name, config, expected, known_failures, seed):
        self.config_path = OUT / f"{name}.config.json"
        self.report_path = OUT / f"{name}.report.json"
        self.config_path.write_text(json.dumps(dict(config, seed=seed), indent=2))
        failing = {tuple(pair) for pair in known_failures.get(str(seed), [])}
        self.expected = {(cid, sample): (cid, sample) not in failing for cid, sample in expected}
        self.expected_code = 1 if failing else 0
        self.known_failing = len(failing)
        self.first_report = None

    def setup_inputs(self):
        return [str(self.config_path)]

    def units(self):
        argv = ["verify", f"--config={self.config_path}", f"--out={self.report_path}"]
        while True:
            yield [(argv, self.check)]

    def check(self, code, stdout):
        """(results attempted, results failed, report bytes) of the last call."""
        report_bytes = self.report_path.read_bytes()
        self.report_path.unlink()
        got = {(c["id"], c["point"].get("sample")): c["pass"]
               for c in json.loads(report_bytes)["checks"]}
        attempted = len(got)
        failed = (sum(got.get(key) is not ok for key, ok in self.expected.items())
                  + len(got.keys() - self.expected.keys()))
        if self.first_report is None:
            self.first_report = report_bytes
        if code != self.expected_code or report_bytes != self.first_report:
            failed = attempted
        return attempted, failed, report_bytes


# ---------------------------------------------------------------------------
# Point queries
# ---------------------------------------------------------------------------

QUERY_RADIUS = 0.1
BD_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])   # case_bd(3): diag(1, 1, -1, -1)
A_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])     # case_a(3): signature (1, 1, 1, -1)


def _fs_family(m):
    return ("i*(" + " + ".join(f"z{j}^2" for j in range(m)) + ")",
            np.array([1 + 0.2j] + [0.3 - 0.1j] * (m - 1)))


def _st_family(m):
    return ("z1*(" + " - ".join(f"z{j}^2" for j in range(2, m)) + ")/z0",
            np.array([1, 1j, 2j] + [0.5j] * (m - 3)))


FAMILIES = [_fs_family(m) for m in (2, 3, 4, 6, 8)] + [_st_family(m) for m in (4, 5, 6, 8)]


def _fmt(values):
    return ",".join(f"{c.real:.17g}{c.imag:+.17g}i" if isinstance(c, complex) else f"{c:.17g}"
                    for c in values)


def _g_reference(a, b, c, d):
    A = 12.0 * a * c - 4.0 * b * b
    B = 36.0 * a * d - 4.0 * b * c
    C = 12.0 * b * d - 4.0 * c * c
    return B * B - 4.0 * A * C


class QueryWorkload:
    """Closed loop, one client: each query is one ``cli.main`` call on fresh input.

    Queries come in blocks of fixed composition (per family: two
    ``sphere``, one ``projective``, one ``parse``; five quartics each of
    cases A, BD and E6, four of G and the pinned G ``1,0,0,1``), shuffled
    by the seed, so every block does the same operation counts.
    """

    unit_size = 4 * len(FAMILIES) + 20

    def __init__(self, seed):
        from skcone import homogeneous
        self.rng = np.random.default_rng(seed)
        self.e6_reference = lambda v: homogeneous.quartic_eval(homogeneous.case_e6(), v)

    def setup_inputs(self):
        return []

    def _near(self, base):
        m2 = 2 * base.size
        d = self.rng.standard_normal(m2)
        r = QUERY_RADIUS * self.rng.random() ** (1.0 / m2) / np.linalg.norm(d)
        return [complex(c) for c in base + r * (d[: base.size] + 1j * d[base.size:])]

    def _quartic(self, case):
        rng = self.rng
        if case == "A":
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ref = (2.0 * float(np.sum(A_SIGNS * np.abs(v) ** 2))) ** 2
        elif case == "BD":
            v = rng.standard_normal(8)
            a, b = v.reshape(4, 2).T
            ref = (a @ (BD_SIGNS * a)) * (b @ (BD_SIGNS * b)) - (a @ (BD_SIGNS * b)) ** 2
        elif case == "E6":
            v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            ref = self.e6_reference(v)
        else:
            v = rng.standard_normal(4)
            ref = _g_reference(*v)
        vals = [complex(x) for x in v] if np.iscomplexobj(v) else [float(x) for x in v]
        return ["quartic", f"--case={case}", f"--coeffs={_fmt(vals)}"], ref

    def units(self):
        while True:
            block = []
            for text, base in FAMILIES:
                for kind in ("sphere", "sphere", "projective"):
                    argv = [kind, f"--expr={text}", f"--point={_fmt(self._near(base))}"]
                    block.append((argv, _CHECKS[kind]))
                seed = int(self.rng.integers(2**31))
                block.append((["parse", f"--expr={text}", f"--seed={seed}"], _CHECKS["parse"]))
            for case, count in (("A", 5), ("BD", 5), ("E6", 5), ("G", 4)):
                for _ in range(count):
                    argv, ref = self._quartic(case)
                    block.append((argv, _quartic_check(ref)))
            block.append((["quartic", "--case=G", "--coeffs=1,0,0,1"], _quartic_check(1296.0, exact="1296")))
            yield [block[i] for i in self.rng.permutation(len(block))]


def _json_check(predicate):
    def check(code, stdout):
        ok = code == 0 and predicate(json.loads(stdout))
        return 1, int(not ok), stdout
    return check


def _quartic_check(ref, exact=None):
    def check(code, stdout):
        text = stdout.strip()
        value = complex(text.replace("i", "j")) if text.endswith("i") else float(text)
        ok = code == 0 and abs(value - ref) <= 1e-9 * (1.0 + abs(ref))
        if exact is not None:
            ok = ok and text == exact
        return 1, int(not ok), stdout
    return check


_CHECKS = {
    "sphere": _json_check(lambda o: abs(abs(o["k"]) - 0.5) <= 1e-10),
    "projective": _json_check(lambda o: o["vertical_residual"] <= 1e-10),
    "parse": _json_check(lambda o: o["homogeneity"]["scale_residual"] <= 1e-9
                         and o["homogeneity"]["euler_residual"] <= 1e-9
                         and not o["homogeneity"]["skipped_samples"]),
}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def make_workload(name, seed):
    if name == "point_queries":
        return QueryWorkload(seed)
    inputs = json.loads((HERE / "inputs.json").read_text())
    return SuiteWorkload(name, inputs["configs"][name], inputs["expected"][name],
                         inputs["known_failures"].get(name, {}), seed)


def _checked(check, code, stdout):
    """A check that raises on malformed output counts its op as failed."""
    try:
        return check(code, stdout)
    except (ValueError, KeyError, TypeError, OSError):
        return 1, 1, None


def setup_seconds(workload):
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *workload.setup_inputs()],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure(cli, workload, seconds):
    latencies, attempted, failed = [], 0, 0
    is_suite = isinstance(workload, SuiteWorkload)
    units = workload.units()
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        for argv, check in next(units):
            code, elapsed, stdout = run_cli(cli, argv)
            latencies.append(elapsed)
            a, f, _ = _checked(check, code, stdout)
            attempted += a
            failed += f
    metrics = {
        "setup_s": (setup_seconds(workload), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # The median is printed, not bounded: see "Steadiness" in README.md.
    n, p50 = len(latencies), statistics.median(latencies)
    if is_suite:
        aliases = [("suite_s", p50, f"s (median of {n} suites)")]
    else:
        aliases = [("query_p50_ms", p50 * 1e3, f"ms ({n} queries)"),
                   ("query_p99_ms", metrics["op_p99_ms"][0], f"ms ({n} queries)"),
                   ("queries_per_s", metrics["ops_per_s"][0], "1/s (closed loop, one client)")]
    aliases.append(("ops_failed_frac", failed / max(1, attempted), f"ratio ({failed}/{attempted})"))
    return metrics, attempted, failed, {"ops": n, "aliases": aliases}


def measure_traced(cli, workload, seconds):
    """Each unit runs once untraced and once traced, in alternating order.

    The two runs of a unit must print the same bytes; the traced one's
    spans give the per-layer metrics, and the time ratio of the two gives
    the tracing overhead.
    """
    tracer = Tracer()
    elapsed = {False: 0.0, True: 0.0}
    attempted, failed, restored, n_units = 0, 0, True, 0
    extra = {}

    def run_unit(unit, traced):
        nonlocal attempted, failed
        outputs = []
        if traced:
            tracer.install()
        try:
            for i, (argv, check) in enumerate(unit):
                tracer.op = n_units * workload.unit_size + i if traced else None
                try:
                    code, seconds_taken, stdout = run_cli(cli, argv)
                finally:
                    tracer.op = None
                elapsed[traced] += seconds_taken
                a, f, out = _checked(check, code, stdout)
                attempted += a
                failed += f
                outputs.append(out)
        finally:
            if traced:
                tracer.uninstall()
        return outputs

    units = workload.units()
    start = time.perf_counter()
    while n_units == 0 or time.perf_counter() - start < seconds:
        unit = next(units)
        order = (False, True) if n_units % 2 == 0 else (True, False)
        outputs = {traced: run_unit(unit, traced) for traced in order}
        for plain_out, traced_out in zip(outputs[False], outputs[True]):
            if plain_out is None or plain_out != traced_out:
                failed += 1
        if isinstance(workload, SuiteWorkload) and outputs[True][0] is not None:
            report = json.loads(outputs[True][0])
            extra[n_units] = {"verify.results.failed": report["summary"]["counts"]["failed"]}
        restored = restored and tracer.restored()
        n_units += 1
    metrics, counts = layer_metrics(tracer.spans, lambda op: op // workload.unit_size, extra)
    metrics["trace.overhead_frac"] = (elapsed[True] / elapsed[False] - 1.0, "ratio")
    OUT.joinpath("counts.json").write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    with OUT.joinpath("spans.jsonl").open("w") as fh:
        for name, parent, op, t0, t1, _, raised in tracer.spans:
            fh.write(json.dumps([name, parent, op, t0, t1, raised]) + "\n")
    if counts is None or not restored:
        failed = max(failed, 1)
    info = {"units": n_units, "spans": len(tracer.spans),
            "counts_repeat": counts is not None, "unwrap_restores": restored}
    return metrics, attempted, failed, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite_stu", "suite_fs", "point_queries", "suite_sec5"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skcone" / "__init__.py").is_file():
        print(f"perfbench: no skcone package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from skcone import cli

    OUT.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    run = measure_traced if args.trace else measure
    metrics, attempted, failed, info = run(cli, workload, args.seconds)
    correct = failed == 0

    info["known_failing_results"] = getattr(workload, "known_failing", 0)
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={attempted} "
          f"failed={failed} " + " ".join(f"{k}={v}" for k, v in info.items() if k != "aliases"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, value, unit in info.pop("aliases", ()):
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
