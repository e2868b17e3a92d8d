"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Checks, on a three-sample FS suite, that

* every module binding of a wrapped function holds the same single
  wrapper, so a call is recorded once whichever module it goes through;
* traced call counts match counts taken independently of the bindings:
  successful ``eval_jet`` spans per order equal the ``ComplexJet`` objects
  built, and successful ``domain_sample`` spans equal the ``DomainSample``
  objects built;
* the traced report is byte-identical to the untraced one;
* ``uninstall`` puts every original function back.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from spans import Tracer, unit_counts

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skcone import expr, geometry, verify  # noqa: E402

# Functions bound by name in more than one module, with the modules that bind them.
SHARED = {
    expr.eval_jet: {"skcone", "skcone.expr", "skcone.geometry", "skcone.homogeneous"},
    geometry.domain_sample: {"skcone.geometry", "skcone.cone", "skcone.projective"},
    geometry.invert_flat_coords: {"skcone.geometry", "skcone.cone"},
    geometry.kahler_potential: {"skcone.geometry", "skcone.cone", "skcone.homogeneous"},
}


def _suite_config():
    inputs = json.loads((Path(__file__).resolve().parent / "inputs.json").read_text())
    return verify.config_from_dict(dict(inputs["configs"]["suite_fs"], sample_count=3))


def main() -> int:
    failures = []
    config = _suite_config()
    plain = verify.run_suite(config).to_json()

    tracer = Tracer()
    built_jets, built_samples = Counter(), [0]
    real_jet, real_sample = expr.ComplexJet, geometry.DomainSample

    def counting_jet(order, *rest):
        built_jets[order] += 1
        return real_jet(order, *rest)

    def counting_sample(**fields):
        built_samples[0] += 1
        return real_sample(**fields)

    tracer.install()
    expr.ComplexJet, geometry.DomainSample = counting_jet, counting_sample
    try:
        for original, modules in SHARED.items():
            bound = tracer.bindings_of(original)
            names = {module for module, _, _ in bound}
            if not modules <= names:
                failures.append(f"{original.__name__}: bound in {sorted(names)}, "
                                f"expected at least {sorted(modules)}")
            if any(obj is not tracer.wrapper_of(original) for _, _, obj in bound):
                failures.append(f"{original.__name__}: more than one wrapper")
        tracer.op = 0
        try:
            traced = verify.run_suite(config).to_json()
        finally:
            tracer.op = None
    finally:
        expr.ComplexJet, geometry.DomainSample = real_jet, real_sample
        tracer.uninstall()

    spans_ok = Counter(f"o{info}" for name, _, _, _, _, info, raised in tracer.spans
                       if name == "expr.eval_jet" and raised is None)
    if spans_ok != Counter({f"o{k}": v for k, v in built_jets.items()}):
        failures.append(f"eval_jet spans {dict(spans_ok)} != jets built {dict(built_jets)}")
    counts = unit_counts(tracer.spans, lambda op: op)[0]
    ok_samples = counts.get("geometry.domain_sample", 0) - counts.get("geometry.domain_sample.raised", 0)
    if ok_samples != built_samples[0]:
        failures.append(f"domain_sample spans {ok_samples} != samples built {built_samples[0]}")
    if traced != plain:
        failures.append("traced report differs from the untraced one")
    if not tracer.restored():
        failures.append("a wrapper is still bound after uninstall")
    for original, modules in SHARED.items():
        for module in modules:
            if getattr(sys.modules[module], original.__name__) is not original:
                failures.append(f"{module}.{original.__name__} not restored")

    for line in failures:
        print("FAIL", line)
    print(f"selftest: {len(tracer.spans)} spans, jets by order {dict(sorted(built_jets.items()))}, "
          f"{built_samples[0]} domain samples, {'ok' if not failures else 'FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
