"""Span tracing of skcone's public functions, installed from outside the package.

Each public function defined in a layer module gets exactly one wrapper.
The wrapper replaces every binding of the original in every loaded
``skcone`` module (``eval_jet`` is bound in expr, geometry and homogeneous,
``domain_sample`` in geometry, cone and projective, and so on), so a call
is recorded once whichever module it goes through.  ``uninstall`` puts the
originals back.

A span is ``[name, parent, op, t0, t1, info, raised]``: the wrapped
function as ``<layer>.<function>``, the index of the enclosing span (-1 at
the top), the op the call belongs to (one suite or one query), start and
end times from ``time.perf_counter``, a per-function detail (jet order,
sample point key, quartic case, CLI sub-command) and the name of the
exception the call raised, if any.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("expr", "geometry", "cone", "projective", "homogeneous", "verify", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _point_key(args, kwargs):
    z = np.asarray(_arg(args, kwargs, 1, "z"), dtype=complex)
    return (id(args[0]), z.tobytes())


_INFO = {
    "expr.eval_jet": lambda a, k: _arg(a, k, 2, "order"),
    "geometry.domain_sample": _point_key,
    "homogeneous.quartic_eval": lambda a, k: _arg(a, k, 0, "case").tag,
    "cli.main": lambda a, k: _arg(a, k, 0, "argv")[0],
}


class Tracer:
    """Records spans while ``op`` is set; passes calls straight through otherwise."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._originals = {}   # id(original) -> (original, wrapper)
        self._bindings = []    # (module, attribute, original)

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"skcone.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def restored(self) -> bool:
        """True when no package module still binds a wrapper."""
        wrappers = {id(w) for _, w in self._originals.values()}
        return not any(id(v) in wrappers for m in _package_modules() for v in vars(m).values())

    def bindings_of(self, original) -> list:
        """(module name, attribute, bound object) for each replaced binding of ``original``."""
        return [(m.__name__, a, getattr(m, a)) for m, a, o in self._bindings if o is original]

    def wrapper_of(self, original):
        return self._originals[id(original)][1]

    def _wrap(self, name, fn):
        info_of = _INFO.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0,
                    info_of(args, kwargs) if info_of else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[4] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "skcone" or n.startswith("skcone."))]


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

JET_ORDERS = range(5)
QUARTIC_CASES = ("A", "BD", "E6", "F", "G")
CLI_COMMANDS = ("parse", "sphere", "projective", "quartic", "verify")
US_OF = (
    "expr.parse_prepotential",
    "geometry.invert_flat_coords", "geometry.domain_sample",
    "geometry.flat_hessian_fd", "geometry.flat_hessian_of_k",
    "geometry.omega_parallel_residual", "geometry.dnabla_J_residual",
    "geometry.d_eta_residual",
    "cone.sasaki_residuals", "cone.project_to_sphere", "cone.gauss_split",
    "cone.shape_residual", "cone.mean_curvature_residual",
    "cone.warped_product_residuals",
    "projective.projective_metric", "projective.horizontal_gram_determinant",
    "projective.submersion_residual",
    "homogeneous.lie_invariance_residual", "homogeneous.e6_operator",
)
CALLS_OF = (
    "expr.parse_prepotential", "geometry.invert_flat_coords",
    "geometry.domain_sample", "geometry.kahler_potential",
    "cone.sasaki_residuals", "cone.project_to_sphere",
    "projective.projective_metric",
)
SELF_S_OF = ("expr.eval_jet", "geometry.invert_flat_coords",
             "geometry.domain_sample", "cone.sasaki_residuals")


def unit_counts(spans, unit_of) -> dict:
    """Machine-independent counts per unit of work (a suite, or a block of queries)."""
    per_unit = defaultdict(lambda: defaultdict(int))
    seen = defaultdict(set)   # (unit, op) -> distinct domain_sample points
    for name, parent, op, _, _, info, raised in spans:
        c = per_unit[unit_of(op)]
        c[name] += 1
        if name == "expr.eval_jet":
            c[f"expr.eval_jet.o{info}"] += 1
            c["expr.eval_jet.singular"] += raised == "EvaluationSingularity"
        elif name == "geometry.domain_sample":
            seen[(unit_of(op), op)].add(info)
            c["geometry.domain_sample.raised"] += raised is not None
        elif name == "geometry.invert_flat_coords":
            c["geometry.invert_flat_coords.failed"] += raised is not None
        elif name == "homogeneous.quartic_eval":
            c[f"homogeneous.quartic_eval.{info}"] += 1
        if parent >= 0:
            parent_name = spans[parent][0]
            if parent_name == "geometry.invert_flat_coords" and name == "expr.eval_jet":
                c["geometry.invert_flat_coords.jets"] += 1
            elif parent_name == "verify.sample_points" and name == "geometry.domain_sample":
                c["verify.sample_points.children"] += 1
                c["verify.sample_points.accepted"] += raised is None
    for (unit, _), points in seen.items():
        per_unit[unit]["geometry.domain_sample.distinct"] += len(points)
    return {u: dict(c) for u, c in per_unit.items()}


def layer_metrics(spans, unit_of, extra_counts=None) -> tuple:
    """Return ``(metrics, counts)``.

    ``metrics`` maps each per-layer metric to ``(value, unit)``: counts are
    those of one unit, times are means per call (``.us``, ``.ms``, ``.s``)
    or self time per unit (``.self_s``).  ``counts`` holds every count of
    one unit, or None when the units disagree, which the caller treats as
    a failed determinism check.
    """
    per_unit = unit_counts(spans, unit_of)
    for unit, extra in (extra_counts or {}).items():
        per_unit.setdefault(unit, {}).update(extra)
    units = sorted(per_unit)
    c = per_unit[units[0]] if units else {}
    counts = c if all(per_unit[u] == c for u in units) else None
    n_units = max(1, len(units))

    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    child = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child[span[1]] += span[4] - span[3]
    for i, (name, _, _, t0, t1, info, _) in enumerate(spans):
        keys = [name]
        if name in ("expr.eval_jet", "homogeneous.quartic_eval", "cli.main"):
            keys.append(f"{name}.{'o' if name == 'expr.eval_jet' else ''}{info}")
        for key in keys:
            dur[key] += t1 - t0
            calls[key] += 1
            self_t[key] += t1 - t0 - child[i]
        self_t[name.split(".")[0]] += t1 - t0 - child[i]

    m = {}

    def count(name, key=None):
        m[name] = (c.get(key or name, 0), "count")

    def mean(name, key, scale, unit):
        m[name] = (dur[key] / calls[key] * scale if calls[key] else 0.0, unit)

    def ratio(name, num, den, unit="ratio"):
        m[name] = (num / den if den else 0.0, unit)

    for order in JET_ORDERS:
        count(f"expr.eval_jet.o{order}.calls", f"expr.eval_jet.o{order}")
        mean(f"expr.eval_jet.o{order}.us", f"expr.eval_jet.o{order}", 1e6, "us")
    count("expr.eval_jet.singular")
    for key in CALLS_OF:
        count(f"{key}.calls", key)
    for key in US_OF:
        mean(f"{key}.us", key, 1e6, "us")
    for key in SELF_S_OF:
        m[f"{key}.self_s"] = (self_t[key] / n_units, "s")
    ratio("geometry.invert_flat_coords.jets_per_call",
          c.get("geometry.invert_flat_coords.jets", 0), c.get("geometry.invert_flat_coords", 0), "count")
    count("geometry.invert_flat_coords.failed")
    count("geometry.domain_sample.distinct")
    ratio("geometry.domain_sample.distinct_ratio",
          c.get("geometry.domain_sample.distinct", 0), c.get("geometry.domain_sample", 0))
    count("geometry.domain_sample.raised")
    for case in QUARTIC_CASES:
        count(f"homogeneous.quartic_eval.{case}.calls", f"homogeneous.quartic_eval.{case}")
        mean(f"homogeneous.quartic_eval.{case}.us", f"homogeneous.quartic_eval.{case}", 1e6, "us")
    m["homogeneous.self_s"] = (self_t["homogeneous"] / n_units, "s")
    mean("verify.run_suite.s", "verify.run_suite", 1.0, "s")
    mean("verify.sample_points.s", "verify.sample_points", 1.0, "s")
    # Each sample_points call checks the base point with one domain_sample.
    draws = c.get("verify.sample_points", 0)
    attempts = c.get("verify.sample_points.children", 0) - draws
    m["verify.sample_points.attempts"] = (attempts, "count")
    ratio("verify.sample_points.accept_ratio", c.get("verify.sample_points.accepted", 0) - draws, attempts)
    count("verify.results.failed")
    for cmd in CLI_COMMANDS:
        mean(f"cli.main.{cmd}.ms", f"cli.main.{cmd}", 1e3, "ms")
    # The cli layer's own time per command: argparse (build_parser), JSON and formatting.
    ratio("cli.self_ms", self_t["cli"] * 1e3, calls["cli.main"], "ms")
    return m, counts
