"""Suite orchestration: sampling, tolerance policy, machine-readable reports.

Check identifiers are stable strings so downstream tooling can diff
reports.  Each check id carries a fixed tolerance kind in ``_REGISTRY``:
one of the three profile classes (analytic, chart_fd, invariance) or a
pinned numeric value.  Only the profile classes are configurable.

Reports are byte-identical across runs with the same config: sampling is
seeded, per-point auxiliary vectors derive from (seed, salt, index), and
results are sorted before emission.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import cone as cone_mod
from . import geometry as geo
from . import homogeneous as hom
from . import projective as proj
from .errors import (
    AdmissibleRegionTooSmall,
    DegenerateMetric,
    EvaluationSingularity,
    InadmissiblePoint,
    SkconeError,
)
from .expr import check_homogeneity, jet_fd_residual, max_or_nan, parse_prepotential

_HOMOGENEITY_SCALES = (2.0, 1.0 + 0.7j)
_WARPED_R = 2.5
_PKM_LAMBDA = 1.3 * np.exp(0.9j)
_GRAM_FLOOR = 1e-8


def _number(value, kinds=(int, float)) -> bool:
    """Whether value is a finite number of one of ``kinds`` and not a bool."""
    try:
        return isinstance(value, kinds) and not isinstance(value, bool) and cmath.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


@dataclass(frozen=True)
class ToleranceProfile:
    analytic: float = 1e-9
    chart_fd: float = 1e-5
    invariance: float = 1e-7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (_number(value) and value > 0):
                raise ValueError(f"tolerances.{f.name} must be a finite real > 0, got {value!r}")
        if self.analytic > self.chart_fd:
            raise ValueError("tolerances.analytic must not exceed tolerances.chart_fd")


@dataclass(frozen=True)
class CheckResult:
    id: str
    point: dict
    residual: float | None
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "point": self.point,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SuiteConfig:
    prepotential: str
    n_vars: int
    seed: int = 1
    sample_count: int = 64
    base_point: tuple = ()
    sample_radius: float = 0.2
    checks: tuple | None = None  # None = every applicable check
    tolerances: ToleranceProfile = field(default_factory=ToleranceProfile)
    output_path: str | None = None

    def __post_init__(self):
        """The one check of every field's type and range; a ValueError names the first bad key."""
        n, base, checks = self.n_vars, self.base_point, self.checks
        for key, what, valid in (
            ("prepotential", "a str", isinstance(self.prepotential, str)),
            ("n_vars", "an int >= 1", _number(n, int) and n >= 1),
            ("seed", "an int in [0, 2**64)", _number(self.seed, int) and 0 <= self.seed < 2**64),
            ("sample_count", "an int >= 1", _number(self.sample_count, int) and self.sample_count >= 1),
            ("base_point", "a tuple of n_vars finite complex numbers",
             isinstance(base, tuple) and len(base) == n and all(_number(c, (int, float, complex)) for c in base)),
            ("sample_radius", "a finite real > 0", _number(self.sample_radius) and self.sample_radius > 0),
            ("checks", "None or a tuple of distinct known check ids", checks is None or (
                isinstance(checks, tuple) and all(c in CHECK_IDS for c in checks) and len(set(checks)) == len(checks))),
            ("tolerances", "a ToleranceProfile", isinstance(self.tolerances, ToleranceProfile)),
            ("output_path", "None or a str", self.output_path is None or isinstance(self.output_path, str)),
        ):
            if not valid:
                raise ValueError(f"{key} must be {what}, got {getattr(self, key)!r}")


def _pair(pair) -> complex:
    """A JSON [re, im] pair as a complex number."""
    re, im = pair
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError("a bool is not a number")
    return complex(re, im)


def config_from_dict(data: dict) -> SuiteConfig:
    """Build a SuiteConfig from parsed JSON: exact key names, [re, im] pairs and a tolerance object.

    It only maps JSON to fields; SuiteConfig checks every value.
    """
    if not isinstance(data, dict) or not isinstance(data.get("tolerances", {}), dict):
        raise ValueError("a config and its tolerances must be JSON objects")
    tol = data.get("tolerances", {})
    for name, given, cls in (("config", data, SuiteConfig), ("tolerances", tol, ToleranceProfile)):
        unknown = set(given) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"{name} has unknown keys: {sorted(unknown)}")
    for key in ("prepotential", "n_vars", "base_point"):
        if key not in data:
            raise ValueError(f"config is missing required key {key!r}")
    try:
        base = tuple(map(_pair, data["base_point"]))
    except (TypeError, ValueError, OverflowError):
        raise ValueError("base_point must be a list of [re, im] number pairs") from None
    checks = data.get("checks")
    return SuiteConfig(**{**data, "base_point": base, "checks": tuple(checks) if isinstance(checks, list) else checks,
                          "tolerances": ToleranceProfile(**tol)})


def load_config(path: str) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _admissible(ast, z) -> bool:
    try:
        geo.domain_sample(ast, z)
        return True
    except (InadmissiblePoint, DegenerateMetric, EvaluationSingularity):
        return False


def sample_points(config: SuiteConfig, ast=None, budget_factor: int = 100) -> list:
    """Seeded admissible perturbations of the base point; each round's draws are gated as one stack."""
    if ast is None:
        ast = parse_prepotential(config.prepotential, config.n_vars)
    base = np.asarray(config.base_point, dtype=complex)
    if not _admissible(ast, base):
        raise InadmissiblePoint("base_point is not admissible")
    rng = np.random.default_rng(config.seed)
    m2 = 2 * config.n_vars
    points = []
    attempts = 0
    budget = budget_factor * config.sample_count
    while len(points) < config.sample_count:
        if attempts >= budget:
            raise AdmissibleRegionTooSmall(
                f"found {len(points)}/{config.sample_count} admissible points "
                f"in {budget} attempts"
            )
        draws = []
        for _ in range(min(config.sample_count - len(points), budget - attempts)):
            direction = rng.standard_normal(m2)
            norm = np.linalg.norm(direction)
            radial = rng.random() ** (1.0 / m2)
            offset = (config.sample_radius * radial / norm) * direction
            draws.append(base + geo.to_complex(offset))
        attempts += len(draws)
        gate = geo.domain_sample(ast, np.array(draws))
        points.extend(z for p, z in enumerate(draws) if p not in gate.rejected)
    return points


# ---------------------------------------------------------------------------
# The suite and its samples, as check runners see them
# ---------------------------------------------------------------------------


class _Context:
    """What lives as long as the suite: its config, samples and what the aggregate checks read of them."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.ast = parse_prepotential(config.prepotential, config.n_vars)
        self.signature = hom.quadratic_signature(self.ast)
        self.fitted: dict = {}
        self.sphere_domains: dict = {}   # idx -> the DomainSample at the sphere point u, for sec5.remark2.sigma_xq
        self._hessians: dict = {}
        self._q_report = None

    @cached_property
    def samples(self) -> list:
        """The suite's sample points, drawn on first use (see :func:`run_suite`)."""
        return sample_points(self.config, self.ast)

    def rng(self, salt: int, idx: int = 0):
        return np.random.default_rng([self.config.seed, salt, idx])

    def flat_hessian(self, idx: int):
        """flat_hessian_of_k at sample idx, computed once; a failure re-raises to every caller."""
        if idx not in self._hessians:
            self._hessians[idx] = _outcome(lambda: geo.flat_hessian_of_k(self.ast, self.samples[idx]))
        return _raised(self._hessians[idx])

    def q_report(self):
        """q_proportional_ksq over the samples, computed once per suite; a failure re-raises to every caller."""
        if self._q_report is None:
            self._q_report = _outcome(lambda: hom.q_proportional_ksq(self.case_a(), self.ast, self.samples))
        return _raised(self._q_report)

    def sphere_domain(self, idx: int):
        """The DomainSample at sample idx's sphere point u: its _Sample's, or projected here if it built none."""
        if idx not in self.sphere_domains:
            self.sphere_domains[idx] = cone_mod.project_to_sphere(self.ast, self.samples[idx]).domain
        return self.sphere_domains[idx]

    def is_fs(self) -> bool:
        return self.signature is not None and np.all(self.signature == 1.0)

    def case_a(self):
        if self.signature is None:
            return None
        return hom.case_a(self.config.n_vars - 1, signature=self.signature)


class _Sample:
    """Sample idx of a suite and what its checks share, each computed once, on first use.

    It lives while its sample's checks run (see :func:`_run_sample`), so its
    chart at z, its sphere with the charts at u and r·u, its tangent pairs
    and its residuals are freed with it.
    """

    def __init__(self, ctx: _Context, idx: int):
        self.ctx, self.idx = ctx, idx
        self.ast = ctx.ast
        self.z = ctx.samples[idx]
        self._pairs: dict = {}   # (count, salt) -> tangent pairs

    def rng(self, salt: int):
        return self.ctx.rng(salt, self.idx)

    @cached_property
    def chart(self):
        """The flat chart seeded at z, whose base and stencils the domain checks share."""
        return geo.FlatChart(self.ast, self.z)

    @cached_property
    def homogeneity(self):
        """check_homogeneity at z with the suite's scales, computed once for the scale and Euler checks."""
        return check_homogeneity(self.ast, [self.z], _HOMOGENEITY_SCALES)

    @cached_property
    def lemma1(self) -> dict:
        """Lemma 1 residuals at z, relative to 1 + |k|."""
        scale = 1.0 + abs(self.chart.base.k)
        return {key: r / scale for key, r in geo.lemma1_residuals(self.chart).items()}

    @cached_property
    def sphere(self):
        return cone_mod.project_to_sphere(self.ast, self.z)

    def tangent_pairs(self, count: int, salt: int = 101):
        """The ``count`` seeded tangent pairs at the sphere point for ``salt``, drawn once per sample."""
        if (count, salt) not in self._pairs:
            sphere, rng = self.sphere, self.rng(salt)
            self._pairs[count, salt] = [(cone_mod.random_tangent(sphere, rng), cone_mod.random_tangent(sphere, rng))
                                        for _ in range(count)]
        return self._pairs[count, salt]

    @cached_property
    def sasaki(self):
        return cone_mod.sasaki_residuals(self.sphere, self.tangent_pairs(2))

    def hand_over(self, stencils) -> None:
        """Newton-invert the chart points that ``stencils`` give, as one stack across the sample's charts.

        A stencil is a function (sample) -> (chart, points); one that
        several checks share is asked once.  A hand-over never raises: a
        stencil that cannot be formed is left out, and a row that fails is
        not memoised, so the check that needs it inverts it again and raises
        the error it raises alone.
        """
        formed = []
        for stencil in dict.fromkeys(stencils):
            try:
                formed.append(stencil(self))
            except _CHECK_ERRORS:
                continue
        geo.invert_stencils(formed)


def _outcome(compute):
    """compute(), or the check error it raised."""
    try:
        return compute()
    except _CHECK_ERRORS as exc:
        return exc


def _raised(outcome):
    """An outcome of :func:`_outcome`, or its error raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# Check implementations
# ---------------------------------------------------------------------------


def _chk_npotential(s):
    base = s.chart.base
    H = s.ctx.flat_hessian(s.idx)
    push = base.flat_form(base.g)
    return float(np.max(np.abs(H - push))) / max(1.0, float(np.max(np.abs(push))))


def _chk_hessian_oracle(s):
    H = s.ctx.flat_hessian(s.idx)
    Hfd = geo.flat_hessian_fd(s.chart)
    return float(np.max(np.abs(H - Hfd))) / max(1.0, float(np.max(np.abs(H))))


def _chk_sphere_level(s):
    sp = s.sphere
    return abs(sp.domain.k - sp.kappa / 2.0)


def _chk_frame_tangency(s):
    sp = s.sphere
    return float(np.max(np.abs(sp.frame @ sp.domain.dk)))


def _chk_sigma_length(s):
    sp = s.sphere
    return abs(float(sp.sigma @ sp.domain.g @ sp.sigma) - sp.kappa)


# The seeded tangent pairs each sphere check with a stencil draws at u:
# (count, salt) for _Sample.tangent_pairs.
_GAUSS_PAIRS = (2, 103)
_SHAPE_PAIRS = (2, 104)
_RADIAL_PAIRS = (1, 105)
_POSITION_PAIRS = (1, 106)


def _chk_gauss(s):
    sp = s.sphere
    worst = 0.0
    for X, Y in s.tangent_pairs(*_GAUSS_PAIRS):
        split = cone_mod.gauss_split(sp, X, Y)
        worst = max_or_nan(worst, abs(split.normal_coeff - sp.domain.g_form(X, Y)))
    return worst


def _chk_shape(s):
    sp = s.sphere
    worst = 0.0
    for X, _ in s.tangent_pairs(*_SHAPE_PAIRS):
        worst = max_or_nan(worst, cone_mod.shape_residual(sp, X))
    return worst


def _chk_warped_radial(s):
    sp = s.sphere
    (X, Y), = s.tangent_pairs(*_RADIAL_PAIRS)
    return cone_mod.warped_product_residuals(sp, _WARPED_R, X, Y)


def _chk_warped_position(s):
    sp = s.sphere
    (X, _), = s.tangent_pairs(*_POSITION_PAIRS)
    return cone_mod.warped_position_residual(sp, _WARPED_R, X)


def _chk_submersion(s):
    dom = s.sphere.domain
    worst = 0.0
    for X, _ in s.tangent_pairs(2, salt=107):
        worst = max_or_nan(worst, proj.submersion_residual(dom, proj.horizontal_project(dom, X)))
    return worst


def _chk_pkm_pullback(s):
    dom = s.sphere.domain
    worst = 0.0
    for X, _ in s.tangent_pairs(2, salt=108):
        worst = max_or_nan(worst, proj.pkm_pullback_residual(dom, X))
    return worst


def _chk_pkm_scale(s):
    sp = s.sphere
    (X, _), = s.tangent_pairs(1, salt=109)
    return proj.pkm_scale_residual(s.ast, sp.domain, X, _PKM_LAMBDA)


def _chk_pkm_gram(s):
    sp = s.sphere
    det = proj.horizontal_gram_determinant(sp.domain, sp.frame)
    return _GRAM_FLOOR / det if det > 0 else float("inf")


def _chk_fs_closed_form(s):
    sp = s.sphere
    rng = s.rng(110)
    worst = 0.0
    for _ in range(2):
        X = rng.standard_normal(2 * s.ast.n_vars)
        worst = max_or_nan(worst, proj.fubini_study_compare(sp.u, X))
    s.ctx.fitted["fs_metric_scale"] = proj.fs_fitted_constant()
    return worst


def _agg_ma_spread(ctx):
    rep = geo.det_spread(ctx.flat_hessian, range(len(ctx.samples)))
    if rep.values:
        ctx.fitted["monge_ampere_constant"] = float(np.mean(rep.values))
    return {"samples": len(ctx.samples), "skipped": list(rep.skipped)}, rep.rel_spread


def _agg_q_ratio(ctx):
    rep = ctx.q_report()
    ctx.fitted["q_over_ksq_ratio"] = rep.ratio
    return {"samples": len(ctx.samples), "skipped": list(rep.skipped)}, rep.rel_spread


def _agg_sigma_xq(ctx):
    ratio = ctx.q_report().ratio
    case = ctx.case_a()

    def potential(w_real):
        return float(np.real(hom.quartic_eval(case, geo.to_complex(w_real)))) / ratio

    worst = 0.0
    for idx in range(len(ctx.samples)):
        worst = max_or_nan(worst, cone_mod.hamiltonian_field_residual(ctx.sphere_domain(idx), potential=potential))
    return {"samples": len(ctx.samples)}, worst


# ---------------------------------------------------------------------------
# Stencils: the chart points a per-sample check differentiates across,
# handed over before its sample's checks run (see _Sample.hand_over)
# ---------------------------------------------------------------------------


def _st_hessian_fd(s):
    chart = s.chart
    return chart, chart.hessian_points(chart.base.flat)


def _st_axis(s):
    chart = s.chart
    return chart, chart.axis_points(chart.base.flat)


def _st_directions(pairs):
    """The stencil at u along the first vector of each tangent pair a check draws with ``pairs``."""
    def stencil(s):
        sp = s.sphere
        return sp.chart, [w for X, _ in s.tangent_pairs(*pairs) for w in cone_mod.direction_points(sp, X)]
    return stencil


def _st_scaled(pairs):
    """The stencil at r·u along r X, for the first vector X of the tangent pair a check draws with ``pairs``."""
    def stencil(s):
        sp = s.sphere
        (X, _), = s.tangent_pairs(*pairs)
        return sp.scaled_chart(_WARPED_R), cone_mod.warped_points(sp, _WARPED_R, X)
    return stencil


def _st_mean_curvature(s):
    sp = s.sphere
    return sp.chart, [w for T in sp.frame for w in cone_mod.direction_points(sp, T)]


def _st_sasaki(points):
    """The stencil at u of ``points`` (:func:`cone.sasaki_gamma_points` or ``sasaki_direction_points``)."""
    def stencil(s):
        sp = s.sphere
        return sp.chart, points(sp, s.tangent_pairs(2))
    return stencil


_SASAKI_STENCILS = (_st_sasaki(cone_mod.sasaki_gamma_points), _st_sasaki(cone_mod.sasaki_direction_points))


_SEC5_CASES = {
    "A": lambda: [hom.case_a(n) for n in (1, 2, 3, 4)],
    "BD": lambda: [hom.case_bd(n) for n in (2, 3, 4, 5)],
    "E6": lambda: [hom.case_e6()],
    "F": lambda: [hom.case_f()],
    "G": lambda: [hom.case_g()],
}


def _sec5_worst(cases, residuals, draw_order):
    """max_or_nan of residuals(c, rows)[r] over ``draw_order``, a list of (case index c, row r), one stack per case.

    If a stack raises, its rows run alone in draw order, to raise the error the per-row loop raised first.
    """
    try:
        per_case = [residuals(c, slice(None)) for c in range(len(cases))]
    except _CHECK_ERRORS:
        for c, r in draw_order:
            residuals(c, slice(r, r + 1))
        raise
    worst = 0.0
    for c, r in draw_order:
        worst = max_or_nan(worst, per_case[c][r])
    return worst


def _sec5_invariance(tag):
    def run(ctx):
        cases = _SEC5_CASES[tag]()
        rng = ctx.rng(120 + ord(tag[0]))
        rounds = -(-50 // len(cases))   # whole rounds of one pair per case, until 50 pairs
        draws = [[(hom.draw_vector(case, rng), hom.draw_generator(case, rng)) for case in cases] for _ in range(rounds)]

        def residuals(c, rows):
            vs, gens = zip(*[row[c] for row in draws[rows]])
            case = cases[c]
            return hom.lie_invariance_residual(case, hom.vector_stack(case, vs), hom.generator_stack(case, gens))

        order = [(c, r) for r in range(rounds) for c in range(len(cases))]
        return {"pairs": len(order)}, _sec5_worst(cases, residuals, order)

    return run


def _sec5_homogeneity(tag):
    def run(ctx):
        cases = _SEC5_CASES[tag]()
        rng = ctx.rng(140 + ord(tag[0]))
        draws = [[(hom.draw_vector(case, rng), 1.0 + rng.random()) for _ in range(10)] for case in cases]

        def residuals(c, rows):
            vs, ts = zip(*draws[c][rows])
            V = hom.vector_stack(cases[c], vs)
            T = np.array(ts).reshape((-1,) + (1,) * (V.ndim - 1))
            q_scaled, q = np.split(hom.quartic_eval(cases[c], np.concatenate([T * V, V])), 2)
            refs = [t**4 * q0 for t, q0 in zip(ts, q.tolist())]
            return [abs(qs - ref) / (1.0 + abs(ref)) for qs, ref in zip(q_scaled.tolist(), refs)]

        order = [(c, r) for c in range(len(cases)) for r in range(10)]
        return {"vectors": len(order)}, _sec5_worst(cases, residuals, order)

    return run


def _always(ctx):
    return True


def _if_spheres(ctx):
    return ctx.config.n_vars >= 2


def _if_fs(ctx):
    return ctx.is_fs() and ctx.config.n_vars >= 2


def _if_case_a(ctx):
    return ctx.signature is not None and ctx.config.n_vars >= 2


@dataclass(frozen=True)
class _Check:
    """A registry entry: what the check runs on, its tolerance and its runner."""

    kind: str          # "domain" or "sphere" (per sample), "aggregate" or "global"
    tolerance: object  # a ToleranceProfile field name, or a pinned value
    runner: object
    applicable: object = _always
    cap: int | None = None  # per-sample checks run on at most this many samples
    stencils: tuple = ()    # each (sample) -> (chart, points): what the check differentiates across


_REGISTRY = {
    "expr.homogeneity.scale": _Check("domain", "analytic", lambda s: s.homogeneity.scale_residual),
    "expr.homogeneity.euler": _Check("domain", "analytic", lambda s: s.homogeneity.euler_residual),
    "expr.ad_vs_fd": _Check("domain", 1e-6, lambda s: jet_fd_residual(s.ast, s.z), cap=50),
    "lemma1.h_xi_dbar_k": _Check("domain", "analytic", lambda s: s.lemma1["r1"]),
    "lemma1.g_xi_dk": _Check("domain", "analytic", lambda s: s.lemma1["r2"]),
    "lemma1.g_xi_xi": _Check("domain", "analytic", lambda s: s.lemma1["r3"]),
    "cor.npotential.flat_hessian": _Check("domain", 1e-8, _chk_npotential),
    "oracle.flat_hessian_fd": _Check("domain", 1e-5, _chk_hessian_oracle, cap=50, stencils=(_st_hessian_fd,)),
    "prop.xi.flat_position": _Check("domain", 1e-10, lambda s: geo.xi_flat_residual(s.chart)),
    "cone.metric_scaling": _Check("domain", 1e-10, lambda s: geo.metric_scaling_residual(s.chart)),
    "flat.omega_parallel": _Check("domain", 1e-6, lambda s: geo.omega_parallel_residual(s.chart),
                                  stencils=(_st_axis,)),
    "eq.special.dnabla_j": _Check("domain", "chart_fd", lambda s: geo.dnabla_J_residual(s.chart),
                                  stencils=(_st_axis,)),
    "contact.d_eta": _Check("domain", "chart_fd", lambda s: geo.d_eta_residual(s.chart), stencils=(_st_axis,)),
    "eq.ma.spread": _Check("aggregate", 1e-6, _agg_ma_spread),
    "sphere.on_level": _Check("sphere", 1e-10, _chk_sphere_level, _if_spheres),
    "sphere.frame_tangency": _Check("sphere", 1e-10, _chk_frame_tangency, _if_spheres),
    "sphere.sigma_length": _Check("sphere", 1e-8, _chk_sigma_length, _if_spheres),
    "thm.affinesphere.gauss": _Check("sphere", "chart_fd", _chk_gauss, _if_spheres,
                                     stencils=(_st_directions(_GAUSS_PAIRS),)),
    "thm.affinesphere.shape": _Check("sphere", 1e-6, _chk_shape, _if_spheres,
                                     stencils=(_st_directions(_SHAPE_PAIRS),)),
    "thm.affinesphere.mean_curvature": _Check("sphere", 1e-6, lambda s: cone_mod.mean_curvature_residual(s.sphere),
                                              _if_spheres, stencils=(_st_mean_curvature,)),
    "thm.affinesphere.volume": _Check("sphere", 1e-5, lambda s: cone_mod.blaschke_volume_residual(s.sphere),
                                      _if_spheres),
    "sasaki.killing": _Check("sphere", 1e-4, lambda s: s.sasaki.killing, _if_spheres,
                             stencils=_SASAKI_STENCILS),
    "sasaki.structure": _Check("sphere", 1e-4, lambda s: s.sasaki.structure, _if_spheres,
                               stencils=_SASAKI_STENCILS),
    "prop.asc.affine_sasaki": _Check("sphere", 1e-4, lambda s: s.sasaki.affine, _if_spheres,
                                     stencils=_SASAKI_STENCILS),
    "sasaki.contact": _Check("sphere", 1e-4, lambda s: s.sasaki.contact, _if_spheres,
                             stencils=_SASAKI_STENCILS),
    "remark2.hamiltonian": _Check("sphere", 1e-5, lambda s: cone_mod.hamiltonian_field_residual(s.sphere.domain),
                                  _if_spheres),
    "eq.wpr.radial": _Check("sphere", 1e-6, _chk_warped_radial, _if_spheres,
                            stencils=(_st_directions(_RADIAL_PAIRS), _st_scaled(_RADIAL_PAIRS))),
    "eq.wpr.position": _Check("sphere", 1e-6, _chk_warped_position, _if_spheres,
                              stencils=(_st_scaled(_POSITION_PAIRS),)),
    "prop.hyperspheres.submersion": _Check("sphere", 1e-5, _chk_submersion, _if_spheres),
    "eq.pkm.vertical": _Check("sphere", 1e-10, lambda s: proj.pkm_vertical_residual(s.sphere.domain), _if_spheres),
    "eq.pkm.pullback": _Check("sphere", 1e-8, _chk_pkm_pullback, _if_spheres),
    "eq.pkm.scale_invariance": _Check("sphere", 1e-9, _chk_pkm_scale, _if_spheres),
    "eq.pkm.horizontal_gram": _Check("sphere", 1.0, _chk_pkm_gram, _if_spheres),
    "fs.closed_form": _Check("sphere", 1e-10, _chk_fs_closed_form, _if_fs),
    "sec5.remark2.q_ratio": _Check("aggregate", 1e-10, _agg_q_ratio, _if_case_a),
    "sec5.remark2.sigma_xq": _Check("aggregate", 1e-6, _agg_sigma_xq, _if_case_a),
    "sec5.A.invariance": _Check("global", "invariance", _sec5_invariance("A")),
    "sec5.BD.invariance": _Check("global", "invariance", _sec5_invariance("BD")),
    "sec5.E6.invariance": _Check("global", "invariance", _sec5_invariance("E6")),
    "sec5.F.invariance": _Check("global", "invariance", _sec5_invariance("F")),
    "sec5.G.invariance": _Check("global", "invariance", _sec5_invariance("G")),
    "sec5.A.homogeneity": _Check("global", 1e-12, _sec5_homogeneity("A")),
    "sec5.BD.homogeneity": _Check("global", 1e-12, _sec5_homogeneity("BD")),
    "sec5.E6.homogeneity": _Check("global", 1e-12, _sec5_homogeneity("E6")),
    "sec5.F.homogeneity": _Check("global", 1e-12, _sec5_homogeneity("F")),
    "sec5.G.homogeneity": _Check("global", 1e-12, _sec5_homogeneity("G")),
}

CHECK_IDS = tuple(sorted(_REGISTRY))

_CHECK_ERRORS = (SkconeError, ValueError, np.linalg.LinAlgError)


def _tolerance_of(spec, profile: ToleranceProfile) -> float:
    if isinstance(spec, str):
        return getattr(profile, spec)
    return float(spec)


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    meta: dict
    checks: tuple
    summary: dict

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @property
    def all_pass(self) -> bool:
        return bool(self.summary["all_pass"])


def _result(cid: str, tol: float, point: dict, run) -> CheckResult:
    """The result of one check run: ``run()`` gives (more point info, residual); an error fails it."""
    try:
        info, residual = run()
        residual = float(residual)
    except _CHECK_ERRORS as exc:
        error = f"{type(exc).__name__}: {exc}"
        # A memoised outcome may be this error: its traceback holds the
        # runner's frames, and with them the _Sample, which must not outlive its checks.
        exc.__traceback__ = None
        return CheckResult(cid, {**point, "error": error}, None, tol, False)
    return CheckResult(cid, {**point, **info}, residual, tol, residual <= tol)


def _run_sample(ctx: _Context, idx: int, due) -> list:
    """The results at sample idx of the per-sample checks ``due``, as (cid, check, tol), run on one _Sample.

    The chart points their stencils differentiate across are handed over
    first, as one Newton stack across the sample's charts.  The sample, with
    its sphere and charts, is freed when this returns; the aggregates read
    its flat Hessian and the DomainSample at u, which stay with ctx.
    """
    sample = _Sample(ctx, idx)
    sample.hand_over([stencil for _, check, _ in due for stencil in check.stencils])
    point = {"sample": idx, "z": [[float(c.real), float(c.imag)] for c in np.asarray(sample.z)]}
    results = [_result(cid, tol, point, lambda: ({}, check.runner(sample))) for cid, check, tol in due]
    if "sphere" in vars(sample):
        ctx.sphere_domains[idx] = sample.sphere.domain
    return results


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute the selected checks, never aborting on individual errors.

    The per-sample checks run sample by sample, each sample on its own
    :class:`_Sample` (see :func:`_run_sample`).  The aggregate and global
    checks run after.  Samples are drawn, before any check runs, only when
    a per-sample or aggregate check is due, so a sampling error aborts the
    suite and a suite of global checks draws none.
    """
    ctx = _Context(config)
    selected = CHECK_IDS if config.checks is None else config.checks

    results, per_sample, whole = [], [], []
    for cid in selected:
        check = _REGISTRY[cid]
        tol = _tolerance_of(check.tolerance, config.tolerances)
        if not check.applicable(ctx):
            if config.checks is not None:
                results.append(CheckResult(cid, {"error": "check not applicable to this configuration"},
                                           None, tol, False))
        else:
            (per_sample if check.kind in ("domain", "sphere") else whole).append((cid, check, tol))
    drawn = ctx.samples if per_sample or any(check.kind == "aggregate" for _, check, _ in whole) else ()
    for idx in range(len(drawn)):
        results += _run_sample(ctx, idx, [(cid, check, tol) for cid, check, tol in per_sample
                                          if check.cap is None or idx < check.cap])
    for cid, check, tol in whole:
        results.append(_result(cid, tol, {}, lambda: check.runner(ctx)))

    results.sort(key=lambda r: (r.id, r.point.get("sample", -1)))

    max_residual = {}
    for r in results:
        if r.residual is not None:
            prev = max_residual.get(r.id)
            max_residual[r.id] = r.residual if prev is None else max_or_nan(prev, r.residual)
    passed = sum(1 for r in results if r.passed)
    summary = {
        "counts": {"total": len(results), "passed": passed, "failed": len(results) - passed},
        "max_residual": max_residual,
        "all_pass": passed == len(results),
    }
    meta = {
        "prepotential": config.prepotential,
        "n_vars": config.n_vars,
        "seed": config.seed,
        "sample_count": config.sample_count,
        "sample_radius": float(config.sample_radius),
        "base_point": [[float(c.real), float(c.imag)] for c in np.asarray(config.base_point, dtype=complex)],
        "conventions": {
            "h": "g - 2i*omega",
            "real_frame": "re then im",
            "flat_order": "x then y",
            "hamiltonian_sign": cone_mod.HAMILTONIAN_SIGN,
        },
        "fitted_constants": dict(sorted(ctx.fitted.items())),
    }
    return VerificationReport(meta=meta, checks=tuple(results), summary=summary)
