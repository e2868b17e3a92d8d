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

import json
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ToleranceProfile:
    analytic: float = 1e-9
    chart_fd: float = 1e-5
    invariance: float = 1e-7

    def __post_init__(self):
        if not (self.analytic > 0 and self.chart_fd > 0 and self.invariance > 0):
            raise ValueError("tolerances must be positive")
        if self.analytic > self.chart_fd:
            raise ValueError("analytic tolerance must not exceed chart_fd")


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
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError("seed must fit in 64 unsigned bits")


def config_from_dict(data: dict) -> SuiteConfig:
    """Build a SuiteConfig from parsed JSON, with exact key names."""
    known = {
        "prepotential", "n_vars", "seed", "sample_count", "base_point",
        "sample_radius", "checks", "tolerances", "output_path",
    }
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("prepotential", "n_vars", "base_point"):
        if key not in data:
            raise ValueError(f"config is missing required key {key!r}")
    tol = data.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ValueError("tolerances must be an object")
    base = tuple(complex(re, im) for re, im in data["base_point"])
    checks = data.get("checks")
    if checks is not None:
        checks = tuple(checks)
        for cid in checks:
            if cid not in _REGISTRY:
                raise ValueError(f"unknown check id {cid!r}")
    return SuiteConfig(
        prepotential=data["prepotential"],
        n_vars=int(data["n_vars"]),
        seed=int(data.get("seed", 1)),
        sample_count=int(data.get("sample_count", 64)),
        base_point=base,
        sample_radius=float(data.get("sample_radius", 0.2)),
        checks=checks,
        tolerances=ToleranceProfile(**tol),
        output_path=data.get("output_path"),
    )


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
    if base.shape != (config.n_vars,):
        raise ValueError("base_point length must equal n_vars")
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
# Context shared by check runners
# ---------------------------------------------------------------------------


class _Context:
    def __init__(self, config: SuiteConfig):
        self.config = config
        self.ast = parse_prepotential(config.prepotential, config.n_vars)
        self.samples = sample_points(config, self.ast)
        self.signature = hom.quadratic_signature(self.ast)
        self.fitted: dict = {}
        self._spheres: dict = {}
        self._sphere_domains: dict = {}
        self._sasaki: dict = {}
        self._pairs: dict = {}    # idx -> {(count, salt): tangent pairs}
        self._charts: dict = {}
        self._lemma1: dict = {}
        self._hessians: dict = {}
        self._homogeneity: dict = {}
        self._q_report = None

    def rng(self, salt: int, idx: int = 0):
        return np.random.default_rng([self.config.seed, salt, idx])

    def chart(self, idx: int):
        """The flat chart seeded at sample idx, whose base and stencils the domain checks at z share."""
        if idx not in self._charts:
            self._charts[idx] = geo.FlatChart(self.ast, self.samples[idx])
        return self._charts[idx]

    def flat_hessian(self, idx: int):
        """flat_hessian_of_k at sample idx, computed once; a failure re-raises to every caller."""
        if idx not in self._hessians:
            self._hessians[idx] = _outcome(lambda: geo.flat_hessian_of_k(self.ast, self.samples[idx]))
        return _raised(self._hessians[idx])

    def homogeneity(self, idx: int):
        """check_homogeneity at sample idx with the suite's scales, computed once for the scale and Euler checks."""
        if idx not in self._homogeneity:
            z = self.samples[idx]
            self._homogeneity[idx] = _outcome(lambda: check_homogeneity(self.ast, [z], _HOMOGENEITY_SCALES))
        return _raised(self._homogeneity[idx])

    def q_report(self):
        """q_proportional_ksq over the samples, computed once per suite; a failure re-raises to every caller."""
        if self._q_report is None:
            self._q_report = _outcome(lambda: hom.q_proportional_ksq(self.case_a(), self.ast, self.samples))
        return _raised(self._q_report)

    def lemma1(self, idx: int):
        """Lemma 1 residuals at sample idx, relative to 1 + |k|."""
        if idx not in self._lemma1:
            chart = self.chart(idx)
            scale = 1.0 + abs(chart.base.k)
            self._lemma1[idx] = {key: r / scale for key, r in geo.lemma1_residuals(chart).items()}
        return self._lemma1[idx]

    def sphere(self, idx: int):
        if idx not in self._spheres:
            self._spheres[idx] = cone_mod.project_to_sphere(self.ast, self.samples[idx])
        return self._spheres[idx]

    def sphere_domain(self, idx: int):
        """The DomainSample at sample idx's sphere point u; unlike the sphere and its charts, it outlives release."""
        if idx not in self._sphere_domains:
            sphere = self._spheres.get(idx) or cone_mod.project_to_sphere(self.ast, self.samples[idx])
            self._sphere_domains[idx] = sphere.domain
        return self._sphere_domains[idx]

    def tangent_pairs(self, idx: int, count: int, salt: int = 101):
        """The ``count`` seeded tangent pairs at sample idx's sphere point for ``salt``, drawn once per sample."""
        drawn = self._pairs.setdefault(idx, {})
        if (count, salt) not in drawn:
            sphere, rng = self.sphere(idx), self.rng(salt, idx)
            drawn[count, salt] = [(cone_mod.random_tangent(sphere, rng), cone_mod.random_tangent(sphere, rng))
                                  for _ in range(count)]
        return drawn[count, salt]

    def sasaki(self, idx: int):
        if idx not in self._sasaki:
            self._sasaki[idx] = cone_mod.sasaki_residuals(self.sphere(idx), self.tangent_pairs(idx, 2))
        return self._sasaki[idx]

    def hand_over(self, idx: int, stencils) -> None:
        """Newton-invert the chart points that ``stencils`` give at sample idx, as one stack across its charts.

        A stencil is a function (ctx, idx) -> (chart, points); one that
        several checks share is asked once.  A hand-over never raises: a
        stencil that cannot be formed is left out, and a row that fails is
        not memoised, so the check that needs it inverts it again and raises
        the error it raises alone.
        """
        formed = []
        for stencil in dict.fromkeys(stencils):
            try:
                formed.append(stencil(self, idx))
            except _CHECK_ERRORS:
                continue
        geo.invert_stencils(formed)

    def release(self, idx: int) -> None:
        """Drop sample idx's sphere (with its charts), tangent pairs, chart and Sasaki, Lemma 1, homogeneity residuals.

        The flat Hessians stay, for ``eq.ma.spread``, and so does the
        sphere's DomainSample at u, for ``sec5.remark2.sigma_xq``.
        """
        sphere = self._spheres.pop(idx, None)
        if sphere is not None:
            self._sphere_domains[idx] = sphere.domain
        for memo in (self._pairs, self._sasaki, self._charts, self._lemma1, self._homogeneity):
            memo.pop(idx, None)

    def is_fs(self) -> bool:
        return self.signature is not None and np.all(self.signature == 1.0)

    def case_a(self):
        if self.signature is None:
            return None
        return hom.case_a(self.config.n_vars - 1, signature=self.signature)


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


def _chk_ad_fd(ctx, idx, z):
    return jet_fd_residual(ctx.ast, z)


def _chk_npotential(ctx, idx, z):
    s = ctx.chart(idx).base
    H = ctx.flat_hessian(idx)
    push = s.flat_form(s.g)
    return float(np.max(np.abs(H - push))) / max(1.0, float(np.max(np.abs(push))))


def _chk_hessian_oracle(ctx, idx, z):
    H = ctx.flat_hessian(idx)
    Hfd = geo.flat_hessian_fd(ctx.chart(idx))
    return float(np.max(np.abs(H - Hfd))) / max(1.0, float(np.max(np.abs(H))))


def _chk_sphere_level(ctx, idx, z):
    sp = ctx.sphere(idx)
    return abs(sp.domain.k - sp.kappa / 2.0)


def _chk_frame_tangency(ctx, idx, z):
    sp = ctx.sphere(idx)
    return float(np.max(np.abs(sp.frame @ sp.domain.dk)))


def _chk_sigma_length(ctx, idx, z):
    sp = ctx.sphere(idx)
    return abs(float(sp.sigma @ sp.domain.g @ sp.sigma) - sp.kappa)


# The seeded tangent pairs each sphere check with a stencil draws at u:
# (count, salt) for ctx.tangent_pairs.
_GAUSS_PAIRS = (2, 103)
_SHAPE_PAIRS = (2, 104)
_RADIAL_PAIRS = (1, 105)
_POSITION_PAIRS = (1, 106)


def _chk_gauss(ctx, idx, z):
    sp = ctx.sphere(idx)
    worst = 0.0
    for X, Y in ctx.tangent_pairs(idx, *_GAUSS_PAIRS):
        split = cone_mod.gauss_split(sp, X, Y)
        worst = max_or_nan(worst, abs(split.normal_coeff - sp.domain.g_form(X, Y)))
    return worst


def _chk_shape(ctx, idx, z):
    sp = ctx.sphere(idx)
    worst = 0.0
    for X, _ in ctx.tangent_pairs(idx, *_SHAPE_PAIRS):
        worst = max_or_nan(worst, cone_mod.shape_residual(sp, X))
    return worst


def _chk_mean_curvature(ctx, idx, z):
    return cone_mod.mean_curvature_residual(ctx.sphere(idx))


def _chk_volume(ctx, idx, z):
    return cone_mod.blaschke_volume_residual(ctx.sphere(idx))


def _chk_hamiltonian(ctx, idx, z):
    return cone_mod.hamiltonian_field_residual(ctx.sphere(idx).domain)


def _chk_warped_radial(ctx, idx, z):
    sp = ctx.sphere(idx)
    (X, Y), = ctx.tangent_pairs(idx, *_RADIAL_PAIRS)
    return cone_mod.warped_product_residuals(sp, _WARPED_R, X, Y)


def _chk_warped_position(ctx, idx, z):
    sp = ctx.sphere(idx)
    (X, _), = ctx.tangent_pairs(idx, *_POSITION_PAIRS)
    return cone_mod.warped_position_residual(sp, _WARPED_R, X)


def _chk_submersion(ctx, idx, z):
    dom = ctx.sphere(idx).domain
    worst = 0.0
    for X, _ in ctx.tangent_pairs(idx, 2, salt=107):
        worst = max_or_nan(worst, proj.submersion_residual(dom, proj.horizontal_project(dom, X)))
    return worst


def _chk_pkm_vertical(ctx, idx, z):
    return proj.pkm_vertical_residual(ctx.sphere(idx).domain)


def _chk_pkm_pullback(ctx, idx, z):
    dom = ctx.sphere(idx).domain
    worst = 0.0
    for X, _ in ctx.tangent_pairs(idx, 2, salt=108):
        worst = max_or_nan(worst, proj.pkm_pullback_residual(dom, X))
    return worst


def _chk_pkm_scale(ctx, idx, z):
    sp = ctx.sphere(idx)
    (X, _), = ctx.tangent_pairs(idx, 1, salt=109)
    return proj.pkm_scale_residual(ctx.ast, sp.domain, X, _PKM_LAMBDA)


def _chk_pkm_gram(ctx, idx, z):
    sp = ctx.sphere(idx)
    det = proj.horizontal_gram_determinant(sp.domain, sp.frame)
    return _GRAM_FLOOR / det if det > 0 else float("inf")


def _chk_fs_closed_form(ctx, idx, z):
    sp = ctx.sphere(idx)
    rng = ctx.rng(110, idx)
    worst = 0.0
    for _ in range(2):
        X = rng.standard_normal(2 * ctx.config.n_vars)
        worst = max_or_nan(worst, proj.fubini_study_compare(sp.u, X))
    ctx.fitted["fs_metric_scale"] = proj.fs_fitted_constant()
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
# handed over before its sample's checks run (see _Context.hand_over)
# ---------------------------------------------------------------------------


def _st_hessian_fd(ctx, idx):
    chart = ctx.chart(idx)
    return chart, chart.hessian_points(chart.base.flat)


def _st_axis(ctx, idx):
    chart = ctx.chart(idx)
    return chart, chart.axis_points(chart.base.flat)


def _st_directions(pairs):
    """The stencil at u along the first vector of each tangent pair a check draws with ``pairs``."""
    def stencil(ctx, idx):
        sp = ctx.sphere(idx)
        return sp.chart, [w for X, _ in ctx.tangent_pairs(idx, *pairs) for w in cone_mod.direction_points(sp, X)]
    return stencil


def _st_scaled(pairs):
    """The stencil at r·u along r X, for the first vector X of the tangent pair a check draws with ``pairs``."""
    def stencil(ctx, idx):
        sp = ctx.sphere(idx)
        (X, _), = ctx.tangent_pairs(idx, *pairs)
        return sp.scaled_chart(_WARPED_R), cone_mod.warped_points(sp, _WARPED_R, X)
    return stencil


def _st_mean_curvature(ctx, idx):
    sp = ctx.sphere(idx)
    return sp.chart, [w for T in sp.frame for w in cone_mod.direction_points(sp, T)]


def _st_sasaki(points):
    """The stencil at u of ``points`` (:func:`cone.sasaki_gamma_points` or ``sasaki_direction_points``)."""
    def stencil(ctx, idx):
        sp = ctx.sphere(idx)
        return sp.chart, points(sp, ctx.tangent_pairs(idx, 2))
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
    stencils: tuple = ()    # each (ctx, idx) -> (chart, points): what the check differentiates across


_REGISTRY = {
    "expr.homogeneity.scale": _Check("domain", "analytic", lambda c, i, z: c.homogeneity(i).scale_residual),
    "expr.homogeneity.euler": _Check("domain", "analytic", lambda c, i, z: c.homogeneity(i).euler_residual),
    "expr.ad_vs_fd": _Check("domain", 1e-6, _chk_ad_fd, cap=50),
    "lemma1.h_xi_dbar_k": _Check("domain", "analytic", lambda c, i, z: c.lemma1(i)["r1"]),
    "lemma1.g_xi_dk": _Check("domain", "analytic", lambda c, i, z: c.lemma1(i)["r2"]),
    "lemma1.g_xi_xi": _Check("domain", "analytic", lambda c, i, z: c.lemma1(i)["r3"]),
    "cor.npotential.flat_hessian": _Check("domain", 1e-8, _chk_npotential),
    "oracle.flat_hessian_fd": _Check("domain", 1e-5, _chk_hessian_oracle, cap=50, stencils=(_st_hessian_fd,)),
    "prop.xi.flat_position": _Check("domain", 1e-10, lambda c, i, z: geo.xi_flat_residual(c.chart(i))),
    "cone.metric_scaling": _Check("domain", 1e-10, lambda c, i, z: geo.metric_scaling_residual(c.chart(i))),
    "flat.omega_parallel": _Check("domain", 1e-6, lambda c, i, z: geo.omega_parallel_residual(c.chart(i)),
                                  stencils=(_st_axis,)),
    "eq.special.dnabla_j": _Check("domain", "chart_fd", lambda c, i, z: geo.dnabla_J_residual(c.chart(i)),
                                  stencils=(_st_axis,)),
    "contact.d_eta": _Check("domain", "chart_fd", lambda c, i, z: geo.d_eta_residual(c.chart(i)), stencils=(_st_axis,)),
    "eq.ma.spread": _Check("aggregate", 1e-6, _agg_ma_spread),
    "sphere.on_level": _Check("sphere", 1e-10, _chk_sphere_level, _if_spheres),
    "sphere.frame_tangency": _Check("sphere", 1e-10, _chk_frame_tangency, _if_spheres),
    "sphere.sigma_length": _Check("sphere", 1e-8, _chk_sigma_length, _if_spheres),
    "thm.affinesphere.gauss": _Check("sphere", "chart_fd", _chk_gauss, _if_spheres,
                                     stencils=(_st_directions(_GAUSS_PAIRS),)),
    "thm.affinesphere.shape": _Check("sphere", 1e-6, _chk_shape, _if_spheres,
                                     stencils=(_st_directions(_SHAPE_PAIRS),)),
    "thm.affinesphere.mean_curvature": _Check("sphere", 1e-6, _chk_mean_curvature, _if_spheres,
                                              stencils=(_st_mean_curvature,)),
    "thm.affinesphere.volume": _Check("sphere", 1e-5, _chk_volume, _if_spheres),
    "sasaki.killing": _Check("sphere", 1e-4, lambda c, i, z: c.sasaki(i).killing, _if_spheres,
                             stencils=_SASAKI_STENCILS),
    "sasaki.structure": _Check("sphere", 1e-4, lambda c, i, z: c.sasaki(i).structure, _if_spheres,
                               stencils=_SASAKI_STENCILS),
    "prop.asc.affine_sasaki": _Check("sphere", 1e-4, lambda c, i, z: c.sasaki(i).affine, _if_spheres,
                                     stencils=_SASAKI_STENCILS),
    "sasaki.contact": _Check("sphere", 1e-4, lambda c, i, z: c.sasaki(i).contact, _if_spheres,
                             stencils=_SASAKI_STENCILS),
    "remark2.hamiltonian": _Check("sphere", 1e-5, _chk_hamiltonian, _if_spheres),
    "eq.wpr.radial": _Check("sphere", 1e-6, _chk_warped_radial, _if_spheres,
                            stencils=(_st_directions(_RADIAL_PAIRS), _st_scaled(_RADIAL_PAIRS))),
    "eq.wpr.position": _Check("sphere", 1e-6, _chk_warped_position, _if_spheres,
                              stencils=(_st_scaled(_POSITION_PAIRS),)),
    "prop.hyperspheres.submersion": _Check("sphere", 1e-5, _chk_submersion, _if_spheres),
    "eq.pkm.vertical": _Check("sphere", 1e-10, _chk_pkm_vertical, _if_spheres),
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


def _point_info(idx: int, z) -> dict:
    return {"sample": idx, "z": [[float(c.real), float(c.imag)] for c in np.asarray(z)]}


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
        return CheckResult(cid, {**point, "error": f"{type(exc).__name__}: {exc}"}, None, tol, False)
    return CheckResult(cid, {**point, **info}, residual, tol, residual <= tol)


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute the selected checks, never aborting on individual errors.

    The per-sample checks run sample by sample: the chart points their
    stencils differentiate across are handed over first, as one Newton
    stack across the sample's charts, and a sample's spheres and charts are
    dropped once its checks are done.  The aggregate and global checks run after.
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
    for idx, z in enumerate(ctx.samples):
        point = _point_info(idx, z)
        due = [(cid, check, tol) for cid, check, tol in per_sample if check.cap is None or idx < check.cap]
        ctx.hand_over(idx, [stencil for _, check, _ in due for stencil in check.stencils])
        for cid, check, tol in due:
            results.append(_result(cid, tol, point, lambda: ({}, check.runner(ctx, idx, z))))
        ctx.release(idx)
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
        "sample_radius": config.sample_radius,
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
