import dataclasses
import json
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import skcone.verify as verify
from skcone import cone
from skcone import homogeneous as hom
from skcone import geometry as geo
from skcone.errors import AdmissibleRegionTooSmall, DegenerateMetric, InadmissiblePoint


FS_CONFIG = verify.SuiteConfig(
    prepotential="i*(z0^2 + z1^2 + z2^2)",
    n_vars=3,
    seed=42,
    sample_count=4,
    base_point=(1.0 + 0.2j, 0.3 - 0.1j, 0.5 + 0.4j),
    sample_radius=0.15,
)


def small_config(**overrides):
    data = dict(FS_CONFIG.__dict__)
    data.update(overrides)
    return verify.SuiteConfig(**data)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    a = verify.sample_points(FS_CONFIG)
    b = verify.sample_points(FS_CONFIG)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_zero_radius_returns_base_copies():
    cfg = small_config(sample_radius=0.0, sample_count=3)
    pts = verify.sample_points(cfg)
    base = np.asarray(cfg.base_point)
    assert len(pts) == 3
    assert all(np.allclose(p, base, atol=0) for p in pts)


def test_inadmissible_base_rejected():
    cfg = small_config(
        prepotential="z1*z2*z3/z0",
        n_vars=4,
        base_point=(1.0, 1.0, 1j, 1j),  # k = 0 here
    )
    with pytest.raises(InadmissiblePoint):
        verify.sample_points(cfg)


def test_admissible_region_too_small():
    # base sits right at the |k| gate, so the seeded draws keep straddling it
    cfg = small_config(
        prepotential="i*(z0^2 - z1^2)",
        n_vars=2,
        seed=3,
        base_point=(1.0, np.sqrt(1 - 2e-8)),
        sample_radius=5e-8,
        sample_count=64,
    )
    with pytest.raises(AdmissibleRegionTooSmall):
        verify.sample_points(cfg, budget_factor=1)


def test_rejection_resampling_still_fills():
    cfg = small_config(
        prepotential="i*(z0^2 - z1^2)",
        n_vars=2,
        seed=3,
        base_point=(1.0, np.sqrt(1 - 2e-8)),
        sample_radius=5e-8,
        sample_count=64,
    )
    pts = verify.sample_points(cfg)  # default budget absorbs the rejections
    assert len(pts) == 64
    assert all(verify._admissible(verify.parse_prepotential(cfg.prepotential, 2), p) for p in pts)


NEAR_GATE = dict(prepotential="i*(z0^2 - z1^2)", n_vars=2, seed=3, base_point=(1.0, np.sqrt(1 - 2e-8)),
                 sample_radius=5e-8, sample_count=64)


def _sample_one_at_a_time(config, budget_factor):
    """The per-candidate sampling loop: (points or the error it raises, attempts)."""
    ast = verify.parse_prepotential(config.prepotential, config.n_vars)
    base = np.asarray(config.base_point, dtype=complex)
    rng = np.random.default_rng(config.seed)
    m2 = 2 * config.n_vars
    points, attempts, budget = [], 0, budget_factor * config.sample_count
    while len(points) < config.sample_count:
        if attempts >= budget:
            count = config.sample_count
            return AdmissibleRegionTooSmall(f"found {len(points)}/{count} admissible points in {budget} attempts"), attempts
        attempts += 1
        direction = rng.standard_normal(m2)
        norm = np.linalg.norm(direction)
        radial = rng.random() ** (1.0 / m2)
        z = base + geo.to_complex((config.sample_radius * radial / norm) * direction)
        if verify._admissible(ast, z):
            points.append(z)
    return points, attempts


def _one_in_three(real):
    """domain_sample that also rejects each point but one in three, keyed on the bits of Im z0 (0 at the base)."""
    def gate(ast, z, *args, **kwargs):
        out = real(ast, z, *args, **kwargs)
        for p, row in enumerate(np.atleast_2d(z)):
            if int(np.float64(row[0].imag).view(np.uint64)) % 3:
                if np.ndim(z) == 1:
                    raise InadmissiblePoint("rejected by the test gate")
                out.rejected.setdefault(p, InadmissiblePoint("rejected by the test gate"))
        return out
    return gate


@pytest.mark.parametrize("one_in_three", [False, True])
def test_stacked_sampling_keeps_the_per_candidate_points_attempts_and_error(monkeypatch, one_in_three):
    """The near-gate fixture, and with a gate that rejects two in three (a round clipped by the budget)."""
    if one_in_three:
        monkeypatch.setattr(geo, "domain_sample", _one_in_three(geo.domain_sample))
    gated = []
    real = geo.domain_sample

    def gate(ast, z, *args, **kwargs):
        gated.append(len(z) if np.ndim(z) == 2 else 0)
        return real(ast, z, *args, **kwargs)

    config = small_config(**NEAR_GATE)
    for budget_factor in (1, 2, 3, 5, 100):
        expected, attempts = _sample_one_at_a_time(config, budget_factor)
        gated.clear()
        with monkeypatch.context() as mp:
            mp.setattr(geo, "domain_sample", gate)
            try:
                got = verify.sample_points(config, budget_factor=budget_factor)
            except AdmissibleRegionTooSmall as exc:
                got = exc
        assert sum(gated) == attempts
        if isinstance(expected, Exception):
            assert type(got) is AdmissibleRegionTooSmall and str(got) == str(expected)
        else:
            assert [z.tobytes() for z in got] == [z.tobytes() for z in expected]


# ---------------------------------------------------------------------------
# suite runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fs_report():
    return verify.run_suite(FS_CONFIG)


def test_fs_suite_all_pass(fs_report):
    assert fs_report.all_pass
    assert fs_report.summary["counts"]["failed"] == 0


def test_pass_flag_matches_residual(fs_report):
    for result in fs_report.checks:
        if result.residual is not None:
            assert result.passed == (result.residual <= result.tolerance)


def test_summary_max_residuals_consistent(fs_report):
    best = {}
    for result in fs_report.checks:
        if result.residual is None:
            continue
        best[result.id] = max(best.get(result.id, 0.0), result.residual)
    assert best == fs_report.summary["max_residual"]


def test_results_sorted_by_id_and_sample(fs_report):
    keys = [(r.id, r.point.get("sample", -1)) for r in fs_report.checks]
    assert keys == sorted(keys)


def test_meta_carries_conventions(fs_report):
    conv = fs_report.meta["conventions"]
    assert conv["h"] == "g - 2i*omega"
    assert conv["flat_order"] == "x then y"
    assert conv["hamiltonian_sign"] == 1.0
    assert "monge_ampere_constant" in fs_report.meta["fitted_constants"]
    assert "fs_metric_scale" in fs_report.meta["fitted_constants"]


def test_empty_check_list_gives_empty_report():
    cfg = small_config(checks=())
    report = verify.run_suite(cfg)
    assert report.checks == ()
    assert report.summary["counts"]["total"] == 0
    assert report.all_pass


def test_explicit_inapplicable_check_fails_with_error():
    cfg = small_config(
        prepotential="z1*z2*z3/z0",
        n_vars=4,
        base_point=(1.0, 1j, 1j, 1j),
        checks=("fs.closed_form",),
    )
    report = verify.run_suite(cfg)
    assert len(report.checks) == 1
    result = report.checks[0]
    assert not result.passed
    assert result.residual is None
    assert "not applicable" in result.point["error"]


def test_check_subset_runs_only_requested():
    cfg = small_config(checks=("lemma1.g_xi_xi", "eq.ma.spread"))
    report = verify.run_suite(cfg)
    assert {r.id for r in report.checks} == {"lemma1.g_xi_xi", "eq.ma.spread"}
    assert report.all_pass


def test_byte_identical_reports():
    first = verify.run_suite(small_config(checks=("lemma1.g_xi_xi", "thm.affinesphere.gauss", "sec5.G.invariance")))
    second = verify.run_suite(small_config(checks=("lemma1.g_xi_xi", "thm.affinesphere.gauss", "sec5.G.invariance")))
    assert first.to_json() == second.to_json()


def test_report_json_schema(fs_report):
    doc = json.loads(fs_report.to_json())
    assert set(doc) == {"meta", "checks", "summary"}
    for entry in doc["checks"]:
        assert set(entry) == {"id", "point", "residual", "tolerance", "pass"}
    assert doc["summary"]["counts"]["total"] == len(doc["checks"])


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    payload = {
        "prepotential": "i*(z0^2 + z1^2)",
        "n_vars": 2,
        "seed": 9,
        "sample_count": 2,
        "base_point": [[1.0, 0.1], [0.4, -0.2]],
        "sample_radius": 0.1,
        "checks": ["lemma1.g_xi_xi"],
        "tolerances": {"analytic": 1e-9, "chart_fd": 1e-5, "invariance": 1e-7},
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(payload))
    cfg = verify.load_config(str(path))
    assert cfg.prepotential == payload["prepotential"]
    assert cfg.base_point == (1.0 + 0.1j, 0.4 - 0.2j)
    report = verify.run_suite(cfg)
    assert report.all_pass


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        verify.config_from_dict({"prepotential": "z0^2", "n_vars": 1, "base_point": [[1, 0]], "bogus": 1})


def test_config_rejects_unknown_check_id():
    with pytest.raises(ValueError):
        verify.config_from_dict(
            {
                "prepotential": "i*(z0^2 + z1^2)",
                "n_vars": 2,
                "base_point": [[1, 0], [0, 0]],
                "checks": ["no.such.check"],
            }
        )


def test_config_requires_mandatory_keys():
    with pytest.raises(ValueError):
        verify.config_from_dict({"prepotential": "z0^2"})


def test_tolerance_profile_validation():
    with pytest.raises(ValueError):
        verify.ToleranceProfile(analytic=-1.0)
    with pytest.raises(ValueError):
        verify.ToleranceProfile(analytic=1e-3, chart_fd=1e-5)


def test_registry_has_spec_ids():
    for cid in (
        "lemma1.g_xi_xi",
        "thm.affinesphere.gauss",
        "prop.asc.affine_sasaki",
        "eq.ma.spread",
        "sec5.A.invariance",
    ):
        assert cid in verify.CHECK_IDS


# ---------------------------------------------------------------------------
# NaN propagation
# ---------------------------------------------------------------------------


def test_nan_in_a_later_pair_fails_the_check(monkeypatch):
    real = cone.gauss_split

    def gauss_split(*args, **kwargs):
        split = real(*args, **kwargs)
        return cone.GaussSplit(split.tangential, float("nan")) if calls.pop() else split

    calls = [True, False]  # popped from the end: the second pair gets NaN
    monkeypatch.setattr(verify.cone_mod, "gauss_split", gauss_split)
    report = verify.run_suite(small_config(sample_count=1, checks=("thm.affinesphere.gauss",)))
    (result,) = report.checks
    assert np.isnan(result.residual) and not result.passed


def test_nan_in_a_later_sec5_pair_fails_the_check(monkeypatch):
    real = verify.hom.lie_invariance_residual

    def nan_in_the_second_pair(*args, **kwargs):
        residuals = real(*args, **kwargs)
        residuals[1] = float("nan")
        return residuals

    monkeypatch.setattr(verify.hom, "lie_invariance_residual", nan_in_the_second_pair)
    report = verify.run_suite(small_config(sample_count=1, checks=("sec5.G.invariance",)))
    (result,) = report.checks
    assert np.isnan(result.residual) and not result.passed


SEC5_IDS = tuple(cid for cid in verify.CHECK_IDS if cid.startswith("sec5.") and ".remark2." not in cid)


def _sec5_one_at_a_time(cid, seed):
    """The per-pair loops of the sec5 checks: one vector (and generator) at a time, in draw order."""
    _, tag, kind = cid.split(".")
    cases = verify._SEC5_CASES[tag]()
    worst = 0.0
    if kind == "invariance":
        rng = np.random.default_rng([seed, 120 + ord(tag[0]), 0])
        pairs = 0
        while pairs < 50:
            for case in cases:
                v, gen = hom.random_vector(case, rng), hom.random_generator(case, rng)
                worst = verify.max_or_nan(worst, hom.lie_invariance_residual(case, v, gen))
                pairs += 1
        return worst
    rng = np.random.default_rng([seed, 140 + ord(tag[0]), 0])
    for case in cases:
        for _ in range(10):
            v = hom.random_vector(case, rng)
            t = 1.0 + rng.random()
            q_ref = t**4 * hom.quartic_eval(case, v)
            worst = verify.max_or_nan(worst, abs(hom.quartic_eval(case, t * v) - q_ref) / (1.0 + abs(q_ref)))
    return worst


@pytest.mark.parametrize("cid", SEC5_IDS)
def test_a_stacked_sec5_check_equals_its_per_pair_loop(cid):
    for seed in (42, 5):
        (result,) = verify.run_suite(small_config(seed=seed, sample_count=1, checks=(cid,))).checks
        assert result.passed and result.residual == _sec5_one_at_a_time(cid, seed)


def _faulty_draws(mp, faults):
    """Make the kth pair drawn for case (tag, n) fail as ``faults[tag, n, k]`` says.

    "shape" drops the vector's last component, "kernel" moves it out of
    ker(omega ^ .) and "member" moves the generator out of its Lie algebra.
    """
    drawn, marked = Counter(), {}
    draw_vector, draw_generator = hom.draw_vector, hom.draw_generator
    vector_stack, generator_stack = hom.vector_stack, hom.generator_stack

    def draw(real, part):
        def drawer(case, rng):
            key = (case.tag, case.n, drawn[part, case.tag, case.n])
            drawn[part, case.tag, case.n] += 1
            raw = real(case, rng)
            if faults.get(key) == "shape" and part == "v":
                raw = tuple(x[:-1] for x in raw) if isinstance(raw, tuple) else raw[:-1]
            marked[id(raw)] = (raw, faults.get(key))
            return raw
        return drawer

    def vectors(case, draws):
        V = vector_stack(case, draws)
        for p, raw in enumerate(draws):
            if marked[id(raw)][1] == "kernel":
                V[p] += 1.0
        return V

    def generators(case, draws):
        gens = generator_stack(case, draws)
        for p, raw in enumerate(draws):
            if marked[id(raw)][1] == "member":
                matrices = gens.data[0] if case.tag == "BD" else gens.data
                matrices[p] += np.eye(matrices.shape[-1])
        return gens

    mp.setattr(hom, "draw_vector", draw(draw_vector, "v"))
    mp.setattr(hom, "draw_generator", draw(draw_generator, "g"))
    mp.setattr(hom, "vector_stack", vectors)
    mp.setattr(hom, "generator_stack", generators)


@pytest.mark.parametrize("cid, faults, first", [
    # case A1's pair 5 (draw 20) has a bad shape, case A3's pair 3 (draw 14) a bad generator
    ("sec5.A.invariance", {("A", 1, 5): "shape", ("A", 3, 3): "member"}, "violates its Lie-algebra membership"),
    # BD3's vector 8 (draw 18) and BD5's vector 1 (draw 31) have bad shapes
    ("sec5.BD.homogeneity", {("BD", 5, 1): "shape", ("BD", 3, 8): "shape"}, "case BD expects a real 4 x 2 matrix"),
    # pair 7 has a bad generator, which a stack checks first, and pair 3 a vector outside the kernel
    ("sec5.F.invariance", {("F", 6, 7): "member", ("F", 6, 3): "kernel"}, "case F input is not in ker"),
])
def test_a_sec5_check_raises_the_first_error_in_draw_order(cid, faults, first):
    with pytest.MonkeyPatch.context() as mp:
        _faulty_draws(mp, faults)
        with pytest.raises(ValueError, match=first) as expected:
            _sec5_one_at_a_time(cid, FS_CONFIG.seed)
    with pytest.MonkeyPatch.context() as mp:
        _faulty_draws(mp, faults)
        (result,) = verify.run_suite(small_config(sample_count=1, checks=(cid,))).checks
    assert result.residual is None and not result.passed
    assert result.point["error"] == f"ValueError: {expected.value}"


def test_a_sec5_suite_makes_one_sampling_stack_and_few_quartic_stacks(monkeypatch):
    calls, gated = [], []
    real_quartic, real_gate = hom.quartic_eval, geo.domain_sample

    def quartic_eval(case, v):
        calls.append(case.tag)
        return real_quartic(case, v)

    def gate(ast, z, *args, **kwargs):
        gated.append(np.shape(z))
        return real_gate(ast, z, *args, **kwargs)

    monkeypatch.setattr(hom, "quartic_eval", quartic_eval)
    monkeypatch.setattr(geo, "domain_sample", gate)
    assert verify.run_suite(small_config(sample_count=16, checks=SEC5_IDS)).all_pass
    per_case = Counter(calls)
    assert len(calls) <= 55 and per_case["A"] <= 20 and per_case["BD"] <= 20
    assert max(per_case["E6"], per_case["F"], per_case["G"]) <= 5
    assert gated == [(3,), (16, 3)]   # the base point, then one stack of the 16 draws


def test_the_homogeneity_checks_share_one_call_per_sample(monkeypatch):
    calls = []
    real = verify.check_homogeneity

    def check_homogeneity(ast, samples, scales):
        calls.append(scales)
        return real(ast, samples, scales)

    monkeypatch.setattr(verify, "check_homogeneity", check_homogeneity)
    config = small_config(checks=("expr.homogeneity.scale", "expr.homogeneity.euler"))
    report = verify.run_suite(config)
    assert calls == [verify._HOMOGENEITY_SCALES] * config.sample_count
    ast = verify.parse_prepotential(config.prepotential, config.n_vars)
    for result in report.checks:
        z = verify.sample_points(config)[result.point["sample"]]
        alone = real(ast, [z], ()).euler_residual if result.id.endswith("euler") else real(
            ast, [z], verify._HOMOGENEITY_SCALES).scale_residual
        assert result.residual == alone


def test_summary_max_residual_keeps_a_later_nan(monkeypatch):
    runner = lambda ctx, idx, z: float("nan") if idx == 1 else 0.0  # noqa: E731
    check = dataclasses.replace(verify._REGISTRY["lemma1.g_xi_xi"], runner=runner)
    monkeypatch.setitem(verify._REGISTRY, "lemma1.g_xi_xi", check)
    report = verify.run_suite(small_config(sample_count=3, checks=("lemma1.g_xi_xi",)))
    assert np.isnan(report.summary["max_residual"]["lemma1.g_xi_xi"])
    assert not report.all_pass


# ---------------------------------------------------------------------------
# shared flat Hessian of k
# ---------------------------------------------------------------------------

_HESSIAN_CHECKS = ("cor.npotential.flat_hessian", "oracle.flat_hessian_fd", "eq.ma.spread")


def _counting_hessian(monkeypatch, fail_at=None):
    """Count flat_hessian_of_k calls; the call at point ``fail_at`` raises."""
    calls = []
    real = geo.flat_hessian_of_k

    def counting(ast, z):
        calls.append(np.asarray(z).tobytes())
        if fail_at is not None and np.array_equal(z, fail_at):
            raise DegenerateMetric("injected singular Hessian")
        return real(ast, z)

    monkeypatch.setattr(geo, "flat_hessian_of_k", counting)
    return calls


def test_flat_hessian_of_k_runs_once_per_sample(monkeypatch):
    calls = _counting_hessian(monkeypatch)
    report = verify.run_suite(small_config(sample_count=2, checks=_HESSIAN_CHECKS))
    assert len(calls) == 2 and len(set(calls)) == 2
    assert len(report.checks) == 5 and report.all_pass


def test_a_failed_flat_hessian_fails_every_check_alike(monkeypatch):
    z1 = verify.sample_points(small_config(sample_count=2))[1]
    calls = _counting_hessian(monkeypatch, fail_at=z1)
    report = verify.run_suite(small_config(sample_count=2, checks=_HESSIAN_CHECKS))
    assert len(calls) == 2
    failed = {r.id: r.point["error"] for r in report.checks if r.point.get("sample") == 1}
    assert failed == {cid: "DegenerateMetric: injected singular Hessian" for cid in _HESSIAN_CHECKS[:2]}
    (spread,) = (r for r in report.checks if r.id == "eq.ma.spread")
    assert spread.point["skipped"] == [1]


# ---------------------------------------------------------------------------
# one chart per sphere sample, dropped with its sample
# ---------------------------------------------------------------------------

STU_CONFIG = verify.SuiteConfig(
    prepotential="z1*z2*z3/z0",
    n_vars=4,
    seed=7,
    sample_count=2,
    base_point=(1.0, 1j, 1j, 1j),
    sample_radius=0.15,
)

# The per-sample ids that read a sample or chart which other ids of their sample read too.
_CHART_SHARING = (
    "lemma1.h_xi_dbar_k", "lemma1.g_xi_dk", "lemma1.g_xi_xi",
    "cor.npotential.flat_hessian", "oracle.flat_hessian_fd",
    "flat.omega_parallel", "eq.special.dnabla_j", "contact.d_eta",
    "prop.xi.flat_position", "cone.metric_scaling",
    "thm.affinesphere.gauss", "thm.affinesphere.shape", "thm.affinesphere.mean_curvature",
    "sasaki.killing", "sasaki.structure", "prop.asc.affine_sasaki", "sasaki.contact",
    "eq.wpr.radial", "eq.wpr.position", "remark2.hamiltonian",
    "prop.hyperspheres.submersion", "eq.pkm.vertical", "eq.pkm.pullback",
    "eq.pkm.scale_invariance", "eq.pkm.horizontal_gram",
)


@pytest.fixture(scope="module")
def stu_run():
    """The 2-sample STU suite, traced.

    ``seeds``: the seed of every FlatChart built; ``alive``: the charts alive
    after each release; ``rows``: the rows of every Newton call; after
    sampling, ``fresh``: the points of the domain_sample calls that evaluate
    a jet of their own, and ``points``: every sample point z and sphere point u;
    ``calls``, ``ok`` and ``built``: the domain_sample calls, those that
    returned, and the DomainSample objects built; ``rngs``: the (salt, idx)
    of every seeded per-sample generator.
    """
    run = SimpleNamespace(seeds=[], alive=[], rows=[], fresh=[], points=[], calls=0, ok=0, built=0, rngs=[])
    charts = weakref.WeakSet()
    sampled = []
    real_init, real_release, real_rng = geo.FlatChart.__init__, verify._Context.release, verify._Context.rng
    real_newton, real_sample, real_domain = geo._newton, geo.domain_sample, geo.DomainSample
    real_points, real_project = verify.sample_points, cone.project_to_sphere

    def init(chart, ast, seed_z):
        real_init(chart, ast, seed_z)
        run.seeds.append(np.asarray(seed_z, dtype=complex).tobytes())
        charts.add(chart)

    def release(ctx, idx):
        real_release(ctx, idx)
        run.alive.append(len(charts))

    def rng(ctx, salt, idx=0):
        run.rngs.append((salt, idx))
        return real_rng(ctx, salt, idx)

    def newton(ast, targets, *args, **kwargs):
        run.rows.append(len(targets))
        return real_newton(ast, targets, *args, **kwargs)

    def sample(ast, z, *args, jet=None, **kwargs):
        run.calls += 1
        if sampled and jet is None:
            run.fresh.append(np.asarray(z, dtype=complex).tobytes())
        out = real_sample(ast, z, *args, jet=jet, **kwargs)
        run.ok += 1
        return out

    def domain(**fields):
        run.built += 1
        return real_domain(**fields)

    def sample_points(*args, **kwargs):
        zs = real_points(*args, **kwargs)
        sampled.append(True)
        run.points.extend(z.tobytes() for z in zs)
        return zs

    def project(ast, z):
        sphere = real_project(ast, z)
        run.points.append(sphere.u.tobytes())
        return sphere

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo.FlatChart, "__init__", init)
        mp.setattr(verify._Context, "release", release)
        mp.setattr(verify._Context, "rng", rng)
        mp.setattr(geo, "_newton", newton)
        for module in (geo, cone, verify.proj):
            mp.setattr(module, "domain_sample", sample)
        mp.setattr(geo, "DomainSample", domain)
        mp.setattr(verify, "sample_points", sample_points)
        mp.setattr(cone, "project_to_sphere", project)
        run.report = verify.run_suite(STU_CONFIG)
    return run


def test_a_suite_builds_at_most_three_charts_per_sample(stu_run):
    assert stu_run.report.all_pass
    # per sample: one at u, one at r*u that both warped identities share, one at z
    assert len(stu_run.seeds) <= 3 * STU_CONFIG.sample_count


def test_no_chart_outlives_its_sample(stu_run):
    assert stu_run.seeds and stu_run.alive == [0] * STU_CONFIG.sample_count


@pytest.mark.parametrize("cid", _CHART_SHARING)
def test_a_chart_sharing_check_alone_equals_its_rows_in_the_suite(stu_run, cid):
    """A memoised chart point gives the bits a fresh inversion gives, so sharing moves no result."""
    alone = verify.run_suite(dataclasses.replace(STU_CONFIG, checks=(cid,)))
    assert len(alone.checks) == STU_CONFIG.sample_count
    assert alone.checks == tuple(r for r in stu_run.report.checks if r.id == cid)


# ---------------------------------------------------------------------------
# one DomainSample per seed point, one Newton stack per sample and stage
# ---------------------------------------------------------------------------


def test_a_suite_makes_at_most_two_newton_stacks_per_sample(stu_run):
    assert stu_run.report.all_pass
    # per sample: the hand-over across the charts at z, u and r*u, and the second Sasaki stage at u
    assert len(stu_run.rows) <= 2 * STU_CONFIG.sample_count


def test_a_suite_draws_each_tangent_pair_set_once_per_sample(stu_run):
    assert stu_run.rngs and len(set(stu_run.rngs)) == len(stu_run.rngs)


def test_hessian_stencil_rows_derive_nothing_beyond_k():
    """The FD-Hessian oracle reads k alone: its stencil's view of the hand-over derives no field."""
    ctx = verify._Context(dataclasses.replace(STU_CONFIG, sample_count=1))
    due = [check for check in verify._REGISTRY.values() if check.kind in ("domain", "sphere")]
    ctx.hand_over(0, [stencil for check in due for stencil in check.stencils])
    for check in due:
        check.runner(ctx, 0, ctx.samples[0])
    chart = ctx.chart(0)
    views = {id(chart.point(w)[0]): chart.point(w)[0] for w in chart.hessian_points(chart.base.flat)}
    (view,) = views.values()
    assert len(view.z) == 129
    derived = {"xi", "h", "g", "omega", "dk", "flat", "flat_jac", "flat_jac_inv",
               "g_flat", "omega_flat", "J_flat", "eta_flat", "xi_flat", "sigma_flat"}
    assert not derived & set(vars(view))
    axis_view = chart.point(chart.axis_points(chart.base.flat)[0])[0]
    assert {"flat_jac_inv", "J_flat", "omega_flat", "eta_flat"} <= set(vars(axis_view))


def test_no_newton_stack_has_two_rows(stu_run):
    assert stu_run.rows and 2 not in stu_run.rows


def test_no_sample_at_z_or_u_evaluates_its_own_jet(stu_run):
    """The checks read the charts' samples at z and u; only the scaled points lam z and lam u build one."""
    assert stu_run.fresh and len(stu_run.points) == 2 * STU_CONFIG.sample_count
    assert not set(stu_run.fresh) & set(stu_run.points)


def test_a_newton_stack_builds_one_domain_sample(stu_run):
    """The chart points of a Newton stack are the rows of one stacked DomainSample, from one call."""
    assert stu_run.calls <= 12 * STU_CONFIG.sample_count
    assert stu_run.ok == stu_run.built > 0


def test_stu_fs_stu_in_one_process_gives_the_same_stu_bytes(stu_run):
    """Also at STU seed 603, whose sample 0 fails oracle.flat_hessian_fd: the same bytes and outcome twice."""
    failing = dataclasses.replace(STU_CONFIG, seed=603, sample_count=1)
    first = verify.run_suite(failing)
    verify.run_suite(small_config(sample_count=2))
    assert verify.run_suite(STU_CONFIG).to_json() == stu_run.report.to_json()
    again = verify.run_suite(failing)
    assert again.to_json() == first.to_json()
    assert not first.all_pass and not again.all_pass


def test_sigma_xq_reuses_the_spheres_and_the_q_ratio(monkeypatch):
    """One sphere per sample and one q_proportional_ksq per suite, and neither for a suite without them."""
    spheres, ratios = [], []
    real_project, real_ratio = cone.project_to_sphere, verify.hom.q_proportional_ksq

    def project(ast, z):
        spheres.append(z.tobytes())
        return real_project(ast, z)

    def ratio(*args):
        ratios.append(args)
        return real_ratio(*args)

    monkeypatch.setattr(cone, "project_to_sphere", project)
    monkeypatch.setattr(verify.hom, "q_proportional_ksq", ratio)
    config = small_config(sample_count=2, checks=("sphere.on_level", "sec5.remark2.q_ratio",
                                                  "sec5.remark2.sigma_xq"))
    assert verify.run_suite(config).all_pass and len(ratios) == 1
    assert sorted(spheres) == sorted(z.tobytes() for z in verify.sample_points(config))
    spheres.clear(), ratios.clear()
    verify.run_suite(small_config(checks=("sec5.A.homogeneity",)))
    assert not spheres and not ratios
