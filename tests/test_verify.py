import dataclasses
import json
import weakref

import numpy as np
import pytest

import skcone.verify as verify
from skcone import cone
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


def _nan_on_call(real, nth):
    """Wrap ``real`` so that its nth call (1-based) returns NaN."""
    calls = [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        return float("nan") if calls[0] == nth else real(*args, **kwargs)

    return wrapped


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
    monkeypatch.setattr(verify.hom, "lie_invariance_residual",
                        _nan_on_call(verify.hom.lie_invariance_residual, 2))
    report = verify.run_suite(small_config(sample_count=1, checks=("sec5.G.invariance",)))
    (result,) = report.checks
    assert np.isnan(result.residual) and not result.passed


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

# The per-sample ids that read a chart which other ids of their sample read too.
_CHART_SHARING = (
    "lemma1.h_xi_dbar_k", "cor.npotential.flat_hessian", "oracle.flat_hessian_fd",
    "flat.omega_parallel", "eq.special.dnabla_j", "contact.d_eta",
    "thm.affinesphere.gauss", "thm.affinesphere.shape", "thm.affinesphere.mean_curvature",
    "sasaki.killing", "sasaki.structure", "prop.asc.affine_sasaki", "sasaki.contact",
    "eq.wpr.radial",
)


@pytest.fixture(scope="module")
def stu_run():
    """The 2-sample STU suite, the seed of every FlatChart it builds, and the charts alive after each release."""
    seeds, alive_after_release = [], []
    alive = weakref.WeakSet()
    real_init, real_release = geo.FlatChart.__init__, verify._Context.release

    def init(chart, ast, seed_z):
        real_init(chart, ast, seed_z)
        seeds.append(np.asarray(seed_z, dtype=complex).tobytes())
        alive.add(chart)

    def release(ctx, idx):
        real_release(ctx, idx)
        alive_after_release.append(len(alive))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo.FlatChart, "__init__", init)
        mp.setattr(verify._Context, "release", release)
        report = verify.run_suite(STU_CONFIG)
    return report, seeds, alive_after_release


def test_a_suite_builds_at_most_four_charts_per_sample(stu_run):
    report, seeds, _ = stu_run
    assert report.all_pass
    # per sample: one at u, one at r*u for each warped identity, one at z
    assert len(seeds) <= 4 * STU_CONFIG.sample_count


def test_no_chart_outlives_its_sample(stu_run):
    _, seeds, alive_after_release = stu_run
    assert seeds and alive_after_release == [0] * STU_CONFIG.sample_count


@pytest.mark.parametrize("cid", _CHART_SHARING)
def test_a_chart_sharing_check_alone_equals_its_rows_in_the_suite(stu_run, cid):
    """A memoised chart point gives the bits a fresh inversion gives, so sharing moves no result."""
    report, _, _ = stu_run
    alone = verify.run_suite(dataclasses.replace(STU_CONFIG, checks=(cid,)))
    assert len(alone.checks) == STU_CONFIG.sample_count
    assert alone.checks == tuple(r for r in report.checks if r.id == cid)
