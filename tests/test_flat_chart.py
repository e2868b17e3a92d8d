"""FlatChart: the seeded, memoised flat chart and what it saves.

The chart reuses Newton's jets instead of re-evaluating them, which keeps
reports byte-identical only because an order-k jet's lower tensors are the
same floats as an order-j jet's (j < k) and because the chart runs the same
Newton loop as ``invert_flat_coords``.  A stencil inverts its points as one
stack, which keeps reports byte-identical only because every row of the
stack converges to the bytes it reaches alone.  These tests pin those
facts, and count jet evaluations so that the savings cannot silently
regress.
"""

import dataclasses
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from skcone import expr, verify
from skcone import geometry as geo
from skcone.errors import DegenerateMetric, InadmissiblePoint, NoConvergence

from conftest import STU_BASE, stu_points


@pytest.fixture
def jets(monkeypatch):
    """Record (order, point bytes) for every eval_jet call, on every module binding."""
    calls = []
    real = expr.eval_jet

    def counting(ast, z, order):
        calls.append((order, np.asarray(z, dtype=complex).tobytes()))
        return real(ast, z, order)

    for name, module in list(sys.modules.items()):
        if (name == "skcone" or name.startswith("skcone.")) and getattr(module, "eval_jet", None) is real:
            monkeypatch.setattr(module, "eval_jet", counting)
    return calls


STORED = ("z", "k", "f1", "tau", "N")
DERIVED = ("xi", "J", "h", "g", "omega", "dk", "flat", "flat_jac", "flat_jac_inv")
CHART_FIELDS = ("g_flat", "omega_flat", "J_flat", "eta_flat", "xi_flat", "sigma_flat")


def _assert_samples_equal(a, b):
    """Every stored, derived and chart field of two single-point samples, byte for byte."""
    for name in STORED + DERIVED + CHART_FIELDS:
        assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes(), name
    assert a.eta().tobytes() == b.eta().tobytes()


def _stencil(w0, count, seed, scale):
    gen = np.random.default_rng(seed)
    return [w0 + scale * gen.standard_normal(w0.size) for _ in range(count)]


@pytest.mark.parametrize("name", ["fs3", "stu", "sig3"])
def test_chart_sample_equals_inverted_domain_sample(name, request):
    ast = request.getfixturevalue(name)
    seed = stu_points(1, seed=3)[0] if name == "stu" else np.array([0.9 + 0.2j, 0.3 - 0.4j, 0.1 + 0.2j])
    chart = geo.FlatChart(ast, seed)
    _assert_samples_equal(chart.base, geo.domain_sample(ast, seed))
    for w in _stencil(chart.base.flat, 4, 7, 1e-3):
        expected = geo.domain_sample(ast, geo.invert_flat_coords(ast, w, seed))
        _assert_samples_equal(chart.sample(w), expected)
        assert chart.sample(w) is chart.sample(w)
        assert chart.k(w) == geo.kahler_potential(ast, expected.z)


@pytest.mark.parametrize("target", [np.full(8, 1e7), np.array([0.0, 0, 0, 0, 1e3, 0, 0, 0])])
def test_chart_and_invert_fail_alike(stu, target):
    seed = np.array([1.0, 1j, 1j, 1j])
    with pytest.raises((NoConvergence, DegenerateMetric)) as direct:
        geo.invert_flat_coords(stu, target, seed)
    with pytest.raises((NoConvergence, DegenerateMetric)) as charted:
        geo.FlatChart(stu, seed).sample(target)
    assert type(charted.value) is type(direct.value)
    assert str(charted.value) == str(direct.value)


def test_flat_hessian_fd_jet_counts(stu, jets):
    z = stu_points(1, seed=17)[0]
    geo.flat_hessian_fd(geo.FlatChart(stu, z))
    orders = Counter(order for order, _ in jets)
    assert orders[1] == 0 and orders[3] == 0
    assert set(orders) == {2}
    assert sum(key == z.tobytes() for _, key in jets) == 1


def test_shared_chart_stencils_cost_one_stencil(stu, jets):
    z = STU_BASE + 0.03
    geo.omega_parallel_residual(geo.FlatChart(stu, z))
    alone = Counter(order for order, _ in jets)
    jets.clear()
    chart = geo.FlatChart(stu, z)
    for residual in (geo.omega_parallel_residual, geo.dnabla_J_residual, geo.d_eta_residual):
        residual(chart)
    assert Counter(order for order, _ in jets) == alone


def test_chart_point_costs_only_its_newton_steps(stu, jets):
    chart = geo.FlatChart(stu, STU_BASE + 0.03)
    w = chart.base.flat + 1e-3
    chart.sample(w)
    newton = len(jets)
    assert newton > 1 and all(order == 2 for order, _ in jets)
    chart.k(w)
    chart.sample(w)
    assert len(jets) == newton


# ---------------------------------------------------------------------------
# Stacked inversion: every row as it would be alone
# ---------------------------------------------------------------------------


def _entry_bytes(sample, row):
    """What a memo entry (stacked sample, row) holds for its chart point: z, k, f1, tau and N."""
    fields = (sample.z, sample.k, sample.f1, sample.tau, sample.N)
    return [np.asarray(f if row is None else f[row]).tobytes() for f in fields]


def _alone(chart, w):
    """The chart point of w from a one-row Newton run, built as a single-point sample."""
    w_conv, jet, row = geo._inverted(geo._newton(chart.ast, [w], chart._seed_w, chart._seed_jet)[0])
    return geo.domain_sample(chart.ast, geo.to_complex(w_conv), jet=jet if row is None else jet.row(row)), None


def test_points_memo_is_byte_equal_to_single_inversions(stu, monkeypatch):
    """STU seed 9, sample 16: one ulp in a chart point here moves the FD Hessian by 1e-4."""
    inputs = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "inputs.json").read_text())
    config = verify.config_from_dict(dict(inputs["configs"]["suite_stu"], seed=9))
    z = verify.sample_points(config, stu)[16]
    stencils = []
    real = geo.FlatChart.points

    def recording(chart, W):
        stencils.append((chart, np.array(W)))
        return real(chart, W)

    monkeypatch.setattr(geo.FlatChart, "points", recording)
    geo.flat_hessian_fd(geo.FlatChart(stu, z))
    [(chart, W)] = stencils
    assert W.shape == (129, 8) and len(chart._points) == 129
    for w in W:
        assert _entry_bytes(*chart._points[w.tobytes()]) == _entry_bytes(*_alone(chart, w))


def test_borderline_point_keeps_its_newton_floor(stu):
    """STU seed 9, sample 16 fails oracle.flat_hessian_fd at 1.29e-4 (gate 1e-5).

    One stencil point stops 12% under Newton's exit tolerance, and one more
    step would bring the residual to about 3e-8.  Any change to the bits of
    Newton's arithmetic moves this residual, so it pins that arithmetic.
    """
    inputs = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "inputs.json").read_text())
    config = verify.config_from_dict(dict(inputs["configs"]["suite_stu"], seed=9))
    z = verify.sample_points(config, stu)[16]
    H = geo.flat_hessian_of_k(stu, z)
    Hfd = geo.flat_hessian_fd(geo.FlatChart(stu, z))
    residual = float(np.max(np.abs(H - Hfd))) / max(1.0, float(np.max(np.abs(H))))
    assert 1.28e-4 < residual < 1.30e-4


SINGULAR_TARGET = np.array([0.0, 0, 0, 0, 0, -1, -1, -1])  # Newton's first step lands on z0 = 0


@pytest.mark.parametrize("target", [SINGULAR_TARGET, np.full(8, 1e7), np.array([0.0, 0, 0, 0, 1e3, 0, 0, 0])])
def test_chart_and_invert_fail_alike_in_a_stack(stu, target):
    seed = np.array([1.0, 1j, 1j, 1j])
    chart = geo.FlatChart(stu, seed)
    good = _stencil(chart.base.flat, 6, 11, 1e-3)
    chart.points([good[0], SINGULAR_TARGET, *good[1:3], np.full(8, 1e7),
                  np.array([0.0, 0, 0, 0, 1e3, 0, 0, 0]), *good[3:]])
    with pytest.raises((NoConvergence, DegenerateMetric)) as direct:
        geo.invert_flat_coords(stu, target, seed)
    with pytest.raises((NoConvergence, DegenerateMetric)) as charted:
        chart.point(target)
    assert type(charted.value) is type(direct.value)
    assert str(charted.value) == str(direct.value)
    assert len(chart._points) == len(good)
    for w in good:
        assert _entry_bytes(*chart._points[w.tobytes()]) == _entry_bytes(*_alone(chart, w))


def test_singular_target_hits_the_singular_denominator(stu):
    with pytest.raises(NoConvergence, match="hit a singular point during Newton: singular denominator 'z0'"):
        geo.invert_flat_coords(stu, SINGULAR_TARGET, np.array([1.0, 1j, 1j, 1j]))


def test_stencils_evaluate_one_jet_per_newton_round(stu, jets):
    """A stencil inverts its points together: the seed jet, then one stacked jet per Newton round."""
    z = stu_points(1, seed=17)[0]
    seed = z.tobytes()
    geo.flat_hessian_fd(geo.FlatChart(stu, z))
    assert [order for order, _ in jets] == [2, 2, 2]
    assert jets[0][1] == seed and len(jets[1][1]) == 128 * len(seed)
    jets.clear()
    chart = geo.FlatChart(stu, z)
    chart.christoffel(chart.base.flat)
    assert [order for order, _ in jets] == [2, 2, 2]
    assert jets[0][1] == seed and len(jets[1][1]) == 16 * len(seed)
    jets.clear()
    chart = geo.FlatChart(stu, z)
    for residual in (geo.omega_parallel_residual, geo.dnabla_J_residual, geo.d_eta_residual):
        residual(chart)
    assert [len(key) // len(seed) for _, key in jets] == [1, 16, 16]
    jets.clear()
    chart.dir_deriv(chart.xi_flat, chart.base.flat, np.ones(8), geo.FIELD_STEP)
    assert [len(key) // len(seed) for _, key in jets] == [2, 2]


# ---------------------------------------------------------------------------
# Stacked samples: every row as its single-point build
# ---------------------------------------------------------------------------


def _per_point(s):
    """The derived and chart fields of a single-point sample by the per-point formulas, one numpy call each."""
    m = s.m
    N = np.imag(s.tau)
    g = np.zeros((2 * m, 2 * m))
    g[:m, :m] = N
    g[m:, m:] = N
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = 0.5 * N
    omega[m:, :m] = -0.5 * N
    jac = np.zeros((2 * m, 2 * m))
    jac[:m, :m] = np.eye(m)
    jac[m:, :m] = s.tau.real
    jac[m:, m:] = -np.imag(s.tau)
    ji = np.linalg.inv(jac)
    dkz = -0.25j * (s.tau @ np.conj(s.z) - np.conj(s.f1))
    xi = np.concatenate([s.z.real, s.z.imag])
    J = geo.complex_structure(m)
    return {"k": 0.5 * float(np.imag(np.dot(s.f1, np.conj(s.z)))), "N": N, "xi": xi, "J": J,
            "h": N.astype(complex), "g": g, "omega": omega,
            "dk": np.concatenate([2.0 * dkz.real, -2.0 * dkz.imag]),
            "flat": np.concatenate([s.z.real, s.f1.real]), "flat_jac": jac, "flat_jac_inv": ji,
            "g_flat": ji.T @ g @ ji, "omega_flat": ji.T @ omega @ ji, "J_flat": jac @ J @ np.linalg.inv(jac),
            "eta_flat": np.linalg.solve(jac.T, omega.T @ xi), "xi_flat": jac @ xi, "sigma_flat": jac @ (J @ xi)}


def _assert_rows_are_single_builds(chart, W):
    """Every chart point of W, read from its stacked sample, equals domain_sample at its z and the per-point formulas."""
    chart.points(W)
    stacks = set()
    for w in W:
        stack, p = chart.point(w)
        stacks.add(id(stack))
        alone = geo.domain_sample(chart.ast, stack.z[p])
        ref = _per_point(alone)
        for name in STORED:
            assert np.asarray(getattr(stack, name)[p]).tobytes() == np.asarray(getattr(alone, name)).tobytes(), name
        for name in DERIVED + CHART_FIELDS:
            assert np.asarray(getattr(alone, name)).tobytes() == ref[name].tobytes(), name
            if name != "J":
                assert getattr(stack, name)[p].tobytes() == ref[name].tobytes(), name
        for name in CHART_FIELDS:
            assert getattr(chart, name)(w).tobytes() == ref[name].tobytes(), name
        assert chart.k(w) == ref["k"] == alone.k
        _assert_samples_equal(chart.sample(w), alone)
    assert len(stacks) == 1


@pytest.mark.parametrize("name", ["fs3", "stu", "sig3"])
def test_stacked_sample_rows_equal_single_builds(name, request):
    ast = request.getfixturevalue(name)
    seed = stu_points(1, seed=3)[0] if name == "stu" else np.array([0.9 + 0.2j, 0.3 - 0.4j, 0.1 + 0.2j])
    chart = geo.FlatChart(ast, seed)
    w0 = chart.base.flat
    _assert_rows_are_single_builds(chart, [*chart.christoffel_points(w0), *chart.axis_points(w0),
                                           *_stencil(w0, 6, 13, 1e-3)])


@pytest.mark.parametrize("seed, sample", [(9, 16), (603, 0)])
def test_borderline_hessian_stencils_equal_single_builds(stu, seed, sample):
    """STU seed 9 sample 16 and seed 603 sample 0 fail oracle.flat_hessian_fd: there one ulp shows."""
    inputs = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "inputs.json").read_text())
    config = verify.config_from_dict(dict(inputs["configs"]["suite_stu"], seed=seed))
    chart = geo.FlatChart(stu, verify.sample_points(config, stu)[sample])
    _assert_rows_are_single_builds(chart, chart.hessian_points(chart.base.flat))


def test_rejected_rows_raise_their_single_build_error_and_leave_their_neighbours(stu):
    Z = np.array(stu_points(5, seed=41))
    jet = expr.eval_jet(stu, Z, 2)
    f1, tau = jet.deriv(1).copy(), jet.deriv(2).copy()
    tau[1] = tau[1].real   # Im tau = 0: det N = 0, and flat_jac is exactly singular
    f1[3] = 0.0            # k = 0, below the gate
    hand = type(jet)(2, jet.value, (f1, tau), {})
    stack = geo.domain_sample(stu, Z, jet=hand)
    assert sorted(stack.rejected) == [1, 3]
    for name in DERIVED + CHART_FIELDS:   # the batched LAPACK calls see no rejected row
        getattr(stack, name)
    assert sorted(stack.rejected) == [1, 3]
    for p, kind in ((1, DegenerateMetric), (3, InadmissiblePoint)):
        with pytest.raises(kind) as alone:
            geo.domain_sample(stu, Z[p], jet=hand.row(p))
        for read in (stack.row, stack.admit):
            with pytest.raises(kind) as row:
                read(p)
            assert str(row.value) == str(alone.value)
    for p in (0, 2, 4):
        alone = geo.domain_sample(stu, Z[p], jet=hand.row(p))
        _assert_samples_equal(stack.row(p), alone)
        for name in DERIVED + CHART_FIELDS:
            if name != "J":
                assert getattr(stack, name)[p].tobytes() == np.asarray(getattr(alone, name)).tobytes(), name


def test_a_singular_flat_jacobian_past_the_gate_is_rejected_alone(stu):
    """The det N gate keeps singular flat Jacobians out; one put in by hand fails its own row only."""
    Z = np.array(stu_points(4, seed=43))
    gated = geo.domain_sample(stu, Z, jet=expr.eval_jet(stu, Z, 2))
    tau = gated.tau.copy()
    tau[2] = tau[2].real
    stack = dataclasses.replace(gated, tau=tau, N=np.imag(tau), rejected={})
    inv, eta = stack.flat_jac_inv, stack.eta_flat
    assert list(stack.rejected) == [2] and isinstance(stack.rejected[2], np.linalg.LinAlgError)
    assert np.isnan(inv[2]).all()
    for p in (0, 1, 3):
        alone = stack.row(p)
        assert inv[p].tobytes() == np.linalg.inv(alone.flat_jac).tobytes()
        assert eta[p].tobytes() == np.linalg.solve(alone.flat_jac.T, alone.eta()).tobytes()
    with pytest.raises(np.linalg.LinAlgError):
        stack.row(2)


# ---------------------------------------------------------------------------
# One stack across charts, one view per stencil
# ---------------------------------------------------------------------------


FAILING = (SINGULAR_TARGET, np.full(8, 1e7), np.array([0.0, 0, 0, 0, 1e3, 0, 0, 0]))
FAILING_KINDS = (NoConvergence, NoConvergence, DegenerateMetric)   # from STU_BASE: denominator, no convergence, Jacobian


def _chart_stencils(charts):
    """Per chart: good points near its seed, the seed itself, and (first chart only) the three failing targets."""
    return [(chart, [*_stencil(chart.base.flat, 5, 70 + c, 1e-3), chart.base.flat, *(FAILING if c == 0 else ())])
            for c, chart in enumerate(charts)]


@pytest.mark.parametrize("count", [2, 3])
def test_a_stack_across_charts_equals_the_per_chart_stacks(stu, count, monkeypatch):
    seeds = [STU_BASE, *stu_points(2, seed=53)][:count]
    calls = []
    real = geo._newton

    def newton(ast, targets, *args, **kwargs):
        calls.append(len(targets))
        return real(ast, targets, *args, **kwargs)

    monkeypatch.setattr(geo, "_newton", newton)
    merged, alone = ([geo.FlatChart(stu, z) for z in seeds] for _ in range(2))
    hits = geo.invert_stencils(_chart_stencils(merged))
    assert calls == [sum(len(W) for _, W in _chart_stencils(merged))] and len(hits) == calls[0]
    assert sum(isinstance(hit, Exception) for hit in hits) == len(FAILING)
    for chart, W in _chart_stencils(alone):
        chart.points(W)
    for m, a, (_, W) in zip(merged, alone, _chart_stencils(merged)):
        assert m._points.keys() == a._points.keys() == {w.tobytes() for w in W} - {t.tobytes() for t in FAILING}
        for key in a._points:
            assert _entry_bytes(*m._points[key]) == _entry_bytes(*a._points[key])
    views = {id(view) for chart in merged for view, _ in chart._points.values()}
    assert len(views) == count
    for target, kind in zip(FAILING, FAILING_KINDS):
        with pytest.raises(kind) as one_row:
            geo.invert_flat_coords(stu, target, seeds[0])
        for chart in (merged[0], alone[0]):
            with pytest.raises(kind) as charted:
                chart.point(target)
            assert str(charted.value) == str(one_row.value)


def test_row_norms_are_the_per_row_dot_bit_for_bit():
    gen = np.random.default_rng(17)
    for n in (2, 4, 6, 8, 9, 16, 24):
        for scale in (1e-14, 1e-3, 1.0, 1e7):
            R = scale * gen.standard_normal((64, n))
            strided = np.imag(R + 1j * R[::-1])   # a view with a stride of two floats, like Im tau
            for rows in (R, strided):
                assert [float(x) for x in geo._row_norms(rows)] == [math.sqrt(r.dot(r)) for r in rows]


def test_chart_steps_take_numpys_norm_bit_for_bit():
    gen = np.random.default_rng(19)
    for n in (4, 6, 8, 16):
        for scale in (1e-9, 1.0, 1e6):
            v = scale * gen.standard_normal(n)
            for vec in (v, np.concatenate([v, v])[::2]):
                assert geo._norm(vec) == float(np.linalg.norm(vec))
                assert geo._chart_step(vec, geo.CHART_STEP) == geo.CHART_STEP * (1.0 + float(np.linalg.norm(vec)))
                norm, h, dw = geo._direction_stencil(vec, vec, geo.FIELD_STEP)
                ref = float(np.linalg.norm(vec))
                assert norm == ref and h == geo.FIELD_STEP * (1.0 + ref) and dw.tobytes() == (h * (vec / ref)).tobytes()


def test_a_view_has_the_stack_rows_in_every_field(stu):
    Z = np.array(stu_points(6, seed=59))
    jet = expr.eval_jet(stu, Z, 2)
    f1 = jet.deriv(1).copy()
    f1[4] = 0.0   # k = 0: rejected by the gate
    stack = geo.domain_sample(stu, Z, jet=type(jet)(2, jet.value, (f1, jet.deriv(2)), {}))
    rows = np.array([5, 1, 4, 2])
    view = stack.take(rows)
    assert list(view.rejected) == [2]
    for name in STORED + DERIVED + CHART_FIELDS:
        if name != "J":
            for j, p in enumerate(rows):
                assert np.asarray(getattr(view, name)[j]).tobytes() == np.asarray(getattr(stack, name)[p]).tobytes(), name
    assert view.eta()[[0, 1, 3]].tobytes() == stack.eta()[[5, 1, 2]].tobytes()
    for j, p in enumerate(rows):
        if p == 4:
            with pytest.raises(InadmissiblePoint) as err:
                view.admit(j)
            assert err.value is stack.rejected[4]
        else:
            _assert_samples_equal(view.row(j), stack.row(p))


@pytest.mark.parametrize("unmemoised, rejected", [
    ((8,), (1,)),        # a0- fails Newton before a1+ is read
    ((), (1, 8)),        # a0- is rejected before a1+ is read
    ((9,), (2,)),        # a1- fails Newton before a2+ is read
    ((), (15,)),         # only a7- fails
])
def test_a_batched_axis_read_raises_the_per_point_reads_first_error(stu, monkeypatch, unmemoised, rejected):
    """Rows are indexed as the axis stencil orders them: a+ for every a, then a- for every a."""
    chart = geo.FlatChart(stu, stu_points(1, seed=61)[0])
    w0 = chart.base.flat
    h = geo._chart_step(w0, geo.CHART_STEP)
    W = geo._axis_stencil(w0, h)
    chart.points(W)
    poisoned = {W[i].tobytes() for i in unmemoised}
    for key in poisoned:
        del chart._points[key]
    real = geo._newton

    def newton(ast, targets, *args, **kwargs):
        return [NoConvergence(f"injected at {t.tobytes().hex()[:8]}") if t.tobytes() in poisoned else hit
                for t, hit in zip(targets, real(ast, targets, *args, **kwargs))]

    monkeypatch.setattr(geo, "_newton", newton)
    for i in rejected:
        view, p = chart._points[W[i].tobytes()]
        view.rejected[p] = InadmissiblePoint(f"injected at row {i}")
    for name in ("J_flat", "omega_flat", "eta_flat", "g_flat"):
        with pytest.raises((NoConvergence, InadmissiblePoint)) as per_point:
            geo.chart_matrix_derivative(getattr(chart, name), w0, h)
        with pytest.raises((NoConvergence, InadmissiblePoint)) as batched:
            geo.chart_matrix_derivative((chart, name), w0, h)
        assert type(batched.value) is type(per_point.value) and str(batched.value) == str(per_point.value)


def test_a_batched_axis_read_equals_the_per_point_read(stu):
    chart = geo.FlatChart(stu, stu_points(1, seed=67)[0])
    w0 = chart.base.flat
    for step in (geo._chart_step(w0, geo.CHART_STEP), geo._chart_step(w0, geo.GAMMA_STEP)):
        chart.points(geo._axis_stencil(w0, step))
        for name in ("J_flat", "omega_flat", "eta_flat", "g_flat", "xi_flat", "sigma_flat"):
            batched = geo.chart_matrix_derivative((chart, name), w0, step)
            assert batched.tobytes() == geo.chart_matrix_derivative(getattr(chart, name), w0, step).tobytes()


def test_a_level_tangent_reads_its_rows_and_raises_a_rejected_rows_error(stu):
    chart = geo.FlatChart(stu, stu_points(1, seed=71)[0])
    W = _stencil(chart.base.flat, 3, 73, 1e-3)
    chart.points(W)
    Y = np.linspace(-1.0, 1.0, 8)
    for w in W[:2]:
        s = chart.sample(w)
        Yl = Y - (float(s.dk @ Y) / float(s.dk @ s.xi)) * s.xi
        assert chart.level_tangent_flat(w, Y).tobytes() == (s.flat_jac @ Yl).tobytes()
    view, p = chart.point(W[2])
    view.rejected[p] = InadmissiblePoint("injected")
    for read in (chart.sample, lambda w: chart.level_tangent_flat(w, Y)):
        with pytest.raises(InadmissiblePoint, match="injected"):
            read(W[2])
