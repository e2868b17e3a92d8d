"""Stencil families hand their chart points over as one Newton stack.

``sasaki_residuals`` inverts its points in two stacks, ``mean_curvature_residual``
in one, and ``jet_fd_residual`` evaluates the offsets of each order as one
stacked jet.  Batching moves time, not values: every row of a stack gets the
bytes it gets alone, and an error is the one the unbatched code raises
first.  These tests count the stacks and compare against unbatched runs.
"""

import dataclasses
import math
import sys
from collections import Counter

import numpy as np
import pytest

import skcone.cone as cone
import skcone.verify as verify
from skcone import expr
from skcone import geometry as geo
from skcone.errors import DegenerateMetric, EvaluationSingularity, NoConvergence
from skcone.expr import eval_jet, jet_fd_residual, max_or_nan, parse_prepotential

from conftest import STU_BASE, STU_BASE_NEG, stu_points


@pytest.fixture
def newton_rows(monkeypatch):
    """The row count of every geometry._newton call."""
    rows = []
    real = geo._newton

    def counting(ast, targets, *args, **kwargs):
        rows.append(len(targets))
        return real(ast, targets, *args, **kwargs)

    monkeypatch.setattr(geo, "_newton", counting)
    return rows


@pytest.fixture
def jet_rows(monkeypatch):
    """(order, number of points) of every eval_jet call, on every module binding."""
    calls = []
    real = expr.eval_jet

    def counting(ast, z, order):
        z = np.asarray(z, dtype=complex)
        calls.append((order, len(z) if z.ndim == 2 else None))
        return real(ast, z, order)

    for name, module in list(sys.modules.items()):
        if (name == "skcone" or name.startswith("skcone.")) and getattr(module, "eval_jet", None) is real:
            monkeypatch.setattr(module, "eval_jet", counting)
    return calls


@pytest.fixture(params=["positive", "negative"])
def sphere(request, stu):
    """A new sphere sample per test, so that no earlier test's chart points are memoised."""
    base = STU_BASE if request.param == "positive" else STU_BASE_NEG
    return cone.project_to_sphere(stu, base + 0.04)


def _pairs(sphere, count=2, seed=31):
    gen = np.random.default_rng(seed)
    return [(cone.random_tangent(sphere, gen), cone.random_tangent(sphere, gen)) for _ in range(count)]


def _unbatched(monkeypatch, sphere):
    """Make FlatChart.points and cone's invert_stencils no-ops, and return the sphere sample with a new chart at u.

    Every chart point of the new chart is then inverted alone, on first use.
    """
    monkeypatch.setattr(geo.FlatChart, "points", lambda chart, W: None)
    monkeypatch.setattr(cone, "invert_stencils", lambda stencils: [])
    return dataclasses.replace(sphere, chart=geo.FlatChart(sphere.chart.ast, sphere.u))


# ---------------------------------------------------------------------------
# Newton stacks per stencil family
# ---------------------------------------------------------------------------


def test_sasaki_residuals_make_two_newton_stacks(sphere, newton_rows):
    cone.sasaki_residuals(sphere, _pairs(sphere))
    assert len(newton_rows) == 2
    # the Christoffel stencils at w0 and at the four outer points, and the
    # eight direction stencils at w0, before the stencils that depend on them
    assert newton_rows[0] == 5 * 17 + 8 * 2


def test_mean_curvature_makes_one_newton_stack(sphere, newton_rows):
    cone.mean_curvature_residual(sphere)
    assert newton_rows == [2 * sphere.frame.shape[0]] == [2 * 7]


def test_warped_position_is_one_two_point_stencil(sphere, newton_rows, monkeypatch):
    X, _ = _pairs(sphere, 1)[0]
    monkeypatch.setattr(cone, "gauss_split", None)  # the position identity needs no Gauss split
    assert cone.warped_position_residual(sphere, 2.5, X) < 1e-6
    assert newton_rows == [2]
    with pytest.raises(ValueError):
        cone.warped_position_residual(sphere, 0.0, X)


def test_repeated_christoffel_evaluates_no_new_stencil(stu, newton_rows, monkeypatch):
    chart = geo.FlatChart(stu, stu_points(1, seed=17)[0])
    w = chart.base.flat
    gamma = chart.christoffel(w)
    assert newton_rows == [17]
    g_calls = Counter()
    real = geo.FlatChart.g_flat

    def counting(self, point):
        g_calls[point.tobytes()] += 1
        return real(self, point)

    monkeypatch.setattr(geo.FlatChart, "g_flat", counting)
    again = chart.christoffel(w)
    assert again is gamma and not again.flags.writeable
    assert not g_calls and newton_rows == [17]
    assert [p.tobytes() for p in chart.christoffel_points(w)] == \
        [w.tobytes(), *(p.tobytes() for p in geo._axis_stencil(w, geo.GAMMA_STEP * (1.0 + np.linalg.norm(w))))]


def test_stencil_point_helpers_are_the_memo_keys(stu, newton_rows):
    """Points handed over through the helpers leave the derivatives nothing to invert."""
    chart = geo.FlatChart(stu, stu_points(1, seed=17)[0])
    w = chart.base.flat
    direction = np.linspace(-1.0, 1.0, w.size)
    chart.points([*chart.christoffel_points(w), *chart.dir_points(w, direction, geo.FIELD_STEP)])
    assert len(newton_rows) == 1
    chart.christoffel(w)
    chart.dir_deriv(chart.xi_flat, w, direction, geo.FIELD_STEP)
    assert len(newton_rows) == 1
    assert chart.dir_points(w, np.zeros(w.size), geo.FIELD_STEP) == []


# ---------------------------------------------------------------------------
# Batching moves no value and no error
# ---------------------------------------------------------------------------


def test_sasaki_and_mean_curvature_equal_their_unbatched_values(sphere, monkeypatch):
    pairs = _pairs(sphere)
    batched = cone.sasaki_residuals(sphere, pairs), cone.mean_curvature_residual(sphere)
    alone = _unbatched(monkeypatch, sphere)
    assert (cone.sasaki_residuals(alone, pairs), cone.mean_curvature_residual(alone)) == batched


def test_failing_level_tangent_at_an_outer_point_raises_as_unbatched(sphere, monkeypatch):
    pairs = _pairs(sphere)
    X = np.asarray(pairs[0][0], dtype=float)
    dom = sphere.domain
    outer = geo.FlatChart.dir_points(dom.flat, dom.flat_jac @ X, cone._OUTER_STEP)[1].tobytes()
    real = geo.FlatChart.level_tangent_flat

    def failing(chart, w, Y0):
        if w.tobytes() == outer:
            raise DegenerateMetric("dk(xi) = 2k vanished during tangent extension")
        return real(chart, w, Y0)

    monkeypatch.setattr(geo.FlatChart, "level_tangent_flat", failing)
    with pytest.raises(DegenerateMetric) as batched:
        cone.sasaki_residuals(sphere, pairs)
    alone = _unbatched(monkeypatch, sphere)
    with pytest.raises(DegenerateMetric) as unbatched:
        cone.sasaki_residuals(alone, pairs)
    assert type(batched.value) is type(unbatched.value)
    assert str(batched.value) == str(unbatched.value)


# ---------------------------------------------------------------------------
# A suite hands every stencil at a sample over before its checks run
# ---------------------------------------------------------------------------

_STU_SUITE = verify.SuiteConfig(prepotential="z1*z2*z3/z0", n_vars=4, seed=7, sample_count=2,
                                base_point=(1.0, 1j, 1j, 1j), sample_radius=0.15)


def test_a_hand_over_never_raises_and_inverts_the_other_stencils(newton_rows):
    ctx = verify._Context(_STU_SUITE)

    def failing(ctx, idx):
        raise DegenerateMetric("injected")

    ctx.hand_over(0, [failing, verify._st_axis, verify._st_axis])
    assert newton_rows == [16]
    geo.dnabla_J_residual(ctx.chart(0))
    assert newton_rows == [16]


def test_a_row_that_fails_in_a_hand_over_fails_its_check_as_without_one(monkeypatch):
    """The failed row is not memoised, so its check inverts it again and raises the same error."""
    ctx = verify._Context(_STU_SUITE)
    _, (poisoned, _, _, _) = verify._st_directions(verify._GAUSS_PAIRS)(ctx, 0)
    real = geo._newton

    def newton(ast, targets, *args, **kwargs):
        out = real(ast, targets, *args, **kwargs)
        return [NoConvergence("injected") if t.tobytes() == poisoned.tobytes() else hit
                for t, hit in zip(targets, out)]

    monkeypatch.setattr(geo, "_newton", newton)
    config = dataclasses.replace(_STU_SUITE, checks=("thm.affinesphere.gauss", "thm.affinesphere.shape",
                                                     "sasaki.killing", "eq.wpr.radial"))
    handed = verify.run_suite(config)
    monkeypatch.setattr(verify._Context, "hand_over", lambda ctx, idx, stencils: None)
    assert verify.run_suite(config).to_json() == handed.to_json()
    gauss = next(r for r in handed.checks if r.id == "thm.affinesphere.gauss")
    assert gauss.point["sample"] == 0 and gauss.point["error"] == "NoConvergence: injected"


# ---------------------------------------------------------------------------
# jet_fd_residual: one stacked jet of offsets per order
# ---------------------------------------------------------------------------


def _jet_fd_one_offset_at_a_time(ast, z, order):
    """jet_fd_residual with one single-point jet per offset."""
    z = np.asarray(z, dtype=complex)
    step = 1e-5 * max(1.0, float(np.linalg.norm(z)))
    worst = 0.0
    for m in range(1, order + 1):
        exact = eval_jet(ast, z, m).deriv(m)
        scale = max(1.0, float(np.max(np.abs(exact))))
        for j in range(ast.n_vars):
            dz = np.zeros(ast.n_vars, dtype=complex)
            dz[j] = step
            if m == 1:
                hi, lo = eval_jet(ast, z + dz, 0).value, eval_jet(ast, z - dz, 0).value
            else:
                hi, lo = eval_jet(ast, z + dz, m - 1).deriv(m - 1), eval_jet(ast, z - dz, m - 1).deriv(m - 1)
            fd = (hi - lo) / (2.0 * step)
            worst = max_or_nan(worst, float(np.max(np.abs(fd - exact[..., j]))) / scale)
    return worst


def test_jet_fd_residual_evaluates_one_stack_per_order(stu, jet_rows):
    """One exact jet at z of the top order, and one stacked jet of the offsets per order."""
    jet_fd_residual(stu, stu_points(1, seed=17)[0], order=4)
    assert jet_rows == [(4, None), (0, 8), (1, 8), (2, 8), (3, 8)]


@pytest.mark.parametrize("text, n", [("z1*z2*z3/z0", 4), ("i*(z0^2 + z1^2 + z2^2)", 3),
                                     ("z1*(z2^2 - z3^2 - z4^2)/z0 + i*z0^2/(z1 + 3)", 5)])
def test_jet_fd_residual_equals_one_offset_at_a_time(text, n):
    ast = parse_prepotential(text, n)
    gen = np.random.default_rng(5)
    for _ in range(3):
        z = np.concatenate([[1.0], 0.4 * gen.standard_normal(n - 1) + 1j * (0.5 + gen.random(n - 1))])
        for order in (1, 4):
            assert jet_fd_residual(ast, z, order) == _jet_fd_one_offset_at_a_time(ast, z, order)


def test_jet_fd_offset_on_a_pole_raises_that_offsets_error(stu):
    z = np.array([1e-5, 0.3 + 0.2j, 0.4j, 0.5])   # |z| < 1, so the step is 1e-5 and z - dz_0 has z0 = 0
    minus = z.copy()
    minus[0] -= 1e-5
    assert minus[0] == 0
    with pytest.raises(EvaluationSingularity) as single:
        eval_jet(stu, minus, 0)
    with pytest.raises(EvaluationSingularity) as stacked:
        jet_fd_residual(stu, z)
    assert str(stacked.value) == str(single.value)
    with pytest.raises(EvaluationSingularity) as alone:
        _jet_fd_one_offset_at_a_time(stu, z, 4)
    assert str(alone.value) == str(single.value)


# ---------------------------------------------------------------------------
# Newton's row norm
# ---------------------------------------------------------------------------


def test_row_norm_is_numpys_norm_bit_for_bit():
    gen = np.random.default_rng(11)
    for scale in (1e-14, 1e-3, 1.0, 1e7):
        rows = scale * gen.standard_normal((200, 8))
        for r in rows:
            assert math.sqrt(r.dot(r)) == float(np.linalg.norm(r))
