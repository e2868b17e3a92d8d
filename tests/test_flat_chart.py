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
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from skcone import expr, verify
from skcone import geometry as geo
from skcone.errors import DegenerateMetric, NoConvergence

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


def _assert_samples_equal(a, b):
    for f in dataclasses.fields(geo.DomainSample):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


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
    geo.flat_hessian_fd(stu, z)
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


def _entry_bytes(z, jet):
    return [np.asarray(z).tobytes(), np.complex128(jet.value).tobytes()] + [d.tobytes() for d in jet.derivs]


def _alone(chart, w):
    """The chart point of w from a one-row Newton run."""
    w_conv, jet = geo._inverted(geo._newton(chart.ast, [w], chart._seed_w, chart._seed_jet)[0])
    return geo.to_complex(w_conv), jet


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
    geo.flat_hessian_fd(stu, z)
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
    residual = float(np.max(np.abs(H - geo.flat_hessian_fd(stu, z)))) / max(1.0, float(np.max(np.abs(H))))
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
    geo.flat_hessian_fd(stu, z)
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
