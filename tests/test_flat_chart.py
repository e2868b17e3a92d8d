"""FlatChart: the seeded, memoised flat chart and what it saves.

The chart reuses Newton's jets instead of re-evaluating them, which keeps
reports byte-identical only because an order-k jet's lower tensors are the
same floats as an order-j jet's (j < k) and because the chart runs the same
Newton loop as ``invert_flat_coords``.  These tests pin both facts, and
count jet evaluations so that the savings cannot silently regress.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from skcone import expr
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
