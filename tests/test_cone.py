from collections import Counter

import numpy as np
import pytest

import skcone.cone as cone
from skcone import geometry as geo
from skcone.errors import InadmissiblePoint
from skcone.expr import parse_prepotential

from conftest import STU_BASE, STU_BASE_NEG


@pytest.fixture(scope="module")
def fs_sphere():
    ast = parse_prepotential("i*(z0^2 + z1^2 + z2^2)", 3)
    return cone.project_to_sphere(ast, np.array([1.2 + 0.4j, 0.5 - 0.3j, -0.2 + 0.8j]))


@pytest.fixture(scope="module")
def stu_spheres(stu):
    pos = cone.project_to_sphere(stu, STU_BASE + 0.04)
    neg = cone.project_to_sphere(stu, STU_BASE_NEG + 0.04)
    return pos, neg


# ---------------------------------------------------------------------------
# projection and frames
# ---------------------------------------------------------------------------


def test_projection_spot_value(fs2):
    sp = cone.project_to_sphere(fs2, np.array([2.0, 0.0], dtype=complex))
    assert np.allclose(sp.u, [1 / np.sqrt(2), 0], atol=1e-14)
    assert sp.kappa == 1


def test_projection_fixed_point_on_s(fs2):
    u0 = np.array([0.5, 0.5], dtype=complex)  # |u|^2 = 1/2
    sp = cone.project_to_sphere(fs2, u0)
    assert np.allclose(sp.u, u0, atol=1e-14)


def test_projection_negative_branch(stu_spheres):
    _, neg = stu_spheres
    assert neg.kappa == -1
    assert abs(neg.domain.k + 0.5) < 1e-10


def test_projection_rejects_k_zero(stu):
    with pytest.raises(InadmissiblePoint):
        cone.project_to_sphere(stu, np.array([1.0, 1.0, 1j, 1j]))


def test_sphere_sample_invariants(stu_spheres):
    for sp in stu_spheres:
        assert abs(sp.domain.k - sp.kappa / 2.0) < 1e-10
        assert np.max(np.abs(sp.frame @ sp.domain.dk)) < 1e-10
        assert np.allclose(sp.frame @ sp.frame.T, np.eye(7), atol=1e-12)
        assert abs(float(sp.sigma @ sp.domain.g @ sp.sigma) - sp.kappa) < 1e-8
        # eta spans the contact direction: eta(sigma) = k != 0
        assert abs(float(sp.eta @ sp.sigma) - sp.domain.k) < 1e-12


# ---------------------------------------------------------------------------
# Gauss splitting
# ---------------------------------------------------------------------------


def test_gauss_normal_coefficient_is_metric(fs_sphere, rng):
    sp = fs_sphere
    X = cone.random_tangent(sp, rng)
    split = cone.gauss_split(sp, X, X)
    assert abs(split.normal_coeff - sp.domain.g_form(X, X)) < 1e-6
    assert abs(float(sp.domain.dk @ split.tangential)) < 1e-8


def test_gauss_orthogonal_pair(fs_sphere, rng):
    sp = fs_sphere
    X = cone.random_tangent(sp, rng)
    Y0 = cone.random_tangent(sp, rng)
    gxx = sp.domain.g_form(X, X)
    Y = Y0 - (sp.domain.g_form(X, Y0) / gxx) * X
    assert abs(sp.domain.g_form(X, Y)) < 1e-12
    split = cone.gauss_split(sp, X, Y)
    assert abs(split.normal_coeff) < 1e-6


def test_gauss_stu_both_branches(stu_spheres, rng):
    for sp in stu_spheres:
        for _ in range(3):
            X = cone.random_tangent(sp, rng)
            Y = cone.random_tangent(sp, rng)
            split = cone.gauss_split(sp, X, Y)
            assert abs(split.normal_coeff - sp.domain.g_form(X, Y)) < 1e-5
            # tighter-step oracle: the split is stable under step refinement
            refined = cone.gauss_split(sp, X, Y, step=2e-6)
            assert abs(split.normal_coeff - refined.normal_coeff) < 1e-6


# ---------------------------------------------------------------------------
# shape tensor and volume normalization
# ---------------------------------------------------------------------------


def test_shape_residual_fs(fs_sphere, rng):
    sp = fs_sphere
    assert cone.shape_residual(sp, cone.random_tangent(sp, rng)) < 1e-8


def test_shape_zero_vector(fs_sphere):
    sp = fs_sphere
    assert cone.shape_residual(sp, np.zeros(6)) == 0.0


def test_shape_residual_stu(stu_spheres, rng):
    for sp in stu_spheres:
        X = cone.random_tangent(sp, rng)
        assert cone.shape_residual(sp, X) < 1e-6


def test_shape_curve_oracle(stu, stu_spheres, rng):
    """-dE/dt along an honest curve on S, differenced without chart inversion."""
    sp, _ = stu_spheres
    X = cone.random_tangent(sp, rng)
    t = 1e-5
    vals = {}
    for s in (+t, -t):
        z = geo.to_complex(geo.to_real(sp.u) + s * X)
        proj = cone.project_to_sphere(stu, z)
        dom = proj.domain
        vals[s] = dom.flat_jac @ (-proj.kappa * dom.xi)
    deriv = (vals[t] - vals[-t]) / (2 * t)
    A_X = -np.linalg.solve(sp.domain.flat_jac, deriv)
    # the curve tangent at t=0 is the projection of X onto TS, which is X itself
    assert np.linalg.norm(A_X - sp.kappa * X) < 1e-5


def test_mean_curvature(fs_sphere, stu_spheres):
    sp = fs_sphere
    assert cone.mean_curvature_residual(sp) < 1e-6
    for sp2 in stu_spheres:
        assert cone.mean_curvature_residual(sp2) < 1e-6


def test_volume_residual_fs(fs_sphere):
    sp = fs_sphere
    assert cone.blaschke_volume_residual(sp) < 1e-8


def test_volume_residual_frame_rotation_invariant(fs_sphere, rng):
    sp = fs_sphere
    base = cone.blaschke_volume_residual(sp)
    # rotate the frame by a special-orthogonal matrix: same span, det 1
    dim = sp.frame.shape[0]
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    rotated = cone.SphereSample(
        u=sp.u, kappa=sp.kappa, frame=Q.T @ sp.frame, E=sp.E, sigma=sp.sigma,
        eta=sp.eta, g_ind=(Q.T @ sp.frame) @ sp.domain.g @ (Q.T @ sp.frame).T,
        chart=sp.chart,
    )
    assert abs(cone.blaschke_volume_residual(rotated) - base) < 1e-9


def test_volume_residual_stu(stu_spheres):
    for sp in stu_spheres:
        assert cone.blaschke_volume_residual(sp) < 1e-5


# ---------------------------------------------------------------------------
# Sasaki structure
# ---------------------------------------------------------------------------


def test_sasaki_fs_round_sphere(fs_sphere, rng):
    sp = fs_sphere
    pairs = [(cone.random_tangent(sp, rng), cone.random_tangent(sp, rng)) for _ in range(2)]
    res = cone.sasaki_residuals(sp, pairs)
    assert res.killing < 1e-6
    assert res.structure < 1e-6
    assert res.affine < 1e-6
    assert res.contact < 1e-6


def test_sasaki_equal_pair(fs_sphere, rng):
    sp = fs_sphere
    X = cone.random_tangent(sp, rng)
    res = cone.sasaki_residuals(sp, [(X, X)])
    assert res.killing < 1e-6  # reduces to 2 g(D_X sigma, X)


def test_sasaki_stu_lorentzian(stu_spheres, rng):
    for sp in stu_spheres:
        pairs = [(cone.random_tangent(sp, rng), cone.random_tangent(sp, rng)) for _ in range(2)]
        res = cone.sasaki_residuals(sp, pairs)
        assert res.killing < 1e-4
        assert res.structure < 1e-4
        assert res.affine < 1e-4
        assert res.contact < 1e-4


def test_sasaki_residuals_keep_nan_from_a_later_pair(stu_spheres, rng, monkeypatch):
    """Chart values of sigma and the omega pairing turn NaN from the second pair on."""
    sp = stu_spheres[0]
    pairs = [(cone.random_tangent(sp, rng), cone.random_tangent(sp, rng)) for _ in range(2)]
    calls = Counter()
    first_pair = {}

    def poisoned(name, real):
        def wrapped(self, *args):
            calls[name] += 1
            out = real(self, *args)
            return out * np.nan if calls[name] > first_pair.get(name, np.inf) else out

        return wrapped

    monkeypatch.setattr(geo.FlatChart, "sigma_flat", poisoned("sigma", geo.FlatChart.sigma_flat))
    monkeypatch.setattr(geo.DomainSample, "omega_form", poisoned("omega", geo.DomainSample.omega_form))
    cone.sasaki_residuals(sp, pairs[:1])
    first_pair.update(calls)
    calls.clear()
    res = cone.sasaki_residuals(sp, pairs)
    assert all(np.isnan(v) for v in (res.killing, res.structure, res.affine, res.contact))


def test_affine_sasaki_matches_dnabla_j(stu_spheres, rng):
    # Prop-style equivalence: both residuals small on the same points
    for sp in stu_spheres:
        assert geo.dnabla_J_residual(sp.chart) < 1e-5
        pair = (cone.random_tangent(sp, rng), cone.random_tangent(sp, rng))
        assert cone.sasaki_residuals(sp, [pair]).affine < 1e-4


# ---------------------------------------------------------------------------
# Hamiltonian field
# ---------------------------------------------------------------------------


def test_hamiltonian_fs(fs_sphere):
    sp = fs_sphere
    assert cone.hamiltonian_field_residual(sp.domain) < 1e-8


def test_hamiltonian_projection_idempotent(fs_sphere):
    sp = fs_sphere
    ast = sp.chart.ast
    rescaled = cone.project_to_sphere(ast, 3.7 * sp.u)
    a = cone.hamiltonian_field_residual(sp.domain)
    b = cone.hamiltonian_field_residual(rescaled.domain)
    assert abs(a - b) < 1e-10


def test_hamiltonian_stu_both_branches(stu_spheres):
    for sp in stu_spheres:
        assert cone.hamiltonian_field_residual(sp.domain) < 1e-5


def test_hamiltonian_with_callable_potential(fs_sphere):
    sp = fs_sphere
    ast = sp.chart.ast

    def k_squared(w_real):
        return geo.kahler_potential(ast, geo.to_complex(w_real)) ** 2

    assert cone.hamiltonian_field_residual(sp.domain, potential=k_squared) < 1e-6


# ---------------------------------------------------------------------------
# warped product identities
# ---------------------------------------------------------------------------


def test_warped_r_one_reduces_to_gauss(stu_spheres, rng):
    sp, _ = stu_spheres
    X = cone.random_tangent(sp, rng)
    Y = cone.random_tangent(sp, rng)
    assert cone.warped_product_residuals(sp, 1.0, X, Y) < 1e-6
    assert cone.warped_position_residual(sp, 1.0, X) < 1e-6


def test_warped_fs_scaled(fs_sphere, rng):
    sp = fs_sphere
    X = cone.random_tangent(sp, rng)
    Y = cone.random_tangent(sp, rng)
    assert cone.warped_product_residuals(sp, 3.0, X, Y) < 1e-6
    assert cone.warped_position_residual(sp, 3.0, X) < 1e-6


def test_warped_position_property_all_radii(stu_spheres, rng):
    _, sp = stu_spheres
    X = cone.random_tangent(sp, rng)
    for r in (0.5, 2.0):
        assert cone.warped_position_residual(sp, r, X) < 1e-6


def test_warped_rejects_nonpositive_radius(stu_spheres, rng):
    sp, _ = stu_spheres
    X = cone.random_tangent(sp, rng)
    with pytest.raises(ValueError):
        cone.warped_product_residuals(sp, -1.0, X, X)


def test_cone_isometry_metric_scaling(stu, stu_spheres, rng):
    # g_{ru}(rX, rY) = r^2 g_u(X, Y) via constancy of Im d2F on rays
    sp, _ = stu_spheres
    r = 2.7
    X = cone.random_tangent(sp, rng)
    scaled = geo.domain_sample(stu, r * sp.u)
    lhs = (r * X) @ scaled.g @ (r * X)
    rhs = r**2 * sp.domain.g_form(X, X)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))
