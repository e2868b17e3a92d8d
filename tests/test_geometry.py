import numpy as np
import pytest

from skcone import geometry as geo
from skcone.errors import DegenerateMetric, InadmissiblePoint, NoConvergence
from skcone.expr import eval_jet, parse_prepotential

from conftest import STU_BASE, stu_points


def _stu_potential_direct(z):
    """Independent evaluation of k for the STU prepotential (hand-coded dF)."""
    z0, z1, z2, z3 = z
    grads = np.array([-z1 * z2 * z3 / z0**2, z2 * z3 / z0, z1 * z3 / z0, z1 * z2 / z0])
    return 0.5 * float(np.imag(np.dot(grads, np.conj(z))))


# ---------------------------------------------------------------------------
# Kahler potential
# ---------------------------------------------------------------------------


def test_fs_potential_is_norm_squared(fs3, rng):
    for _ in range(5):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert abs(geo.kahler_potential(fs3, z) - np.sum(np.abs(z) ** 2)) < 1e-12


def test_potential_scales_quadratically(stu):
    z = STU_BASE + 0.1
    k = geo.kahler_potential(stu, z)
    assert abs(geo.kahler_potential(stu, 2.0 * z) - 4.0 * k) < 1e-12 * abs(k)


def test_stu_potential_against_direct_formula(stu):
    z = np.array([1.0, 1j, 1j, 1j])
    assert geo.kahler_potential(stu, z) == pytest.approx(2.0, abs=1e-14)
    for z in stu_points(6):
        assert geo.kahler_potential(stu, z) == pytest.approx(
            _stu_potential_direct(z), abs=1e-12
        )


# ---------------------------------------------------------------------------
# Domain samples
# ---------------------------------------------------------------------------


def test_fs_domain_sample_closed_forms(fs2, rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    s = geo.domain_sample(fs2, z)
    assert np.allclose(s.h, 2.0 * np.eye(2), atol=1e-14)
    assert np.allclose(s.g, 2.0 * np.eye(4), atol=1e-14)
    assert np.allclose(s.flat, np.concatenate([z.real, -2.0 * z.imag]), atol=1e-14)
    assert np.allclose(s.J @ s.J, -np.eye(4), atol=0)
    # omega(X, Y) = g(JX, Y)/2 under h = g - 2i omega
    assert np.allclose(s.omega, 0.5 * s.J.T @ s.g, atol=1e-14)


def test_fs_real_point_has_zero_y(fs2):
    z = np.array([0.7, -1.2], dtype=complex)
    s = geo.domain_sample(fs2, z)
    assert np.allclose(s.flat[2:], 0.0, atol=0)


def test_domain_sample_invariants(stu):
    for z in stu_points(4):
        s = geo.domain_sample(stu, z)
        assert np.allclose(s.h, np.conj(s.h).T, atol=1e-13)
        assert np.allclose(s.g, s.g.T, atol=1e-13)
        assert np.allclose(s.omega, -s.omega.T, atol=1e-13)
        assert np.max(np.abs(s.omega - 0.5 * s.J.T @ s.g)) < 1e-12


def test_domain_samples_share_one_read_only_complex_structure(stu):
    a, b = (geo.domain_sample(stu, z) for z in stu_points(2))
    assert a.J is b.J is geo.complex_structure(4)
    assert not a.J.flags.writeable


def test_stu_flat_jacobian_invertible(stu):
    s = geo.domain_sample(stu, np.array([1.0, 1j, 1j, 1j]))
    assert np.isfinite(np.linalg.cond(s.flat_jac))
    assert abs(np.linalg.det(s.flat_jac)) > 1e-6


def test_flat_jacobian_matches_finite_differences(stu):
    z = stu_points(1, seed=9)[0]
    s = geo.domain_sample(stu, z)
    w0 = geo.to_real(z)
    step = 1e-6
    fd = np.zeros_like(s.flat_jac)
    for a in range(8):
        e = np.zeros(8)
        e[a] = step
        hi = geo.domain_sample(stu, geo.to_complex(w0 + e)).flat
        lo = geo.domain_sample(stu, geo.to_complex(w0 - e)).flat
        fd[:, a] = (hi - lo) / (2 * step)
    assert np.max(np.abs(fd - s.flat_jac)) < 1e-7


def test_flat_hessian_tensor_matches_finite_differences(stu):
    z = stu_points(1, seed=11)[0]
    hess = geo._flat_hessian_tensor(eval_jet(stu, z, 3).deriv(3))
    w0 = geo.to_real(z)
    step = 1e-5
    for a in range(8):
        e = np.zeros(8)
        e[a] = step
        hi = geo.domain_sample(stu, geo.to_complex(w0 + e)).flat_jac
        lo = geo.domain_sample(stu, geo.to_complex(w0 - e)).flat_jac
        fd = (hi - lo) / (2 * step)  # fd[c, b] = d2 flat_c / dw_b dw_a
        assert np.max(np.abs(fd - hess[:, :, a])) < 1e-8


def test_inadmissible_point_raises(stu):
    # k vanishes at (1, 1, i, i)
    with pytest.raises(InadmissiblePoint):
        geo.domain_sample(stu, np.array([1.0, 1.0, 1j, 1j]))


def test_degenerate_metric_raises():
    ast = parse_prepotential("i*z0^2", 2)
    with pytest.raises(DegenerateMetric):
        geo.domain_sample(ast, np.array([1.0, 1.0], dtype=complex))


# ---------------------------------------------------------------------------
# chart inversion
# ---------------------------------------------------------------------------


def test_invert_fixed_point(stu):
    z0 = STU_BASE + 0.05
    target = geo.domain_sample(stu, z0).flat
    assert np.allclose(geo.invert_flat_coords(stu, target, z0), z0, atol=1e-12)


def test_invert_fs_closed_form(fs2):
    target = np.array([0.3, -1.1, 0.8, 0.4])
    z = geo.invert_flat_coords(fs2, target, np.array([0.1, 0.1], dtype=complex))
    expected = target[:2] - 0.5j * target[2:]
    assert np.allclose(z, expected, atol=1e-12)


def test_invert_no_convergence(stu):
    target = np.full(8, 1e7)
    with pytest.raises((NoConvergence, DegenerateMetric)):
        geo.invert_flat_coords(stu, target, np.array([1.0, 1j, 1j, 1j]))


# ---------------------------------------------------------------------------
# Hessian of k in the flat chart
# ---------------------------------------------------------------------------


def test_fs_flat_hessian_block_diagonal(fs2, rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    H = geo.flat_hessian_of_k(fs2, z)
    assert np.allclose(H, np.diag([2.0, 2.0, 0.5, 0.5]), atol=1e-10)


def test_flat_hessian_is_pushforward_of_g(stu):
    for z in stu_points(5, seed=13):
        s = geo.domain_sample(stu, z)
        H = geo.flat_hessian_of_k(stu, z)
        assert np.max(np.abs(H - H.T)) < 1e-10
        ji = np.linalg.inv(s.flat_jac)
        assert np.max(np.abs(H - ji.T @ s.g @ ji)) < 1e-8


def test_flat_hessian_fd_oracle(stu, fs3, rng):
    z = stu_points(1, seed=17)[0]
    H = geo.flat_hessian_of_k(stu, z)
    Hfd = geo.flat_hessian_fd(geo.FlatChart(stu, z))
    assert np.max(np.abs(H - Hfd)) / np.max(np.abs(H)) < 1e-5
    z3 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.max(np.abs(geo.flat_hessian_of_k(fs3, z3) - geo.flat_hessian_fd(geo.FlatChart(fs3, z3)))) < 1e-5


# ---------------------------------------------------------------------------
# Monge-Ampere
# ---------------------------------------------------------------------------


def test_fs_hessian_determinant_is_one(fs2, rng):
    samples = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(5)]
    rep = geo.det_spread(lambda z: geo.flat_hessian_of_k(fs2, z), samples)
    assert rep.rel_spread < 1e-10
    assert all(abs(v - 1.0) < 1e-10 for v in rep.values)


def test_stu_hessian_determinant_constant(stu):
    rep = geo.det_spread(lambda z: geo.flat_hessian_of_k(stu, z), stu_points(30, seed=23))
    assert rep.rel_spread < 1e-6
    assert not rep.skipped


def test_single_sample_spread_is_zero(stu):
    rep = geo.det_spread(lambda z: geo.flat_hessian_of_k(stu, z), [STU_BASE])
    assert rep.rel_spread == 0.0
    assert len(rep.values) == 1


def test_inadmissible_samples_are_flagged(stu):
    samples = [np.array([1.0, 1.0, 1j, 1j]), STU_BASE]
    rep = geo.det_spread(lambda z: geo.flat_hessian_of_k(stu, z), samples)
    assert rep.skipped == (0,)


# ---------------------------------------------------------------------------
# Lemma-style identities and chart residuals
# ---------------------------------------------------------------------------


def test_lemma1_fs_exact(fs2):
    res = geo.lemma1_residuals(geo.FlatChart(fs2, np.array([1.0, 0.0], dtype=complex)))
    assert max(res.values()) < 1e-12


def test_lemma1_stu(stu):
    for z in stu_points(5, seed=29):
        k = geo.kahler_potential(stu, z)
        res = geo.lemma1_residuals(geo.FlatChart(stu, z))
        bound = 1e-9 * (1.0 + abs(k))
        assert res["r1"] < bound and res["r2"] < bound and res["r3"] < bound


def test_lemma1_scaled_point_stays_small(stu):
    z = STU_BASE + 0.07
    res = geo.lemma1_residuals(geo.FlatChart(stu, 2.0 * z))
    assert max(res.values()) < 1e-9 * (1.0 + 4.0 * abs(geo.kahler_potential(stu, z)))


def test_xi_is_flat_position_field(stu, fs3, rng):
    for z in stu_points(3, seed=31):
        assert geo.xi_flat_residual(geo.FlatChart(stu, z)) < 1e-10
    z3 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert geo.xi_flat_residual(geo.FlatChart(fs3, z3)) < 1e-10


def test_conic_metric_scaling(stu):
    for z in stu_points(3, seed=37):
        assert geo.metric_scaling_residual(geo.FlatChart(stu, z)) < 1e-10


def test_omega_parallel_in_flat_chart(stu):
    assert geo.omega_parallel_residual(geo.FlatChart(stu, STU_BASE + 0.03)) < 1e-6


def test_omega_flat_is_minus_half_darboux(stu):
    s = geo.domain_sample(stu, STU_BASE + 0.06)
    ji = np.linalg.inv(s.flat_jac)
    omega_flat = ji.T @ s.omega @ ji
    assert np.max(np.abs(omega_flat + 0.5 * geo.canonical_symplectic(4))) < 1e-12


def test_d_eta_equals_two_omega(stu, fs2, rng):
    assert geo.d_eta_residual(geo.FlatChart(stu, STU_BASE - 0.04j)) < 1e-5
    z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert geo.d_eta_residual(geo.FlatChart(fs2, z2)) < 1e-6


def test_dnabla_j_fs_constant(fs2, rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert geo.dnabla_J_residual(geo.FlatChart(fs2, z)) < 1e-10


def test_dnabla_j_stu(stu):
    for z in stu_points(3, seed=41):
        assert geo.dnabla_J_residual(geo.FlatChart(stu, z)) < 1e-5


def test_dnabla_j_negative_control(stu):
    """A non-parallel perturbation of J must blow past the tolerance."""
    z = STU_BASE + 0.02
    s = geo.domain_sample(stu, z)
    w0 = s.flat
    spike = np.zeros((8, 8))
    spike[2, 5] = 1.0

    def perturbed(w):
        sample = geo.domain_sample(stu, geo.invert_flat_coords(stu, w, z))
        J_flat = sample.flat_jac @ sample.J @ np.linalg.inv(sample.flat_jac)
        return J_flat + 0.1 * np.sin(w[0]) * spike

    h = 1e-4 * (1.0 + float(np.linalg.norm(w0)))
    residual = geo.antisymmetrized_chart_derivative(perturbed, w0, h)
    assert residual >= 10 * 1e-5


# ---------------------------------------------------------------------------
# parabolic immersion: the graph (flat, k) of a domain sample
# ---------------------------------------------------------------------------


def test_immersion_spot_value(fs2):
    s = geo.domain_sample(fs2, np.array([1.0, 0.0], dtype=complex))
    assert np.allclose(s.flat, [1, 0, 0, 0], atol=1e-14)
    assert abs(s.k - 1.0) < 1e-14


def test_immersion_last_component_quadruples(stu):
    z = STU_BASE + 0.09
    a = geo.domain_sample(stu, z)
    b = geo.domain_sample(stu, 2.0 * z)
    assert abs(b.k - 4.0 * a.k) < 1e-12 * abs(a.k)
