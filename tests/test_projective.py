import numpy as np
import pytest

import skcone.cone as cone
import skcone.projective as proj
from skcone import geometry as geo
from skcone.errors import InadmissiblePoint

from conftest import STU_BASE, STU_BASE_NEG


E1 = np.array([0.0, 1.0, 0.0, 0.0])
U0 = np.array([1.0, 0.0], dtype=complex)


def test_vertical_vectors_project_to_zero(fs2):
    dom = geo.domain_sample(fs2, U0)
    xi = dom.xi
    assert np.linalg.norm(proj.horizontal_project(dom, xi)) < 1e-12
    assert np.linalg.norm(proj.horizontal_project(dom, dom.J @ xi)) < 1e-12


def test_orthogonal_direction_unchanged(fs2):
    assert np.allclose(proj.horizontal_project(geo.domain_sample(fs2, U0), E1), E1, atol=1e-14)


def test_horizontal_projection_invariant(stu, rng):
    dom = geo.domain_sample(stu, STU_BASE)
    for _ in range(4):
        X = rng.standard_normal(8)
        Xh = proj.horizontal_project(dom, X)
        assert abs(dom.h_form(dom.xi, Xh)) <= 1e-10 * (1 + np.linalg.norm(Xh))


def test_projective_sample_bundle(stu, rng):
    X = rng.standard_normal(8)
    dom = geo.domain_sample(stu, STU_BASE)
    Xh = proj.horizontal_project(dom, X)
    assert abs(dom.h_form(dom.xi, Xh)) <= 1e-10 * (1 + np.linalg.norm(Xh))
    # gbar ignores the vertical component of the input direction
    assert proj.projective_metric(stu, STU_BASE, Xh) == pytest.approx(
        proj.projective_metric(stu, STU_BASE, X), abs=1e-12)


def test_projective_metric_spot_value(fs2):
    assert proj.projective_metric(fs2, U0, E1) == pytest.approx(1.0, abs=1e-14)


def test_projective_metric_vertical_degeneracy(fs2):
    xi = geo.to_real(U0)
    assert abs(proj.projective_metric(fs2, U0, xi)) < 1e-14


def test_projective_metric_scale_invariance(fs2, rng):
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    X = rng.standard_normal(4)
    base = proj.projective_metric(fs2, u, X)
    lam = 2.0
    scaled = proj.projective_metric(fs2, lam * u, lam * X)
    assert abs(scaled - base) < 1e-12 * (1 + abs(base))


def test_pi_invariance_complex_scaling(stu, rng):
    sp = cone.project_to_sphere(stu, STU_BASE + 0.05)
    X = cone.random_tangent(sp, rng)
    for lam in (1.3 * np.exp(0.9j), 0.4 * np.exp(-2.1j)):
        assert proj.pkm_scale_residual(stu, geo.domain_sample(stu, sp.u), X, lam) < 1e-9


# ---------------------------------------------------------------------------
# submersion
# ---------------------------------------------------------------------------


def test_submersion_fs(fs2, rng):
    sp = cone.project_to_sphere(fs2, np.array([1.0, 0.4 - 0.2j]))
    dom = geo.domain_sample(fs2, sp.u)
    for _ in range(3):
        X = proj.horizontal_project(dom, cone.random_tangent(sp, rng))
        assert proj.submersion_residual(dom, X) < 1e-10


def test_submersion_zero_vector(fs2):
    sp = cone.project_to_sphere(fs2, np.array([2.0, 0.0], dtype=complex))
    assert proj.submersion_residual(geo.domain_sample(fs2, sp.u), np.zeros(4)) == 0.0


def test_submersion_anti_isometry_branch(stu, rng):
    sp = cone.project_to_sphere(stu, STU_BASE_NEG + 0.03)
    assert sp.kappa == -1
    dom = geo.domain_sample(stu, sp.u)
    for _ in range(3):
        X = proj.horizontal_project(dom, cone.random_tangent(sp, rng))
        # gbar(X) must equal -g(X, X) on this branch
        gbar = proj.projective_metric(stu, sp.u, X)
        assert abs(gbar + sp.domain.g_form(X, X)) < 1e-6
        assert proj.submersion_residual(dom, X) < 1e-6


def test_submersion_rejects_nonhorizontal(stu):
    sp = cone.project_to_sphere(stu, STU_BASE)
    with pytest.raises(ValueError):
        proj.submersion_residual(geo.domain_sample(stu, sp.u), sp.sigma)


def test_submersion_rejects_off_level_points(stu):
    with pytest.raises(InadmissiblePoint):
        proj.submersion_residual(geo.domain_sample(stu, STU_BASE), np.zeros(8))


# ---------------------------------------------------------------------------
# invariants of the quotient formula
# ---------------------------------------------------------------------------


def test_pullback_identity_on_horizontal(stu, rng):
    sp = cone.project_to_sphere(stu, STU_BASE + 0.02j)
    dom = geo.domain_sample(stu, sp.u)
    for _ in range(3):
        X = cone.random_tangent(sp, rng)
        assert proj.pkm_pullback_residual(dom, X) < 1e-8


def test_vertical_kernel(stu):
    sp = cone.project_to_sphere(stu, STU_BASE)
    assert proj.pkm_vertical_residual(geo.domain_sample(stu, sp.u)) < 1e-10


def test_horizontal_gram_nondegenerate(stu):
    sp = cone.project_to_sphere(stu, STU_BASE)
    det = proj.horizontal_gram_determinant(geo.domain_sample(stu, sp.u), sp.frame)
    assert det > 1e-8


@pytest.mark.parametrize("base", [STU_BASE, STU_BASE_NEG])
def test_gbar_pairs_each_vector_with_xi_once(stu, base, monkeypatch):
    """h(X, xi) once per vector, and the values of the per-pair formula bit for bit."""
    sp = cone.project_to_sphere(stu, base + 0.03)
    dom = geo.domain_sample(stu, sp.u)
    xi, two_k = dom.xi, 2.0 * dom.k

    def gbar(X, Y):
        mixed = dom.h_form(X, xi) * np.conj(dom.h_form(Y, xi))
        return dom.g_form(X, Y) / two_k - float(np.real(mixed)) / two_k**2

    projected = np.array([proj.horizontal_project(dom, T) for T in sp.frame])
    q, r = np.linalg.qr(projected.T)
    basis = q.T[np.abs(np.diag(r)) > 1e-8]
    ref_det = abs(float(np.linalg.det(np.array([[gbar(a, b) for b in basis] for a in basis]))))
    ref_values = [gbar(X, X) for X in sp.frame]
    calls = []
    real = geo.DomainSample.h_form

    def counting(self, X, Y):
        calls.append(None)
        return real(self, X, Y)

    monkeypatch.setattr(geo.DomainSample, "h_form", counting)
    assert proj.horizontal_gram_determinant(dom, sp.frame) == ref_det
    assert len(calls) == 2 * len(sp.frame) + len(basis)   # two per projection, one per basis vector
    calls.clear()
    assert proj.projective_metric_values(dom, sp.frame) == ref_values
    assert len(calls) == len(sp.frame)


# ---------------------------------------------------------------------------
# Fubini-Study comparison
# ---------------------------------------------------------------------------


def test_fs_fitted_constant_is_one():
    assert abs(proj.fs_fitted_constant() - 1.0) < 1e-12


def test_fs_prepotential_is_parsed_once(monkeypatch):
    parses = []
    real = proj.parse_prepotential

    def counting(text, n_vars):
        parses.append((text, n_vars))
        return real(text, n_vars)

    monkeypatch.setattr(proj, "parse_prepotential", counting)
    proj.fs_prepotential.cache_clear()
    proj.fs_fitted_constant.cache_clear()
    u = np.array([0.9 + 0.2j, 0.3 - 0.4j, 0.1 + 0.2j])
    for X in np.eye(6)[:3]:
        assert proj.fubini_study_compare(u, X) < 1e-12
    cone.fit_hamiltonian_sign(3)
    assert parses == [("i*(z0^2 + z1^2 + z2^2)", 3)]


def test_fs_compare_spot(fs2):
    assert proj.fubini_study_compare(U0, E1) < 1e-12


def test_fs_compare_degenerate_direction():
    u = np.array([0.6 + 0.2j, -0.3 + 1.0j], dtype=complex)
    X = geo.to_real(u)
    assert proj.fubini_study_compare(u, X) < 1e-12


def test_fs_compare_random_dimension_three(rng):
    for _ in range(5):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        X = rng.standard_normal(6)
        assert proj.fubini_study_compare(u, X) < 1e-10
