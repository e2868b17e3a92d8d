"""The level hypersphere S = M_{1/2} and its affine/Sasaki structure.

All derivative checks run in the flat chart, where the ambient connection
is plain componentwise differentiation; Christoffel symbols of the cone
metric come from central differences of the pushforward of g.  Fields are
pushed through the inverse coordinate map at every stencil point, so the
residuals genuinely test the geometric identities instead of restating
their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetric, InadmissiblePoint, SkconeError
from .expr import PrepotentialAst, max_or_nan
# domain_sample and invert_flat_coords are not used here (a sphere's chart
# builds its domain sample); they stay in this module's namespace, whose
# bindings perfbench/selftest.py checks.
from .geometry import (  # noqa: F401
    FIELD_STEP,
    DomainSample,
    FlatChart,
    canonical_symplectic,
    chart_matrix_derivative,
    domain_sample,
    invert_flat_coords,
    invert_stencils,
    kahler_potential,
)
from .projective import fs_prepotential

# Global Hamiltonian sign, fixed once on the Fubini-Study case (see
# fit_hamiltonian_sign) and asserted for every other input.
HAMILTONIAN_SIGN = 1.0

_OUTER_STEP = 3e-4   # outer derivative of quantities that are themselves FD
# What forming a stencil direction can raise: a chart point that failed, a
# degenerate level tangent, a singular solve.
_STENCIL_ERRORS = (SkconeError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class SphereSample:
    """A point of S = M_{1/2} with its tangent frame and structure fields."""

    u: np.ndarray        # complex (m,), |k(u)| = 1/2
    kappa: int           # sign of k
    frame: np.ndarray    # (2n+1, 2m) Euclidean-orthonormal basis of ker dk
    E: np.ndarray        # Blaschke normal -kappa * xi
    sigma: np.ndarray    # J xi
    eta: np.ndarray      # contact covector omega(xi, .)
    g_ind: np.ndarray    # induced metric on the frame
    chart: FlatChart     # the flat chart seeded at u, which every residual at u runs on
    _scaled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def domain(self) -> DomainSample:
        return self.chart.base

    def scaled_chart(self, r: float) -> FlatChart:
        """The flat chart seeded at r·u, built once per r; it lives as long as the sphere sample."""
        chart = self._scaled.get(r)
        if chart is None:
            chart = self._scaled[r] = FlatChart(self.chart.ast, r * self.u)
        return chart

    @property
    def m(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class GaussSplit:
    tangential: np.ndarray
    normal_coeff: float


def _householder_complement(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to v (rows)."""
    n = v.size
    v = v / np.linalg.norm(v)
    w = v.copy()
    w[0] += 1.0 if v[0] >= 0 else -1.0
    H = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
    # H maps -sign(v0) e_0 to v, so columns 1..n-1 span the complement.
    return H[:, 1:].T


def project_to_sphere(ast: PrepotentialAst, z) -> SphereSample:
    """Radially project z onto S and assemble the sphere-level data."""
    z = np.asarray(z, dtype=complex)
    k = kahler_potential(ast, z)
    if abs(k) < 1e-12:
        raise InadmissiblePoint("cannot project a point with k = 0 onto S")
    r = (2.0 * abs(k)) ** -0.5
    u = r * z
    chart = FlatChart(ast, u)
    dom = chart.base
    kappa = 1 if dom.k > 0 else -1
    frame = _householder_complement(dom.dk)
    xi = dom.xi
    E = -kappa * xi
    sigma = dom.J @ xi
    eta = dom.eta()
    g_ind = frame @ dom.g @ frame.T
    return SphereSample(u=u, kappa=kappa, frame=frame, E=E, sigma=sigma,
                        eta=eta, g_ind=g_ind, chart=chart)


def random_tangent(sphere: SphereSample, rng) -> np.ndarray:
    """Euclidean-unit tangent vector drawn from the frame (seeded)."""
    coeff = rng.standard_normal(sphere.frame.shape[0])
    vec = sphere.frame.T @ coeff
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# Affine hypersphere checks
# ---------------------------------------------------------------------------


def direction_points(sphere: SphereSample, T) -> list:
    """The chart points at u of the derivative along the tangent vector T, bit for bit.

    :func:`gauss_split` (along X), :func:`shape_residual` and
    :func:`mean_curvature_residual` differentiate across them.
    """
    dom = sphere.domain
    return FlatChart.dir_points(dom.flat, dom.flat_jac @ np.asarray(T, dtype=float), FIELD_STEP)


def gauss_split(sphere: SphereSample, X, Y, step: float = FIELD_STEP) -> GaussSplit:
    """Split nabla_X Y along ker dk + span(E).

    Y is extended off S by level-set projection; its flat components are
    differentiated along X with central differences.  The normal
    coefficient should reproduce g(X, Y): that is the affine-sphere claim.
    """
    dom = sphere.domain
    chart = sphere.chart
    w0 = dom.flat
    Y0 = np.asarray(Y, dtype=float)
    X_flat = dom.flat_jac @ np.asarray(X, dtype=float)
    D = chart.dir_deriv(lambda w: chart.level_tangent_flat(w, Y0), w0, X_flat, step)
    V = np.linalg.solve(dom.flat_jac, D)
    dk_E = float(dom.dk @ sphere.E)
    if abs(dk_E) < 1e-10:
        raise DegenerateMetric("dk(E) vanished on the sphere sample")
    coeff = float(dom.dk @ V) / dk_E
    tangential = V - coeff * sphere.E
    return GaussSplit(tangential=tangential, normal_coeff=coeff)


def _shape_operator(sphere: SphereSample, T) -> np.ndarray:
    """A(T) = -nabla_T E for the Blaschke normal E = -kappa * xi."""
    dom = sphere.domain
    chart = sphere.chart
    kappa = float(sphere.kappa)
    D = chart.dir_deriv(lambda w: -kappa * chart.xi_flat(w), dom.flat, dom.flat_jac @ T, FIELD_STEP)
    return -np.linalg.solve(dom.flat_jac, D)


def shape_residual(sphere: SphereSample, X) -> float:
    """|(-nabla_X E) - kappa X|: the shape tensor is kappa * Id."""
    X = np.asarray(X, dtype=float)
    return float(np.linalg.norm(_shape_operator(sphere, X) - float(sphere.kappa) * X))


def mean_curvature_residual(sphere: SphereSample) -> float:
    """|trace(A)/(2n+1) - kappa| over the Euclidean-orthonormal frame."""
    sphere.chart.points([w for T in sphere.frame for w in direction_points(sphere, T)])
    trace = 0.0
    for T in sphere.frame:
        trace += float(T @ _shape_operator(sphere, T))
    return abs(trace / sphere.frame.shape[0] - float(sphere.kappa))


def blaschke_volume_residual(sphere: SphereSample) -> float:
    """Equiaffine volume normalization of the Blaschke normal.

    Compares |det_flat(E, frame)| converted to the metric volume of the
    ambient space against the metric volume of the induced metric.
    """
    dom = sphere.domain
    cols = [dom.flat_jac @ sphere.E] + [dom.flat_jac @ T for T in sphere.frame]
    det_flat = float(np.linalg.det(np.column_stack(cols)))
    c_vol = float(np.sqrt(abs(np.linalg.det(dom.flat_form(dom.g)))))
    rhs = float(np.sqrt(abs(np.linalg.det(sphere.g_ind))))
    return abs(abs(det_flat) * c_vol - rhs)


# ---------------------------------------------------------------------------
# Sasaki structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SasakiResiduals:
    killing: float
    structure: float
    affine: float
    contact: float


def _tangential(dom: DomainSample, V) -> np.ndarray:
    """g-orthogonal projection onto ker dk (equals the affine split)."""
    return V - (float(dom.dk @ V) / (2.0 * dom.k)) * dom.xi


def _level_derivative(chart: FlatChart, dom: DomainSample, Xf, Y, gamma0) -> np.ndarray:
    """Tangential Levi-Civita derivative at w0, along Xf, of the level-set extension of Y."""
    DXY = chart.lc_deriv(lambda w: chart.level_tangent_flat(w, Y), dom.flat, Xf, gamma0)
    return _tangential(dom, np.linalg.solve(dom.flat_jac, DXY))


def _sasaki_vectors(sphere: SphereSample, pairs) -> list:
    """(X, Y, Xc, Yc, Xf, Yf, Xcf, Ycf) per tangent pair: the pair, its projections along sigma onto ker eta, and their flat components."""
    jac0 = sphere.domain.flat_jac
    eta_sigma = float(sphere.eta @ sphere.sigma)
    vectors = []
    for X, Y in pairs:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        Xc = X - (float(sphere.eta @ X) / eta_sigma) * sphere.sigma
        Yc = Y - (float(sphere.eta @ Y) / eta_sigma) * sphere.sigma
        vectors.append((X, Y, Xc, Yc, jac0 @ X, jac0 @ Y, jac0 @ Xc, jac0 @ Yc))
    return vectors


def sasaki_gamma_points(sphere: SphereSample, pairs) -> list:
    """The Christoffel stencils of :func:`sasaki_residuals`' first stack, at w0 and the outer points, bit for bit."""
    w0, jac0 = sphere.domain.flat, sphere.domain.flat_jac
    outer = [w for X, _ in pairs for w in FlatChart.dir_points(w0, jac0 @ np.asarray(X, dtype=float), _OUTER_STEP)]
    return [p for w in (w0, *outer) for p in FlatChart.christoffel_points(w)]


def sasaki_direction_points(sphere: SphereSample, pairs) -> list:
    """The direction stencils at w0 of :func:`sasaki_residuals`' first stack, along Xf, Yf, Xcf and Ycf, bit for bit."""
    w0 = sphere.domain.flat
    return [w for *_, Xf, Yf, Xcf, Ycf in _sasaki_vectors(sphere, pairs)
            for direction in (Xf, Yf, Xcf, Ycf) for w in FlatChart.dir_points(w0, direction, FIELD_STEP)]


def _sasaki_second_points(chart: FlatChart, dom: DomainSample, vectors) -> list:
    """The direction stencils whose direction is a field at points of the first stack.

    These are the level tangent of Y at w0 and at the outer points, and the
    direction of Phi in the structure equation.  A direction that cannot be
    formed is left out; the residual loop then raises its error as it would
    without the hand-over.
    """
    w0 = dom.flat
    second = []
    for _, Y, _, _, Xf, *_ in vectors:
        for w in (w0, *FlatChart.dir_points(w0, Xf, _OUTER_STEP)):
            try:
                second += chart.dir_points(w, chart.level_tangent_flat(w, Y), FIELD_STEP)
            except _STENCIL_ERRORS:
                pass
        try:
            hat = _level_derivative(chart, dom, Xf, Y, chart.christoffel(w0))
            second += chart.dir_points(w0, dom.flat_jac @ hat, FIELD_STEP)
        except _STENCIL_ERRORS:
            pass
    return second


def sasaki_residuals(sphere: SphereSample, pairs) -> SasakiResiduals:
    """Residuals of the Sasaki identities for sigma = J xi on S.

    killing    Killing equation for sigma against the Levi-Civita connection
    structure  (D_X Phi)(Y) = kappa g(sigma, Y) X - g(X, Y) sigma
    affine     Phi = nabla-hat sigma (affine Sasaki condition)
    contact    d eta = 2 omega on ker eta

    Every chart point is inverted, in two stacks, before the residuals are
    differentiated, so they read memoised points.  The first stack holds the
    points that w0 and the pairs fix (:func:`sasaki_gamma_points` and
    :func:`sasaki_direction_points`, which a caller may have handed over
    already); the second, the direction stencils whose direction is a field
    at points of the first.
    """
    dom = sphere.domain
    chart = sphere.chart
    w0 = dom.flat
    jac0 = dom.flat_jac
    kappa = float(sphere.kappa)
    invert_stencils([(chart, sasaki_gamma_points(sphere, pairs)), (chart, sasaki_direction_points(sphere, pairs))])
    vectors = _sasaki_vectors(sphere, pairs)
    chart.points(_sasaki_second_points(chart, dom, vectors))
    gamma0 = chart.christoffel(w0)
    g_flat0 = chart.g_flat(w0)

    def lc_sigma(w, direction, gamma):
        return chart.lc_deriv(chart.sigma_flat, w, direction, gamma)

    def phi_at_u(vec_real):
        """Phi(W) = tangential Levi-Civita derivative of sigma along W."""
        Wf = jac0 @ vec_real
        V = np.linalg.solve(jac0, lc_sigma(w0, Wf, gamma0))
        return _tangential(dom, V)

    killing = 0.0
    structure = 0.0
    affine = 0.0
    contact = 0.0

    for X, Y, Xc, Yc, Xf, Yf, Xcf, Ycf in vectors:
        # Killing: g(D_X sigma, Y) + g(X, D_Y sigma) = 0 for tangent X, Y.
        DXs = lc_sigma(w0, Xf, gamma0)
        DYs = lc_sigma(w0, Yf, gamma0)
        killing = max_or_nan(killing, abs(float(DXs @ g_flat0 @ Yf + Xf @ g_flat0 @ DYs)))

        # Affine: flat derivative of sigma vs Levi-Civita derivative, both
        # projected tangentially (Phi = nabla-hat sigma).
        nabla_s = np.linalg.solve(jac0, chart.dir_deriv(chart.sigma_flat, w0, Xf, FIELD_STEP))
        lc_s = np.linalg.solve(jac0, DXs)
        affine = max_or_nan(affine, float(np.linalg.norm(_tangential(dom, nabla_s - lc_s))))

        # Structure tensor equation, with the covariant derivative of Phi
        # assembled from a nested chart difference.
        def q_flat(w):
            s = chart.sample(w)
            gamma_w = chart.christoffel(w)
            Yf_w = chart.level_tangent_flat(w, Y)
            Ds = lc_sigma(w, Yf_w, gamma_w)
            V = np.linalg.solve(s.flat_jac, Ds)
            return s.flat_jac @ _tangential(s, V)

        DXq = chart.lc_deriv(q_flat, w0, Xf, gamma0, step=_OUTER_STEP)
        term1 = _tangential(dom, np.linalg.solve(jac0, DXq))
        term2 = phi_at_u(_level_derivative(chart, dom, Xf, Y, gamma0))
        lhs = term1 - term2
        # Expanding (D-bar J) = 0 on the cone with J X = Phi X - eta(X) xi
        # puts kappa on both terms; for kappa = 1 this is the usual form.
        rhs = kappa * (dom.g_form(sphere.sigma, Y) * X - dom.g_form(X, Y) * sphere.sigma)
        structure = max_or_nan(structure, float(np.linalg.norm(lhs - rhs)))

        # Contact: d eta = 2 omega on ker eta.
        d1 = chart.dir_deriv(lambda w: np.array([chart.eta_flat(w) @ Ycf]), w0, Xcf, FIELD_STEP)
        d2 = chart.dir_deriv(lambda w: np.array([chart.eta_flat(w) @ Xcf]), w0, Ycf, FIELD_STEP)
        d_eta = float(d1[0] - d2[0])
        contact = max_or_nan(contact, abs(d_eta - 2.0 * dom.omega_form(Xc, Yc)))

    return SasakiResiduals(killing=killing, structure=structure,
                           affine=affine, contact=contact)


# ---------------------------------------------------------------------------
# Hamiltonian field and warped product
# ---------------------------------------------------------------------------


def _hamiltonian_field(dom: DomainSample, potential=None) -> tuple:
    """Flat components of the Hamiltonian field of ``potential`` and of 2k * sigma, sigma = J xi."""
    if potential is None:
        grad = 2.0 * dom.k * dom.dk
    else:
        # real-frame gradient of the potential, by central differences
        h = 1e-6 * (1.0 + float(np.linalg.norm(dom.xi)))
        grad = chart_matrix_derivative(potential, dom.xi, h)
    X_flat = canonical_symplectic(dom.m) @ np.linalg.solve(dom.flat_jac.T, grad)
    return X_flat, 2.0 * dom.k * (dom.flat_jac @ (dom.J @ dom.xi))


def hamiltonian_field_residual(dom: DomainSample, potential=None,
                               sign: float = HAMILTONIAN_SIGN) -> float:
    """Residual of sigma = J xi against the Hamiltonian field of k^2 at a point u of S.

    ``dom`` is the sample at u (a sphere sample's ``domain``); sigma is the
    sphere's field there, computed as :func:`project_to_sphere` does.

    The field X solves iota_X omega_can = d(potential) in flat coordinates,
    with omega_can the canonical Darboux matrix of the chart (the constant
    pushforward of omega, normalized).  The reference is sign * 2k * sigma;
    on S the factor 2k equals kappa, so one fitted global sign covers both
    metric branches.  ``potential`` defaults to k^2 with analytic gradient;
    a callable (real frame -> float) is differentiated numerically.
    """
    X_flat, ref = _hamiltonian_field(dom, potential)
    return float(np.linalg.norm(X_flat - sign * ref))


def fit_hamiltonian_sign(dim: int = 3) -> float:
    """Fit the global Hamiltonian sign on the Fubini-Study case."""
    z = np.full(dim, 0.4 + 0.3j, dtype=complex)
    X_flat, ref = _hamiltonian_field(project_to_sphere(fs_prepotential(dim), z).domain)
    return float(np.sign(X_flat @ ref))


def _scaled_direction(sphere: SphereSample, r: float, X) -> tuple:
    """The sphere's chart at r·u, its base sample, and X~ = r X there in flat components."""
    if r <= 0:
        raise ValueError("r must be positive")
    chart = sphere.scaled_chart(r)
    dom_p = chart.base
    return chart, dom_p, dom_p.flat_jac @ (r * np.asarray(X, dtype=float))


def warped_points(sphere: SphereSample, r: float, X) -> list:
    """The chart points at r·u that the warped identities differentiate across along X~ = r X, bit for bit."""
    chart, dom_p, Xt_flat = _scaled_direction(sphere, r, X)
    return chart.dir_points(dom_p.flat, Xt_flat, FIELD_STEP)


def warped_position_residual(sphere: SphereSample, r: float, X) -> float:
    """|nabla_{X~} xi - X~| at the scaled point r*u, with X~ = r * X (xi is the flat position field)."""
    chart, dom_p, Xt_flat = _scaled_direction(sphere, r, X)
    D = chart.dir_deriv(chart.xi_flat, dom_p.flat, Xt_flat, FIELD_STEP)
    V = np.linalg.solve(dom_p.flat_jac, D)
    return float(np.linalg.norm(V - r * np.asarray(X, dtype=float)))


def warped_product_residuals(sphere: SphereSample, r: float, X, Y) -> float:
    """Radial (warped product) identity at the scaled point r*u.

    nabla_{X~} Y~ at ru equals r * (nabla-hat_X Y + g(X, Y) E) from the Gauss
    data at u, for the homogeneous extensions X~(ru) = r X(u).  The position
    identity at ru is :func:`warped_position_residual`; both run on the
    sphere's one chart at r·u.
    """
    chart, dom_p, Xt_flat = _scaled_direction(sphere, r, X)
    Y = np.asarray(Y, dtype=float)

    def y_homog_flat(w):
        s = chart.sample(w)
        scale = float(np.sqrt(2.0 * abs(s.k)))
        denom = float(s.dk @ s.xi)
        Yl = Y - (float(s.dk @ Y) / denom) * s.xi
        return s.flat_jac @ (scale * Yl)

    D = chart.dir_deriv(y_homog_flat, dom_p.flat, Xt_flat, FIELD_STEP)
    V = np.linalg.solve(dom_p.flat_jac, D)
    split = gauss_split(sphere, X, Y)
    rhs = r * (split.tangential + split.normal_coeff * sphere.E)
    return float(np.linalg.norm(V - rhs))
