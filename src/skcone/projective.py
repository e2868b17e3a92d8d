"""The projective metric on the orbit space and the submersion checks.

The quotient metric is evaluated through its defining formula

    gbar(X) = g(X, X) / g(u, u) - | h(X, xi) / h(xi, xi) |^2

without ever forming the projection differential; the mixed term uses the
complex modulus of the Hermitian pairing, which is what makes the formula
descend to the orbit space.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InadmissiblePoint
from .expr import PrepotentialAst, max_or_nan, parse_prepotential
from .geometry import DomainSample, domain_sample, to_complex, to_real

_LEVEL_TOL = 1e-8


def horizontal_project(dom: DomainSample, X) -> np.ndarray:
    """Component of X with h(xi, X) = 0 (the horizontal distribution) at the sample ``dom``.

    It removes the complex-linear projection of X onto the line through xi.
    """
    X = np.asarray(X, dtype=float)
    xi = dom.xi
    h_xx = dom.h_form(xi, xi)  # = 2k, real
    if abs(h_xx) < 2e-8:
        raise InadmissiblePoint("h(xi, xi) = 2k too small for horizontal projection")
    c = dom.h_form(X, xi) / h_xx
    return X - c.real * xi - c.imag * (dom.J @ xi)


def _gbar(dom: DomainSample, X, Y, hx: complex, hy: complex) -> float:
    """gbar(X, Y), with hx = h(X, xi) and hy = h(Y, xi) computed by the caller once per vector."""
    two_k = 2.0 * dom.k
    mixed = hx * np.conj(hy)
    return dom.g_form(X, Y) / two_k - float(np.real(mixed)) / two_k**2


def _gbar_of(dom: DomainSample, X) -> float:
    """gbar(X, X), with h(X, xi) computed once."""
    hx = dom.h_form(X, dom.xi)
    return _gbar(dom, X, X, hx, hx)


def projective_metric(ast: PrepotentialAst, u, X) -> float:
    """gbar evaluated on (the projection of) X at the orbit of u."""
    return projective_metric_values(domain_sample(ast, u), [X])[0]


def projective_metric_values(dom: DomainSample, vectors) -> list:
    """gbar(X, X) for each X in ``vectors``, all from the one sample ``dom``."""
    return [_gbar_of(dom, np.asarray(X, dtype=float)) for X in vectors]


def submersion_residual(dom: DomainSample, X) -> float:
    """| gbar(X) - kappa g(X, X) | for horizontal X tangent to S at the sample ``dom`` of a point u of S.

    kappa = +1 is the semi-Riemannian submersion statement at c = 1/2;
    kappa = -1 is the anti-isometry branch.
    """
    if abs(abs(dom.k) - 0.5) > _LEVEL_TOL:
        raise InadmissiblePoint(f"|k(u)| = {abs(dom.k):.6f}, point not on S")
    X = np.asarray(X, dtype=float)
    scale = 1.0 + float(X @ X)
    if abs(dom.h_form(dom.xi, X)) > 1e-6 * scale:
        raise ValueError("X is not horizontal: h(xi, X) != 0")
    kappa = 1.0 if dom.k > 0 else -1.0
    return abs(_gbar_of(dom, X) - kappa * dom.g_form(X, X))


def pkm_vertical_residual(dom: DomainSample) -> float:
    """gbar must annihilate the vertical plane span(xi, J xi) at the sample ``dom``."""
    xi = dom.xi
    return max_or_nan(abs(_gbar_of(dom, xi)), abs(_gbar_of(dom, dom.J @ xi)))


def pkm_pullback_residual(dom: DomainSample, X) -> float:
    """|g_u(u,u) * gbar(X_h) - g(X_h, X_h)| on the horizontal part of TS, at the sample ``dom`` of u."""
    Xh = horizontal_project(dom, X)
    return abs(2.0 * dom.k * _gbar_of(dom, Xh) - dom.g_form(Xh, Xh))


def pkm_scale_residual(ast: PrepotentialAst, dom: DomainSample, X, lam: complex) -> float:
    """Invariance of gbar under u -> lam u, X -> lam X (lam in C^*), with ``dom`` the sample at u.

    Only the point lam u builds a sample.
    """
    X = np.asarray(X, dtype=float)
    (base,) = projective_metric_values(dom, [X])
    X_scaled = to_real(lam * to_complex(X))
    moved = projective_metric(ast, lam * dom.z, X_scaled)
    return abs(moved - base) / (1.0 + abs(base))


def horizontal_gram_determinant(dom: DomainSample, frame) -> float:
    """|det| of the gbar Gram matrix on a basis of the horizontal space at the sample ``dom`` of u.

    ``frame`` spans ker dk at u; its horizontal projections have one real
    relation (the sigma direction), which is dropped by rank reduction.
    """
    projected = np.array([horizontal_project(dom, T) for T in frame])
    q, r = np.linalg.qr(projected.T)
    keep = np.abs(np.diag(r)) > 1e-8
    basis = q.T[keep]
    h_xi = [dom.h_form(a, dom.xi) for a in basis]
    gram = np.array([[_gbar(dom, a, b, ha, hb) for b, hb in zip(basis, h_xi)] for a, ha in zip(basis, h_xi)])
    return abs(float(np.linalg.det(gram)))


# ---------------------------------------------------------------------------
# Fubini-Study comparison
# ---------------------------------------------------------------------------

def _fs_closed_form(u, X) -> float:
    u = np.asarray(u, dtype=complex)
    zx = to_complex(np.asarray(X, dtype=float))
    nu2 = float(np.real(np.vdot(u, u)))
    inner = complex(np.dot(zx, np.conj(u)))
    return float(np.real(np.vdot(zx, zx))) / nu2 - abs(inner) ** 2 / nu2**2


@functools.cache
def fs_prepotential(dim: int) -> PrepotentialAst:
    """The Fubini-Study prepotential i * (z0^2 + ... + z_{dim-1}^2), parsed once per dim."""
    terms = " + ".join(f"z{j}^2" for j in range(dim))
    return parse_prepotential(f"i*({terms})", dim)


@functools.cache
def fs_fitted_constant() -> float:
    """Scale between gbar for F = i sum z^2 and the closed Fubini-Study form.

    Fitted once on a fixed probe set and cached; reported in suite output.
    """
    ast = fs_prepotential(3)
    rng = np.random.default_rng(2024)
    num = 0.0
    den = 0.0
    for _ in range(8):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        X = rng.standard_normal(6)
        ours = projective_metric(ast, u, X)
        closed = _fs_closed_form(u, X)
        num += ours * closed
        den += closed * closed
    return num / den


def fubini_study_compare(u, X) -> float:
    """Residual between gbar of the quadratic prepotential and closed-form FS."""
    u = np.asarray(u, dtype=complex)
    ast = fs_prepotential(u.size)
    ours = projective_metric(ast, u, X)
    return abs(ours - fs_fitted_constant() * _fs_closed_form(u, X))
