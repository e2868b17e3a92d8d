"""Pointwise special Kahler structures on a conic domain.

Conventions (recorded in every report header):

* real frame ordering is (Re z_0..Re z_n, Im z_0..Im z_n);
* flat special coordinates are (x_0..x_n, y_0..y_n) with x = Re z and
  y = Re dF/dz;
* the Hermitian form is h(X, Y) = Z(X)^T N conj(Z(Y)) with
  N = Im(d2F), realized on the real frame as h = g - 2i*omega, i.e.
  g = Re h and omega = -Im(h)/2.

With these choices Lemma-style identities h(xi,.) = 2 dbar k,
g(xi,.) = dk and g(xi,xi) = 2k hold simultaneously, and the pushforward
of omega to the flat chart is the constant matrix -(1/2) * J_can where
J_can is the canonical Darboux matrix of the (x, y) ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    DegenerateMetric,
    EvaluationSingularity,
    InadmissiblePoint,
    NoConvergence,
)
from .expr import PrepotentialAst, eval_jet

K_MIN_DEFAULT = 1e-8
DET_RTOL = 1e-12
FIELD_STEP = 1e-5   # first derivatives of fields along the chart
GAMMA_STEP = 1e-4   # derivatives of the pushforward of g (Christoffels)
CHART_STEP = 1e-4   # the domain checks' stencils along the flat chart


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def to_real(z) -> np.ndarray:
    """Complex m-vector -> real 2m-vector in (Re block, Im block) order."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag])


def to_complex(w) -> np.ndarray:
    """Inverse of :func:`to_real`; a stack of real points (P, 2m) gives (P, m)."""
    w = np.asarray(w, dtype=float)
    m = w.shape[-1] // 2
    return w[..., :m] + 1j * w[..., m:]


@cache
def complex_structure(m: int) -> np.ndarray:
    """The constant real matrix of multiplication by i, built once per m and shared read-only."""
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = -np.eye(m)
    J[m:, :m] = np.eye(m)
    J.flags.writeable = False
    return J


def canonical_symplectic(m: int) -> np.ndarray:
    """Matrix of sum_i dx_i ^ dy_i in the (x, y) block ordering."""
    S = np.zeros((2 * m, 2 * m))
    S[:m, m:] = np.eye(m)
    S[m:, :m] = -np.eye(m)
    return S


# ---------------------------------------------------------------------------
# Domain samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSample:
    """All pointwise geometry of the conic domain at z."""

    z: np.ndarray          # complex (m,)
    k: float
    dk: np.ndarray         # real covector (2m,)
    h: np.ndarray          # complex Hermitian (m, m); here = N (real symmetric)
    g: np.ndarray          # real symmetric (2m, 2m)
    omega: np.ndarray      # real antisymmetric (2m, 2m)
    J: np.ndarray          # real (2m, 2m), J^2 = -Id
    flat: np.ndarray       # (2m,)
    flat_jac: np.ndarray   # (2m, 2m)

    @property
    def m(self) -> int:
        return self.z.size

    @property
    def xi(self) -> np.ndarray:
        """Position vector field at z, in the real frame."""
        return to_real(self.z)

    def h_form(self, X, Y) -> complex:
        """Hermitian pairing of real-frame vectors."""
        zx = to_complex(np.asarray(X, dtype=float))
        zy = to_complex(np.asarray(Y, dtype=float))
        return complex(zx @ self.h @ np.conj(zy))

    def g_form(self, X, Y) -> float:
        return float(np.asarray(X) @ self.g @ np.asarray(Y))

    def omega_form(self, X, Y) -> float:
        return float(np.asarray(X) @ self.omega @ np.asarray(Y))

    def eta(self) -> np.ndarray:
        """Contact covector eta = omega(xi, .) in the real frame."""
        return self.omega.T @ self.xi

    def flat_form(self, M) -> np.ndarray:
        """Flat-chart components of the bilinear form with real-frame matrix M."""
        ji = np.linalg.inv(self.flat_jac)
        return ji.T @ M @ ji


def _dk_z(tau, f1, z):
    """Holomorphic Wirtinger gradient of k: dk/dz_j."""
    return -0.25j * (tau @ np.conj(z) - np.conj(f1))


def _k_of(jet, z) -> float:
    """k(z) from a jet of F at z of order >= 1."""
    return 0.5 * float(np.imag(np.dot(jet.deriv(1), np.conj(z))))


def _flat_jacobian(tau) -> np.ndarray:
    """Jacobian of the flat map (x, y) = (Re z, Re dF/dz) on the real frame.

    A stack of second-derivative matrices (P, m, m) gives a stack (P, 2m, 2m).
    """
    m = tau.shape[-1]
    jac = np.zeros(tau.shape[:-2] + (2 * m, 2 * m))
    jac[..., :m, :m] = np.eye(m)
    jac[..., m:, :m] = tau.real
    jac[..., m:, m:] = -np.imag(tau)
    return jac


def _flat_hessian_tensor(f3) -> np.ndarray:
    """Second derivatives of the flat map: [c, a, b] = d2 flat_c / dw_a dw_b."""
    m = f3.shape[0]
    hess = np.zeros((2 * m, 2 * m, 2 * m))
    re3, im3 = f3.real, f3.imag
    for j in range(m):
        hess[m + j, :m, :m] = re3[j]
        hess[m + j, :m, m:] = -im3[j]
        hess[m + j, m:, :m] = -im3[j]
        hess[m + j, m:, m:] = -re3[j]
    return hess


def kahler_potential(ast: PrepotentialAst, z) -> float:
    """k(z) = Im(sum_i dF/dz_i * conj(z_i)) / 2."""
    z = np.asarray(z, dtype=complex)
    return _k_of(eval_jet(ast, z, 1), z)


def domain_sample(ast: PrepotentialAst, z, k_min: float = K_MIN_DEFAULT,
                  jet=None) -> DomainSample:
    """Assemble the full pointwise structure; raises on inadmissible points.

    ``jet`` is a jet of F at z of order >= 2 to build from, in place of a
    fresh order-2 evaluation; :class:`FlatChart` passes Newton's last jet.
    """
    z = np.asarray(z, dtype=complex)
    m = ast.n_vars
    if jet is None:
        jet = eval_jet(ast, z, 2)
    f1 = jet.deriv(1)
    tau = jet.deriv(2)

    k = _k_of(jet, z)
    if abs(k) < k_min:
        raise InadmissiblePoint(f"|k| = {abs(k):.3e} below admissibility gate {k_min:.1e}")

    N = np.imag(tau)
    det_n = float(np.linalg.det(N))
    scale = max(1.0, float(np.linalg.norm(N)) ** m)
    if abs(det_n) < DET_RTOL * scale:
        raise DegenerateMetric(f"|det Im d2F| = {abs(det_n):.3e} below {DET_RTOL * scale:.3e}")

    dkz = _dk_z(tau, f1, z)
    dk = np.concatenate([2.0 * dkz.real, -2.0 * dkz.imag])

    g = np.zeros((2 * m, 2 * m))
    g[:m, :m] = N
    g[m:, m:] = N
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = 0.5 * N
    omega[m:, :m] = -0.5 * N
    J = complex_structure(m)

    flat = np.concatenate([z.real, f1.real])
    return DomainSample(z=z, k=k, dk=dk, h=N.astype(complex), g=g, omega=omega,
                        J=J, flat=flat, flat_jac=_flat_jacobian(tau))


# ---------------------------------------------------------------------------
# Flat chart as a coordinate system
# ---------------------------------------------------------------------------


def _solve_rows(jacs, res):
    """One Newton step per row of res; jacs is one matrix per row, or one for all rows.

    The stacked solve, or row by row once a matrix is singular.  Returns
    the steps and the indices of the rows whose matrix is singular.
    """
    try:
        return np.linalg.solve(jacs, res[:, :, None])[:, :, 0], []
    except np.linalg.LinAlgError:
        steps, singular = np.zeros_like(res), []
        for j, (jac, r) in enumerate(zip(np.broadcast_to(jacs, res.shape + res.shape[-1:]), res)):
            try:
                steps[j] = np.linalg.solve(jac, r)
            except np.linalg.LinAlgError:
                singular.append(j)
        return steps, singular


def _newton(ast: PrepotentialAst, targets, w, jet, max_steps: int = 50) -> list:
    """Newton-invert the flat map at every row of ``targets``, all starting from the real point w.

    ``jet`` is the order-2 jet at w, or None to evaluate it.  The rows run
    together, with one stacked jet and one stacked solve per step, but each
    row stops on its own tolerance 1e-12 * (1 + |target|).  Returns, per
    row, its converged real point with the order-2 jet there, or the error
    that stopped it; a failing row leaves the others as they would be alone.
    """
    targets = np.asarray(targets, dtype=float)
    tols = [1e-12 * (1.0 + math.sqrt(t.dot(t))) for t in targets]
    m = ast.n_vars
    W = np.tile(w, (len(targets), 1))
    out = [None] * len(targets)
    live = list(range(len(targets)))   # rows still stepping
    for _ in range(max_steps):
        if jet is None:
            stack = eval_jet(ast, to_complex(W[live]), 2)
            f1, tau, rows = stack.deriv(1), stack.deriv(2), range(len(live))
            if stack.singular:
                for j, exc in stack.singular.items():
                    out[live[j]] = NoConvergence(f"hit a singular point during Newton: {exc}")
                    out[live[j]].__cause__ = exc
                rows = [j for j in rows if j not in stack.singular]
                live, f1, tau = [live[j] for j in rows], f1[rows], tau[rows]
        else:  # the first step: every row is still at w
            f1, tau = jet.deriv(1)[None], jet.deriv(2)[None]
        res = W[live]              # the flat coordinates (x, Re dF/dz), minus the targets
        res[:, m:] = f1.real
        res -= targets[live]
        # The norm row by row, as np.linalg.norm computes it for a real vector:
        # a reduction along axis 1 sums in another order.
        stepping = []
        for j, (i, r) in enumerate(zip(live, res)):
            if math.sqrt(r.dot(r)) <= tols[i]:
                out[i] = (W[i], jet if jet is not None else stack.row(rows[j]))
            else:
                stepping.append(j)
        if len(stepping) < len(live):
            if not stepping:
                return out
            live, res = [live[j] for j in stepping], res[stepping]
            if jet is None:
                tau = tau[stepping]
        steps, singular = _solve_rows(_flat_jacobian(tau), res)
        finite = np.isfinite(steps).all(axis=1)
        if singular or not finite.all():
            for j, i in enumerate(live):
                if j in singular:
                    out[i] = DegenerateMetric("flat-coordinate Jacobian is singular")
                elif not finite[j]:
                    out[i] = DegenerateMetric("flat-coordinate Jacobian is numerically singular")
            kept = [j for j, i in enumerate(live) if out[i] is None]
            if not kept:
                return out
            live, steps = [live[j] for j in kept], steps[kept]
        W[live] -= steps
        jet = None
    for i in live:
        out[i] = NoConvergence(f"Newton did not reach tolerance {tols[i]:.1e} in {max_steps} steps")
    return out


def _inverted(hit):
    """A row of :func:`_newton`, or its error raised."""
    if isinstance(hit, Exception):
        raise hit
    return hit


def invert_flat_coords(ast: PrepotentialAst, target, z_init, max_steps: int = 50) -> np.ndarray:
    """Newton-invert the flat coordinate map near ``z_init``.

    Returns z with |flat(z) - target| <= 1e-12 * (1 + |target|).

    The one-row form of the stacked Newton loop, kept as the oracle that
    tests and the benchmark invert single points with; the checks invert
    their stencil points in stacks through :class:`FlatChart`, so a one-row
    call pays that loop's per-step bookkeeping and no suite or query calls it.
    """
    w0 = to_real(np.asarray(z_init, dtype=complex))
    return to_complex(_inverted(_newton(ast, [target], w0, None, max_steps)[0])[0])


def _central(field, w, dw, h) -> np.ndarray:
    """The one first-order stencil: (field(w + dw) - field(w - dw)) / 2h."""
    hi = np.asarray(field(w + dw), dtype=float)
    lo = np.asarray(field(w - dw), dtype=float)
    return (hi - lo) / (2.0 * h)


def _chart_step(w, step: float) -> float:
    """A stencil's step at chart point w: ``step`` scaled by 1 + |w|."""
    return step * (1.0 + float(np.linalg.norm(w)))


def _direction_stencil(w, direction, step: float) -> tuple:
    """(|direction|, h, dw) of the stencil w +- dw along ``direction``; dw is None for a zero direction."""
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return norm, None, None
    h = _chart_step(w, step)
    return norm, h, h * (direction / norm)


def _axis_stencil(w0, step: float) -> np.ndarray:
    """The 2n points :func:`chart_matrix_derivative` evaluates its field at, bit for bit."""
    dw = step * np.eye(w0.size)
    return np.concatenate([w0 + dw, w0 - dw])


def chart_matrix_derivative(field, w0, step: float) -> np.ndarray:
    """Central differences of a (scalar, vector or matrix) field along every axis.

    Returns D with D[a] = d(field)/dw_a at w0.
    """
    return np.stack([_central(field, w0, step * e, step) for e in np.eye(w0.size)])


class FlatChart:
    """The flat chart around a seed point: every chart point Newton-inverted.

    The seed's order-2 jet is evaluated once and starts every inversion.
    Each chart point w is memoised by ``w.tobytes()`` as its converged z
    with Newton's last jet, and its :class:`DomainSample` is built from that
    jet, so a chart point costs no jet beyond its Newton steps.  The chart
    also carries the fields the checks differentiate, in flat components,
    and their chart derivatives.  :meth:`dir_points`,
    :meth:`christoffel_points`, :meth:`axis_points` and
    :meth:`hessian_points` give the points of the derivative stencils, so
    that a caller can hand many stencils to :meth:`points` as one stack
    before it differentiates.
    """

    def __init__(self, ast: PrepotentialAst, seed_z):
        seed = np.asarray(seed_z, dtype=complex)
        self.ast = ast
        self._seed_w = to_real(seed)
        self._seed_jet = eval_jet(ast, seed, 2)
        self.base = domain_sample(ast, seed, jet=self._seed_jet)
        self._points = {}
        self._samples = {}
        self._gammas = {}

    def points(self, W) -> None:
        """Newton-invert, all at once, every chart point (row of W) not yet memoised.

        Each row converges exactly as it would alone.  A row that fails is
        not memoised, so :meth:`point` raises its error when it is asked for.
        """
        todo = {}
        for w in W:
            key = w.tobytes()
            if key not in self._points:
                todo.setdefault(key, w)
        if todo:
            hits = _newton(self.ast, list(todo.values()), self._seed_w, self._seed_jet)
            done = [(key, hit) for key, hit in zip(todo, hits) if not isinstance(hit, Exception)]
            if done:
                zs = to_complex(np.array([w for _, (w, _) in done]))
                for (key, (_, jet)), z in zip(done, zs):
                    self._points[key] = (z, jet)

    def point(self, w):
        """The Newton-inverted z of chart point w, with the order-2 jet of F at z."""
        key = w.tobytes()
        hit = self._points.get(key)
        if hit is None:
            w_conv, jet = _inverted(_newton(self.ast, [w], self._seed_w, self._seed_jet)[0])
            hit = self._points[key] = (to_complex(w_conv), jet)
        return hit

    def k(self, w) -> float:
        z, jet = self.point(w)
        return _k_of(jet, z)

    def sample(self, w) -> DomainSample:
        key = w.tobytes()
        hit = self._samples.get(key)
        if hit is None:
            z, jet = self.point(w)
            hit = self._samples[key] = domain_sample(self.ast, z, jet=jet)
        return hit

    def g_flat(self, w) -> np.ndarray:
        s = self.sample(w)
        return s.flat_form(s.g)

    def omega_flat(self, w) -> np.ndarray:
        s = self.sample(w)
        return s.flat_form(s.omega)

    def J_flat(self, w) -> np.ndarray:
        s = self.sample(w)
        return s.flat_jac @ s.J @ np.linalg.inv(s.flat_jac)

    def eta_flat(self, w) -> np.ndarray:
        s = self.sample(w)
        return np.linalg.solve(s.flat_jac.T, s.eta())

    def xi_flat(self, w) -> np.ndarray:
        s = self.sample(w)
        return s.flat_jac @ s.xi

    def sigma_flat(self, w) -> np.ndarray:
        s = self.sample(w)
        return s.flat_jac @ (s.J @ s.xi)

    def level_tangent_flat(self, w, Y0) -> np.ndarray:
        """Level-set projection of the constant vector Y0, in flat components."""
        s = self.sample(w)
        denom = float(s.dk @ s.xi)
        if abs(denom) < 1e-10:
            raise DegenerateMetric("dk(xi) = 2k vanished during tangent extension")
        Yl = Y0 - (float(s.dk @ Y0) / denom) * s.xi
        return s.flat_jac @ Yl

    @staticmethod
    def dir_points(w, direction, step) -> list:
        """The points :meth:`dir_deriv` evaluates its field at, bit for bit; none for a zero direction."""
        _, _, dw = _direction_stencil(w, direction, step)
        return [] if dw is None else [w + dw, w - dw]

    def dir_deriv(self, field, w, direction, step) -> np.ndarray:
        """Central difference of a chart field along ``direction``."""
        norm, h, dw = _direction_stencil(w, direction, step)
        if dw is None:
            return np.zeros_like(np.asarray(field(w), dtype=float))
        self.points([w + dw, w - dw])
        return _central(field, w, dw, h) * norm

    @staticmethod
    def axis_points(w) -> list:
        """The 2·2m points the domain checks' axis stencil evaluates its field at, bit for bit.

        :func:`dnabla_J_residual`, :func:`omega_parallel_residual` and
        :func:`d_eta_residual` share it.
        """
        return list(_axis_stencil(w, _chart_step(w, CHART_STEP)))

    @staticmethod
    def hessian_points(w) -> list:
        """The centre, the 2·2m axis points and the cross points of :func:`flat_hessian_fd`, bit for bit."""
        n = w.size
        e = CHART_STEP * np.eye(n)
        plus, minus = w + e, w - e
        cross = [v for a in range(n) for b in range(a + 1, n)
                 for v in (plus[a] + e[b], plus[a] - e[b], minus[a] + e[b], minus[a] - e[b])]
        return [w, *plus, *minus, *cross]

    @staticmethod
    def christoffel_points(w) -> list:
        """The centre and the 2·2m axis points :meth:`christoffel` evaluates g_flat at, bit for bit."""
        return [w, *_axis_stencil(w, _chart_step(w, GAMMA_STEP))]

    def christoffel(self, w) -> np.ndarray:
        """Gamma^c_{ab} of the cone metric in flat coordinates, memoised per chart point (read-only)."""
        key = w.tobytes()
        gamma = self._gammas.get(key)
        if gamma is None:
            self.points(self.christoffel_points(w))
            dg = chart_matrix_derivative(self.g_flat, w, _chart_step(w, GAMMA_STEP))
            g_inv = np.linalg.inv(self.g_flat(w))
            # bracket[d, a, b] = d_a g_{db} + d_b g_{da} - d_d g_{ab}
            bracket = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (2, 0, 1)) - dg
            gamma = self._gammas[key] = np.einsum("cd,dab->cab", 0.5 * g_inv, bracket)
            gamma.flags.writeable = False
        return gamma

    def lc_deriv(self, field, w, direction, gamma, step=FIELD_STEP) -> np.ndarray:
        """Levi-Civita directional derivative of a flat-components field."""
        partial = self.dir_deriv(field, w, direction, step)
        return partial + np.einsum("cab,a,b->c", gamma, direction, field(w))


def _k_real_hessian(sample: DomainSample, f3) -> np.ndarray:
    """Real-frame Hessian of k, assembled from the third derivatives of F."""
    z = sample.z
    m = sample.m
    # A_jl = d2k/dz_j dz_l = (1/4i) sum_i F3_ijl conj(z_i);  B = N/2 is real.
    A = -0.25j * np.einsum("ijl,i->jl", f3, np.conj(z))
    N = np.real(sample.h)
    H = np.zeros((2 * m, 2 * m))
    H[:m, :m] = 2.0 * A.real + N
    H[:m, m:] = -2.0 * A.imag
    H[m:, :m] = -2.0 * A.imag
    H[m:, m:] = -2.0 * A.real + N
    return H


def flat_hessian_of_k(ast: PrepotentialAst, z) -> np.ndarray:
    """Hessian of k with respect to the flat chart (analytic chain rule)."""
    z = np.asarray(z, dtype=complex)
    jet = eval_jet(ast, z, 3)
    s = domain_sample(ast, z, jet=jet)
    f3 = jet.deriv(3)
    H_w = _k_real_hessian(s, f3)
    jac_inv = np.linalg.inv(s.flat_jac)
    grad_flat = jac_inv.T @ s.dk
    corrected = H_w - np.einsum("c,cab->ab", grad_flat, _flat_hessian_tensor(f3))
    return jac_inv.T @ corrected @ jac_inv


def flat_hessian_fd(chart: FlatChart) -> np.ndarray:
    """Finite-difference oracle for :func:`flat_hessian_of_k` at the chart's seed.

    Central second differences of k along the flat chart, with every chart
    point Newton-inverted through ``chart``.
    """
    w0 = chart.base.flat
    n = w0.size
    points = chart.hessian_points(w0)
    chart.points(points)
    plus, minus, cross = points[1:n + 1], points[n + 1:2 * n + 1], iter(points[2 * n + 1:])
    k_at = chart.k

    k0 = k_at(w0)
    H = np.zeros((n, n))
    for a in range(n):
        H[a, a] = (k_at(plus[a]) - 2.0 * k0 + k_at(minus[a])) / CHART_STEP**2
        for b in range(a + 1, n):
            pp, pm, mp, mm = (k_at(next(cross)) for _ in range(4))
            H[a, b] = H[b, a] = (pp - pm - mp + mm) / (4.0 * CHART_STEP**2)
    return H


# ---------------------------------------------------------------------------
# Residual checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MongeAmpereReport:
    values: tuple
    rel_spread: float
    skipped: tuple


def det_spread(hessian_of, points) -> MongeAmpereReport:
    """|det hessian_of(p)| over points, and its relative spread.

    Points whose Hessian is inadmissible, degenerate or singular are
    skipped and reported by their index in ``points``.
    """
    values = []
    skipped = []
    for idx, p in enumerate(points):
        try:
            values.append(abs(float(np.linalg.det(hessian_of(p)))))
        except (InadmissiblePoint, DegenerateMetric, EvaluationSingularity):
            skipped.append(idx)
    if len(values) < 2:
        return MongeAmpereReport(tuple(values), 0.0, tuple(skipped))
    arr = np.array(values)
    rel = float((arr.max() - arr.min()) / arr.mean())
    return MongeAmpereReport(tuple(values), rel, tuple(skipped))


def lemma1_residuals(chart: FlatChart) -> dict:
    """Residuals of h(xi,.) = 2 dbar k, g(xi,.) = dk, g(xi,xi) = 2k at the chart's seed.

    They read the chart's base sample and its seed jet, so they cost no jet.
    """
    s = chart.base
    jet = chart._seed_jet
    zc = s.z
    dkz = _dk_z(jet.deriv(2), jet.deriv(1), zc)
    h_xi = s.h @ zc                        # components of h(xi, .) in dzbar
    r1 = float(np.linalg.norm(h_xi - 2.0 * np.conj(dkz)))
    xi = s.xi
    r2 = float(np.linalg.norm(s.g @ xi - s.dk))
    r3 = abs(float(xi @ s.g @ xi) - 2.0 * s.k)
    return {"r1": r1, "r2": r2, "r3": r3}


def xi_flat_residual(chart: FlatChart) -> float:
    """Position-field check at the chart's seed: flat_jac . xi equals the flat coordinates."""
    s = chart.base
    return float(np.linalg.norm(s.flat_jac @ s.xi - s.flat)) / (1.0 + float(np.linalg.norm(s.flat)))


def metric_scaling_residual(chart: FlatChart, lam: float = 2.0) -> float:
    """Cone isometry at the chart's seed z: g_{lam z}(lam X, lam X) = lam^2 g_z(X, X).

    The seed's sample is the chart's base; only lam z builds a sample.
    """
    g0 = chart.base.g
    g1 = domain_sample(chart.ast, lam * chart.base.z).g
    scale = 1.0 + float(np.max(np.abs(g0)))
    return float(np.max(np.abs(g1 - g0))) / scale


def antisymmetrized_chart_derivative(field, w0, step: float) -> float:
    """max over (a, b, c) of |d_a field[c, b] - d_b field[c, a]|.

    Vanishing of this residual for the pushforward of J is the special
    Kahler condition in flat coordinates.
    """
    D = chart_matrix_derivative(field, w0, step)
    # D[a, c, b] = d_a J^c_b; antisymmetrize in (a, b).
    anti = D - np.transpose(D, (2, 1, 0))
    return float(np.max(np.abs(anti)))


def dnabla_J_residual(chart: FlatChart) -> float:
    """Residual of d^nabla J = 0, via the flat-chart parametrization of J."""
    w0 = chart.base.flat
    chart.points(chart.axis_points(w0))
    return antisymmetrized_chart_derivative(chart.J_flat, w0, _chart_step(w0, CHART_STEP))


def omega_parallel_residual(chart: FlatChart) -> float:
    """Max chart derivative of the pushforward of omega (should vanish)."""
    w0 = chart.base.flat
    chart.points(chart.axis_points(w0))
    return float(np.max(np.abs(chart_matrix_derivative(chart.omega_flat, w0, _chart_step(w0, CHART_STEP)))))


def d_eta_residual(chart: FlatChart) -> float:
    """Residual of d(eta) = 2*omega in the flat chart.

    eta = omega(xi, .) is realized as a chart covector field through the
    inverse coordinate map, so the check exercises both the parallelism of
    omega and the position-field property of xi.
    """
    s0 = chart.base
    chart.points(chart.axis_points(s0.flat))
    D = chart_matrix_derivative(chart.eta_flat, s0.flat, _chart_step(s0.flat, CHART_STEP))  # D[a, b] = d_a eta_b
    d_eta = D - D.T
    return float(np.max(np.abs(d_eta - 2.0 * s0.flat_form(s0.omega))))
