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
from dataclasses import dataclass, field
from functools import cache, cached_property

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
    """Complex m-vector -> real 2m-vector in (Re block, Im block) order; a stack (P, m) gives (P, 2m)."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


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


def _row_norms(R) -> np.ndarray:
    """Each row's norm bit for bit as ``np.linalg.norm(r)``: sqrt(re.re + im.im) on strided views, not an axis sum."""
    sq = (R.real[:, None, :] @ R.real[:, :, None])[:, 0, 0]
    if R.dtype.kind == "c":
        sq = sq + (R.imag[:, None, :] @ R.imag[:, :, None])[:, 0, 0]
    return np.sqrt(sq)


def _mv(A, x) -> np.ndarray:
    """Matrix (stack) A times vector (stack) x as (P, n, n) @ (P, n, 1): each row is ``A[p] @ x[p]`` bit for bit."""
    return (A @ x[..., None])[..., 0]


@dataclass(frozen=True)
class DomainSample:
    """All pointwise geometry of the conic domain at z, or at every row of a stack of points.

    A sample stores what its admissibility gate computes: z, k, the first
    and second derivatives f1 and tau of F, and N = Im tau.  Every other
    field is derived from these once, on first use, and cached; on a stack
    it is derived for all rows by one batched numpy call, whose rows equal
    the single-point calls bit for bit.  A stack has a leading point axis
    on every field, and ``rejected`` maps each row that failed the gate to
    the error the single-point build raises there; :meth:`row` and
    :meth:`admit` raise it.  A row is read through :meth:`row`, a view
    built through ``type(self)``: not a new sample, but the same floats.
    """

    z: np.ndarray          # complex (m,)
    k: float
    f1: np.ndarray         # complex (m,): dF/dz
    tau: np.ndarray        # complex symmetric (m, m): d2F/dz2
    N: np.ndarray          # real symmetric (m, m): Im tau
    rejected: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.z.shape[-1]

    def row(self, p: int) -> "DomainSample":
        """Row p of a stacked sample as a single-point sample; raises the row's error if it was rejected."""
        self.admit(p)
        return type(self)(z=self.z[p], k=float(self.k[p]), f1=self.f1[p], tau=self.tau[p], N=self.N[p])

    def take(self, rows) -> "DomainSample":
        """Rows ``rows`` (index array) of a stack as a stack deriving its fields over them alone, built as row(p) is."""
        index = {p: j for j, p in enumerate(rows.tolist())} if self.rejected else {}
        return type(self)(z=self.z[rows], k=self.k[rows], f1=self.f1[rows], tau=self.tau[rows], N=self.N[rows],
                          rejected={index[p]: err for p, err in self.rejected.items() if p in index})

    def admit(self, p: int) -> None:
        """Raise the error of row p if the gate, or a singular flat Jacobian, rejected it."""
        err = self.rejected.get(p)
        if err is not None:
            raise err.with_traceback(None)

    @cached_property
    def xi(self) -> np.ndarray:
        """Position vector field at z, in the real frame."""
        return to_real(self.z)

    @property
    def J(self) -> np.ndarray:
        """Real (2m, 2m) matrix of multiplication by i, J^2 = -Id."""
        return complex_structure(self.m)

    @cached_property
    def h(self) -> np.ndarray:
        """Complex Hermitian (m, m) form; here = N (real symmetric)."""
        return self.N.astype(complex)

    @cached_property
    def g(self) -> np.ndarray:
        """Real symmetric (2m, 2m) metric."""
        m, N = self.m, self.N
        g = np.zeros(N.shape[:-2] + (2 * m, 2 * m))
        g[..., :m, :m] = N
        g[..., m:, m:] = N
        return g

    @cached_property
    def omega(self) -> np.ndarray:
        """Real antisymmetric (2m, 2m) Kahler form."""
        m, N = self.m, self.N
        omega = np.zeros(N.shape[:-2] + (2 * m, 2 * m))
        omega[..., :m, m:] = 0.5 * N
        omega[..., m:, :m] = -0.5 * N
        return omega

    @cached_property
    def dk(self) -> np.ndarray:
        """Real covector (2m,) dk."""
        dkz = _dk_z(self.tau, self.f1, self.z)
        return np.concatenate([2.0 * dkz.real, -2.0 * dkz.imag], axis=-1)

    @cached_property
    def flat(self) -> np.ndarray:
        """Flat coordinates (x, y) = (Re z, Re dF/dz), (2m,)."""
        return np.concatenate([self.z.real, self.f1.real], axis=-1)

    @cached_property
    def flat_jac(self) -> np.ndarray:
        """Jacobian (2m, 2m) of the flat map on the real frame; its determinant is +-det N."""
        return _flat_jacobian(self.tau)

    @cached_property
    def flat_jac_inv(self) -> np.ndarray:
        return self._admitted(np.linalg.inv, self.flat_jac)

    def _admitted(self, solve, *args) -> np.ndarray:
        """``solve`` (``np.linalg.inv`` or ``np.linalg.solve``) over the rows, never over a rejected one.

        One batched call when no row is rejected.  A batched LAPACK call
        raises for the whole stack if one matrix is singular, so otherwise
        the rows run one by one: a rejected row holds NaN, and a row that
        raises LinAlgError is rejected with it (the det N gate makes that
        unreachable in practice, as det flat_jac = +-det N).  A single
        point just raises.
        """
        if self.z.ndim == 1:
            return solve(*args)
        if not self.rejected:
            try:
                return solve(*args)
            except np.linalg.LinAlgError:
                pass
        out = np.full(args[-1].shape, np.nan)
        for p in range(len(out)):
            if p not in self.rejected:
                try:
                    out[p] = solve(*(a[p] for a in args))
                except np.linalg.LinAlgError as exc:
                    self.rejected[p] = exc
        return out

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
        return _mv(np.swapaxes(self.omega, -1, -2), self.xi)

    def flat_form(self, M) -> np.ndarray:
        """Flat-chart components of the bilinear form with real-frame matrix M."""
        ji = self.flat_jac_inv
        return np.swapaxes(ji, -1, -2) @ M @ ji

    # The fields the chart checks differentiate, in flat components.

    @cached_property
    def g_flat(self) -> np.ndarray:
        return self.flat_form(self.g)

    @cached_property
    def omega_flat(self) -> np.ndarray:
        return self.flat_form(self.omega)

    @cached_property
    def J_flat(self) -> np.ndarray:
        return self.flat_jac @ self.J @ self.flat_jac_inv

    @cached_property
    def eta_flat(self) -> np.ndarray:
        fj_t = np.swapaxes(self.flat_jac, -1, -2)
        return self._admitted(np.linalg.solve, fj_t, self.eta()[..., None])[..., 0]

    @cached_property
    def xi_flat(self) -> np.ndarray:
        return _mv(self.flat_jac, self.xi)

    @cached_property
    def sigma_flat(self) -> np.ndarray:
        return _mv(self.flat_jac, _mv(self.J, self.xi))


def _dk_z(tau, f1, z):
    """Holomorphic Wirtinger gradient of k: dk/dz_j (a stack of points gives a stack)."""
    return -0.25j * (_mv(tau, np.conj(z)) - np.conj(f1))


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
    """Gate the point z, or every row of a stack z (P, m), and store what the gate computes.

    ``jet`` is a jet of F at z of order >= 2 (stacked for a stack) to build
    from, in place of a fresh order-2 evaluation; :class:`FlatChart` passes
    Newton's.  A single point is gated as a stack of one, and raises if it
    is inadmissible; a stack never raises for a row, but maps it in
    ``rejected`` to the error that row raises alone.
    """
    z = np.asarray(z, dtype=complex)
    if jet is None:
        jet = eval_jet(ast, z, 2)
    single = z.ndim == 1
    Z, f1, tau = (z[None], jet.deriv(1)[None], jet.deriv(2)[None]) if single else (z, jet.deriv(1), jet.deriv(2))
    m = ast.n_vars
    rejected = dict(jet.singular)
    k = 0.5 * np.imag(f1[:, None, :] @ np.conj(Z)[:, :, None])[:, 0, 0]
    N = np.imag(tau)
    det_n = np.abs(np.linalg.det(N))
    # The scale max(1, |N|^m) with np.linalg.norm(N[p])'s arithmetic.  The
    # power stays Python's: numpy's array power differs from it in the last bit.
    bound = DET_RTOL * np.array([max(1.0, r ** m) for r in _row_norms(N.reshape(len(Z), -1)).tolist()])
    for p in np.flatnonzero((np.abs(k) < k_min) | (det_n < bound)).tolist():
        if p in rejected:
            continue
        if abs(k[p]) < k_min:
            rejected[p] = InadmissiblePoint(f"|k| = {abs(k[p]):.3e} below admissibility gate {k_min:.1e}")
        else:
            rejected[p] = DegenerateMetric(f"|det Im d2F| = {det_n[p]:.3e} below {bound[p]:.3e}")
    if not single:
        return DomainSample(z=z, k=k, f1=f1, tau=tau, N=N, rejected=rejected)
    if rejected:
        raise rejected[0]
    return DomainSample(z=z, k=float(k[0]), f1=f1[0], tau=tau[0], N=N[0])


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
    """Newton-invert the flat map at every row of ``targets``, from the real seed w of all rows or of each (P, 2m).

    ``jet`` is the order-2 jet at the seed (stacked for per-row seeds), or
    None to evaluate it.  The rows run together, with one stacked jet and
    one stacked solve per step, but each row stops on its own tolerance
    1e-12 * (1 + |target|).  Returns, per row, (w, jet, row): its converged
    point, the stacked jet of the step it converged at and its row there
    (``jet`` and None at a single seed); or the error that stopped the row,
    which leaves the others as they would be alone.
    """
    targets = np.asarray(targets, dtype=float)
    tols = 1e-12 * (1.0 + _row_norms(targets))
    m = ast.n_vars
    W = np.array(np.broadcast_to(w, targets.shape))
    out = [None] * len(targets)
    live = np.arange(len(targets))   # rows still stepping
    for _ in range(max_steps):
        if jet is None:
            jet = eval_jet(ast, to_complex(W[live]), 2)
            rows = np.arange(len(live))   # each live row's row in the jet
            if jet.singular:
                for j, exc in jet.singular.items():
                    out[live[j]] = NoConvergence(f"hit a singular point during Newton: {exc}")
                    out[live[j]].__cause__ = exc
                rows = np.setdiff1d(rows, list(jet.singular))
                live = live[rows]
        else:  # the first step: every row is still at its seed
            rows = None if np.ndim(jet.value) == 0 else live
        f1, tau = jet.deriv(1)[rows], jet.deriv(2)[rows]   # a single seed's jet gains a row axis
        res = W[live]              # the flat coordinates (x, Re dF/dz), minus the targets
        res[:, m:] = f1.real
        res -= targets[live]
        done = _row_norms(res) <= tols[live]
        if done.any():
            ends = [None] * int(done.sum()) if rows is None else rows[done].tolist()
            for i, row in zip(live[done].tolist(), ends):
                out[i] = (W[i], jet, row)
            live, res, tau = live[~done], res[~done], tau if rows is None else tau[~done]
            if not len(live):
                return out
        steps, singular = _solve_rows(_flat_jacobian(tau), res)
        bad = ~np.isfinite(steps).all(axis=1)
        bad[singular] = True
        if bad.any():
            for j in np.flatnonzero(bad).tolist():
                kind = "singular" if j in singular else "numerically singular"
                out[live[j]] = DegenerateMetric(f"flat-coordinate Jacobian is {kind}")
            live, steps = live[~bad], steps[~bad]
            if not len(live):
                return out
        W[live] -= steps
        jet = None
    for i in live.tolist():
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


def _norm(v) -> float:
    """np.linalg.norm of a real vector with its arithmetic (the dot of the contiguous vector), without its dispatch."""
    v = np.ravel(v)
    return math.sqrt(v.dot(v))


def _chart_step(w, step: float) -> float:
    """A stencil's step at chart point w: ``step`` scaled by 1 + |w|."""
    return step * (1.0 + _norm(w))


def _direction_stencil(w, direction, step: float) -> tuple:
    """(|direction|, h, dw) of the stencil w +- dw along ``direction``; dw is None for a zero direction."""
    norm = _norm(direction)
    if norm == 0.0:
        return norm, None, None
    h = _chart_step(w, step)
    return norm, h, h * (direction / norm)


def _axis_stencil(w0, step: float) -> np.ndarray:
    """The 2n points :func:`chart_matrix_derivative` evaluates its field at, bit for bit."""
    dw = step * np.eye(w0.size)
    return np.concatenate([w0 + dw, w0 - dw])


def _gather(entries, *fields) -> list:
    """Each of ``fields`` (a function of a stack) at every (stack, row) of ``entries``: one fancy-index per stack."""
    groups = {}   # id(stack) -> (stack, positions in entries, rows in stack)
    for q, (stack, row) in enumerate(entries):
        slot = groups.setdefault(id(stack), (stack, [], []))
        slot[1].append(q)
        slot[2].append(row)
    order = np.argsort(np.concatenate([pos for _, pos, _ in groups.values()]))
    return [np.concatenate([read(stack)[rows] for stack, _, rows in groups.values()])[order] for read in fields]


def chart_matrix_derivative(field, w0, step: float) -> np.ndarray:
    """Central differences of a (scalar, vector or matrix) field along every axis.

    ``field`` is a function of a chart point, or a (chart, name) pair of a
    :class:`FlatChart` field, read in one gather after its points are
    checked in a function's order (a+, a- per axis a), so the first that
    fails raises as there.  Returns D with D[a] = d(field)/dw_a at w0.
    """
    n = w0.size
    if callable(field):
        return np.stack([_central(field, w0, step * e, step) for e in np.eye(n)])
    chart, name = field
    W = _axis_stencil(w0, step)
    entries = [None] * (2 * n)
    for i in (i for a in range(n) for i in (a, a + n)):
        sample, p = entries[i] = chart.point(W[i])
        getattr(sample, name)   # deriving it may reject a row
        sample.admit(p)
    (V,) = _gather(entries, lambda sample: getattr(sample, name))
    return (V[:n] - V[n:]) / (2.0 * step)


def invert_stencils(stencils) -> list:
    """Newton-invert, as one stack, every chart point not yet memoised of the (chart, points) pairs ``stencils``.

    Each row starts from its chart's seed (the charts share a prepotential)
    and converges as it would alone.  One :func:`domain_sample` call gates
    the converged rows, and each pair memoises its new rows as one view of
    that sample (:meth:`DomainSample.take`), so a field is derived only over
    the stencils that read it; a point two pairs share is the first's.  A
    failed row is not memoised.  Returns Newton's rows (see :func:`_newton`).
    """
    todo = {}   # (chart, w.tobytes()) -> (pair index, w)
    for s, (chart, points) in enumerate(stencils):
        for w in points:
            key = w.tobytes()
            if key not in chart._points:
                todo.setdefault((chart, key), (s, w))
    if not todo:
        return []
    charts = list(dict.fromkeys(chart for chart, _ in todo))
    src = [charts.index(chart) for chart, _ in todo]
    # Each row's seed jet, gathered from its chart's: a view of evaluated
    # jets, not an evaluation, so it is built through type().
    jets = [chart._seed_jet for chart in charts]
    jet = type(jets[0])(2, np.array([j.value for j in jets])[src],
                        tuple(np.array([j.deriv(d) for j in jets])[src] for d in (1, 2)), {})
    ast = charts[0].ast
    hits = _newton(ast, np.array([w for _, w in todo.values()]),
                   np.array([chart._seed_w for chart in charts])[src], jet)
    kept = [p for p, hit in enumerate(hits) if not isinstance(hit, Exception)]
    if kept:
        value, f1, tau = _gather([hits[p][1:] for p in kept], lambda j: j.value, lambda j: j.deriv(1),
                                 lambda j: j.deriv(2))
        sample = domain_sample(ast, to_complex(np.array([hits[p][0] for p in kept])),
                               jet=type(jet)(2, value, (f1, tau), {}))
        entries = list(todo.items())
        pairs = np.array([entries[p][1][0] for p in kept])
        for s in dict.fromkeys(pairs.tolist()):
            rows = np.flatnonzero(pairs == s)
            view = sample.take(rows)
            for j, q in enumerate(rows.tolist()):
                chart, key = entries[kept[q]][0]
                chart._points[key] = (view, j)
    return hits


class FlatChart:
    """The flat chart around a seed point: every chart point Newton-inverted.

    The seed's order-2 jet is evaluated once and starts every inversion.
    Each chart point w is memoised by ``w.tobytes()`` as a row of the
    stacked :class:`DomainSample` of the stencil it was inverted with (see
    :func:`invert_stencils`), built from Newton's last jets, so a chart
    point costs no jet beyond its Newton steps.  The chart also carries the
    fields the checks differentiate, in flat components: each is computed
    once per stencil by batched numpy and read by row.  :meth:`dir_points`,
    :meth:`christoffel_points`, :meth:`axis_points` and
    :meth:`hessian_points` give the points of the derivative stencils, so
    that a caller can hand many stencils, of one chart or several, to
    :func:`invert_stencils` as one stack before it differentiates.
    """

    def __init__(self, ast: PrepotentialAst, seed_z):
        seed = np.asarray(seed_z, dtype=complex)
        self.ast = ast
        self._seed_w = to_real(seed)
        self._seed_jet = eval_jet(ast, seed, 2)
        self.base = domain_sample(ast, seed, jet=self._seed_jet)
        self._points = {}    # w.tobytes() -> (stacked DomainSample of w's stencil, row)
        self._samples = {}
        self._gammas = {}

    def points(self, W) -> None:
        """Newton-invert the chart points W as one stencil; a failed row is not memoised, so :meth:`point` raises it."""
        invert_stencils([(self, W)])

    def point(self, w) -> tuple:
        """The stacked DomainSample that holds chart point w, and w's row in it.

        A point not yet memoised is inverted alone; a failed inversion raises its error.
        """
        key = w.tobytes()
        hit = self._points.get(key)
        if hit is None:
            _inverted(invert_stencils([(self, [w])])[0])
            hit = self._points[key]
        return hit

    def k(self, w) -> float:
        sample, p = self.point(w)
        return float(sample.k[p])

    def sample(self, w) -> DomainSample:
        key = w.tobytes()
        hit = self._samples.get(key)
        if hit is None:
            sample, p = self.point(w)
            hit = self._samples[key] = sample.row(p)
        return hit

    def _field(self, name: str, w) -> np.ndarray:
        """Row w of a chart field of w's stacked sample; raises w's error if its row was rejected."""
        sample, p = self.point(w)
        values = getattr(sample, name)
        values.flags.writeable = False   # shared by every row of the stack
        sample.admit(p)
        return values[p]

    def g_flat(self, w) -> np.ndarray:
        return self._field("g_flat", w)

    def omega_flat(self, w) -> np.ndarray:
        return self._field("omega_flat", w)

    def J_flat(self, w) -> np.ndarray:
        return self._field("J_flat", w)

    def eta_flat(self, w) -> np.ndarray:
        return self._field("eta_flat", w)

    def xi_flat(self, w) -> np.ndarray:
        return self._field("xi_flat", w)

    def sigma_flat(self, w) -> np.ndarray:
        return self._field("sigma_flat", w)

    def level_tangent_flat(self, w, Y0) -> np.ndarray:
        """Level-set projection of the constant vector Y0, in flat components, from w's rows of dk, xi and flat_jac."""
        sample, p = self.point(w)
        sample.admit(p)
        dk, xi = sample.dk[p], sample.xi[p]
        denom = float(dk @ xi)
        if abs(denom) < 1e-10:
            raise DegenerateMetric("dk(xi) = 2k vanished during tangent extension")
        Yl = Y0 - (float(dk @ Y0) / denom) * xi
        return sample.flat_jac[p] @ Yl

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
            dg = chart_matrix_derivative((self, "g_flat"), w, _chart_step(w, GAMMA_STEP))
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
    N = sample.N
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
    jac_inv = s.flat_jac_inv
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

    They read the chart's base sample, so they cost no jet.
    """
    s = chart.base
    zc = s.z
    dkz = _dk_z(s.tau, s.f1, zc)
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
    return antisymmetrized_chart_derivative((chart, "J_flat"), w0, _chart_step(w0, CHART_STEP))


def omega_parallel_residual(chart: FlatChart) -> float:
    """Max chart derivative of the pushforward of omega (should vanish)."""
    w0 = chart.base.flat
    chart.points(chart.axis_points(w0))
    return float(np.max(np.abs(chart_matrix_derivative((chart, "omega_flat"), w0, _chart_step(w0, CHART_STEP)))))


def d_eta_residual(chart: FlatChart) -> float:
    """Residual of d(eta) = 2*omega in the flat chart.

    eta = omega(xi, .) is realized as a chart covector field through the
    inverse coordinate map, so the check exercises both the parallelism of
    omega and the position-field property of xi.
    """
    s0 = chart.base
    chart.points(chart.axis_points(s0.flat))
    D = chart_matrix_derivative((chart, "eta_flat"), s0.flat, _chart_step(s0.flat, CHART_STEP))  # D[a, b] = d_a eta_b
    d_eta = D - D.T
    return float(np.max(np.abs(d_eta - 2.0 * s0.flat_form(s0.omega))))
