"""Quartic invariants of the homogeneous models and their Lie symmetry checks.

Cases:

    A   su(n,1)-invariant square of the pseudo-Hermitian norm on C^{n+1}
    BD  sl(2,R) + so(n-1,2) acting on (n+1) x 2 matrices, Q = det(A^T G A Om)
    E6  sl(6,C) acting on 3-forms, Q = trace(A_alpha^2)
    F   sp(6,R) acting on primitive 3-forms, the restriction of the E6 quartic
    G   sl(2,R) acting on binary cubics, Q = discriminant of the Hessian

Structure normalizations (volume element, wedge factors, plain cubic
coefficients) fix the overall scale of each Q; the scales are reported,
never asserted, while invariance and quartic homogeneity are scale-free.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .expr import PrepotentialAst, eval_jet
from .geometry import kahler_potential

TRIPLES = tuple(itertools.combinations(range(6), 3))  # index order of 3-forms


def _perm_sign(perm) -> int:
    """Sign of a sequence of distinct numbers, by the parity of its inversions."""
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _index_table(entries) -> tuple:
    """Read-only (slots, component, sign) arrays from (slot, component, sign) entries."""
    slots, comp, sign = zip(*entries)
    slots = tuple(_read_only(a) for a in np.array(slots).T)
    return slots, _read_only(np.array(comp)), _read_only(np.array(sign))


def _scatter(table, components) -> np.ndarray:
    """The 6 x 6 x 6 array holding sign * components[component] at each slot."""
    components = np.asarray(components)
    if components.shape != (20,):
        raise ValueError(f"expected 20 components, got shape {components.shape}")
    slots, comp, sign = table
    out = np.zeros((6, 6, 6), dtype=components.dtype)
    out[slots] = components[comp] * sign
    return out


@functools.cache
def _form3_table() -> tuple:
    """(slots, component, sign) of the 120 nonzero entries of a full 3-form array."""
    return _index_table(
        (tuple(base[p] for p in perm), col, _perm_sign(perm))
        for col, base in enumerate(TRIPLES)
        for perm in itertools.permutations(range(3))
    )


@functools.cache
def _star_table() -> tuple:
    """(slots, component, sign) of the 120 terms of the Hodge star with one slot lowered.

    For distinct (m, p, q) with sorted complement C,
    sum_{jkl} eps_{mjklpq} alpha_{jkl} = 6 eps(m, C, p, q) alpha_C.
    """
    entries = []
    for m, p, q in itertools.permutations(range(6), 3):
        rest = tuple(x for x in range(6) if x not in (m, p, q))
        entries.append(((m, p, q), TRIPLES.index(rest), _perm_sign((m, *rest, p, q))))
    return _index_table(entries)


def _star(alpha20) -> np.ndarray:
    """S[m, (p, q)] = (1/6) sum_{jkl} eps_{mjklpq} alpha_{jkl}, a 6 x 36 matrix."""
    return _scatter(_star_table(), alpha20).reshape(6, 36)


def form3_to_array(components) -> np.ndarray:
    """Expand 20 lexicographic 3-form components to a full antisymmetric array."""
    return _scatter(_form3_table(), components)


def array_to_form3(full) -> np.ndarray:
    return np.array([full[t] for t in TRIPLES])


# ---------------------------------------------------------------------------
# Case data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticCase:
    tag: str
    n: int
    structure: dict


@dataclass(frozen=True)
class RepElement:
    tag: str
    data: object  # matrix, or (R, L) pair for case BD


def case_a(n: int, signature=None) -> QuarticCase:
    """Pseudo-Hermitian case on C^{n+1}; default signature (1,...,1,-1)."""
    if signature is None:
        signature = np.array([1.0] * n + [-1.0])
    else:
        signature = np.asarray(signature, dtype=float)
        if signature.shape != (n + 1,) or not np.all(np.abs(signature) == 1.0):
            raise ValueError("signature must be a vector of +-1 of length n+1")
    return QuarticCase("A", n, {"eta": signature})


def case_bd(n: int) -> QuarticCase:
    if n < 2:
        raise ValueError("case BD needs n >= 2")
    G = np.diag([1.0] * (n - 1) + [-1.0, -1.0])
    Om = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return QuarticCase("BD", n, {"G": G, "Omega": Om})


def case_e6() -> QuarticCase:
    return QuarticCase("E6", 6, {})


@functools.cache
def _omega6() -> np.ndarray:
    """The symplectic form sum_i e_{2i} ^ e_{2i+1} on R^6."""
    omega = np.zeros((6, 6))
    for i in range(3):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return _read_only(omega)


def case_f() -> QuarticCase:
    return QuarticCase("F", 6, {"omega": _omega6()})


def case_g() -> QuarticCase:
    return QuarticCase("G", 1, {})


# ---------------------------------------------------------------------------
# Quartic evaluation
# ---------------------------------------------------------------------------


def e6_operator(alpha) -> np.ndarray:
    """Matrix of v -> alpha ^ (iota_v alpha) under the fixed volume element."""
    alpha = np.asarray(alpha, dtype=complex)
    # A[m, i] = (1/12) alpha_{jkl} alpha_{ipq} eps_{mjklpq} = (1/2) S[m, pq] alpha_{ipq}
    return _star(alpha) @ form3_to_array(alpha).reshape(6, 36).T / 2.0


def _wedge_omega_map() -> np.ndarray:
    """6 x 20 matrix of beta -> omega ^ beta in the iota-volume identification."""
    return np.stack([_star(beta) @ _omega6().ravel() for beta in np.eye(20)], axis=1) / 2.0


@functools.cache
def _wedge_data():
    """The map beta -> omega ^ beta and the projector onto its kernel."""
    L = _wedge_omega_map()
    return _read_only(L), _read_only(np.eye(20) - np.linalg.pinv(L) @ L)


def f_case_project(beta) -> np.ndarray:
    """Euclidean-orthogonal projection onto ker(omega ^ .), dimension 14."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (20,):
        raise ValueError("case F expects 20 real 3-form components")
    _, proj = _wedge_data()
    return proj @ beta


def f_kernel_residual(beta) -> float:
    L, _ = _wedge_data()
    beta = np.asarray(beta, dtype=float)
    return float(np.linalg.norm(L @ beta)) / (1.0 + float(np.linalg.norm(beta)))


def _hessian_discriminant(coeffs) -> float:
    a, b, c, d = (float(x) for x in coeffs)
    A = 12.0 * a * c - 4.0 * b * b
    B = 36.0 * a * d - 4.0 * b * c
    C = 12.0 * b * d - 4.0 * c * c
    return B * B - 4.0 * A * C


def quartic_eval(case: QuarticCase, v):
    """Evaluate the case's quartic invariant; scalar, degree-4 homogeneous."""
    if case.tag == "A":
        v = np.asarray(v, dtype=complex)
        if v.shape != (case.n + 1,):
            raise ValueError(f"case A expects a complex vector of length {case.n + 1}")
        gvv = 2.0 * float(np.real(np.conj(v) @ (case.structure["eta"] * v)))
        return gvv * gvv
    if case.tag == "BD":
        A = np.asarray(v, dtype=float)
        if A.shape != (case.n + 1, 2):
            raise ValueError(f"case BD expects a real {case.n + 1} x 2 matrix")
        G, Om = case.structure["G"], case.structure["Omega"]
        return float(np.linalg.det(A.T @ G @ A @ Om))
    if case.tag == "E6":
        alpha = np.asarray(v, dtype=complex)
        if alpha.shape != (20,):
            raise ValueError("case E6 expects 20 complex 3-form components")
        op = e6_operator(alpha)
        return complex(np.trace(op @ op))
    if case.tag == "F":
        beta = np.asarray(v, dtype=float)
        if beta.shape != (20,):
            raise ValueError("case F expects 20 real 3-form components")
        if f_kernel_residual(beta) > 1e-10:
            raise ValueError("case F input is not in ker(omega ^ .)")
        op = e6_operator(beta.astype(complex))
        return float(np.real(np.trace(op @ op)))
    if case.tag == "G":
        coeffs = np.asarray(v, dtype=float)
        if coeffs.shape != (4,):
            raise ValueError("case G expects 4 cubic coefficients (a, b, c, d)")
        return _hessian_discriminant(coeffs)
    raise ValueError(f"unknown case tag {case.tag!r}")


# ---------------------------------------------------------------------------
# Lie algebra generators, actions, invariance
# ---------------------------------------------------------------------------


def _unit(arr):
    return arr / np.linalg.norm(arr.ravel())


def random_vector(case: QuarticCase, rng) -> np.ndarray:
    """Seeded module point, normalized so finite differences stay conditioned."""
    if case.tag == "A":
        d = case.n + 1
        return _unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    if case.tag == "BD":
        return _unit(rng.standard_normal((case.n + 1, 2)))
    if case.tag == "E6":
        return _unit(rng.standard_normal(20) + 1j * rng.standard_normal(20))
    if case.tag == "F":
        return _unit(f_case_project(rng.standard_normal(20)))
    if case.tag == "G":
        return _unit(rng.standard_normal(4))
    raise ValueError(case.tag)


def random_generator(case: QuarticCase, rng) -> RepElement:
    if case.tag == "A":
        d = case.n + 1
        eta = case.structure["eta"]
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        X = 0.5 * (M - (eta[:, None] * M.conj().T * eta[None, :]))
        X -= (np.trace(X) / d) * np.eye(d)
        return RepElement("A", _unit(X))
    if case.tag == "BD":
        d = case.n + 1
        G = case.structure["G"]
        W = rng.standard_normal((d, d))
        R = G @ (W - W.T) / 2.0
        L = rng.standard_normal((2, 2))
        L -= (np.trace(L) / 2.0) * np.eye(2)
        return RepElement("BD", (_unit(R), _unit(L)))
    if case.tag == "E6":
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        M -= (np.trace(M) / 6.0) * np.eye(6)
        return RepElement("E6", _unit(M))
    if case.tag == "F":
        S = rng.standard_normal((6, 6))
        S = (S + S.T) / 2.0
        return RepElement("F", _unit(_omega6() @ S))
    if case.tag == "G":
        L = rng.standard_normal((2, 2))
        L -= (np.trace(L) / 2.0) * np.eye(2)
        return RepElement("G", _unit(L))
    raise ValueError(case.tag)


def membership_residual(case: QuarticCase, gen: RepElement) -> float:
    """Distance of the generator from its Lie algebra (should be ~0)."""
    if case.tag == "A":
        eta = np.diag(case.structure["eta"])
        X = gen.data
        return float(np.linalg.norm(X.conj().T @ eta + eta @ X) + abs(np.trace(X)))
    if case.tag == "BD":
        R, L = gen.data
        G = case.structure["G"]
        return float(np.linalg.norm(R.T @ G + G @ R) + abs(np.trace(L)))
    if case.tag == "E6":
        return abs(np.trace(gen.data))
    if case.tag == "F":
        Om = _omega6()
        X = gen.data
        return float(np.linalg.norm(X.T @ Om + Om @ X))
    if case.tag == "G":
        return abs(np.trace(gen.data))
    raise ValueError(case.tag)


def _act_on_form(X, alpha20):
    """Induced action of X in gl(6) on covariant 3-form components."""
    full = form3_to_array(np.asarray(alpha20))
    Xc = np.asarray(X, dtype=full.dtype)
    acted = -(
        np.einsum("li,ljk->ijk", Xc, full)
        + np.einsum("lj,ilk->ijk", Xc, full)
        + np.einsum("lk,ijl->ijk", Xc, full)
    )
    return array_to_form3(acted)


def rep_action(case: QuarticCase, gen: RepElement, v):
    """Infinitesimal action of the generator on a point of the module."""
    if case.tag == "A":
        return gen.data @ np.asarray(v, dtype=complex)
    if case.tag == "BD":
        R, L = gen.data
        A = np.asarray(v, dtype=float)
        return R @ A + A @ L.T
    if case.tag == "E6":
        return _act_on_form(gen.data, np.asarray(v, dtype=complex))
    if case.tag == "F":
        return _act_on_form(gen.data, np.asarray(v, dtype=float))
    if case.tag == "G":
        a, b, c, d = (float(x) for x in v)
        (al, be), (ga, _) = gen.data
        return np.array(
            [
                -3.0 * a * al - b * ga,
                -3.0 * a * be - b * al - 2.0 * c * ga,
                -2.0 * b * be + c * al - 3.0 * d * ga,
                -c * be + 3.0 * d * al,
            ]
        )
    raise ValueError(case.tag)


def lie_invariance_residual(case: QuarticCase, v, gen: RepElement,
                            step: float = 1e-6) -> float:
    """|dQ_v(rho(gen) v)| / (1 + |Q(v)|) by central differences."""
    if membership_residual(case, gen) > 1e-12:
        raise ValueError("generator violates its Lie-algebra membership")
    v = np.asarray(v)
    w = rep_action(case, gen, v)
    h = step * (1.0 + float(np.linalg.norm(v.ravel())))
    hi = quartic_eval(case, v + h * w)
    lo = quartic_eval(case, v - h * w)
    dq = (hi - lo) / (2.0 * h)
    return abs(dq) / (1.0 + abs(quartic_eval(case, v)))


# ---------------------------------------------------------------------------
# Q proportional to k^2
# ---------------------------------------------------------------------------


def quadratic_signature(ast: PrepotentialAst, probe=None):
    """Signature eps with F = i sum eps_j z_j^2, or None if F is not of that form."""
    m = ast.n_vars
    if probe is None:
        probe = np.linspace(1.1, 2.3, m) + 1j * np.linspace(-0.4, 0.7, m)
    jet = eval_jet(ast, probe, 3)
    tau = jet.deriv(2)
    if float(np.max(np.abs(jet.deriv(3)))) > 1e-12:
        return None
    eps = np.real(tau.diagonal() / 2j)
    if np.max(np.abs(tau - 2j * np.diag(eps))) > 1e-12:
        return None
    if not np.all(np.abs(np.abs(eps) - 1.0) < 1e-12):
        return None
    return np.round(eps)


@dataclass(frozen=True)
class RatioReport:
    ratio: float
    rel_spread: float
    skipped: tuple


def q_proportional_ksq(case: QuarticCase, ast: PrepotentialAst, samples) -> RatioReport:
    """Mean and spread of Q(z) / k(z)^2 for a matching case-A prepotential."""
    if case.tag != "A":
        raise ValueError("the Q/k^2 comparison is a case-A statement")
    eps = quadratic_signature(ast)
    if eps is None or not np.array_equal(eps, case.structure["eta"]):
        raise ValueError("prepotential is not i * sum eps_j z_j^2 with the case signature")
    ratios = []
    skipped = []
    for idx, z in enumerate(samples):
        z = np.asarray(z, dtype=complex)
        k = kahler_potential(ast, z)
        if abs(k) < 1e-8:
            skipped.append(idx)
            continue
        ratios.append(float(np.real(quartic_eval(case, z))) / k**2)
    if not ratios:
        return RatioReport(float("nan"), 0.0, tuple(skipped))
    arr = np.array(ratios)
    mean = float(arr.mean())
    spread = 0.0 if len(ratios) < 2 else float((arr.max() - arr.min()) / abs(mean))
    return RatioReport(mean, spread, tuple(skipped))
