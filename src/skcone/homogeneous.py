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
from .geometry import _mv, _row_norms, kahler_potential

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


def _scatter(table, components, shape=(6, 6, 6)) -> np.ndarray:
    """The (..., *shape) arrays holding sign * components[..., component] at each slot."""
    components = np.asarray(components)
    if components.shape[-1:] != (20,):
        raise ValueError(f"expected 20 components, got shape {components.shape}")
    slots, comp, sign = table
    out = np.zeros(components.shape[:-1] + shape, dtype=components.dtype)
    out[(..., *slots)] = components.take(comp, axis=-1) * sign
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


@functools.cache
def _e6_table() -> tuple:
    """One table into (2, 6, 36): S[m, (p, q)] = (1/6) sum_{jkl} eps_{mjklpq} alpha_{jkl}, then alpha[i, (p, q)]."""
    return _index_table(((k, a, 6 * b + c), col, sign) for k, table in enumerate((_star_table(), _form3_table()))
                        for (a, b, c), col, sign in zip(zip(*table[0]), *table[1:]))


def form3_to_array(components) -> np.ndarray:
    """Expand 20 lexicographic 3-form components to a full antisymmetric array."""
    return _scatter(_form3_table(), components)


def array_to_form3(full) -> np.ndarray:
    """The 20 lexicographic components of each full 3-form array of a stack (..., 6, 6, 6)."""
    return np.asarray(full)[(..., *zip(*TRIPLES))]


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
    data: object  # matrix, or (R, L) pair for case BD; a stack of them along a leading axis


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
    """Matrix of v -> alpha ^ (iota_v alpha) under the fixed volume element, per form of a stack."""
    alpha = np.asarray(alpha, dtype=complex)
    # A[m, i] = (1/12) alpha_{jkl} alpha_{ipq} eps_{mjklpq} = (1/2) S[m, pq] alpha_{ipq}
    both = _scatter(_e6_table(), alpha, (2, 6, 36))
    return both[..., 0, :, :] @ both[..., 1, :, :].swapaxes(-1, -2) / 2.0


def _wedge_omega_map() -> np.ndarray:
    """6 x 20 matrix of beta -> omega ^ beta in the iota-volume identification."""
    stars = _scatter(_e6_table(), np.eye(20), (2, 6, 36))[:, 0]
    return np.stack([star @ _omega6().ravel() for star in stars], axis=1) / 2.0


@functools.cache
def _wedge_data():
    """The map beta -> omega ^ beta and the projector onto its kernel."""
    L = _wedge_omega_map()
    return _read_only(L), _read_only(np.eye(20) - np.linalg.pinv(L) @ L)


def f_case_project(beta) -> np.ndarray:
    """Euclidean-orthogonal projection onto ker(omega ^ .), dimension 14, of a form or each of a stack."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1:] != (20,) or beta.ndim > 2:
        raise ValueError("case F expects 20 real 3-form components")
    _, proj = _wedge_data()
    return _mv(proj, beta)


def f_kernel_residual(beta):
    """|omega ^ beta| / (1 + |beta|), of a form or each row of a stack."""
    L, _ = _wedge_data()
    B = np.asarray(beta, dtype=float)
    res = _row_norms(_mv(L, B.reshape(-1, 20))) / (1.0 + _row_norms(B.reshape(-1, 20)))
    return float(res[0]) if B.ndim == 1 else res


def _norms(stack) -> np.ndarray:
    """The norm of each array of a stack, with ``np.linalg.norm``'s arithmetic."""
    return _row_norms(stack.reshape(len(stack), -1))


def _stack(case: QuarticCase, v) -> tuple:
    """(V, single): v as a stack of module vectors along a leading axis, and whether v was one vector."""
    d = case.n + 1
    dtype, shape, error = {
        "A": (complex, (d,), "a complex vector of length {d}"),
        "BD": (float, (d, 2), "a real {d} x 2 matrix"),
        "E6": (complex, (20,), "20 complex 3-form components"),
        "F": (float, (20,), "20 real 3-form components"),
        "G": (float, (4,), "4 cubic coefficients (a, b, c, d)"),
    }.get(case.tag, (None, None, None))
    if dtype is None:
        raise ValueError(f"unknown case tag {case.tag!r}")
    V = np.asarray(v, dtype=dtype)
    single = V.ndim == len(shape)
    if V.shape[not single:] != shape:
        raise ValueError(f"case {case.tag} expects " + error.format(d=d))
    return (V[None] if single else V), single


def _hessian_discriminant(a, b, c, d) -> float:
    """The discriminant of the Hessian of a x^3 + b x^2 y + c x y^2 + d y^3, in Python numbers."""
    A = 12.0 * a * c - 4.0 * b * b
    B = 36.0 * a * d - 4.0 * b * c
    C = 12.0 * b * d - 4.0 * c * c
    return B * B - 4.0 * A * C


def quartic_eval(case: QuarticCase, v):
    """Evaluate the case's quartic invariant, degree-4 homogeneous: a scalar, or an array for a stack of vectors."""
    V, single = _stack(case, v)
    if case.tag == "A":
        gvv = 2.0 * (V.conj()[:, None, :] @ (case.structure["eta"] * V)[:, :, None])[:, 0, 0].real
        q = gvv * gvv
    elif case.tag == "BD":
        G, Om = case.structure["G"], case.structure["Omega"]
        q = np.linalg.det(V.swapaxes(1, 2) @ G @ V @ Om)
    elif case.tag == "G":
        q = np.array([_hessian_discriminant(*row) for row in V.tolist()])
    else:
        if case.tag == "F" and any(r > 1e-10 for r in f_kernel_residual(V).tolist()):
            raise ValueError("case F input is not in ker(omega ^ .)")
        op = e6_operator(V)
        q = (op @ op).trace(axis1=1, axis2=2)
        q = q.real if case.tag == "F" else q
    return q[0].item() if single else q


# ---------------------------------------------------------------------------
# Lie algebra generators, actions, invariance
# ---------------------------------------------------------------------------


def _unit(stack):
    return stack / _norms(stack).reshape((-1,) + (1,) * (stack.ndim - 1))


def draw_vector(case: QuarticCase, rng):
    """The rng draws of one random module vector, in random_vector's order and shapes; (re, im) for a complex module."""
    shape = {"A": case.n + 1, "BD": (case.n + 1, 2), "E6": 20, "F": 20, "G": 4}.get(case.tag)
    if shape is None:
        raise ValueError(case.tag)
    complex_module = case.tag in ("A", "E6")
    return (rng.standard_normal(shape), rng.standard_normal(shape)) if complex_module else rng.standard_normal(shape)


def vector_stack(case: QuarticCase, draws) -> np.ndarray:
    """The stack of seeded module points made from a sequence of :func:`draw_vector` draws."""
    V = np.array(draws)
    V = V[:, 0] + 1j * V[:, 1] if case.tag in ("A", "E6") else V
    return _unit(f_case_project(V) if case.tag == "F" else V)


def random_vector(case: QuarticCase, rng) -> np.ndarray:
    """Seeded module point, normalized so finite differences stay conditioned."""
    return vector_stack(case, [draw_vector(case, rng)])[0]


def draw_generator(case: QuarticCase, rng):
    """The rng draws of one random generator, in random_generator's order and shapes; (re, im) for a complex module."""
    if case.tag == "BD":
        return rng.standard_normal((case.n + 1,) * 2), rng.standard_normal((2, 2))
    d = {"A": case.n + 1, "E6": 6, "F": 6, "G": 2}.get(case.tag)
    if d is None:
        raise ValueError(case.tag)
    shape, complex_module = (d, d), case.tag in ("A", "E6")
    return (rng.standard_normal(shape), rng.standard_normal(shape)) if complex_module else rng.standard_normal(shape)


def _traceless(M) -> np.ndarray:
    """Each matrix of a stack minus (trace / size) times the identity."""
    d = M.shape[-1]
    return M - (np.trace(M, axis1=1, axis2=2) / d)[:, None, None] * np.eye(d)


def generator_stack(case: QuarticCase, draws) -> RepElement:
    """The stack of seeded unit generators made from a sequence of :func:`draw_generator` draws."""
    if case.tag == "BD":
        W, L = (np.array(part) for part in zip(*draws))
        R = case.structure["G"] @ (W - np.swapaxes(W, 1, 2)) / 2.0
        return RepElement("BD", (_unit(R), _unit(_traceless(L))))
    M = np.array(draws)
    M = M[:, 0] + 1j * M[:, 1] if case.tag in ("A", "E6") else M
    if case.tag == "A":
        eta = case.structure["eta"]
        M = _traceless(0.5 * (M - (eta[:, None] * np.swapaxes(np.conj(M), 1, 2) * eta[None, :])))
    elif case.tag == "F":
        M = _omega6() @ ((M + np.swapaxes(M, 1, 2)) / 2.0)
    else:
        M = _traceless(M)
    return RepElement(case.tag, _unit(M))


def _pick(gen: RepElement, index) -> RepElement:
    """gen with each of its matrices indexed: 0 takes a stack's first generator, None makes one a stack of one."""
    data = tuple(np.asarray(x)[index] for x in gen.data) if gen.tag == "BD" else np.asarray(gen.data)[index]
    return RepElement(gen.tag, data)


def random_generator(case: QuarticCase, rng) -> RepElement:
    return _pick(generator_stack(case, [draw_generator(case, rng)]), 0)


def _abs_traces(X) -> np.ndarray:
    """|trace| of each matrix of a stack by the scalar abs; numpy's array abs of a complex can differ in the last bit."""
    return np.array([abs(t) for t in np.trace(X, axis1=1, axis2=2).tolist()])


def membership_residual(case: QuarticCase, gen: RepElement):
    """Distance of the generator, or of each generator of a stack, from its Lie algebra (should be ~0)."""
    single = np.ndim(gen.data[0] if gen.tag == "BD" else gen.data) == 2
    X = (_pick(gen, None) if single else gen).data
    if case.tag == "A":
        eta = np.diag(case.structure["eta"])
        res = _norms(np.swapaxes(np.conj(X), 1, 2) @ eta + eta @ X) + _abs_traces(X)
    elif case.tag == "BD":
        (R, L), G = X, case.structure["G"]
        res = _norms(np.swapaxes(R, 1, 2) @ G + G @ R) + _abs_traces(L)
    elif case.tag == "F":
        Om = _omega6()
        res = _norms(np.swapaxes(X, 1, 2) @ Om + Om @ X)
    elif case.tag in ("E6", "G"):
        res = _abs_traces(X)
    else:
        raise ValueError(case.tag)
    return float(res[0]) if single else res


def _act_on_form(X, alpha20):
    """Induced action of each X in gl(6) of a stack on covariant 3-form components."""
    full = form3_to_array(alpha20)
    Xc = np.asarray(X, dtype=full.dtype)
    acted = np.einsum("pli,pljk->pijk", Xc, full)
    acted += np.einsum("plj,pilk->pijk", Xc, full)
    acted += np.einsum("plk,pijl->pijk", Xc, full)
    return -array_to_form3(acted)


def rep_action(case: QuarticCase, gen: RepElement, v):
    """Infinitesimal action of the generator on a point of the module, or of each generator of a stack on its row."""
    V, single = _stack(case, v)
    X = (_pick(gen, None) if single else gen).data
    if case.tag == "A":
        W = _mv(X, V)
    elif case.tag == "BD":
        R, L = X
        W = R @ V + V @ np.swapaxes(L, 1, 2)
    elif case.tag == "G":
        a, b, c, d = V.T
        al, be, ga = X[:, 0, 0], X[:, 0, 1], X[:, 1, 0]
        W = np.stack([-3.0 * a * al - b * ga, -3.0 * a * be - b * al - 2.0 * c * ga,
                      -2.0 * b * be + c * al - 3.0 * d * ga, -c * be + 3.0 * d * al], axis=1)
    else:
        W = _act_on_form(X, V)
    return W[0] if single else W


def lie_invariance_residual(case: QuarticCase, v, gen: RepElement,
                            step: float = 1e-6):
    """|dQ_v(rho(gen) v)| / (1 + |Q(v)|) by central differences, for one pair or each (v, gen) row of a stack.

    Q is evaluated on three stacks, v + h w, v - h w and v; each row's quotient is taken in Python numbers.
    """
    if np.any(membership_residual(case, gen) > 1e-12):
        raise ValueError("generator violates its Lie-algebra membership")
    V, single = _stack(case, v)
    W = rep_action(case, _pick(gen, None) if single else gen, V)
    H = step * (1.0 + _norms(V))
    dV = H.reshape((-1,) + (1,) * (V.ndim - 1)) * W
    hi, lo, q = (quartic_eval(case, X) for X in (V + dV, V - dV, V))
    res = [abs((a - b) / (2.0 * h)) / (1.0 + abs(c))
           for a, b, c, h in zip(hi.tolist(), lo.tolist(), q.tolist(), H.tolist())]
    return res[0] if single else np.array(res)


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
