import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import skcone.homogeneous as hom

from conftest import stu_points


def _cases():
    return [hom.case_a(2), hom.case_bd(3), hom.case_e6(), hom.case_f(), hom.case_g()]


# ---------------------------------------------------------------------------
# spot values
# ---------------------------------------------------------------------------


def test_case_g_discriminant_spot():
    # p = x^3 + y^3: q(p) = 36 xy, discriminant B^2 - 4AC = 1296
    assert hom.quartic_eval(hom.case_g(), [1, 0, 0, 1]) == pytest.approx(1296.0)


def test_case_a_spot():
    case = hom.case_a(1)
    assert hom.quartic_eval(case, np.array([1.0, 0.0], dtype=complex)) == pytest.approx(4.0)


def test_case_bd_spot():
    case = hom.case_bd(2)
    A = np.zeros((3, 2))
    A[0, 0] = 1.0
    A[1, 1] = 1.0
    # A^T G A = diag(1, -1); det((A^T G A) Omega) = det [[0,1],[1,0]] = -1
    assert hom.quartic_eval(case, A) == pytest.approx(-1.0)


def test_e6_decomposable_form_gives_zero_operator():
    alpha = np.zeros(20, dtype=complex)
    alpha[hom.TRIPLES.index((0, 1, 2))] = 1.0
    assert np.max(np.abs(hom.e6_operator(alpha))) == 0.0


def test_e6_stable_form_spot():
    alpha = np.zeros(20, dtype=complex)
    alpha[hom.TRIPLES.index((0, 1, 2))] = 1.0
    alpha[hom.TRIPLES.index((3, 4, 5))] = 1.0
    op = hom.e6_operator(alpha)
    assert np.allclose(op, np.diag([1, 1, 1, -1, -1, -1]), atol=1e-12)
    q = hom.quartic_eval(hom.case_e6(), alpha)
    assert q == pytest.approx(6.0)
    norm = np.linalg.norm(alpha)
    assert abs(q) > 1e-6 * norm**4


# ---------------------------------------------------------------------------
# brute-force oracle for the E6 operator
# ---------------------------------------------------------------------------


def _perm_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _form3_bruteforce(alpha20):
    """Full antisymmetric 3-form array, one signed permutation at a time."""
    full = np.zeros((6, 6, 6), dtype=alpha20.dtype)
    for value, (i, j, k) in zip(alpha20, hom.TRIPLES):
        for perm in itertools.permutations((i, j, k)):
            full[perm] = value * _perm_sign([(i, j, k).index(p) for p in perm])
    return full


def _e6_operator_bruteforce(alpha20):
    """Exhaustive contraction with explicit permutation loops (no einsum)."""
    full = _form3_bruteforce(np.asarray(alpha20, dtype=complex))
    op = np.zeros((6, 6), dtype=complex)
    for m in range(6):
        for i in range(6):
            total = 0.0
            for rest in itertools.permutations([x for x in range(6) if x != m], 5):
                j, k, l, p, q = rest
                total += full[j, k, l] * full[i, p, q] * _perm_sign((m,) + rest)
            op[m, i] = total / 12.0
    return op


def test_form3_to_array_matches_the_permutation_loop(rng):
    for alpha in (rng.standard_normal(20), rng.standard_normal(20) + 1j * rng.standard_normal(20)):
        assert hom.form3_to_array(alpha).tobytes() == _form3_bruteforce(alpha).tobytes()


def test_cached_tables_are_read_only():
    L, P = hom._wedge_data()
    star_slots, *star_rest = hom._star_table()
    for table in (*star_slots, *star_rest, L, P, hom.case_f().structure["omega"],
                  *hom._form3_table()[1:]):
        assert not table.flags.writeable


def test_e6_operator_matches_bruteforce(rng):
    alpha = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    assert np.allclose(hom.e6_operator(alpha), _e6_operator_bruteforce(alpha), atol=1e-12)


def test_e6_operator_matches_bruteforce_on_a_real_f_case_form(rng):
    beta = hom.f_case_project(rng.standard_normal(20))
    assert hom.f_kernel_residual(beta) < 1e-12
    assert np.allclose(hom.e6_operator(beta), _e6_operator_bruteforce(beta), atol=1e-12)


def test_star_table_signs_are_the_levi_civita_signs():
    slots, comp, sign = hom._star_table()
    entries = list(zip(*slots, comp, sign))
    assert sorted((m, p, q) for m, p, q, _, _ in entries) == list(itertools.permutations(range(6), 3))
    for m, p, q, c, s in entries:
        rest = hom.TRIPLES[c]
        assert list(rest) == sorted(set(range(6)) - {m, p, q})
        assert s == _perm_sign((m, *rest, p, q))


def _eps6_dense():
    eps = np.zeros((6,) * 6)
    for perm in itertools.permutations(range(6)):
        eps[perm] = _perm_sign(perm)
    return eps


def test_wedge_data_is_byte_equal_to_the_dense_levi_civita_construction():
    omega = np.zeros((6, 6))
    for i in range(3):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    eps = _eps6_dense()
    L = np.zeros((6, 20))
    for col, beta in enumerate(np.eye(20)):
        L[:, col] = np.einsum("pq,jkl,mpqjkl->m", omega, _form3_bruteforce(beta), eps) / 12.0
    P = np.eye(20) - np.linalg.pinv(L) @ L
    L_table, P_table = hom._wedge_data()
    assert L_table.tobytes() == L.tobytes()
    assert P_table.tobytes() == P.tobytes()


# ---------------------------------------------------------------------------
# homogeneity Q(t v) = t^4 Q(v)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case_idx", range(5))
@settings(max_examples=25, derandomize=True, deadline=None)
@given(t=st.floats(min_value=0.3, max_value=2.5), seed=st.integers(0, 2**16))
def test_quartic_homogeneity(case_idx, t, seed):
    case = _cases()[case_idx]
    v = hom.random_vector(case, np.random.default_rng(seed))
    q_scaled = hom.quartic_eval(case, t * v)
    q_ref = t**4 * hom.quartic_eval(case, v)
    assert abs(q_scaled - q_ref) <= 1e-12 * (1.0 + abs(q_ref))


# ---------------------------------------------------------------------------
# Lie invariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c.tag)
def test_invariance_sweep(case, rng):
    for _ in range(15):
        v = hom.random_vector(case, rng)
        gen = hom.random_generator(case, rng)
        assert hom.membership_residual(case, gen) <= 1e-12
        assert hom.lie_invariance_residual(case, v, gen) < 1e-7


def test_zero_generator_gives_zero_residual(rng):
    case = hom.case_a(2)
    gen = hom.RepElement("A", np.zeros((3, 3), dtype=complex))
    v = hom.random_vector(case, rng)
    assert hom.lie_invariance_residual(case, v, gen) == 0.0


def test_membership_violation_rejected(rng):
    case = hom.case_a(2)
    bad = hom.RepElement("A", np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        hom.lie_invariance_residual(case, hom.random_vector(case, rng), bad)


def test_case_a_invariance_oracle(rng):
    # one-line oracle: d/dt of v-dagger eta v vanishes iff Re(v-dagger eta X v) = 0
    case = hom.case_a(3)
    eta = case.structure["eta"]
    for _ in range(20):
        v = hom.random_vector(case, rng)
        X = hom.random_generator(case, rng).data
        assert abs(np.real(np.conj(v) @ (eta * (X @ v)))) < 1e-12 * np.linalg.norm(v) ** 2


def test_case_g_transformed_coefficient_oracle():
    # generator x d/dy moves p = x^3 + y^3; the discriminant must not
    gen = hom.RepElement("G", np.array([[0.0, 0.0], [1.0, 0.0]]))
    p = np.array([1.0, 0.0, 0.0, 1.0])
    assert hom.lie_invariance_residual(hom.case_g(), p, gen) < 1e-8
    # finite version by explicit coefficient substitution p((x, y) g)
    g = expm(0.05 * gen.data)

    def compose(coeffs, mat):
        # p(v) with v -> g^{-1} v, expanded in the plain monomial basis
        inv = np.linalg.inv(mat)
        a, b, c, d = coeffs
        out = np.zeros(4)
        for (e0, coef) in ((3, a), (2, b), (1, c), (0, d)):
            # x^e0 y^(3-e0) with x -> inv[0,0] x + inv[0,1] y etc.
            for i in range(e0 + 1):
                for j in range(3 - e0 + 1):
                    term = (
                        coef
                        * comb(e0, i)
                        * comb(3 - e0, j)
                        * inv[0, 0] ** i
                        * inv[0, 1] ** (e0 - i)
                        * inv[1, 0] ** j
                        * inv[1, 1] ** (3 - e0 - j)
                    )
                    out[3 - (i + j)] += term
        return out

    moved = compose(p, g)
    q0 = hom.quartic_eval(hom.case_g(), p)
    q1 = hom.quartic_eval(hom.case_g(), moved)
    assert abs(q1 - q0) < 1e-10 * (1 + abs(q0))


def test_bd_finite_transformation_oracle(rng):
    case = hom.case_bd(4)
    A = hom.random_vector(case, rng)
    R, L = hom.random_generator(case, rng).data
    moved = expm(0.1 * R) @ A @ expm(0.1 * L).T
    q0 = hom.quartic_eval(case, A)
    q1 = hom.quartic_eval(case, moved)
    assert abs(q1 - q0) < 1e-10 * (1 + abs(q0))


# ---------------------------------------------------------------------------
# F case: projection and restriction
# ---------------------------------------------------------------------------


def test_projection_is_idempotent(rng):
    beta = hom.f_case_project(rng.standard_normal(20))
    assert np.max(np.abs(hom.f_case_project(beta) - beta)) < 1e-12


def test_projection_lands_in_kernel(rng):
    for _ in range(5):
        beta = hom.f_case_project(rng.standard_normal(20))
        assert hom.f_kernel_residual(beta) < 1e-12


def test_projection_kernel_dimension():
    L, P = hom._wedge_data()
    assert np.linalg.matrix_rank(L) == 6
    assert np.linalg.matrix_rank(P) == 14


def test_omega_wedge_covector_projects_to_zero():
    # omega ^ gamma spans the complement of the primitive forms
    omega = np.zeros((6, 6))
    for i in range(3):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    gamma = np.arange(1.0, 7.0)
    full = np.zeros((6, 6, 6))
    for i, j, k in itertools.permutations(range(6), 3):
        # antisymmetrization of omega x gamma over three slots
        full[i, j, k] = (
            omega[i, j] * gamma[k] + omega[j, k] * gamma[i] + omega[k, i] * gamma[j]
        )
    beta = hom.array_to_form3(full)
    projected = hom.f_case_project(beta)
    assert hom.f_kernel_residual(projected) < 1e-12
    assert np.max(np.abs(projected)) < 1e-12


def test_f_restriction_of_e6_quartic(rng):
    for _ in range(5):
        beta = hom.f_case_project(rng.standard_normal(20))
        q_f = hom.quartic_eval(hom.case_f(), beta)
        q_e6 = hom.quartic_eval(hom.case_e6(), beta.astype(complex))
        assert abs(q_f - np.real(q_e6)) < 1e-10 * (1 + abs(q_f))
        assert abs(np.imag(q_e6)) < 1e-10


def test_f_rejects_nonkernel_input(rng):
    beta = rng.standard_normal(20)
    if hom.f_kernel_residual(beta) > 1e-10:
        with pytest.raises(ValueError):
            hom.quartic_eval(hom.case_f(), beta)


def test_dimension_checks():
    with pytest.raises(ValueError):
        hom.quartic_eval(hom.case_a(2), np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        hom.quartic_eval(hom.case_g(), np.zeros(3))
    with pytest.raises(ValueError):
        hom.quartic_eval(hom.case_e6(), np.zeros(19, dtype=complex))


# ---------------------------------------------------------------------------
# Q proportional to k^2
# ---------------------------------------------------------------------------


def test_signature_detection(fs3, sig3, stu):
    assert np.array_equal(hom.quadratic_signature(fs3), [1, 1, 1])
    assert np.array_equal(hom.quadratic_signature(sig3), [1, 1, -1])
    assert hom.quadratic_signature(stu) is None


def test_elliptic_ratio_constant(fs3, rng):
    case = hom.case_a(2, signature=[1, 1, 1])
    samples = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(20)]
    rep = hom.q_proportional_ksq(case, fs3, samples)
    assert rep.ratio == pytest.approx(4.0, abs=1e-12)
    assert rep.rel_spread < 1e-10


def test_single_sample_ratio(fs3):
    case = hom.case_a(2, signature=[1, 1, 1])
    rep = hom.q_proportional_ksq(case, fs3, [np.array([1.0, 2.0, 0.5], dtype=complex)])
    assert rep.rel_spread == 0.0


def test_lorentzian_signature_same_ratio(sig3, rng):
    case = hom.case_a(2)
    samples = []
    negatives = 0
    while len(samples) < 20:
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        k = np.abs(z[0]) ** 2 + np.abs(z[1]) ** 2 - np.abs(z[2]) ** 2
        if abs(k) < 1e-3:
            continue
        negatives += k < 0
        samples.append(z)
    assert negatives > 0  # both signs of k represented
    rep = hom.q_proportional_ksq(case, sig3, samples)
    assert rep.ratio == pytest.approx(4.0, abs=1e-12)
    assert rep.rel_spread < 1e-10


def test_ratio_rejects_mismatched_signature(fs3):
    with pytest.raises(ValueError):
        hom.q_proportional_ksq(hom.case_a(2), fs3, [np.ones(3, dtype=complex)])


def test_ratio_requires_case_a(stu):
    with pytest.raises(ValueError):
        hom.q_proportional_ksq(hom.case_bd(3), stu, stu_points(2))


# ---------------------------------------------------------------------------
# stacks: one vector is a stack of one
# ---------------------------------------------------------------------------

SIZES = ([hom.case_a(n) for n in (1, 2, 3, 4)] + [hom.case_bd(n) for n in (2, 3, 4, 5)]
         + [hom.case_e6(), hom.case_f(), hom.case_g()])


def _bytes(x) -> bytes:
    return b"".join(_bytes(y) for y in x) if isinstance(x, tuple) else np.asarray(x).tobytes()


def _quartic_one_at_a_time(case, v):
    """The per-vector formulas of cases A, BD and G, in Python numbers where they used them."""
    if case.tag == "A":
        gvv = 2.0 * float(np.real(np.conj(v) @ (case.structure["eta"] * v)))
        return gvv * gvv
    if case.tag == "BD":
        return float(np.linalg.det(v.T @ case.structure["G"] @ v @ case.structure["Omega"]))
    a, b, c, d = (float(x) for x in v)
    A, B, C = 12.0 * a * c - 4.0 * b * b, 36.0 * a * d - 4.0 * b * c, 12.0 * b * d - 4.0 * c * c
    return B * B - 4.0 * A * C


@pytest.mark.parametrize("case", SIZES, ids=lambda c: f"{c.tag}{c.n}")
def test_a_stack_gives_each_row_the_bytes_of_its_single_call(case):
    """60 draws as stacks: the draws, Q, the action, membership and invariance equal the one-vector calls."""
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    pairs = [(hom.random_vector(case, rng), hom.random_generator(case, rng)) for _ in range(60)]
    draws = [(hom.draw_vector(case, twin), hom.draw_generator(case, twin)) for _ in range(60)]
    V = hom.vector_stack(case, [v for v, _ in draws])
    gens = hom.generator_stack(case, [g for _, g in draws])
    q, w = hom.quartic_eval(case, V), hom.rep_action(case, gens, V)
    member, lie = hom.membership_residual(case, gens), hom.lie_invariance_residual(case, V, gens)
    assert q.shape == member.shape == lie.shape == (60,) and w.shape == V.shape
    for p, (v, gen) in enumerate(pairs):
        assert V[p].tobytes() == v.tobytes()
        assert _bytes(hom._pick(gens, p).data) == _bytes(gen.data)
        single = hom.quartic_eval(case, v)
        assert type(single) is (complex if case.tag == "E6" else float)
        assert q[p].tobytes() == _bytes(single)
        if case.tag in ("A", "BD", "G"):
            assert q[p].tobytes() == _bytes(_quartic_one_at_a_time(case, v))
        assert w[p].tobytes() == hom.rep_action(case, gen, v).tobytes()
        assert member[p].tobytes() == _bytes(hom.membership_residual(case, gen))
        assert lie[p].tobytes() == _bytes(hom.lie_invariance_residual(case, v, gen))


@pytest.mark.parametrize("shape", [(d,) for d in range(1, 26)] + [(6, 6), (5, 2)])
def test_stacked_norms_are_np_linalg_norm_bit_for_bit(shape, rng):
    """Complex rows as sqrt(re.re + im.im) by matmul on the strided views; an einsum differs from d = 4 on."""
    for X in (rng.standard_normal((30, *shape)), rng.standard_normal((30, *shape)) + 1j * rng.standard_normal((30, *shape))):
        norms = hom._norms(X)
        assert [n.tobytes() for n in norms] == [np.linalg.norm(x).tobytes() for x in X]


def test_a_stack_raises_what_its_rows_raise(rng):
    case = hom.case_f()
    V = hom.vector_stack(case, [hom.draw_vector(case, rng) for _ in range(3)])
    with pytest.raises(ValueError, match="not in ker"):
        hom.quartic_eval(case, V + np.eye(20)[:3])
    with pytest.raises(ValueError, match="case F expects 20 real 3-form components"):
        hom.quartic_eval(case, V[:, :19])
    gens = hom.generator_stack(case, [hom.draw_generator(case, rng) for _ in range(3)])
    bad = hom.RepElement("F", gens.data + np.eye(6))
    with pytest.raises(ValueError, match="violates its Lie-algebra membership"):
        hom.lie_invariance_residual(case, V, bad)
