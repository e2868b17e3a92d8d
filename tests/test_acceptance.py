"""Acceptance criteria, one test per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; any failure raises with the offending residual.
"""

import numpy as np
import pytest

import skcone.cone as cone
import skcone.homogeneous as hom
import skcone.projective as proj
import skcone.verify as verify
from skcone import geometry as geo
from skcone.expr import check_homogeneity, jet_fd_residual, parse_prepotential

from conftest import STU_BASE, STU_BASE_NEG


def _report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def _suite(prepotential, n_vars, base, samples, seed, checks=None, radius=0.15):
    return verify.run_suite(
        verify.SuiteConfig(
            prepotential=prepotential,
            n_vars=n_vars,
            seed=seed,
            sample_count=samples,
            base_point=tuple(base),
            sample_radius=radius,
            checks=checks,
        )
    )


def _max_res(report, cid):
    return report.summary["max_residual"][cid]


# ---------------------------------------------------------------------------
# 1. Fubini-Study golden suite
# ---------------------------------------------------------------------------


def test_criterion_1_fubini_study_golden():
    bases = {
        2: (1.0 + 0.2j, 0.3 - 0.1j),
        3: (1.0 + 0.2j, 0.3 - 0.1j, 0.5 + 0.4j),
        4: (1.0 + 0.2j, 0.3 - 0.1j, 0.5 + 0.4j, -0.4 + 0.6j),
    }
    worst = {}
    for m, base in bases.items():
        expr = "i*(" + " + ".join(f"z{j}^2" for j in range(m)) + ")"
        ast = parse_prepotential(expr, m)
        report = _suite(expr, m, base, samples=8, seed=42)
        assert report.all_pass, [r.id for r in report.checks if not r.passed]

        cfg = verify.SuiteConfig(prepotential=expr, n_vars=m, seed=42, sample_count=8,
                                 base_point=tuple(base), sample_radius=0.15)
        for z in verify.sample_points(cfg):
            assert abs(geo.kahler_potential(ast, z) - np.sum(np.abs(z) ** 2)) < 1e-12
            H = geo.flat_hessian_of_k(ast, z)
            expected = np.diag([2.0] * m + [0.5] * m)
            assert np.max(np.abs(H - expected)) < 1e-10

        assert _max_res(report, "eq.ma.spread") < 1e-10
        for cid in ("lemma1.h_xi_dbar_k", "lemma1.g_xi_dk", "lemma1.g_xi_xi"):
            assert _max_res(report, cid) < 1e-10
        assert _max_res(report, "thm.affinesphere.gauss") < 1e-6
        assert _max_res(report, "thm.affinesphere.shape") < 1e-8
        assert _max_res(report, "sasaki.contact") < 1e-6
        assert _max_res(report, "contact.d_eta") < 1e-6
        assert _max_res(report, "prop.hyperspheres.submersion") < 1e-10
        assert _max_res(report, "fs.closed_form") < 1e-10
        worst[m] = max(report.summary["max_residual"].values())
    _report("1 Fubini-Study golden suite", f"(n+1 in 2..4, worst residual {max(worst.values()):.2e})")


# ---------------------------------------------------------------------------
# 2. STU / Lorentzian suite
# ---------------------------------------------------------------------------


def test_criterion_2_stu_lorentzian():
    expr = "z1*z2*z3/z0"
    domain = _suite(
        expr, 4, STU_BASE, samples=100, seed=7,
        checks=("expr.homogeneity.scale", "expr.homogeneity.euler",
                "eq.ma.spread", "eq.special.dnabla_j"),
    )
    assert domain.all_pass
    assert _max_res(domain, "expr.homogeneity.scale") < 1e-12
    assert _max_res(domain, "expr.homogeneity.euler") < 1e-12
    assert _max_res(domain, "eq.ma.spread") < 1e-6
    assert _max_res(domain, "eq.special.dnabla_j") < 1e-5

    sphere = _suite(
        expr, 4, STU_BASE, samples=20, seed=7,
        checks=("sasaki.killing", "sasaki.structure", "prop.asc.affine_sasaki",
                "sasaki.contact"),
    )
    assert sphere.all_pass
    for cid in ("sasaki.killing", "sasaki.structure", "prop.asc.affine_sasaki", "sasaki.contact"):
        assert _max_res(sphere, cid) < 1e-4
    affine_results = [r for r in sphere.checks if r.id == "prop.asc.affine_sasaki"]
    assert len(affine_results) >= 20

    # anti-isometry branch: sign-flipped base has k < 0
    ast = parse_prepotential(expr, 4)
    flipped = _suite(
        expr, 4, STU_BASE_NEG, samples=8, seed=7,
        checks=("prop.hyperspheres.submersion", "sphere.on_level", "remark2.hamiltonian"),
    )
    assert flipped.all_pass
    assert _max_res(flipped, "prop.hyperspheres.submersion") < 1e-5
    sp = cone.project_to_sphere(ast, np.asarray(STU_BASE_NEG))
    assert sp.kappa == -1
    _report("2 STU/Lorentzian suite", f"(dnablaJ {_max_res(domain, 'eq.special.dnabla_j'):.2e}, "
            f"sasaki worst {max(_max_res(sphere, c) for c in ('sasaki.killing','sasaki.structure','prop.asc.affine_sasaki','sasaki.contact')):.2e})")


# ---------------------------------------------------------------------------
# 3. oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_oracle_equivalence():
    prepotentials = {
        "i*(z0^2 + z1^2 + z2^2)": (3, (1.0 + 0.2j, 0.3 - 0.1j, 0.5 + 0.4j)),
        "z1*z2*z3/z0": (4, tuple(STU_BASE)),
    }
    worst_h, worst_j = 0.0, 0.0
    for expr, (m, base) in prepotentials.items():
        ast = parse_prepotential(expr, m)
        cfg = verify.SuiteConfig(prepotential=expr, n_vars=m, seed=13,
                                 sample_count=50, base_point=base, sample_radius=0.12)
        points = verify.sample_points(cfg, ast)
        assert len(points) >= 50
        for z in points:
            H = geo.flat_hessian_of_k(ast, z)
            Hfd = geo.flat_hessian_fd(geo.FlatChart(ast, z))
            rel = np.max(np.abs(H - Hfd)) / np.max(np.abs(H))
            worst_h = max(worst_h, rel)
            assert rel < 1e-5
            res = jet_fd_residual(ast, z, order=4)
            worst_j = max(worst_j, res)
            assert res < 1e-6
    _report("3 oracle equivalence", f"(hessian {worst_h:.2e}, jets {worst_j:.2e})")


# ---------------------------------------------------------------------------
# 4. quartic invariance
# ---------------------------------------------------------------------------


def test_criterion_4_quartic_invariance():
    sweeps = {
        "A": [hom.case_a(n) for n in (1, 2, 3, 4)],
        "BD": [hom.case_bd(n) for n in (2, 3, 4, 5)],
        "E6": [hom.case_e6()],
        "F": [hom.case_f()],
        "G": [hom.case_g()],
    }
    worst_inv, worst_hom = 0.0, 0.0
    for tag, cases in sweeps.items():
        rng = np.random.default_rng(2025)
        pairs = 0
        while pairs < 50:
            for case in cases:
                v = hom.random_vector(case, rng)
                gen = hom.random_generator(case, rng)
                res = hom.lie_invariance_residual(case, v, gen)
                worst_inv = max(worst_inv, res)
                assert res < 1e-7, (tag, res)
                t = 1.0 + rng.random()
                hres = abs(hom.quartic_eval(case, t * v) - t**4 * hom.quartic_eval(case, v))
                hres /= 1.0 + abs(hom.quartic_eval(case, v))
                worst_hom = max(worst_hom, hres)
                assert hres < 1e-12
                pairs += 1

    assert hom.quartic_eval(hom.case_g(), [1, 0, 0, 1]) == pytest.approx(1296.0, abs=1e-9)

    alpha = np.zeros(20, dtype=complex)
    alpha[hom.TRIPLES.index((0, 1, 2))] = 1.0
    alpha[hom.TRIPLES.index((3, 4, 5))] = 1.0
    q = hom.quartic_eval(hom.case_e6(), alpha)
    assert abs(q) > 1e-6 * np.linalg.norm(alpha) ** 4
    _report("4 quartic invariance", f"(invariance {worst_inv:.2e}, homogeneity {worst_hom:.2e}, "
            f"Q_G = 1296, |Q_E6| = {abs(q):g})")


# ---------------------------------------------------------------------------
# 5. Q proportional to k^2 and sigma = X_Q
# ---------------------------------------------------------------------------


def test_criterion_5_q_ksq_and_hamiltonian():
    rng = np.random.default_rng(99)

    # elliptic case
    fs = parse_prepotential("i*(z0^2 + z1^2 + z2^2)", 3)
    case_fs = hom.case_a(2, signature=[1, 1, 1])
    samples = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(50)]
    rep = hom.q_proportional_ksq(case_fs, fs, samples)
    assert rep.rel_spread < 1e-10

    worst_fs = 0.0
    for z in samples[:10]:
        sp = cone.project_to_sphere(fs, z)
        worst_fs = max(worst_fs, cone.hamiltonian_field_residual(sp.domain))
    assert worst_fs < 1e-6

    # signature (n, 1) case, both metric branches
    sig = parse_prepotential("i*(z0^2 + z1^2 - z2^2)", 3)
    case_sig = hom.case_a(2)
    sig_samples = []
    have_neg = have_pos = 0
    while len(sig_samples) < 50:
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        k = np.abs(z[0]) ** 2 + np.abs(z[1]) ** 2 - np.abs(z[2]) ** 2
        if abs(k) < 1e-2:
            continue
        have_neg += k < 0
        have_pos += k > 0
        sig_samples.append(z)
    assert have_neg and have_pos
    rep_sig = hom.q_proportional_ksq(case_sig, sig, sig_samples)
    assert rep_sig.rel_spread < 1e-10

    worst_sig = 0.0
    for z in sig_samples[:10]:
        sp = cone.project_to_sphere(sig, z)
        worst_sig = max(worst_sig, cone.hamiltonian_field_residual(sp.domain))
    assert worst_sig < 1e-5
    _report("5 Q = c*k^2 and sigma = X_Q",
            f"(spread {max(rep.rel_spread, rep_sig.rel_spread):.2e}, "
            f"hamiltonian fs {worst_fs:.2e} sig {worst_sig:.2e})")


# ---------------------------------------------------------------------------
# 6. determinism
# ---------------------------------------------------------------------------


def test_criterion_6_determinism():
    def fs_run():
        return _suite(
            "i*(z0^2 + z1^2)", 2, (1.0 + 0.2j, 0.3 - 0.1j), samples=4, seed=42
        ).to_json()

    def stu_run():
        return _suite(
            "z1*z2*z3/z0", 4, tuple(STU_BASE), samples=4, seed=9,
            checks=("eq.ma.spread", "thm.affinesphere.gauss", "sasaki.killing",
                    "sec5.E6.invariance"),
        ).to_json()

    fs_a, fs_b = fs_run(), fs_run()
    stu_a, stu_b = stu_run(), stu_run()
    assert fs_a == fs_b
    assert stu_a == stu_b
    _report("6 determinism", f"({len(fs_a)} + {len(stu_a)} report bytes, byte-identical reruns)")


# ---------------------------------------------------------------------------
# 7. negative controls
# ---------------------------------------------------------------------------


def test_criterion_7_negative_controls():
    cubic = parse_prepotential("z0^3", 1)
    rep = check_homogeneity(cubic, [np.array([1.0 + 0j])], [2.0])
    assert rep.euler_residual >= 0.1

    stu = parse_prepotential("z1*z2*z3/z0", 4)
    z = STU_BASE + 0.02
    s = geo.domain_sample(stu, z)
    spike = np.zeros((8, 8))
    spike[2, 5] = 1.0

    def perturbed(w):
        sample = geo.domain_sample(stu, geo.invert_flat_coords(stu, w, z))
        J_flat = sample.flat_jac @ sample.J @ np.linalg.inv(sample.flat_jac)
        return J_flat + 0.1 * np.sin(w[0]) * spike

    h = 1e-4 * (1.0 + float(np.linalg.norm(s.flat)))
    residual = geo.antisymmetrized_chart_derivative(perturbed, s.flat, h)
    tolerance = 1e-5  # the chart_fd class used by eq.special.dnabla_j
    assert residual >= 10 * tolerance
    assert geo.dnabla_J_residual(geo.FlatChart(stu, z)) < tolerance
    _report("7 negative controls",
            f"(euler {rep.euler_residual:.3f} >= 0.1, perturbed J {residual:.2e} >= 1e-4)")
