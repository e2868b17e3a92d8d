import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skcone import expr
from skcone.errors import EvaluationSingularity, ParseError
from skcone.expr import (
    HomogeneityReport,
    Lit,
    Neg,
    Power,
    Product,
    Quotient,
    Sum,
    Var,
    check_homogeneity,
    eval_jet,
    jet_fd_residual,
    max_or_nan,
    parse_prepotential,
    pretty,
)

from conftest import stu_points

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_fs_shape():
    ast = parse_prepotential("i*(z0^2 + z1^2)", 2)
    assert ast.root == Product(
        (Lit(1j), Sum((Power(Var(0), 2), Power(Var(1), 2))))
    )


def test_parse_stu_is_quotient():
    ast = parse_prepotential("z1*z2*z3/z0", 4)
    assert isinstance(ast.root, Quotient)
    assert ast.root.num == Product((Var(1), Var(2), Var(3)))
    assert ast.root.den == Var(0)


def test_variable_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_prepotential("z0^2 + z5", 2)
    assert "out of range" in str(err.value)
    assert err.value.offset == 7


def test_unknown_variable_name():
    with pytest.raises(ParseError) as err:
        parse_prepotential("w3 + z0", 2)
    assert "unknown variable" in str(err.value)


def test_bare_z_is_unknown():
    with pytest.raises(ParseError):
        parse_prepotential("z + 1", 1)


def test_braced_variable_indices():
    ast = parse_prepotential("z{11} + z{2}", 12)
    assert Var(11) in ast.root.terms
    assert pretty(ast) == "z{11} + z2"


def test_multidigit_variable_without_braces():
    ast = parse_prepotential("z12", 13)
    assert ast.root == Var(12)


def test_empty_input():
    with pytest.raises(ParseError):
        parse_prepotential("   ", 1)


def test_nvars_must_be_positive():
    with pytest.raises(ValueError):
        parse_prepotential("z0", 0)


def test_syntactic_zero_denominator():
    for text in ("z0/0", "z0/(0)", "z0/-0.0"):
        with pytest.raises(ParseError):
            parse_prepotential(text, 1)


def test_double_caret_offset():
    with pytest.raises(ParseError) as err:
        parse_prepotential("z0^^2", 1)
    assert err.value.offset == 3


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_prepotential("z0^2.5", 1)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_prepotential("z0 z1", 2)


# ---------------------------------------------------------------------------
# pretty printing round trips
# ---------------------------------------------------------------------------

ROUNDTRIP_CORPUS = [
    "i*(z0^2 + z1^2)",
    "z1*z2*z3/z0",
    "-z0^2 + 2*z1 - (z0 - z1)*z1",
    "z0/(z1*z2)",
    "(z0 + z1)*(z0 - z1)",
    "1.5*z0^4/z1^2",
    "-(z0 + z1)",
    "2*i*z0*z1",
    "z0/z1/z2",
    "z0^2/(z1/z2)",
    "--z0",
    "z0*-z1",
    "0.25 + z0^0",
]


@pytest.mark.parametrize("text", ROUNDTRIP_CORPUS)
def test_parse_pretty_parse_idempotent(text):
    first = parse_prepotential(text, 4)
    printed = pretty(first)
    second = parse_prepotential(printed, 4)
    assert second == first
    assert pretty(second) == printed


_atoms = st.one_of(
    st.sampled_from([Lit(0.5), Lit(2.0), Lit(1.0), Lit(1j), Var(0), Var(1), Var(2)])
)


def _nodes(children):
    nonzero = children.filter(
        lambda n: not (isinstance(n, Lit) and n.value == 0)
    )
    return st.one_of(
        st.tuples(children).map(lambda t: Neg(t[0])),
        st.lists(children, min_size=2, max_size=3).filter(
            lambda ts: not any(isinstance(t, Sum) for t in ts)
        ).map(lambda ts: Sum(tuple(ts))),
        st.lists(children, min_size=2, max_size=3).filter(
            lambda ts: not any(isinstance(t, Product) for t in ts)
        ).map(lambda ts: Product(tuple(ts))),
        st.tuples(children, nonzero).map(lambda t: Quotient(t[0], t[1])),
        st.tuples(children, st.integers(0, 4)).map(lambda t: Power(t[0], t[1])),
    )


_ast_nodes = st.recursive(_atoms, _nodes, max_leaves=12)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_ast_nodes)
def test_random_ast_roundtrip(node):
    from skcone.expr import PrepotentialAst

    ast = PrepotentialAst(node, 3)
    reparsed = parse_prepotential(pretty(ast), 3)
    assert reparsed.root == node


# ---------------------------------------------------------------------------
# jets: frozen hand values
# ---------------------------------------------------------------------------


def test_fs_jet_at_1_0(fs2):
    jet = eval_jet(fs2, np.array([1.0, 0.0], dtype=complex), 2)
    assert jet.value == 1j
    assert np.allclose(jet.deriv(1), [2j, 0.0], atol=0)
    assert np.allclose(jet.deriv(2), np.diag([2j, 2j]), atol=0)


def test_stu_gradient_at_ones(stu):
    jet = eval_jet(stu, np.ones(4, dtype=complex), 1)
    assert np.allclose(jet.deriv(1), [-1.0, 1.0, 1.0, 1.0], atol=1e-15)


def test_order_zero_is_plain_evaluation(stu, rng):
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    jet = eval_jet(stu, z, 0)
    expected = z[1] * z[2] * z[3] / z[0]
    assert abs(jet.value - expected) < 1e-14 * abs(expected)
    with pytest.raises(ValueError):
        jet.deriv(1)


def test_stu_second_derivatives_at_base(stu):
    z = np.array([1.0, 1j, 1j, 1j])
    tau = eval_jet(stu, z, 2).deriv(2)
    expected = np.array(
        [
            [-2j, 1.0, 1.0, 1.0],
            [1.0, 0.0, 1j, 1j],
            [1.0, 1j, 0.0, 1j],
            [1.0, 1j, 1j, 0.0],
        ]
    )
    assert np.allclose(tau, expected, atol=1e-14)


def test_stu_third_derivative_spots(stu):
    z = np.array([1.0, 1j, 1j, 1j])
    f3 = eval_jet(stu, z, 3).deriv(3)
    # d3F/dz0^3 = -6 z1 z2 z3 / z0^4 = 6i;  d3F/dz0 dz1 dz2 = -z3/z0^2 = -i
    assert abs(f3[0, 0, 0] - 6j) < 1e-14
    assert abs(f3[0, 1, 2] + 1j) < 1e-14


def test_jet_symmetry_is_exact(stu):
    z = np.array([1.1 + 0.2j, 0.4 + 0.9j, -0.3 + 1.2j, 0.8 - 0.5j])
    jet = eval_jet(stu, z, 4)
    d3, d4 = jet.deriv(3), jet.deriv(4)
    assert np.array_equal(d3, np.transpose(d3, (1, 0, 2)))
    assert np.array_equal(d3, np.transpose(d3, (2, 1, 0)))
    assert np.array_equal(d4, np.transpose(d4, (3, 1, 2, 0)))
    assert np.array_equal(d4, np.transpose(d4, (0, 2, 1, 3)))


@pytest.mark.parametrize(
    "text,n",
    [
        ("i*(z0^2 + z1^2)", 2),
        ("z1*z2*z3/z0", 4),
        ("(z0^2 + z1*z2)^2/(z0*z1^2)", 3),
    ],
)
def test_jets_match_finite_differences(text, n, rng):
    ast = parse_prepotential(text, n)
    for _ in range(3):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 2.0
        assert jet_fd_residual(ast, z, order=4) < 1e-6


def test_singularity_reports_offending_node(stu):
    with pytest.raises(EvaluationSingularity) as err:
        eval_jet(stu, np.array([0.0, 1.0, 1.0, 1.0], dtype=complex), 1)
    assert "z0" in str(err.value)


def test_eval_rejects_wrong_shape(fs2):
    with pytest.raises(ValueError):
        eval_jet(fs2, np.zeros(3, dtype=complex), 1)
    with pytest.raises(ValueError):
        eval_jet(fs2, np.ones(2, dtype=complex), 5)


@pytest.mark.parametrize("name", ["fs3", "stu", "sig3"])
def test_lower_tensors_do_not_depend_on_order(name, request, rng):
    """An order-k jet carries bit-identical lower tensors to an order-j jet (j < k)."""
    ast = request.getfixturevalue(name)
    if name == "stu":
        points = stu_points(3, seed=19)
    else:
        points = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
    for z in points:
        jets = [eval_jet(ast, z, order) for order in range(5)]
        for k in range(1, 5):
            for j in range(k):
                assert jets[k].value == jets[j].value
                for r in range(1, j + 1):
                    assert np.array_equal(jets[k].deriv(r), jets[j].deriv(r))


MIXED = "-(2.5 + 1.5*i)*z0^2 + 3*z1*z0 - z1^3/z0 + z1^0*(z0 - z1)^2"


def _jet_bytes(value, derivs):
    return [np.complex128(value).tobytes()] + [np.asarray(d).tobytes() for d in derivs]


@pytest.mark.parametrize("name", ["fs3", "stu", "sig3", "mixed"])
def test_stacked_jet_is_byte_equal_to_single_points(name, request, rng):
    """Every point of a stacked jet carries the bytes of its own single-point jet."""
    ast = parse_prepotential(MIXED, 2) if name == "mixed" else request.getfixturevalue(name)
    n = ast.n_vars
    zs = rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
    zs[0] = -zs[0]
    zs[1, 1] = -0.0
    for order in range(5):
        stack = eval_jet(ast, zs, order)
        assert stack.singular == {}
        assert stack.value.shape == (9,)
        assert all(d.shape == (9,) + (n,) * r for r, d in enumerate(stack.derivs, 1))
        for p, z in enumerate(zs):
            single = eval_jet(ast, z, order)
            assert _jet_bytes(stack.value[p], [d[p] for d in stack.derivs]) == \
                _jet_bytes(single.value, single.derivs)
            row = stack.row(p)
            assert _jet_bytes(row.value, row.derivs) == _jet_bytes(single.value, single.derivs)


def test_values_are_python_complex_arithmetic(stu, rng):
    """Values follow CPython's complex arithmetic, which numpy's (fused multiply-add) does not match."""
    zs = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    stack = eval_jet(stu, zs, 2)
    for p, (z0, z1, z2, z3) in enumerate(zs.tolist()):
        expected = np.complex128(((z1 * z2) * z3) * (1.0 / z0)).tobytes()
        assert stack.value[p].tobytes() == expected
        assert np.complex128(eval_jet(stu, zs[p], 0).value).tobytes() == expected


def test_stacked_singular_point_marks_only_itself(stu):
    zs = np.array([[1.0, 1j, 1j, 1j], [0.0, 1.0, 1.0, 1.0], [1.1 + 0.2j, 0.4 + 0.9j, 1.2j, 0.8 - 0.5j]])
    stack = eval_jet(stu, zs, 2)
    with pytest.raises(EvaluationSingularity) as single:
        eval_jet(stu, zs[1], 2)
    assert list(stack.singular) == [1]
    assert str(stack.singular[1]) == str(single.value)
    assert np.isnan(stack.value[1]) and np.isnan(stack.deriv(2)[1]).all()
    for p in (0, 2):
        alone = eval_jet(stu, zs[p], 2)
        assert _jet_bytes(stack.value[p], [d[p] for d in stack.derivs]) == \
            _jet_bytes(alone.value, alone.derivs)


def test_tape_is_compiled_once_per_ast(stu):
    ast = parse_prepotential("z1*z2*z3/z0 + z1*z2*z3/z0", 4)
    assert ast.tape is ast.tape
    # the repeated quotient is one run of instructions, not two
    assert len(ast.tape) == len(stu.tape) + 1


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------


def test_quadratic_homogeneity_is_exact(fs2, rng):
    samples = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
    rep = check_homogeneity(fs2, samples, [2.0, 0.5 - 1.5j])
    assert rep.scale_residual < 1e-15
    assert rep.euler_residual < 1e-15


def test_stu_homogeneity_at_base(stu):
    rep = check_homogeneity(stu, [np.ones(4, dtype=complex)], [1 + 1j])
    assert rep.scale_residual < 1e-12
    assert rep.euler_residual < 1e-12


def test_cubic_fails_euler_by_one_third():
    ast = parse_prepotential("z0^3", 1)
    rep = check_homogeneity(ast, [np.array([1.0 + 0j])], [])
    assert abs(rep.euler_residual - 1.0 / 3.0) < 1e-14


def test_singular_samples_are_flagged(stu):
    samples = [np.array([0.0, 1, 1, 1], dtype=complex), np.ones(4, dtype=complex)]
    rep = check_homogeneity(stu, samples, [2.0])
    assert rep.skipped == (0,)
    assert rep.euler_residual < 1e-12


def _homogeneity_per_sample(ast, samples, scales):
    """The reference: one order-1 jet per sample and one order-0 jet per sample and scale."""
    scale_res = 0.0
    euler_res = 0.0
    skipped = []
    for idx, z in enumerate(samples):
        z = np.asarray(z, dtype=complex)
        try:
            jet = eval_jet(ast, z, 1)
            f_z = jet.value
            euler = abs(np.dot(z, jet.deriv(1)) - 2.0 * f_z) / (1.0 + abs(2.0 * f_z))
            euler_res = max_or_nan(euler_res, euler)
            for lam in scales:
                f_scaled = eval_jet(ast, lam * z, 0).value
                ref = lam * lam * f_z
                scale_res = max_or_nan(scale_res, abs(f_scaled - ref) / (1.0 + abs(ref)))
        except EvaluationSingularity:
            skipped.append(idx)
    return HomogeneityReport(scale_res, euler_res, tuple(skipped))


POLE = "z1^3/z0 - 2*z0*z1"


def _samples(n, count, seed):
    gen = np.random.default_rng(seed)
    return [gen.standard_normal(n) + 1j * gen.standard_normal(n) for _ in range(count)]


@pytest.mark.parametrize("text, n, extra", [
    ("i*(z0^2 + z1^2)", 2, []),
    ("z1*z2*z3/z0", 4, []),
    # a base point on the pole, and a point only the scale 1e-151 takes onto it
    (POLE, 2, [np.array([0.0, 1.0 + 1j]), np.array([1e-150, 0.5j])]),
])
def test_stacked_homogeneity_equals_the_per_sample_loop(text, n, extra):
    ast = parse_prepotential(text, n)
    samples = _samples(n, 5, seed=n)
    samples[1:1] = extra
    for scales in ([2.0, 0.5 - 1.5j], [2.0, 1e-151], [1 + 1j], []):
        assert check_homogeneity(ast, samples, scales) == _homogeneity_per_sample(ast, samples, scales)


def test_a_later_singular_scale_keeps_the_earlier_residuals():
    ast = parse_prepotential(POLE, 2)
    on_pole_at_second_scale = [np.array([1e-150, 0.5j])]
    first = check_homogeneity(ast, on_pole_at_second_scale, [2.0])
    assert first.skipped == () and np.isfinite(first.euler_residual)
    rep = check_homogeneity(ast, on_pole_at_second_scale, [2.0, 1e-151, 3.0])
    assert rep == HomogeneityReport(first.scale_residual, first.euler_residual, (0,))
    assert check_homogeneity(ast, [np.array([0.0, 1.0])], [2.0]) == HomogeneityReport(0.0, 0.0, (0,))


def test_homogeneity_evaluates_one_stack_per_order_and_scale(monkeypatch):
    ast = parse_prepotential(POLE, 2)
    calls = []
    real = expr.eval_jet

    def counting(ast, z, order):
        calls.append((order, np.shape(z)))
        return real(ast, z, order)

    monkeypatch.setattr(expr, "eval_jet", counting)
    samples = [*_samples(2, 7, seed=3), np.array([0.0, 1.0])]
    scales = (2.0, 1.0 + 0.7j, 3.0)
    check_homogeneity(ast, samples, scales)
    assert calls == [(1, (8, 2))] + [(0, (8, 2))] * len(scales)


# ---------------------------------------------------------------------------
# NaN-propagating reduction
# ---------------------------------------------------------------------------


def test_max_or_nan_keeps_a_later_nan():
    nan = float("nan")
    assert max(0.0, nan) == 0.0  # the builtin drops it
    assert np.isnan(max_or_nan(0.0, nan))
    assert np.isnan(max_or_nan(nan, 1.0))
    assert max_or_nan(1.0, 2.0) == 2.0 and max_or_nan(2.0, 1.0) == 2.0


def test_homogeneity_reports_nan_from_a_later_sample(fs2):
    samples = [np.ones(2, dtype=complex), np.array([1.0, np.nan], dtype=complex)]
    rep = check_homogeneity(fs2, samples, [2.0])
    assert np.isnan(rep.euler_residual) and np.isnan(rep.scale_residual)
    assert repr(rep) == repr(_homogeneity_per_sample(fs2, samples, [2.0]))  # NaN != NaN under ==
