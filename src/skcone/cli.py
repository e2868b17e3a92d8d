"""Command-line front end.

Exit codes: 0 all executed checks passed, 1 check failures, 2 config or
parse errors.  Results go to stdout, diagnostics to stderr.  No
environment variables are consulted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import cone as cone_mod
from . import geometry as geo
from . import homogeneous as hom
from . import projective as proj
from . import verify as verify_mod
from .errors import ParseError, SkconeError
from .expr import (PrepotentialAst, check_homogeneity, max_or_nan, max_var_index,
                   parse_prepotential, pretty)


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def _parse_point(text: str) -> np.ndarray:
    return np.array([_parse_complex(part) for part in text.split(",")], dtype=complex)


def _infer(expr: str) -> tuple:
    """A parse over 4096 variables: the tree and one more than its highest variable index."""
    root = parse_prepotential(expr, 4096).root
    return root, max_var_index(root) + 1


def _parse_expr(args) -> PrepotentialAst:
    """``--expr`` over ``--nvars`` variables, or over the count it implies when that is omitted.

    The text is parsed once either way: the parser uses the variable count
    only to range-check indices, so the inferring parse already gives the tree.
    """
    if args.nvars:
        return parse_prepotential(args.expr, args.nvars)
    root, n_vars = _infer(args.expr)
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    return PrepotentialAst(root, n_vars)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _complex_list(vec) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(vec, dtype=complex)]


def _cmd_parse(args) -> int:
    ast = _parse_expr(args)
    n_vars = ast.n_vars
    rng = np.random.default_rng(args.seed)
    samples = [
        rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
        for _ in range(8)
    ]
    report = check_homogeneity(ast, samples, (2.0, 1.0 + 0.7j))
    _emit(
        {
            "expr": pretty(ast),
            "n_vars": n_vars,
            "homogeneity": {
                "scale_residual": report.scale_residual,
                "euler_residual": report.euler_residual,
                "skipped_samples": list(report.skipped),
            },
        }
    )
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        config = verify_mod.load_config(args.config)
        if args.out:
            config = dataclasses.replace(config, output_path=args.out)
    else:
        if not args.expr or not args.point:
            raise ValueError("verify needs --config, or --expr with --point")
        n_vars = args.nvars or _infer(args.expr)[1]
        config = verify_mod.SuiteConfig(
            prepotential=args.expr,
            n_vars=n_vars,
            seed=args.seed,
            sample_count=args.samples,
            base_point=tuple(_parse_point(args.point)),
            sample_radius=args.radius,
            output_path=args.out,
        )
    report = verify_mod.run_suite(config)
    text = report.to_json()
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {config.output_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    counts = report.summary["counts"]
    print(
        f"{counts['passed']}/{counts['total']} checks passed",
        file=sys.stderr,
    )
    return 0 if report.all_pass else 1


def _cmd_sphere(args) -> int:
    ast = _parse_expr(args)
    sample = cone_mod.project_to_sphere(ast, _parse_point(args.point))
    _emit(
        {
            "u": _complex_list(sample.u),
            "kappa": sample.kappa,
            "k": sample.domain.k,
            "E": list(sample.E),
            "sigma": list(sample.sigma),
            "eta": list(sample.eta),
            "frame": [list(row) for row in sample.frame],
            "g_induced": [list(row) for row in sample.g_ind],
        }
    )
    return 0


def _cmd_projective(args) -> int:
    ast = _parse_expr(args)
    u = _parse_point(args.point)
    dom = geo.domain_sample(ast, u)
    xi = dom.xi
    *basis_values, on_xi, on_jxi = proj.projective_metric_values(
        dom, [*np.eye(2 * ast.n_vars), xi, dom.J @ xi]
    )
    _emit(
        {
            "u": _complex_list(u),
            "gbar_on_real_frame_basis": basis_values,
            "vertical_residual": max_or_nan(abs(on_xi), abs(on_jxi)),
        }
    )
    return 0


_QUARTIC_BUILDERS = {
    "A": lambda vals: (hom.case_a(len(vals) - 1), np.array(vals)),
    "BD": lambda vals: (
        hom.case_bd(len(vals) // 2 - 1),
        np.array(vals, dtype=float).reshape(len(vals) // 2, 2),
    ),
    "E6": lambda vals: (hom.case_e6(), np.array(vals)),
    "F": lambda vals: (hom.case_f(), np.array(vals, dtype=float)),
    "G": lambda vals: (hom.case_g(), np.array(vals, dtype=float)),
}


def _cmd_quartic(args) -> int:
    values = [_parse_complex(part) for part in args.coeffs.split(",")]
    if args.case in ("BD", "F", "G"):
        if any(v.imag != 0 for v in values):
            raise ValueError(f"case {args.case} takes real coefficients")
        values = [v.real for v in values]
    case, vector = _QUARTIC_BUILDERS[args.case](values)
    q = hom.quartic_eval(case, vector)
    if isinstance(q, complex):
        out = f"{q.real:.12g}{q.imag:+.12g}i"
    else:
        out = f"{q:.12g}"
    sys.stdout.write(out + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skcone",
        description="Numerical checks for conic special Kahler geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point_help, point_required=False):
        p.add_argument("--expr", help="prepotential expression")
        p.add_argument("--nvars", type=int, default=0, help="number of complex variables")
        p.add_argument("--point", required=point_required, help=point_help)
        p.add_argument("--seed", type=int, default=1)

    p_parse = sub.add_parser("parse", help="parse and echo the normalized AST")
    common(p_parse, "unused")
    p_parse.set_defaults(fn=_cmd_parse)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify, "base point, comma-separated complex numbers")
    p_verify.add_argument("--config", help="JSON suite config path")
    p_verify.add_argument("--samples", type=int, default=64)
    p_verify.add_argument("--radius", type=float, default=0.2)
    p_verify.add_argument("--out", help="report output path")
    p_verify.set_defaults(fn=_cmd_verify)

    p_sphere = sub.add_parser("sphere", help="print sphere sample data at a point")
    common(p_sphere, "point to project onto S, comma-separated complex numbers", point_required=True)
    p_sphere.set_defaults(fn=_cmd_sphere)

    p_proj = sub.add_parser("projective", help="print projective metric values")
    common(p_proj, "point of the conic domain", point_required=True)
    p_proj.set_defaults(fn=_cmd_projective)

    p_quartic = sub.add_parser("quartic", help="evaluate a quartic invariant")
    p_quartic.add_argument("--case", required=True, choices=("A", "BD", "E6", "F", "G"))
    p_quartic.add_argument("--coeffs", required=True, help="comma-separated coefficients")
    p_quartic.set_defaults(fn=_cmd_quartic)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first :func:`main` call, never at import.

    Parsing neither mutates the parser nor its subparsers, so every call can
    share it; :func:`build_parser` still returns a fresh one.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (SkconeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
