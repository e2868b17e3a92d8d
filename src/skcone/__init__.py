"""Numerical special Kahler geometry on conic domains.

Modules
-------
expr         prepotential DSL parsing and holomorphic jet evaluation
geometry     pointwise special Kahler data, flat special coordinates
cone         level hypersphere, Blaschke/Sasaki structure checks
projective   quotient metric and submersion checks
homogeneous  quartic invariants of the homogeneous models
verify       suite orchestration and JSON reports
cli          command-line front end

All public functions are pure computations on immutable inputs; the only
module-level state is ``functools.cache`` of constant tables (the 3-form
index and Hodge-star tables, symplectic form, wedge projector, complex
structure, jet shuffles, the parsed Fubini-Study prepotential and its
fitted scale), built on first use and returned read-only, so concurrent
callers are safe and results never depend on call order.
"""

from .expr import PrepotentialAst, eval_jet, parse_prepotential, pretty
from .verify import SuiteConfig, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "PrepotentialAst",
    "parse_prepotential",
    "eval_jet",
    "pretty",
    "SuiteConfig",
    "VerificationReport",
    "run_suite",
    "__version__",
]
