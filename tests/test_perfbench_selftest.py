"""The benchmark's tracer self-test runs with the tier-1 suite.

``perfbench/selftest.py`` equates the traced ``eval_jet`` spans with the
``ComplexJet`` objects built and the traced ``domain_sample`` spans with the
``DomainSample`` objects built, on a small FS suite.  A stacked jet or a
sample built off the public functions would break those equations, so the
self-test guards the package's layering as well as the tracer.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("ok")
