"""Every script under ``demos/`` runs cleanly in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    proc = run_demo(demo)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_span_dimension_fills_the_centre():
    assert run_demo(ROOT / "demos" / "span_dimension.py").stdout == (
        "n=2 functions=7 span_dimension=2 centre_dimension=2\n"
        "n=3 functions=20 span_dimension=3 centre_dimension=3\n"
        "n=4 functions=41 span_dimension=5 centre_dimension=5\n"
        "n=5 functions=71 span_dimension=7 centre_dimension=7\n"
    )
