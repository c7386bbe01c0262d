"""Frozen trace and verify outputs; see golden/README.md for the file layout."""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from starfact import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.txt"))


def test_golden_directory_is_populated():
    assert GOLDEN_FILES, "no golden files found"
    assert (GOLDEN_DIR / "README.md").exists()


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_trace_matches_golden(path, capsys):
    header, _, body = path.read_text().partition("\n")
    assert header.startswith("# starfact "), f"malformed header in {path.name}"
    argv = shlex.split(header[len("# starfact "):])
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 0
    assert out.out == body


def test_bijections_report_survives_optimisation():
    # under -O, with every assert statement stripped, the rewrite core's
    # AssertionError checks and the record checks still run and pass
    header, _, body = (GOLDEN_DIR / "verify-bijections-n3-g1.txt").read_bytes().partition(b"\n")
    argv = shlex.split(header.decode()[len("# starfact "):])
    proc = subprocess.run([sys.executable, "-O", "-m", "starfact.cli", *argv], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == body
