"""Frozen trace and verify outputs; see golden/README.md for the file layout."""

import shlex
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
