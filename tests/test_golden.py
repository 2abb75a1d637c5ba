"""Byte-identity of the command-line outputs against committed golden files.

Each case of ``tests/golden_cases.py`` runs ``seqgap.cli.main`` in this
process and compares its framed exit code, stdout and stderr, byte for
byte, with ``tests/golden/<case>.<format>.txt``.  A change that alters any
reported byte fails here; when the change is intended, regenerate the files
with

    PYTHONPATH=src python tests/test_golden.py

and say in the change description which numbers moved and why.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from golden_cases import commands, formats, frame
from seqgap.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = commands(ROOT / "configs", GOLDEN)
CASES = [(name, fmt) for name in COMMANDS for fmt in formats(name)]


def _render(argv: list[str]) -> str:
    """The framed exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return frame(code, out.getvalue(), err.getvalue())


def _golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}.txt"


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}.{f}" for n, f in CASES])
def test_cli_output_matches_golden(name, fmt, monkeypatch):
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    got = _render(COMMANDS[name] + ["--format", fmt])
    assert got == _golden_path(name, fmt).read_text(encoding="utf-8")


# Every case that writes a report reruns at two workers against its
# one-worker json golden file: no output byte may depend on the worker count.
@pytest.mark.parametrize("name", [n for n in COMMANDS if "json" in formats(n)])
def test_cli_output_at_two_workers_matches_golden(name, monkeypatch):
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    got = _render(COMMANDS[name] + ["--format", "json", "--workers", "2"])
    assert got == _golden_path(name, "json").read_text(encoding="utf-8")


def test_golden_directory_matches_the_catalog():
    """Every golden output file belongs to a catalog case and format, each
    one exists, and every golden config is read by some case."""
    want = {_golden_path(name, fmt).name for name, fmt in CASES}
    assert {path.name for path in GOLDEN.glob("*.txt")} == want
    read = {arg for argv in COMMANDS.values() for arg in argv}
    assert {str(path) for path in GOLDEN.glob("*.yaml")} <= read


def _regenerate() -> None:
    os.environ.pop("SEQGAP_WORKERS", None)
    for name, fmt in CASES:
        path = _golden_path(name, fmt)
        path.write_text(_render(COMMANDS[name] + ["--format", fmt]), encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
