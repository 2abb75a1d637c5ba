"""Byte-identity of the command-line outputs against committed golden files.

Each case runs ``seqgap.cli.main`` in this process and compares its exit
code, stdout and stderr, byte for byte, with ``tests/golden/<case>.txt``.
The text report's wall-time line is the one nondeterministic output and is
masked.  A change that alters any reported byte fails here; when the change
is intended, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change description which numbers moved and why.
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from seqgap.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("csv", "json", "text")


def _config(name: str) -> str:
    return str(ROOT / "configs" / f"{name}.yaml")


def _commands() -> dict[str, list[str]]:
    """Case name -> argv, without the format flag."""
    cases = {
        f"run-{path.stem}": ["run", "--config", str(path), "--reps", "20"]
        for path in sorted((ROOT / "configs").glob("*.yaml"))
    }
    cases["reproduce-table1-rows-1-5"] = [
        "reproduce", "--which", "table1", "--rows", "1,5", "--reps", "20",
    ]
    cases["reproduce-table1-no-rows"] = ["reproduce", "--which", "table1", "--rows", ""]
    for name in ("gap", "top-m", "bh"):
        cases[f"calibrate-{name}"] = [
            "calibrate", "--config", _config(name), "--reps", "20",
        ]
    cases["sweep-gap"] = [
        "sweep", "--config", _config("gap"), "--alphas", "1e-2,1e-4", "--reps", "20",
    ]
    cases["sweep-gap-intersection"] = [
        "sweep", "--config", _config("gap-intersection"),
        "--alphas", "0.05:0.1,1e-3:2e-3", "--reps", "20",
    ]
    cases["sweep-intersection"] = [
        "sweep", "--config", _config("intersection"),
        "--alphas", "1e-2,1e-4", "--reps", "20",
    ]
    cases["calibrate-gap-capped"] = [
        "calibrate", "--config", str(GOLDEN / "capped-gap.yaml"),
    ]
    return cases


CASES = [(name, fmt) for name in _commands() for fmt in FORMATS]


def _render(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one in-process CLI run, framed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = re.sub(r"wall time: \S+ s", "wall time: <masked> s", out.getvalue())
    return (
        f"exit: {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}--- end\n"
    )


def _golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}.txt"


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}.{f}" for n, f in CASES])
def test_cli_output_matches_golden(name, fmt, monkeypatch):
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    got = _render(_commands()[name] + ["--format", fmt])
    assert got == _golden_path(name, fmt).read_text(encoding="utf-8")


# Json cases rerun at two workers against the one-worker golden files: no
# output byte may depend on the worker count.
TWO_WORKER_CASES = [
    "calibrate-gap",
    "calibrate-top-m",
    "calibrate-bh",
    "sweep-gap",
    "sweep-gap-intersection",
    "reproduce-table1-rows-1-5",
    "run-mixed",
]


@pytest.mark.parametrize("name", TWO_WORKER_CASES)
def test_cli_output_at_two_workers_matches_golden(name, monkeypatch):
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    got = _render(_commands()[name] + ["--format", "json", "--workers", "2"])
    assert got == _golden_path(name, "json").read_text(encoding="utf-8")


def _regenerate() -> None:
    os.environ.pop("SEQGAP_WORKERS", None)
    for name, fmt in CASES:
        path = _golden_path(name, fmt)
        text = _render(_commands()[name] + ["--format", fmt])
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
