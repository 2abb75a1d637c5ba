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
ALL_METRIC_RULES = ("gap", "gap-intersection", "bh")


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
    cases["reproduce-table2-rows-10-50-90"] = [
        "reproduce", "--which", "table2", "--rows", "10,50,90", "--reps", "20",
    ]
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
    # A gap calibration on a gaussian/bernoulli profile, whose bernoulli
    # statistics tie.
    cases["calibrate-gap-mixed"] = [
        "calibrate", "--config", str(GOLDEN / "calibrate-gap-mixed.yaml"),
    ]
    # Trials that end at the horizon: a gap-intersection run whose horizon
    # cuts a block mid-way, and a gap calibration whose higher probes meet
    # the horizon.
    cases["run-horizon-gi"] = [
        "run", "--config", str(GOLDEN / "run-horizon-gi.yaml"),
    ]
    cases["calibrate-gap-horizon"] = [
        "calibrate", "--config", str(GOLDEN / "calibrate-gap-horizon.yaml"),
    ]
    # A sweep of that horizon-cut run over budgets out of order, one with
    # alpha != beta: at every point some trials end at the horizon.
    cases["sweep-horizon-gi"] = [
        "sweep", "--config", str(GOLDEN / "run-horizon-gi.yaml"),
        "--alphas", "1e-6,0.05:0.1,1e-3",
    ]
    # Table2's row m=50 (J=100) with a horizon of 60 rows, which cuts a
    # block: some trials end at it, in a run and in the gap search.
    for command in ("run", "calibrate"):
        cases[f"{command}-gap-j100-horizon"] = [
            command, "--config", str(GOLDEN / "gap-j100-horizon.yaml"),
        ]
    # Every metric at once, under a rule that rejects m streams, one whose
    # rejection count varies, and one that can reject nothing.
    for name in ALL_METRIC_RULES:
        cases[f"run-all-metrics-{name}"] = [
            "run", "--config", str(GOLDEN / f"all-metrics-{name}.yaml"),
        ]
    return cases


# The golden configs that fail to load, by the command that reads them.
CONFIG_ERRORS = {
    "float-reps": "run",
    "missing-budget-alpha": "run",
    "unknown-rule-key": "run",
    "budget-not-mapping": "run",
    "incomplete-thresholds": "run",
    "calibrate-grid-step-0": "calibrate",
    "budget-alpha-2": "run",
    "null-equals-alt": "run",
    "output-format-xml": "run",
}


def _error_commands() -> dict[str, list[str]]:
    """Case name -> argv of a run that fails on an input, exit 2: an
    integer option, or a config file that fails to load.  The error comes
    before any report, so one format covers each case."""
    gap = _config("gap")
    cases = {
        "error-run-reps-0": ["run", "--config", gap, "--reps", "0"],
        "error-run-workers-0": ["run", "--config", gap, "--workers", "0"],
        "error-run-seed-2-64": [
            "run", "--config", gap, "--seed", str(2**64),
        ],
        "error-reproduce-rows-0": ["reproduce", "--which", "table1", "--rows", "0"],
    }
    for name, command in CONFIG_ERRORS.items():
        cases[f"error-{name}"] = [command, "--config", str(GOLDEN / f"{name}.yaml")]
    return cases


def _all_commands() -> dict[str, list[str]]:
    return {**_commands(), **_error_commands()}


CASES = [(name, fmt) for name in _commands() for fmt in FORMATS] + [
    (name, "text") for name in _error_commands()
]


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
    got = _render(_all_commands()[name] + ["--format", fmt])
    assert got == _golden_path(name, fmt).read_text(encoding="utf-8")


# Json cases rerun at two workers against the one-worker golden files: no
# output byte may depend on the worker count.
TWO_WORKER_CASES = [
    "calibrate-gap",
    "calibrate-gap-mixed",
    "calibrate-gap-horizon",
    "calibrate-top-m",
    "calibrate-bh",
    "sweep-gap",
    "sweep-gap-intersection",
    "reproduce-table1-rows-1-5",
    "reproduce-table2-rows-10-50-90",
    "run-mixed",
    "run-horizon-gi",
    "sweep-horizon-gi",
    "run-gap-j100-horizon",
    "calibrate-gap-j100-horizon",
    *(f"run-all-metrics-{name}" for name in ALL_METRIC_RULES),
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
        text = _render(_all_commands()[name] + ["--format", fmt])
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
