"""The pinned command-line cases, one catalog for the golden files of
``tests/test_golden.py`` and for ``tools/compare_outputs.py``.

A case is a name and an argv without the format flag.  Each caller builds
the catalog from its own shipped-configs and golden-configs directories.
A case named ``error-*`` fails on an input (exit 2) before any report, so
its golden file is text only.  To pin a new case, add it to ``commands``
and regenerate the golden files with

    PYTHONPATH=src python tests/test_golden.py

This module imports neither pytest nor seqgap.
"""

import re
from pathlib import Path

FORMATS = ("csv", "json", "text")
# Every metric at once, under a rule that rejects m streams, one whose
# rejection count varies, and one that can reject nothing.
ALL_METRIC_RULES = ("gap", "gap-intersection", "bh")
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


def commands(configs: Path, golden: Path) -> dict[str, list[str]]:
    """Case name -> argv, without the format flag, for the shipped configs
    in ``configs`` and the golden configs in ``golden``."""
    cases = {
        f"run-{path.stem}": ["run", "--config", str(path), "--reps", "20"]
        for path in sorted(configs.glob("*.yaml"))
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
            "calibrate", "--config", str(configs / f"{name}.yaml"), "--reps", "20",
        ]
    for name, alphas in (("gap", "1e-2,1e-4"),
                         ("gap-intersection", "0.05:0.1,1e-3:2e-3"),
                         ("intersection", "1e-2,1e-4")):
        cases[f"sweep-{name}"] = [
            "sweep", "--config", str(configs / f"{name}.yaml"),
            "--alphas", alphas, "--reps", "20",
        ]

    def config(command: str, name: str) -> list[str]:
        return [command, "--config", str(golden / f"{name}.yaml")]

    cases["calibrate-gap-capped"] = config("calibrate", "capped-gap")
    # A gap calibration on a gaussian/bernoulli profile, whose bernoulli
    # statistics tie.
    cases["calibrate-gap-mixed"] = config("calibrate", "calibrate-gap-mixed")
    # Trials that end at the horizon: a gap-intersection run whose horizon
    # cuts a block mid-way, and a gap calibration whose higher probes meet
    # the horizon.
    cases["run-horizon-gi"] = config("run", "run-horizon-gi")
    cases["calibrate-gap-horizon"] = config("calibrate", "calibrate-gap-horizon")
    # A sweep of that horizon-cut run over budgets out of order, one with
    # alpha != beta: at every point some trials end at the horizon.
    cases["sweep-horizon-gi"] = [
        *config("sweep", "run-horizon-gi"), "--alphas", "1e-6,0.05:0.1,1e-3",
    ]
    # Table2's row m=50 (J=100) with a horizon of 60 rows, which cuts a
    # block: some trials end at it, in a run and in the gap search.
    for command in ("run", "calibrate"):
        cases[f"{command}-gap-j100-horizon"] = config(command, "gap-j100-horizon")
    for name in ALL_METRIC_RULES:
        cases[f"run-all-metrics-{name}"] = config("run", f"all-metrics-{name}")
    # Runs that fail on an input: an integer option, a config file that
    # fails to load, or a gap sweep whose truth has no signal or no noise
    # stream.
    gap = str(configs / "gap.yaml")
    cases["error-run-reps-0"] = ["run", "--config", gap, "--reps", "0"]
    cases["error-run-workers-0"] = ["run", "--config", gap, "--workers", "0"]
    cases["error-run-seed-2-64"] = ["run", "--config", gap, "--seed", str(2**64)]
    cases["error-reproduce-rows-0"] = ["reproduce", "--which", "table1", "--rows", "0"]
    for name, command in CONFIG_ERRORS.items():
        cases[f"error-{name}"] = config(command, name)
    for name in ("sweep-gap-no-signal", "sweep-gap-all-signals"):
        cases[f"error-{name}"] = [*config("sweep", name), "--alphas", "1e-2"]
    return cases


def formats(name: str) -> tuple[str, ...]:
    """The formats of a case's golden files: an input error comes before
    any report, so one format covers it."""
    return ("text",) if name.startswith("error-") else FORMATS


def frame(code: int, stdout: str, stderr: str) -> str:
    """One run's exit code, stdout and stderr as one text, with the text
    report's wall-time line, its one nondeterministic output, masked."""
    stdout = re.sub(r"wall time: \S+ s", "wall time: <masked> s", stdout)
    return f"exit: {code}\n--- stdout\n{stdout}--- stderr\n{stderr}--- end\n"
