"""Compare the command-line outputs of two source trees byte for byte.

    python tools/compare_outputs.py PARENT CHANGE

Runs the same commands in both trees, each as
``PYTHONPATH=<tree>/src python -m seqgap.cli`` from the tree's root, so each
tree reads its own ``configs/``.  The commands: ``run`` of every
``configs/*.yaml``, ``run`` of bh and top-m at 2,000 replications (so a
chunk of fixed-sample trials spans several batches and ends on a partial
one), ``reproduce`` of table1 (all rows) and table2 (rows 10,50,90),
``calibrate`` of gap, top-m and bh, ``calibrate`` of gap at 2,000
replications (so the gap search cuts its trials into several batches and
extends some of them past their first block), ``sweep`` of gap,
gap-intersection and intersection, ``run`` of the three all-metric
configs of ``tests/golden/`` (gap, gap-intersection and bh, every metric)
at 2,000 replications, ``calibrate`` of the golden mixed
gaussian/bernoulli gap config at 200 replications, and the two golden
horizon configs (``run`` of gap-intersection at horizon 100 and
``calibrate`` of gap at horizon 70) at 2,000 replications, and ``sweep`` of
the gap-intersection one at three budgets out of order (one with alpha !=
beta) at 2,000 replications, and ``run`` and ``calibrate`` of the golden
J=100 gap config (table2's row m=50 at horizon 60) at 500 replications,
and the golden configs that fail to load (``error-*`` in
``tests/test_golden.py``), each in csv, json and text at ``--workers 1``
and ``2``.  The golden configs are read from
CHANGE and copied to a temporary directory outside both trees, so PARENT
needs no copy of them.
It compares exit code, stdout and stderr, with the text report's wall-time
line masked, prints one line per run and a diff of the first differing
output, and exits 1 if any run differs.  Nothing is written to either tree.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FORMATS = ("csv", "json", "text")
WORKERS = (1, 2)
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
# The golden configs both trees run from a shared copy.
SHARED = (*(f"all-metrics-{name}.yaml" for name in ALL_METRIC_RULES),
          "calibrate-gap-mixed.yaml", "run-horizon-gi.yaml",
          "calibrate-gap-horizon.yaml", "gap-j100-horizon.yaml",
          *(f"{name}.yaml" for name in CONFIG_ERRORS))


def commands(tree: Path, shared: Path) -> dict[str, list[str]]:
    """Case name -> argv, without the format and worker flags; ``shared``
    holds the golden configs."""
    cases = {
        f"run-{path.stem}": ["run", "--config", f"configs/{path.name}", "--reps", "200"]
        for path in sorted((tree / "configs").glob("*.yaml"))
    }
    for name in ("bh", "top-m"):
        cases[f"run-{name}-batches"] = [
            "run", "--config", f"configs/{name}.yaml", "--reps", "2000",
        ]
    cases["reproduce-table1"] = ["reproduce", "--which", "table1", "--reps", "200"]
    cases["reproduce-table2"] = [
        "reproduce", "--which", "table2", "--rows", "10,50,90", "--reps", "150",
    ]
    for name in ("gap", "top-m", "bh"):
        cases[f"calibrate-{name}"] = [
            "calibrate", "--config", f"configs/{name}.yaml", "--reps", "200",
        ]
    cases["calibrate-gap-batches"] = [
        "calibrate", "--config", "configs/gap.yaml", "--reps", "2000",
    ]
    for name in ("gap", "gap-intersection", "intersection"):
        cases[f"sweep-{name}"] = [
            "sweep", "--config", f"configs/{name}.yaml",
            "--alphas", "1e-2,1e-4,1e-6", "--reps", "50",
        ]
    for name in ALL_METRIC_RULES:
        cases[f"run-all-metrics-{name}"] = [
            "run", "--config", str(shared / f"all-metrics-{name}.yaml"),
            "--reps", "2000",
        ]
    cases["calibrate-gap-mixed"] = [
        "calibrate", "--config", str(shared / "calibrate-gap-mixed.yaml"),
        "--reps", "200",
    ]
    # Trials that end at the horizon, in a run and in the gap search.
    for name, command in (("run-horizon-gi", "run"),
                          ("calibrate-gap-horizon", "calibrate")):
        cases[name] = [
            command, "--config", str(shared / f"{name}.yaml"), "--reps", "2000",
        ]
    # A sweep whose points end trials at the horizon, budgets out of order.
    cases["sweep-horizon-gi"] = [
        "sweep", "--config", str(shared / "run-horizon-gi.yaml"),
        "--alphas", "1e-6,0.05:0.1,1e-3", "--reps", "2000",
    ]
    # J=100 trials that end at the horizon, in a run and in the gap search.
    for command in ("run", "calibrate"):
        cases[f"{command}-gap-j100-horizon"] = [
            command, "--config", str(shared / "gap-j100-horizon.yaml"),
            "--reps", "500",
        ]
    # Configs that fail to load: each ConfigError message and exit code.
    for name, command in CONFIG_ERRORS.items():
        cases[f"error-{name}"] = [
            command, "--config", str(shared / f"{name}.yaml"),
        ]
    return cases


def render(tree: Path, argv: list[str]) -> str:
    """Exit code, stdout and stderr of one run in ``tree``, framed."""
    env = {k: v for k, v in os.environ.items() if k != "SEQGAP_WORKERS"}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "seqgap.cli", *argv],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    stdout = re.sub(r"wall time: \S+ s", "wall time: <masked> s", done.stdout)
    return (
        f"exit: {done.returncode}\n--- stdout\n{stdout}"
        f"--- stderr\n{done.stderr}--- end\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "seqgap").is_dir():
            parser.error(f"{tree} has no src/seqgap")
    with tempfile.TemporaryDirectory() as shared:
        for name in SHARED:
            shutil.copy(trees[1] / "tests" / "golden" / name, shared)
        return compare(trees, Path(shared))


def compare(trees: list[Path], shared: Path) -> int:
    """Run every case in both trees; 1 if any run differs."""
    cases = commands(trees[1], shared)
    if set(cases) != set(commands(trees[0], shared)):
        print("the two trees ship different configs/*.yaml", file=sys.stderr)
        return 1
    differing = []
    for name, base in cases.items():
        for fmt in FORMATS:
            for workers in WORKERS:
                argv = [*base, "--format", fmt, "--workers", str(workers)]
                parent, change = (render(tree, argv) for tree in trees)
                label = f"{name}.{fmt} at {workers} worker(s)"
                same = parent == change
                print(f"{'same   ' if same else 'DIFFERS'} {label}", flush=True)
                if not same and not differing:
                    sys.stdout.writelines(
                        difflib.unified_diff(
                            parent.splitlines(keepends=True),
                            change.splitlines(keepends=True),
                            "parent",
                            "change",
                        )
                    )
                if not same:
                    differing.append(label)
    total = len(cases) * len(FORMATS) * len(WORKERS)
    print(f"{len(differing)} of {total} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
