"""Compare the command-line outputs of two source trees byte for byte.

    python tools/compare_outputs.py PARENT CHANGE

Runs every case of the golden catalog (``tests/golden_cases.py`` of this
checkout), some at more replications (``REPS``), and the runs no golden
case has (``extra_runs``), each in csv, json and text at ``--workers 1``
and ``2``, in both trees.  Each run is ``PYTHONPATH=<tree>/src python -m
seqgap.cli`` from the tree's root and reads the tree's own ``configs/``.
The golden configs are read from CHANGE and copied to a temporary
directory outside both trees, so PARENT needs no copy of them.
It compares the framed exit code, stdout and stderr, prints one line per
run and a diff of the first differing output, and exits 1 if any run
differs.  Nothing is written to either tree.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from golden_cases import FORMATS, commands as catalog, frame  # noqa: E402

WORKERS = (1, 2)
# Catalog cases run at more replications than their golden files, so a
# chunk of trials spans several batches and blocks.
REPS = {
    **dict.fromkeys(("run-bh", "run-gap", "run-gap-intersection",
                     "run-intersection", "run-mixed", "run-top-m",
                     "calibrate-gap", "calibrate-top-m", "calibrate-bh",
                     "calibrate-gap-mixed"), 200),
    "reproduce-table2-rows-10-50-90": 150,
    **dict.fromkeys(("run-all-metrics-gap", "run-all-metrics-gap-intersection",
                     "run-all-metrics-bh", "run-horizon-gi",
                     "calibrate-gap-horizon", "sweep-horizon-gi"), 2000),
    **dict.fromkeys(("run-gap-j100-horizon", "calibrate-gap-j100-horizon"), 500),
}


def extra_runs(configs: Path) -> dict[str, list[str]]:
    """Runs no golden case has: bh, top-m and the gap search at 2,000
    replications (several batches, some trials past their first block),
    table1 in full, and sweeps down to 1e-6."""
    runs = {
        f"{command}-{name}-batches": [
            command, "--config", str(configs / f"{name}.yaml"), "--reps", "2000",
        ]
        for command, name in (("run", "bh"), ("run", "top-m"), ("calibrate", "gap"))
    }
    runs["reproduce-table1"] = ["reproduce", "--which", "table1", "--reps", "200"]
    for name in ("gap", "gap-intersection", "intersection"):
        runs[f"sweep-{name}-to-1e-6"] = [
            "sweep", "--config", str(configs / f"{name}.yaml"),
            "--alphas", "1e-2,1e-4,1e-6", "--reps", "50",
        ]
    return runs


def commands(tree: Path, golden: Path) -> dict[str, list[str]]:
    """Case name -> argv in ``tree``, without the format and worker flags;
    ``golden`` holds the golden configs."""
    cases = catalog(tree / "configs", golden)
    for name, reps in REPS.items():
        argv = cases[name]
        if "--reps" in argv:
            at = argv.index("--reps")
            argv = argv[:at] + argv[at + 2:]
        cases[name] = [*argv, "--reps", str(reps)]
    return {**cases, **extra_runs(tree / "configs")}


def render(tree: Path, argv: list[str]) -> str:
    """The framed exit code, stdout and stderr of one run in ``tree``."""
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
    return frame(done.returncode, done.stdout, done.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "seqgap").is_dir():
            parser.error(f"{tree} has no src/seqgap")
    with tempfile.TemporaryDirectory() as golden:
        for path in (trees[1] / "tests" / "golden").glob("*.yaml"):
            shutil.copy(path, golden)
        return compare(trees, Path(golden))


def compare(trees: list[Path], golden: Path) -> int:
    """Run every case in both trees; 1 if any run differs."""
    cases = [commands(tree, golden) for tree in trees]
    if cases[0].keys() != cases[1].keys():
        print("the two trees ship different configs/*.yaml", file=sys.stderr)
        return 1
    differing = []
    for name in cases[1]:
        for fmt in FORMATS:
            for workers in WORKERS:
                # The flags come first, so a case's own --workers 0 wins.
                flags = ["--format", fmt, "--workers", str(workers)]
                parent, change = (
                    render(tree, [tree_cases[name][0], *flags, *tree_cases[name][1:]])
                    for tree, tree_cases in zip(trees, cases)
                )
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
    total = len(cases[1]) * len(FORMATS) * len(WORKERS)
    print(f"{len(differing)} of {total} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
