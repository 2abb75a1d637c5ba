"""Compare the command-line outputs of two source trees byte for byte.

    python tools/compare_outputs.py PARENT CHANGE

Runs the same commands in both trees, each as
``PYTHONPATH=<tree>/src python -m seqgap.cli`` from the tree's root, so each
tree reads its own ``configs/``.  The commands: ``run`` of every
``configs/*.yaml``, ``run`` of bh and top-m at 2,000 replications (so a
chunk of fixed-sample trials spans several batches and ends on a partial
one), ``reproduce`` of table1 (all rows) and table2 (rows 10,50,90),
``calibrate`` of gap, top-m and bh, and ``sweep`` of gap,
gap-intersection and intersection, each in csv, json and text at ``--workers 1`` and ``2``.
It compares exit code, stdout and stderr, with the text report's wall-time
line masked, prints one line per run and a diff of the first differing
output, and exits 1 if any run differs.  Nothing is written to either tree.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

FORMATS = ("csv", "json", "text")
WORKERS = (1, 2)


def commands(tree: Path) -> dict[str, list[str]]:
    """Case name -> argv, without the format and worker flags."""
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
    for name in ("gap", "gap-intersection", "intersection"):
        cases[f"sweep-{name}"] = [
            "sweep", "--config", f"configs/{name}.yaml",
            "--alphas", "1e-2,1e-4,1e-6", "--reps", "50",
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
    cases = commands(trees[1])
    if set(cases) != set(commands(trees[0])):
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
