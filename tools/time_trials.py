"""Time trials in two source trees, alternating.

    python tools/time_trials.py PARENT CHANGE [--pairs 10] [--json FILE]

Times ``engine._run_range`` over a range of trials, in microseconds per
trial, master seed 7, in eight configs.  Four are gap-rule configs of
gaussian streams (null 0, alternative 0.5, signals on streams 1..m, the
default horizon):

* J=10, m=5, c=2.1 (table1's row m=5), 2,000 trials
* J=100, m=50, c=0.7 (table2's row m=50, E[T] about 45), 400 trials
* J=100, m=10, c=1.9 (table2's row m=10, E[T] about 61), 400 trials
* J=1000, m=500, c=0.7, 40 trials

Four are read from ``configs/`` in the tree:

* ``configs/gap-intersection.yaml``'s rule at the formula thresholds of
  alpha = beta = 1e-2, 1e-4 and 1e-6, the three rules sharing each path as
  the sweep's points do (the benchmark's search workload sweeps this
  rule), 500 trials
* ``configs/intersection.yaml`` as it stands, 2,000 trials
* the fixed-sample baselines ``configs/bh.yaml`` (J=10, n=52) and
  ``configs/top-m.yaml`` (J=10, n=37) as they stand, 5,000 trials each,
  drawn a batch of whole trials at a time

Each run is a fresh process, ``PYTHONPATH=<tree>/src python -c ...`` from
the tree's root, that runs a few warm-up trials and then times the range
once, in process at one worker.  Per config the two trees run in pairs,
and the tree that runs first alternates from pair to pair, so drift in the
host's speed falls on both.  The script prints, per config and tree, the
median and quartiles of the runs' microseconds per trial and the change's
median against the parent's; ``--json`` also writes every run.  Nothing is
written to either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# Name -> (probe spec, trials).  A spec is a gap rule's [J, m, threshold],
# or a config file with the alphas whose formula thresholds its rule takes
# (none: the file's own thresholds).
CONFIGS = {
    "J=10 m=5": ({"gap": [10, 5, 2.1]}, 2000),
    "J=100 m=50": ({"gap": [100, 50, 0.7]}, 400),
    "J=100 m=10": ({"gap": [100, 10, 1.9]}, 400),
    "J=1000 m=500": ({"gap": [1000, 500, 0.7]}, 40),
    "gap-intersection sweep": (
        {"config": "configs/gap-intersection.yaml", "alphas": [1e-2, 1e-4, 1e-6]},
        500,
    ),
    "intersection": ({"config": "configs/intersection.yaml", "alphas": []}, 2000),
    "bh": ({"config": "configs/bh.yaml", "alphas": []}, 5000),
    "top-m": ({"config": "configs/top-m.yaml", "alphas": []}, 5000),
}
WARMUP = 5

# Run in each tree: prints the microseconds per trial of one timed range.
PROBE = """
import json, sys, time
from dataclasses import replace
from seqgap import (
    GAUSSIAN_MEAN, ErrorBudget, GapRule, StreamModel, StreamProfile, load_config,
)
from seqgap.engine import ExperimentConfig, _run_range

spec, trials, warmup = json.loads(sys.argv[1])
if "gap" in spec:
    j, m, threshold = spec["gap"]
    configs = (ExperimentConfig(
        profile=StreamProfile.homogeneous(StreamModel(GAUSSIAN_MEAN, 0.0, 0.5), j),
        truth=frozenset(range(1, m + 1)),
        rule=GapRule(num_signals=m, threshold=threshold),
        replications=warmup + trials,
        master_seed=7,
    ),)
else:
    loaded = load_config(spec["config"])
    base = replace(loaded.experiment, replications=warmup + trials, master_seed=7)
    j, truth, control = base.profile.j, base.truth, loaded.control
    rules = [
        base.rule.at_budget(ErrorBudget(a, a), j, truth, control) for a in spec["alphas"]
    ] or [base.rule]
    configs = tuple(replace(base, rule=rule) for rule in rules)
_run_range(configs, 0, warmup)
start = time.perf_counter()
_run_range(configs, warmup, warmup + trials)
print((time.perf_counter() - start) / trials * 1e6)
"""


def time_once(tree: Path, name: str) -> float:
    """Microseconds per trial of one run of config ``name`` in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "SEQGAP_WORKERS"}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([*CONFIGS[name], WARMUP])],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(done.stdout)


def summary(runs: list[float]) -> dict:
    """Median and quartiles of ``runs``."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    parser.add_argument("--pairs", type=int, default=10, help="runs per tree")
    parser.add_argument("--json", type=Path, help="also write every run here")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "seqgap").is_dir():
            parser.error(f"{tree} has no src/seqgap")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    report = {}
    for name in CONFIGS:
        runs = {side: [] for side in trees}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(time_once(trees[side], name))
        report[name] = {side: {**summary(r), "runs": r} for side, r in runs.items()}
        cells = [
            f"{side} {s['median']:.1f} [{s['q1']:.1f}, {s['q3']:.1f}]"
            for side, s in report[name].items()
        ]
        ratio = report[name]["change"]["median"] / report[name]["parent"]["median"]
        print(f"{name}: us/trial {'  '.join(cells)}  change/parent {ratio:.3f}",
              flush=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
