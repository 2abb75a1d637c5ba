"""Regenerate perfbench/references.json, the reference values of the checks.

    python3 perfbench/make_references.py [--reps 20000] [--workers 2]

Each reference is a (mean, per-trial standard deviation) pair estimated
from one large run on a seed no benchmark op derives.  The calibrated
threshold's admissible range follows from the FDR curve over the threshold
grid and the check tolerance at the benchmark's replications per probe.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import yaml  # noqa: E402

from seqgap.config import build_config  # noqa: E402
from seqgap.engine import (  # noqa: E402
    ExperimentConfig,
    asymptotic_sweep,
    reproduce_table,
    run_experiment,
)
from seqgap.metrics import MetricKind  # noqa: E402
from seqgap.rules import GapRule  # noqa: E402
from seqgap.thresholds import ErrorBudget  # noqa: E402
from workloads import (  # noqa: E402
    CAL_ALPHA,
    CAL_GRID_STEP,
    GAP_YAML,
    GI_YAML,
    REFERENCES,
    SWEEP_ALPHAS,
    WORKLOADS,
    band,
)

REFERENCE_SEED = 9_173_020_611
DELTA = 1e-8
K_REF = 6.0
GRID_TOP = 5.0


def pair(est: dict) -> list[float]:
    """Mean and per-trial standard deviation of a payload estimate."""
    return [est["value"], est["se"] * math.sqrt(est["n_effective"])]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=20_000)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    refs = {
        "reference_seed": REFERENCE_SEED,
        "reference_reps": args.reps,
        "delta": DELTA,
        "k_ref": K_REF,
    }
    for name in ("table1", "table2"):
        workload = WORKLOADS[name]
        report = reproduce_table(
            name, rows=list(workload.rows), replications=args.reps,
            master_seed=REFERENCE_SEED, workers=args.workers,
        ).payload()
        refs[name] = {
            str(row["num_signals"]): {
                "bh_sample_size": row["bh_sample_size"],
                "topm_sample_size": row["topm_sample_size"],
                **{key: pair(row[key]) for key in (
                    "gap_et", "gap_fdr", "gap_fnr", "bh_fdr", "bh_fnr",
                    "topm_fdr", "topm_fnr")},
            }
            for row in report["rows"]
        }
        print(f"{name} done", file=sys.stderr)

    gap = build_config(yaml.safe_load(GAP_YAML)).experiment
    grid = {}
    for index in range(1, round(GRID_TOP / CAL_GRID_STEP) + 1):
        threshold = round(index * CAL_GRID_STEP, 12)
        config = ExperimentConfig(
            profile=gap.profile, truth=gap.truth,
            rule=GapRule(num_signals=gap.rule.num_signals, threshold=threshold),
            replications=args.reps, master_seed=REFERENCE_SEED,
            metrics=(MetricKind.FDR, MetricKind.FNR),
        )
        metrics = run_experiment(config, workers=args.workers).payload()["metrics"]
        grid[f"{threshold:.1f}"] = {kind: pair(est) for kind, est in metrics.items()}
    # A grid point below ``lo`` passes the budget in no n-probe estimate;
    # from ``hi`` on every point passes, so the search never climbs past it.
    n = WORKLOADS["search"].cal_reps
    refs["calibrate"] = {"grid": grid}
    bounds = {float(c): band(v["fdr"], n, refs, proportion=True) for c, v in grid.items()}
    lo = min(c for c, (low, _) in bounds.items() if low <= CAL_ALPHA)
    hi = min(c for c in bounds if all(high <= CAL_ALPHA for d, (_, high) in bounds.items()
                                      if d >= c))
    if hi >= GRID_TOP:
        raise SystemExit("the grid does not reach the always-feasible region")
    refs["calibrate"]["chosen_range"] = [lo, hi]
    print("calibrate grid done", file=sys.stderr)

    base = replace(build_config(yaml.safe_load(GI_YAML)).experiment,
                   replications=args.reps, master_seed=REFERENCE_SEED)
    sweep = asymptotic_sweep(
        base, [ErrorBudget(alpha=a, beta=a) for a in SWEEP_ALPHAS], workers=args.workers
    ).payload()
    refs["sweep"] = {f"{row['alpha']:g}": pair(row["mean_stopping_time"])
                     for row in sweep["rows"]}
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}", file=sys.stderr)


if __name__ == "__main__":
    main()
