"""The benchmark's workloads: what one op runs and how its output is checked.

An op is one or more ``seqgap`` CLI invocations, each writing
``--format json --out <file>``.  Its inputs are a pure function of the
benchmark seed and the op index, so two runs with one seed replay the same
ops and must write the same bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Budget and grid of the calibrate op; the sweep's budget grid.
CAL_ALPHA = 0.05
CAL_GRID_STEP = 0.1
SWEEP_ALPHAS = (1e-2, 1e-4, 1e-6)

GAP_YAML = """\
streams: {family: gaussian-mean, null: 0.0, alt: 0.5, count: 10}
truth: {count: 5}
rule: {type: gap, num_signals: 5, threshold: 2.1}
budget: {alpha: 0.05, beta: 0.05}
run: {replications: 100, seed: 1, metrics: [fdr, fnr]}
calibrate: {grid_step: 0.1, threshold_cap: 50.0}
"""

GI_YAML = """\
streams: {family: gaussian-mean, null: 0.0, alt: 0.5, count: 10}
truth: {indices: [2, 3, 5, 7]}
rule: {type: gap-intersection, min_signals: 2, max_signals: 7, thresholds: auto, control: fdr}
budget: {alpha: 0.05, beta: 0.05}
run: {replications: 100, seed: 1, metrics: [fdr, fnr]}
"""


def op_seed(seed: int, index: int | str) -> int:
    """64-bit master seed of one op, derived from the benchmark seed."""
    digest = hashlib.sha256(f"seqgap-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    why: str
    # reproduce ops: study and rows; search ops: reps per calibrate probe
    # and per sweep point.
    which: str = ""
    rows: tuple[int, ...] = ()
    reps: int = 0
    cal_reps: int = 0
    sweep_reps: int = 0

    def write_configs(self, workdir: Path) -> None:
        if self.name == "search":
            (workdir / "gap.yaml").write_text(GAP_YAML, encoding="utf-8")
            (workdir / "gap-intersection.yaml").write_text(GI_YAML, encoding="utf-8")

    def commands(self, workdir: Path, seed: int, workers: int) -> list[list[str]]:
        """CLI argument lists of one op; the last two items are --out FILE."""
        common = ["--workers", str(workers), "--seed", str(seed), "--format", "json"]
        if self.name == "search":
            return [
                ["calibrate", "--config", str(workdir / "gap.yaml"),
                 "--reps", str(self.cal_reps), *common,
                 "--out", str(workdir / "calibrate.json")],
                ["sweep", "--config", str(workdir / "gap-intersection.yaml"),
                 "--alphas", ",".join(f"{a:g}" for a in SWEEP_ALPHAS),
                 "--reps", str(self.sweep_reps), *common,
                 "--out", str(workdir / "sweep.json")],
            ]
        return [
            ["reproduce", "--which", self.which,
             "--rows", ",".join(str(m) for m in self.rows),
             "--reps", str(self.reps), *common,
             "--out", str(workdir / f"{self.which}.json")],
        ]

    def trials(self, payloads: list[dict]) -> int:
        """Monte Carlo trials one op ran: probes, evaluation and sweep rows count."""
        if self.name == "search":
            cal, sweep = payloads
            return (len(cal["probes"]) + 1) * cal["replications"] + len(
                sweep["rows"]
            ) * sweep["base"]["replications"]
        (table,) = payloads
        return 3 * len(table["rows"]) * table["replications"]

    def check(self, payloads: list[dict], refs: dict) -> list[str]:
        """Every failed output check of one op, as messages; empty when correct."""
        if self.name == "search":
            cal, sweep = payloads
            return _check_calibration(cal, refs) + _check_sweep(sweep, refs)
        (table,) = payloads
        return _check_table(table, self, refs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1",
            workers=1,
            why="J=10 study rows 1,5,9: short paths, so per-trial fixed costs "
            "and the fixed-sample baselines dominate; no process pool",
            which="table1",
            rows=(1, 5, 9),
            reps=400,
        ),
        Workload(
            name="table2",
            workers=1,
            why="J=100 study rows 10,50,90: arithmetic-bound (sampling, "
            "increments, per-row sort); no process pool",
            which="table2",
            rows=(10, 50, 90),
            reps=150,
        ),
        Workload(
            name="search",
            workers=2,
            why="calibrate then sweep at 2 workers: 14 experiments per op, each "
            "replaying one seed from step 0 in a fresh process pool",
            cal_reps=400,
            sweep_reps=50,
        ),
    )
}


# --- output checks ---


@functools.cache
def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _kl(p: float, q: float) -> float:
    """Kullback-Leibler divergence of Bernoulli(p) from Bernoulli(q)."""
    out = p * math.log(p / q) if p > 0 else 0.0
    return out + ((1 - p) * math.log((1 - p) / (1 - q)) if p < 1 else 0.0)


def _kl_reach(mean: float, budget: float, upward: bool) -> float:
    """Farthest x from ``mean`` toward 1 (or 0) with KL(x || mean) <= budget."""
    edge = 1.0 if upward else 0.0
    if mean == edge or _kl(edge, mean) <= budget:
        return edge
    near, far = mean, edge
    for _ in range(60):
        mid = (near + far) / 2
        near, far = (mid, far) if _kl(mid, mean) <= budget else (near, mid)
    return far


def band(ref: list[float], n: int, refs: dict, proportion: bool) -> tuple[float, float]:
    """Range an n-trial mean falls in, except with probability ``refs["delta"]``.

    ``ref`` is the reference (mean, per-trial sd) from ``reference_reps``
    trials; the reference mean is first widened by ``k_ref`` of its standard
    errors plus ``k_ref**2 / reference_reps``, so a rate the reference saw
    rarely or never is not taken as zero.  Proportions (per-trial values in
    [0, 1]) use Hoeffding's relative-entropy bound, which stays valid for
    rare events seen in few trials.  Stopping times use Bernstein's bound
    with twice the per-trial sd as the sub-exponential scale.
    """
    mean, sd = ref
    n_ref, k = refs["reference_reps"], refs["k_ref"]
    margin = k * sd / math.sqrt(n_ref) + k * k / n_ref
    log_term = math.log(2.0 / refs["delta"])
    if proportion:
        return (
            _kl_reach(max(mean - margin, 0.0), log_term / n, upward=False),
            _kl_reach(min(mean + margin, 1.0), log_term / n, upward=True),
        )
    linear = 2.0 * sd * log_term / (3.0 * n)
    spread = linear + math.sqrt(linear**2 + 2.0 * sd**2 * log_term / n)
    return mean - margin - spread, mean + margin + spread


def _stat(errors: list[str], label: str, est: dict, ref: list[float], refs: dict,
          proportion: bool = True) -> None:
    lo, hi = band(ref, est["n_effective"], refs, proportion)
    if not lo <= est["value"] <= hi:
        errors.append(
            f"{label} = {est['value']!r} outside [{lo:.6g}, {hi:.6g}] "
            f"(reference {ref[0]:.6g}, n={est['n_effective']})"
        )


def _check_table(table: dict, workload: Workload, refs: dict) -> list[str]:
    errors: list[str] = []
    reps = workload.reps
    if table["replications"] != reps or [r["num_signals"] for r in table["rows"]] != list(
        workload.rows
    ):
        errors.append(f"{workload.which}: rows or replications differ from the op")
        return errors
    j = table["j"]
    for row in table["rows"]:
        m = row["num_signals"]
        ref = refs[workload.which][str(m)]
        tag = f"{workload.which} m={m}"
        for key in ("gap_et", "gap_fdr", "gap_fnr", "bh_fdr", "bh_fnr",
                    "topm_fdr", "topm_fnr"):
            if row[key]["n_effective"] != reps:
                errors.append(f"{tag} {key}: n_effective {row[key]['n_effective']} != {reps}")
        for prefix in ("bh", "topm"):
            n = row[f"{prefix}_sample_size"]
            if n != ref[f"{prefix}_sample_size"]:
                errors.append(f"{tag} {prefix}_sample_size {n} is not the study's")
            if row[f"{prefix}_savings"] != 1.0 - row["gap_et"]["value"] / n:
                errors.append(f"{tag} {prefix}_savings is not 1 - E[T]/n")
        if 2 * m == j and row["gap_fdr"] != row["gap_fnr"]:
            errors.append(f"{tag}: gap FDR and FNR differ at J = 2m")
        _stat(errors, f"{tag} gap_et", row["gap_et"], ref["gap_et"], refs,
              proportion=False)
        for key in ("gap_fdr", "gap_fnr", "bh_fdr", "bh_fnr", "topm_fdr", "topm_fnr"):
            _stat(errors, f"{tag} {key}", row[key], ref[key], refs)
    return errors


def _check_calibration(cal: dict, refs: dict) -> list[str]:
    errors: list[str] = []
    chosen = cal["chosen"]
    lo, hi = refs["calibrate"]["chosen_range"]
    if not lo <= chosen <= hi:
        errors.append(f"calibrated threshold {chosen} outside [{lo}, {hi}]")
    probes = {round(p["point"], 9): p["estimates"] for p in cal["probes"]}

    def feasible(est: dict) -> bool:
        return est["fdr"]["value"] <= CAL_ALPHA and est["fnr"]["value"] <= CAL_ALPHA

    # The search returns the smallest feasible grid point: the chosen point
    # was probed feasible and the one below it (if on the grid) infeasible.
    below = round(chosen - CAL_GRID_STEP, 9)
    if round(chosen, 9) not in probes or not feasible(probes[round(chosen, 9)]):
        errors.append(f"calibrated threshold {chosen} not probed feasible")
    if below > 0 and (below not in probes or feasible(probes[below])):
        errors.append(f"grid point {below} below the chosen one not probed infeasible")
    # J = 2m: every gap-rule decision makes as many false rejections as
    # false acceptances, so FDR and FNR agree bit for bit.
    for est in [cal["achieved"], *probes.values()]:
        if est["fdr"] != est["fnr"]:
            errors.append("calibration FDR and FNR differ at J = 2m")
            break
    grid_ref = refs["calibrate"]["grid"].get(f"{chosen:.1f}")
    if grid_ref is not None:
        for kind in ("fdr", "fnr"):
            _stat(errors, f"calibrate achieved {kind} at {chosen}",
                  cal["achieved"][kind], grid_ref[kind], refs)
    return errors


def _check_sweep(sweep: dict, refs: dict) -> list[str]:
    errors: list[str] = []
    rows = sweep["rows"]
    if [row["alpha"] for row in rows] != list(SWEEP_ALPHAS):
        return ["sweep rows differ from the op's budget grid"]
    for row in rows:
        if row["horizon_hits"] != 0:
            errors.append(f"sweep alpha={row['alpha']:g}: {row['horizon_hits']} horizon hits")
        ref = refs["sweep"][f"{row['alpha']:g}"]
        _stat(errors, f"sweep alpha={row['alpha']:g} E[T]", row["mean_stopping_time"],
              ref, refs, proportion=False)
    ratios = [row["ratio"] for row in rows]
    if not all(a > b for a, b in zip(ratios, ratios[1:])):
        errors.append(f"sweep ratio does not fall as alpha falls: {ratios}")
    return errors
