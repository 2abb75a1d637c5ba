"""Command-line front end.

Subcommands: ``run`` (one experiment from a config file), ``calibrate``
(threshold / sample-size search for the config's rule), ``reproduce``
(bundled benchmark studies), and ``sweep`` (expected stopping time against
its asymptotic benchmark over a budget grid).

Machine formats (csv, json) serialize floats with 17 significant digits so
a written report re-read by this module's own parsers reproduces every
numeric field exactly, and they omit wall time so identical runs produce
identical files; the text format is for humans and prints proportions as
percentages with two decimals plus the wall time.

Exit codes: 0 success, 1 runtime error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import stat
import sys
from dataclasses import replace

from .calibrate import (
    CalibrationError,
    CalibrationResult,
    calibrate_bh_n,
    calibrate_gap_c,
    calibrate_topm_n,
)
from .config import ConfigError, LoadedConfig, load_config
from .engine import (
    BenchmarkReport,
    ExperimentReport,
    SweepReport,
    _estimate_to_dict,
    asymptotic_sweep,
    config_to_dict,
    reproduce_table,
    run_experiment,
)
from .metrics import MetricEstimate, MetricKind
from .rules import BhRule, GapRule, TopMRule, _fmt
from .thresholds import ErrorBudget

WORKERS_ENV = "SEQGAP_WORKERS"

# Metrics that are proportions (rendered as percentages in text output);
# the per-family expected counts are shown raw.
_PERCENT_KINDS = frozenset(MetricKind) - {MetricKind.PFER, MetricKind.PFER2}


RUN_CSV_COLUMNS = [
    "rule",
    "J",
    "m_or_bounds",
    "threshold",
    "reps",
    "seed",
    "ET",
    "ET_se",
    "metric",
    "value",
    "se",
    "n_effective",
    "horizon_hits",
]


def write_run_csv(report: ExperimentReport, out) -> None:
    """One row per requested metric, with the config echoed in every row."""
    config = report.config
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RUN_CSV_COLUMNS)
    for kind, est in report.metrics.items():
        writer.writerow(
            [
                config.rule.name,
                config.profile.j,
                config.rule.bounds_cell(config.profile.j),
                config.rule.threshold_cell(),
                config.replications,
                config.master_seed,
                _fmt(report.mean_stopping_time.value),
                _fmt(report.mean_stopping_time.se),
                kind.value,
                _fmt(est.value),
                _fmt(est.se),
                est.n_effective,
                report.horizon_hits,
            ]
        )


def read_run_csv(path) -> list[dict]:
    """Parse a run CSV back; numeric fields come back as int/float."""
    numeric_int = {"J", "reps", "seed", "n_effective", "horizon_hits"}
    numeric_float = {"ET", "ET_se", "value", "se"}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = []
        for row in csv.DictReader(handle):
            parsed = {}
            for key, cell in row.items():
                if key in numeric_int:
                    parsed[key] = int(cell)
                elif key in numeric_float:
                    parsed[key] = float(cell)
                else:
                    parsed[key] = cell
            rows.append(parsed)
    return rows


def read_json_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _text_estimate(kind: MetricKind, est: MetricEstimate) -> str:
    if kind in _PERCENT_KINDS:
        return (
            f"{100 * est.value:.2f}%  (se {100 * est.se:.2f} pp, "
            f"n={est.n_effective})"
        )
    return f"{est.value:.4f}  (se {est.se:.4f}, n={est.n_effective})"


def write_run_text(report: ExperimentReport, out) -> None:
    config = report.config
    echo = config_to_dict(config)
    out.write("experiment report\n")
    out.write(f"  rule: {json.dumps(echo['rule'])}\n")
    out.write(f"  streams: {json.dumps(echo['streams'])}\n")
    truth = sorted(config.truth)
    out.write(f"  truth: {truth if truth else '(no signals)'}\n")
    out.write(
        f"  replications: {config.replications}  seed: {config.master_seed}"
        f"  horizon: {config.horizon}\n"
    )
    et = report.mean_stopping_time
    out.write(f"  mean stopping time: {et.value:.4f}  (se {et.se:.4f})\n")
    for kind, est in report.metrics.items():
        out.write(f"  {kind.value}: {_text_estimate(kind, est)}\n")
    out.write(f"  horizon hits: {report.horizon_hits}\n")
    out.write(f"  wall time: {report.wall_time:.2f} s\n")


def write_run_report(report: ExperimentReport, fmt: str, out) -> None:
    if fmt == "csv":
        write_run_csv(report, out)
    elif fmt == "json":
        json.dump(report.payload(), out, indent=2)
        out.write("\n")
    else:
        write_run_text(report, out)


CALIBRATE_CSV_COLUMNS = [
    "row_type",
    "point",
    "metric",
    "value",
    "se",
    "n_effective",
    "chosen",
    "replications",
    "search_seed",
    "evaluation_seed",
]


def write_calibration_csv(result: CalibrationResult, out) -> None:
    """Achieved rows first, then the probe trace in probe order."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CALIBRATE_CSV_COLUMNS)

    def emit(row_type: str, point, kind: MetricKind, est: MetricEstimate) -> None:
        writer.writerow(
            [
                row_type,
                _fmt(point),
                kind.value,
                _fmt(est.value),
                _fmt(est.se),
                est.n_effective,
                _fmt(result.chosen),
                result.replications,
                result.search_seed,
                result.evaluation_seed,
            ]
        )

    for kind, est in result.achieved.items():
        emit("achieved", result.chosen, kind, est)
    for probe in result.probes:
        for kind, est in probe.estimates.items():
            emit("probe", probe.point, kind, est)


def calibration_payload(result: CalibrationResult) -> dict:
    return {
        "chosen": result.chosen,
        "replications": result.replications,
        "grid": result.grid,
        "search_seed": result.search_seed,
        "evaluation_seed": result.evaluation_seed,
        "achieved": {
            kind.value: _estimate_to_dict(est) for kind, est in result.achieved.items()
        },
        "probes": [
            {
                "point": probe.point,
                "estimates": {
                    kind.value: _estimate_to_dict(est)
                    for kind, est in probe.estimates.items()
                },
            }
            for probe in result.probes
        ],
    }


def write_calibration_text(result: CalibrationResult, out) -> None:
    out.write("calibration result\n")
    out.write(f"  grid: {result.grid}\n")
    out.write(
        f"  replications per probe: {result.replications}"
        f"  search seed: {result.search_seed}"
        f"  evaluation seed: {result.evaluation_seed}\n"
    )
    out.write(f"  chosen: {result.chosen}\n")
    for kind, est in result.achieved.items():
        out.write(f"  achieved {kind.value}: {_text_estimate(kind, est)}\n")
    out.write("  probe trace:\n")
    for probe in result.probes:
        cells = "  ".join(
            f"{kind.value}={100 * est.value:.2f}%"
            for kind, est in probe.estimates.items()
        )
        out.write(f"    point {probe.point:g}: {cells}\n")


def write_calibration_report(result: CalibrationResult, fmt: str, out) -> None:
    if fmt == "csv":
        write_calibration_csv(result, out)
    elif fmt == "json":
        json.dump(calibration_payload(result), out, indent=2)
        out.write("\n")
    else:
        write_calibration_text(result, out)


BENCHMARK_CSV_COLUMNS = [
    "num_signals",
    "threshold",
    "gap_et",
    "gap_et_se",
    "gap_fdr",
    "gap_fdr_se",
    "gap_fnr",
    "gap_fnr_se",
    "bh_n",
    "bh_savings",
    "bh_fdr",
    "bh_fdr_se",
    "bh_fnr",
    "bh_fnr_se",
    "topm_n",
    "topm_savings",
    "topm_fdr",
    "topm_fdr_se",
    "topm_fnr",
    "topm_fnr_se",
]


def write_benchmark_csv(report: BenchmarkReport, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BENCHMARK_CSV_COLUMNS)
    for row in report.rows:
        writer.writerow(
            [
                row.num_signals,
                _fmt(row.threshold),
                _fmt(row.gap_et.value),
                _fmt(row.gap_et.se),
                _fmt(row.gap_fdr.value),
                _fmt(row.gap_fdr.se),
                _fmt(row.gap_fnr.value),
                _fmt(row.gap_fnr.se),
                row.bh_sample_size,
                _fmt(row.bh_savings),
                _fmt(row.bh_fdr.value),
                _fmt(row.bh_fdr.se),
                _fmt(row.bh_fnr.value),
                _fmt(row.bh_fnr.se),
                row.topm_sample_size,
                _fmt(row.topm_savings),
                _fmt(row.topm_fdr.value),
                _fmt(row.topm_fdr.se),
                _fmt(row.topm_fnr.value),
                _fmt(row.topm_fnr.se),
            ]
        )


def write_benchmark_text(report: BenchmarkReport, out) -> None:
    out.write(
        f"benchmark study {report.which} (J={report.j}, "
        f"{report.replications} replications, seed {report.master_seed})\n"
    )
    header = (
        f"{'m':>4} {'c':>6} {'ET':>8} {'FDR%':>7} {'FNR%':>7}"
        f" | {'BH n':>5} {'sav%':>6} {'FDR%':>7} {'FNR%':>7}"
        f" | {'topm n':>6} {'sav%':>6} {'FDR%':>7} {'FNR%':>7}\n"
    )
    out.write(header)
    for r in report.rows:
        out.write(
            f"{r.num_signals:>4} {r.threshold:>6.2f} {r.gap_et.value:>8.2f}"
            f" {100 * r.gap_fdr.value:>7.2f} {100 * r.gap_fnr.value:>7.2f}"
            f" | {r.bh_sample_size:>5} {100 * r.bh_savings:>6.2f}"
            f" {100 * r.bh_fdr.value:>7.2f} {100 * r.bh_fnr.value:>7.2f}"
            f" | {r.topm_sample_size:>6} {100 * r.topm_savings:>6.2f}"
            f" {100 * r.topm_fdr.value:>7.2f} {100 * r.topm_fnr.value:>7.2f}\n"
        )


def write_benchmark_report(report: BenchmarkReport, fmt: str, out) -> None:
    if fmt == "csv":
        write_benchmark_csv(report, out)
    elif fmt == "json":
        json.dump(report.payload(), out, indent=2)
        out.write("\n")
    else:
        write_benchmark_text(report, out)


SWEEP_CSV_COLUMNS = [
    "alpha",
    "beta",
    "rule",
    "thresholds",
    "ET",
    "ET_se",
    "kappa",
    "ratio",
    "horizon_hits",
]


def write_sweep_csv(report: SweepReport, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for row in report.rows:
        writer.writerow(
            [
                _fmt(row.alpha),
                _fmt(row.beta),
                row.rule.name,
                row.rule.threshold_cell(),
                _fmt(row.mean_stopping_time.value),
                _fmt(row.mean_stopping_time.se),
                _fmt(row.kappa),
                _fmt(row.ratio),
                row.horizon_hits,
            ]
        )


def write_sweep_text(report: SweepReport, out) -> None:
    out.write(
        f"asymptotic sweep (control metric {report.control.value}, "
        f"{report.base.replications} replications per point)\n"
    )
    out.write(
        f"{'alpha':>10} {'beta':>10} {'ET':>10} {'kappa':>10} {'ratio':>8}"
        f" {'hits':>5}  thresholds\n"
    )
    for row in report.rows:
        out.write(
            f"{row.alpha:>10.3g} {row.beta:>10.3g}"
            f" {row.mean_stopping_time.value:>10.2f} {row.kappa:>10.2f}"
            f" {row.ratio:>8.4f} {row.horizon_hits:>5}  {row.rule.threshold_cell()}\n"
        )


def write_sweep_report(report: SweepReport, fmt: str, out) -> None:
    if fmt == "csv":
        write_sweep_csv(report, out)
    elif fmt == "json":
        json.dump(report.payload(), out, indent=2)
        out.write("\n")
    else:
        write_sweep_text(report, out)


# --- command plumbing ---


def _resolve_workers(args) -> int:
    if args.workers is not None:
        workers = args.workers
    else:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return workers


def _apply_overrides(loaded: LoadedConfig, args) -> LoadedConfig:
    experiment = loaded.experiment
    updates = {}
    if args.reps is not None:
        updates["replications"] = args.reps
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if updates:
        experiment = replace(experiment, **updates)
    return replace(loaded, experiment=experiment)


def _out_path(args) -> str | None:
    if args.out is None and args.loaded is not None:
        return args.loaded.output_path
    return args.out


def _resolve_format(args) -> str:
    if args.format is not None:
        return args.format
    if args.loaded is not None and args.loaded.output_format is not None:
        return args.loaded.output_format
    return "text"


def _replaceable(st: os.stat_result) -> bool:
    """Whether a rename may replace the file unnoticed: a regular file, not
    a symlink, with one link, owned by this user."""
    return (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
    )


def _emit(args, write) -> None:
    """Write the report to stdout, or to the output file as a whole.

    A new file, or an existing plain file of this user, is written under a
    temporary name in its own directory and renamed over the target only
    once complete, so a failed or interrupted write leaves no truncated file
    and any earlier file unchanged.  Anything else (a symlink, a hard-linked
    or foreign file, a device or a FIFO) is written in place, through the
    name, as given.
    """
    fmt, path = _resolve_format(args), _out_path(args)
    if path is None:
        write(fmt, sys.stdout)
        return
    try:
        existing = os.lstat(path)
    except FileNotFoundError:
        existing = None
    if existing is not None and not _replaceable(existing):
        with open(path, "w", encoding="utf-8", newline="") as out:
            write(fmt, out)
        return
    head, tail = os.path.split(path)
    partial = os.path.join(head, f".{tail}.{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as out:
            if existing is not None:
                os.chmod(out.fileno(), stat.S_IMODE(existing.st_mode))
            write(fmt, out)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _cmd_run(args) -> int:
    loaded = _apply_overrides(load_config(args.config), args)
    args.loaded = loaded
    report = run_experiment(loaded.experiment, workers=_resolve_workers(args))
    _emit(args, lambda fmt, out: write_run_report(report, fmt, out))
    return 0


def _cmd_calibrate(args) -> int:
    loaded = _apply_overrides(load_config(args.config), args)
    args.loaded = loaded
    experiment = loaded.experiment
    settings = loaded.calibration
    workers = _resolve_workers(args)
    rule = experiment.rule
    common = dict(
        profile=experiment.profile,
        truth=experiment.truth,
        replications=experiment.replications,
        seed=experiment.master_seed,
        workers=workers,
    )
    if isinstance(rule, GapRule):
        if loaded.budget is None:
            raise ConfigError("calibrating a gap rule needs a budget section")
        result = calibrate_gap_c(
            num_signals=rule.num_signals,
            budget=loaded.budget,
            grid_step=settings.grid_step,
            threshold_cap=settings.threshold_cap,
            horizon=experiment.horizon,
            full_scan=settings.full_scan,
            **common,
        )
    elif isinstance(rule, TopMRule):
        if loaded.budget is None:
            raise ConfigError("calibrating a top-m rule needs a budget section")
        result = calibrate_topm_n(
            num_signals=rule.num_signals,
            budget=loaded.budget,
            sample_size_cap=settings.sample_size_cap,
            full_scan=settings.full_scan,
            **common,
        )
    elif isinstance(rule, BhRule):
        if settings.target_fnr is None:
            raise ConfigError(
                "calibrating a bh rule needs calibrate.target_fnr in the config"
            )
        result = calibrate_bh_n(
            level=rule.level,
            target_fnr=settings.target_fnr,
            sample_size_cap=settings.sample_size_cap,
            **common,
        )
    else:
        raise ConfigError(
            "calibration supports rule types gap, top-m, and bh; got "
            f"{rule.name!r}"
        )
    _emit(args, lambda fmt, out: write_calibration_report(result, fmt, out))
    return 0


def _cmd_reproduce(args) -> int:
    args.loaded = None
    kwargs = {}
    if args.reps is not None:
        kwargs["replications"] = args.reps
    if args.seed is not None:
        kwargs["master_seed"] = args.seed
    report = reproduce_table(
        args.which, rows=args.rows, workers=_resolve_workers(args), **kwargs
    )
    _emit(args, lambda fmt, out: write_benchmark_report(report, fmt, out))
    return 0


def _cmd_sweep(args) -> int:
    loaded = _apply_overrides(load_config(args.config), args)
    args.loaded = loaded
    report = asymptotic_sweep(
        loaded.experiment,
        args.alphas,
        workers=_resolve_workers(args),
        control=loaded.control,
    )
    _emit(args, lambda fmt, out: write_sweep_report(report, fmt, out))
    return 0


def _parse_rows(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--rows expects comma-separated integers, got {text!r}"
        ) from None


def _parse_alphas(text: str) -> list[ErrorBudget]:
    budgets = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ":" in token:
                a, b = token.split(":", 1)
                budgets.append(ErrorBudget(alpha=float(a), beta=float(b)))
            else:
                value = float(token)
                budgets.append(ErrorBudget(alpha=value, beta=value))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"--alphas entry {token!r}: {exc}"
            ) from None
    if not budgets:
        raise argparse.ArgumentTypeError("--alphas needs at least one budget point")
    return budgets


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reps", type=int, help="override replication count")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument(
        "--workers",
        type=int,
        help=f"engine worker processes (default: ${WORKERS_ENV} or 1)",
    )
    parser.add_argument(
        "--format",
        choices=["csv", "json", "text"],
        help="output format (default: config file's, else text)",
    )
    parser.add_argument("--out", help="output file (default: config file's, else stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqgap",
        description=(
            "Sequential multiple hypothesis testing: stopping-rule experiments, "
            "threshold calibration, benchmark studies, and asymptotic diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="YAML experiment config")
    _add_common(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_cal = sub.add_parser(
        "calibrate", help="search thresholds/sample sizes for the config's rule"
    )
    p_cal.add_argument("--config", required=True, help="YAML experiment config")
    _add_common(p_cal)
    p_cal.set_defaults(handler=_cmd_calibrate)

    p_rep = sub.add_parser("reproduce", help="rerun a bundled benchmark study")
    p_rep.add_argument(
        "--which", required=True, choices=["table1", "table2"], help="which study"
    )
    p_rep.add_argument(
        "--rows",
        type=_parse_rows,
        help="comma-separated signal counts (default: all rows; '' for none)",
    )
    _add_common(p_rep)
    p_rep.set_defaults(handler=_cmd_reproduce)

    p_sweep = sub.add_parser(
        "sweep", help="expected stopping time against the asymptotic benchmark"
    )
    p_sweep.add_argument("--config", required=True, help="YAML experiment config")
    p_sweep.add_argument(
        "--alphas",
        required=True,
        type=_parse_alphas,
        help="budget grid, e.g. '1e-2,1e-4,1e-6' or '0.01:0.02,0.001:0.002'",
    )
    _add_common(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.loaded = None
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for probe in exc.probes:
            cells = "  ".join(
                f"{kind.value}={est.value:.6g}"
                for kind, est in probe.estimates.items()
            )
            print(f"  probed {probe.point:g}: {cells}", file=sys.stderr)
        return 1
    except Exception as exc:  # engine/library runtime errors -> exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
