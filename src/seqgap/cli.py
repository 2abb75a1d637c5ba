"""Command-line front end.

Subcommands: ``run`` (one experiment from a config file), ``calibrate``
(threshold / sample-size search for the config's rule), ``reproduce``
(bundled benchmark studies), and ``sweep`` (expected stopping time against
its asymptotic benchmark over a budget grid).

Every report is written by ``write_report``: json is the report's
``payload()``; a ``reproduce`` or ``sweep`` csv row is its json row
flattened, and ``run`` and ``calibrate`` have a csv row function each; text
has one layout per report type.  The machine formats (csv, json) read back to
every float exactly (csv cells carry 17 significant digits, json the
shortest exact repr), and they omit wall time so identical runs produce
identical files; the text format is for humans and prints proportions as
percentages with two decimals plus the wall time.

Exit codes: 0 success, 1 runtime error, 2 configuration error, 130
interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import stat
import sys
from dataclasses import fields, replace
from typing import get_type_hints

from .calibrate import (
    CalibrationError,
    CalibrationResult,
    calibrate_bh_n,
    calibrate_gap_c,
    calibrate_topm_n,
)
from .config import FORMATS, ConfigError, LoadedConfig, checked, load_config
from .engine import (
    BENCHMARKS,
    BenchmarkReport,
    BenchmarkRow,
    ExperimentReport,
    SweepReport,
    SweepRow,
    asymptotic_sweep,
    config_to_dict,
    reproduce_table,
    run_experiment,
    study_rows,
)
from .metrics import MetricEstimate, MetricKind, NoBoundConstants
from .models import check_count, check_word
from .rules import Rule, _fmt
from .thresholds import ErrorBudget

WORKERS_ENV = "SEQGAP_WORKERS"


def _text_value(kind: MetricKind, value: float, unit: str = "%") -> str:
    """A proportion as a percentage, an expected count as it is."""
    return f"{100 * value:.2f}{unit}" if kind.proportion else f"{value:.4f}"


def _text_estimate(kind: MetricKind, est: MetricEstimate) -> str:
    se = _text_value(kind, est.se, " pp")
    return f"{_text_value(kind, est.value)}  (se {se}, n={est.n_effective})"


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


def _value_se(*estimates: MetricEstimate) -> list[float]:
    return [x for est in estimates for x in (est.value, est.se)]


def _run_rows(report: ExperimentReport):
    """One row per requested metric, with the config echoed in every row."""
    config = report.config
    rule, j = config.rule, config.profile.j
    echo = [rule.name, j, rule.bounds_cell(j), rule.threshold_cell()]
    echo += [config.replications, config.master_seed]
    echo += _value_se(report.mean_stopping_time)
    for kind, est in report.metrics.items():
        yield echo + [kind.value, *_value_se(est), est.n_effective, report.horizon_hits]


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


def _calibration_rows(result: CalibrationResult):
    """Achieved rows first, then the probe trace in probe order."""
    echo = [result.chosen, result.replications]
    echo += [result.search_seed, result.evaluation_seed]
    points = [("achieved", result.chosen, result.achieved)]
    points += [("probe", probe.point, probe.estimates) for probe in result.probes]
    for row_type, point, estimates in points:
        for kind, est in estimates.items():
            cells = [row_type, point, kind.value, *_value_se(est), est.n_effective]
            yield cells + echo


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
            f"{kind.value}={_text_value(kind, est.value)}"
            for kind, est in probe.estimates.items()
        )
        out.write(f"    point {probe.point:g}: {cells}\n")


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


# Table-row fields of these types take two csv cells: the column names for
# the field's csv name, and the cells of its value.
_TWO_CELL_FIELDS = {
    MetricEstimate: (lambda name: [name, f"{name}_se"], _value_se),
    Rule: (lambda name: [name, "thresholds"], lambda r: [r.name, r.threshold_cell()]),
}
_ONE_CELL = (lambda name: [name], lambda value: [value])

# The table-row fields whose csv name is not their json key.
_CSV_NAMES = {
    "bh_sample_size": "bh_n",
    "topm_sample_size": "topm_n",
    "mean_stopping_time": "ET",
}


def _table_csv(row_type):
    """The csv header and row function of a report whose ``rows`` are
    ``row_type``: one walk over its fields in declaration order, so that a
    csv row is the json row flattened."""
    hints = get_type_hints(row_type)
    walk = [
        (f.name, *_TWO_CELL_FIELDS.get(hints[f.name], _ONE_CELL))
        for f in fields(row_type)
    ]
    columns = [c for name, names, _ in walk for c in names(_CSV_NAMES.get(name, name))]

    def rows(report):
        for row in report.rows:
            yield [c for name, _, cells in walk for c in cells(getattr(row, name))]

    return columns, rows


# Per report type: the csv header, the csv row function and the text layout.
_LAYOUTS = {
    ExperimentReport: (RUN_CSV_COLUMNS, _run_rows, write_run_text),
    CalibrationResult: (
        CALIBRATE_CSV_COLUMNS,
        _calibration_rows,
        write_calibration_text,
    ),
    BenchmarkReport: (*_table_csv(BenchmarkRow), write_benchmark_text),
    SweepReport: (*_table_csv(SweepRow), write_sweep_text),
}


def write_report(report, fmt: str, out) -> None:
    """Write a run, calibration, benchmark or sweep report as csv, json or text.

    Float csv cells are written with ``_fmt``; every other cell as is.
    """
    columns, rows, write_text = _LAYOUTS[type(report)]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows(report):
            writer.writerow(_fmt(x) if isinstance(x, float) else x for x in row)
    elif fmt == "json":
        json.dump(report.payload(), out, indent=2)
        out.write("\n")
    else:
        write_text(report, out)


# The calibrate, reproduce and sweep commands write through one name per
# report type, which the tracer binds.
write_calibration_report = write_report
write_benchmark_report = write_report
write_sweep_report = write_report


# --- command plumbing ---


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return checked(check_count, args.workers, "--workers")
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return checked(check_count, workers, WORKERS_ENV)


def _overrides(args) -> dict:
    """The checked ``--reps`` and ``--seed`` values that were given."""
    updates = {}
    if args.reps is not None:
        updates["replications"] = checked(check_count, args.reps, "--reps")
    if args.seed is not None:
        updates["master_seed"] = checked(check_word, args.seed, "--seed")
    return updates


def _apply_overrides(loaded: LoadedConfig, args) -> LoadedConfig:
    experiment = replace(loaded.experiment, **_overrides(args))
    return replace(loaded, experiment=experiment)


def _output(args, loaded: LoadedConfig | None) -> tuple[str, str | None]:
    """The report's format and its output file (None: stdout).

    A command resolves these before it runs any trial, so an empty path, a
    directory, or a path in a missing directory fails at once, naming the
    option or key that gave it, and not after the run.
    """
    path, name = args.out, "--out"
    if path is None and loaded is not None:
        path, name = loaded.output_path, "output.path"
    if path == "":
        raise ConfigError(f"{name} is empty; name a file, or omit it for stdout")
    if path is not None and os.path.isdir(path):
        raise ConfigError(f"{name} {path!r} is a directory; name a file")
    head = os.path.dirname(path or "")
    if head and not os.path.isdir(head):
        raise ConfigError(f"{name} {path!r}: no such directory {head!r}")
    return _resolve_format(args, loaded), path


def _resolve_format(args, loaded: LoadedConfig | None) -> str:
    if args.format is not None:
        return args.format
    if loaded is not None and loaded.output_format is not None:
        return loaded.output_format
    return "text"


def _replaceable(st: os.stat_result) -> bool:
    """Whether a rename may replace the file unnoticed: a regular file, not
    a symlink, with one link, owned by this user."""
    return (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
    )


def _emit(output: tuple[str, str | None], write) -> None:
    """Write the report in the format of ``output`` (see ``_output``) to
    stdout, or to its output file as a whole.

    A new file, or an existing plain file of this user, is written under a
    temporary name in its own directory and renamed over the target only
    once complete, so a failed or interrupted write leaves no truncated file
    and any earlier file unchanged.  Anything else (a symlink, a hard-linked
    or foreign file, a device or a FIFO) is written in place, through the
    name, as given.
    """
    fmt, path = output
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
    output = _output(args, loaded)
    report = run_experiment(loaded.experiment, workers=_resolve_workers(args))
    _emit(output, lambda fmt, out: write_report(report, fmt, out))
    return 0


def _cmd_calibrate(args) -> int:
    loaded = _apply_overrides(load_config(args.config), args)
    output = _output(args, loaded)
    workers = _resolve_workers(args)
    rule = loaded.experiment.rule
    # The search per rule type, read from this module's bindings at call time.
    searches = {"gap": calibrate_gap_c, "top-m": calibrate_topm_n, "bh": calibrate_bh_n}
    if rule.name not in searches:
        raise ConfigError(
            "calibration supports rule types gap, top-m, and bh; got "
            f"{rule.name!r}"
        )
    if loaded.budget is None:
        raise ConfigError(f"calibrating a {rule.name} rule needs a budget section")
    search = searches[rule.name]
    result = search(loaded.experiment, loaded.calibration, loaded.budget, workers)
    _emit(output, lambda fmt, out: write_calibration_report(result, fmt, out))
    return 0


def _cmd_reproduce(args) -> int:
    try:
        study_rows(args.which, args.rows)
    except ValueError as exc:
        raise ConfigError(f"--rows {','.join(map(str, args.rows))}: {exc}") from None
    output = _output(args, None)
    report = reproduce_table(
        args.which, rows=args.rows, workers=_resolve_workers(args), **_overrides(args)
    )
    _emit(output, lambda fmt, out: write_benchmark_report(report, fmt, out))
    return 0


def _cmd_sweep(args) -> int:
    loaded = _apply_overrides(load_config(args.config), args)
    output = _output(args, loaded)
    rule = loaded.experiment.rule
    if not rule.sequential:
        raise ConfigError(
            "rule.type: the sweep needs a sequential rule with formula "
            f"thresholds; got {rule.name!r}"
        )
    try:
        report = asymptotic_sweep(
            loaded.experiment,
            args.alphas,
            workers=_resolve_workers(args),
            control=loaded.control,
        )
    except NoBoundConstants as exc:
        raise ConfigError(f"rule.control: {exc}") from exc
    _emit(output, lambda fmt, out: write_sweep_report(report, fmt, out))
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
        choices=FORMATS,
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
        "--which", required=True, choices=list(BENCHMARKS), help="which study"
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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
