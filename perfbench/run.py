"""seqgap benchmark: closed-loop CLI ops, end-to-end metrics, layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload {table1,table2,search} --seed N \\
        --seconds S --trace {0,1}

The benchmark imports ``seqgap`` from ``src/`` next to this directory and
drives ``seqgap.cli.main`` in this process, one op at a time: an op starts
only when the previous one has returned.  Op ``i`` gets a master seed
derived from ``--seed`` and ``i``; each writes ``--format json --out FILE``
and those files are checked and fingerprinted (sha256).

``--trace 0`` times ops for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced runs of each op at
one worker for ``--seconds`` and reports per-layer metrics (see spans.py).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Per-op records go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

from spans import Tracer, layer_metrics, layer_unit, pool_metrics  # noqa: E402
from workloads import WORKLOADS, load_references, op_seed  # noqa: E402

# op_s_tail is the highest percentile with ten ops beyond it; with at least
# 21 ops that percentile is at or above the median.
MIN_OPS = 21
# Counts in the layer trace cover ops 0 .. COUNT_OPS - 1, whose inputs
# depend on the seed alone, so they repeat exactly across runs.
COUNT_OPS = 4
# Fresh processes timed from start to the first op; setup_s is their median.
SETUP_RUNS = 3

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import seqgap from this checkout's src/, never from elsewhere."""
    if not (SRC / "seqgap" / "cli.py").is_file():
        raise ProgramMissing(f"no seqgap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqgap.cli

    if not Path(seqgap.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"seqgap imported from {seqgap.cli.__file__}, not {SRC}")
    return seqgap.cli.main


@dataclass
class Op:
    index: int
    workers: int
    wall_s: float = 0.0
    trials: int = 0
    fingerprint: str = ""
    errors: list[str] = field(default_factory=list)


def run_op(workload, workdir: Path, seed: int, index: int | str, workers: int, call) -> Op:
    """Run one op through ``call(argv)`` and check what it wrote."""
    commands = workload.commands(workdir, op_seed(seed, index), workers)
    outputs = [Path(argv[-1]) for argv in commands]
    for path in outputs:
        path.unlink(missing_ok=True)
    op = Op(index=index if isinstance(index, int) else -1, workers=workers)
    started = time.perf_counter()
    for argv in commands:
        try:
            code = call(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        if code != 0:
            op.errors.append(f"seqgap {argv[0]} exited with {code}")
            break
    op.wall_s = time.perf_counter() - started
    if op.errors:
        return op
    digest = hashlib.sha256()
    payloads = []
    try:
        for path in outputs:
            data = path.read_bytes()
            digest.update(data)
            payloads.append(json.loads(data))
        op.trials = workload.trials(payloads)
        op.errors.extend(workload.check(payloads, load_references()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.errors.append(f"unreadable output: {exc!r}")
    op.fingerprint = digest.hexdigest()
    return op


def setup(workload, workdir: Path, seed: int, main) -> Op:
    """Write the configs and run one untimed warm-up op."""
    workload.write_configs(workdir)
    return run_op(workload, workdir, seed, "warmup", workload.workers, main)


def reference_loop_s() -> float:
    """Wall time of a fixed numpy loop: host speed, as context for the run."""
    import numpy as np

    a = np.random.default_rng(0).random((256, 256))
    started = time.perf_counter()
    for _ in range(500):
        np.sort(a, axis=1)
        np.cumsum(a, axis=0)
    return time.perf_counter() - started


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "reference_loop_s": reference_loop_s(),
    }


def tail(walls: list[float]) -> tuple[float, float]:
    """Wall time at the highest percentile with ten ops beyond it."""
    ordered = sorted(walls)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timed_setup(args) -> tuple[float, list[str]]:
    """Seconds from starting a fresh benchmark process to its first op."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    try:
        errors = json.loads(line)["errors"]
    except (ValueError, KeyError, TypeError):
        errors = [f"setup process printed {line!r}, exit code {child.returncode}"]
    return elapsed, errors


def end_to_end(args, workload, workdir: Path, main, report: dict) -> list[Op]:
    ops: list[Op] = []
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or len(ops) < MIN_OPS:
        ops.append(run_op(workload, workdir, args.seed, len(ops), workload.workers, main))
    phase_s = time.perf_counter() - started
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

    # Replay the first and last op traced at one worker: the bytes must not
    # depend on the worker count or on tracing.
    tracer = Tracer()
    tracer.install()
    try:
        replays = [
            run_op(workload, workdir, args.seed, k, 1,
                   lambda argv, k=k: tracer.call(k, "cli.main", main, argv))
            for k in sorted({0, len(ops) - 1})
        ]
    finally:
        tracer.uninstall()
    for replay in replays:
        if replay.fingerprint != ops[replay.index].fingerprint:
            replay.errors.append(f"op {replay.index}: traced replay at 1 worker "
                                 "wrote different bytes")

    setups = [timed_setup(args) for _ in range(SETUP_RUNS)]
    walls = [op.wall_s for op in ops]
    tail_s, tail_pct = tail(walls)
    report["metrics"] = {
        "trials_per_s": sum(op.trials for op in ops) / phase_s,
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_s,
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": sum(usage) / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    report["detail"] = {
        "timed_ops": len(ops),
        "timed_phase_s": phase_s,
        "op_s_tail_percentile": tail_pct,
        "setup_runs_s": [s for s, _ in setups],
        "maxrss_kib_self_children": usage,
    }
    setup_ops = [Op(index=-1, workers=workload.workers, errors=e) for _, e in setups]
    return ops + replays + setup_ops


def traced_layers(args, workload, workdir: Path, main, report: dict) -> list[Op]:
    plain: list[Op] = []
    traced: list[Op] = []
    tracer = Tracer()

    def run_traced(index: int) -> Op:
        tracer.install()
        try:
            return run_op(workload, workdir, args.seed, index, 1,
                          lambda argv: tracer.call(index, "cli.main", main, argv))
        finally:
            tracer.uninstall()

    # Alternate which run of a pair goes first so host drift hits both alike.
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or len(plain) < COUNT_OPS:
        i = len(plain)
        if i % 2:
            traced.append(run_traced(i))
            plain.append(run_op(workload, workdir, args.seed, i, 1, main))
        else:
            plain.append(run_op(workload, workdir, args.seed, i, 1, main))
            traced.append(run_traced(i))
    metrics = layer_metrics(tracer, COUNT_OPS)
    checked = plain + traced
    for a, b in zip(plain, traced):
        if a.fingerprint != b.fingerprint:
            b.errors.append(f"op {a.index}: traced run wrote different bytes")

    # Pool spans at the workload's own worker count.
    if workload.workers > 1:
        pool_tracer = Tracer()
        pool_tracer.install(pool_only=True)
        try:
            pooled = [
                run_op(workload, workdir, args.seed, k, workload.workers,
                       lambda argv, k=k: pool_tracer.call(k, "cli.main", main, argv))
                for k in range(COUNT_OPS)
            ]
        finally:
            pool_tracer.uninstall()
        for op in pooled:
            if op.fingerprint != plain[op.index].fingerprint:
                op.errors.append(f"op {op.index}: {workload.workers} workers wrote "
                                 "different bytes than 1 worker")
        metrics.update(pool_metrics(pool_tracer, COUNT_OPS))
        checked += pooled

    base = statistics.median(op.wall_s for op in plain)
    metrics["trace.overhead_ratio"] = (
        statistics.median(op.wall_s for op in traced) / base - 1.0
    )
    report["metrics"] = metrics
    report["detail"] = {
        "op_pairs": len(plain),
        "overhead_base_op_s_p50": base,
        "overhead_base_workers": 1,
        "spans": len(tracer.start),
    }
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return checked


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print one JSON line and exit (times setup_s)")
    return parser.parse_args(argv)


def print_report(report: dict, ops: list[Op]) -> None:
    w, facts = report["workload"], report["facts"]
    print(f"seqgap benchmark: workload={w} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={report['trace']}")
    print("machine: " + json.dumps(facts["start"]))
    print(f"reference loop: start {facts['start']['reference_loop_s']:.4f} s, "
          f"end {facts['end']['reference_loop_s']:.4f} s; "
          f"loadavg at end {facts['end']['loadavg']}")
    unit = END_TO_END_UNITS.get if report["trace"] == 0 else layer_unit
    detail = report["detail"]
    for name, value in report["metrics"].items():
        note = ""
        if name == "op_s_p50":
            note = f"  ({detail['timed_ops']} ops)"
        elif name == "op_s_tail":
            note = (f"  (p{detail['op_s_tail_percentile']:.1f} of "
                    f"{detail['timed_ops']} ops, 10 beyond)")
        elif name == "setup_s":
            note = f"  (median of {SETUP_RUNS} fresh processes)"
        elif name == "trace.overhead_ratio":
            note = (f"  (base: untraced op_s_p50 {detail['overhead_base_op_s_p50']:.5f} s "
                    f"at {detail['overhead_base_workers']} worker, "
                    f"{detail['op_pairs']} op pairs)")
        print(f"{name} = {value:.6g} {unit(name)}{note}")
    failed = report["failed"]
    print(f"error_rate = {failed / report['attempted']:.6g} fraction "
          f"({failed} failed of {report['attempted']} ops attempted)")
    print(f"fingerprint of ops 0..{COUNT_OPS - 1}: {report['fingerprint']}")
    for op in ops:
        for message in op.errors[:3]:
            print(f"op {op.index}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load seqgap: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            warm = setup(workload, workdir, args.seed, program)
            print(json.dumps({"errors": warm.errors}), flush=True)
            return 0
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "facts": {"start": machine_facts()}}
        warm = setup(workload, workdir, args.seed, program)
        measure = traced_layers if args.trace else end_to_end
        ops = [warm] + measure(args, workload, workdir, program, report)
        report["facts"]["end"] = machine_facts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    numbered = {op.index: op.fingerprint for op in ops if op.index >= 0}
    report["fingerprint"] = hashlib.sha256(
        " ".join(numbered.get(k, "missing") for k in range(COUNT_OPS)).encode()
    ).hexdigest()
    report["attempted"] = len(ops)
    report["failed"] = sum(1 for op in ops if op.errors)
    report["ops"] = [op.__dict__ for op in ops]
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_report(report, ops)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value,
                   "unit": END_TO_END_UNITS[name] if args.trace == 0 else layer_unit(name)}
            for name, value in report["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
