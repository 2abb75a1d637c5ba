"""Outside-in layer trace of seqgap.

``Tracer.install`` replaces public functions at the bindings their callers
use (``seqgap.engine.trial_rng``, ``seqgap.rules.order_view``,
``StreamProfile.sample_block``, ...) with wrappers that record one span per
call: name, start, end, parent span and op id, plus one count read at the
same boundary (rows drawn, stopping time, trials, probes).  Spans stay in
memory in flat arrays until ``layer_metrics`` turns them into self times
and counts and ``save`` writes them out.  Nothing inside the program is
edited, so time spent between two wrapped calls lands in the self time of
the innermost wrapped caller.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

now = time.perf_counter_ns


# Counts read at a span's boundary from the call's arguments and result.
def _probes(args, kwargs, result) -> int:
    return len(result.probes)


def _trials(args, kwargs, result) -> int:
    return (args[0] if args else kwargs["config"]).replications


def _stopping_time(args, kwargs, result) -> int:
    return result.stopping_time


def _steps(args, kwargs, result) -> int:
    return int(args[2] if len(args) > 2 else kwargs["steps"])


# (module, attribute, span name, count): every binding through which the
# workloads' code paths call a layer.
_FUNCTION_TARGETS = [
    ("cli", "load_config", "config.load_config", None),
    ("cli", "calibrate_gap_c", "calibrate.search", _probes),
    ("cli", "asymptotic_sweep", "engine.asymptotic_sweep", None),
    ("cli", "reproduce_table", "engine.reproduce_table", None),
    ("cli", "write_benchmark_report", "cli.write", None),
    ("cli", "write_calibration_report", "cli.write", None),
    ("cli", "write_sweep_report", "cli.write", None),
    ("engine", "run_experiment", "engine.run_experiment", _trials),
    ("calibrate", "run_experiment", "engine.run_experiment", _trials),
    ("engine", "aggregate", "metrics.aggregate", None),
    ("engine", "run_trial", "engine.run_trial", None),
    ("engine", "trial_rng", "engine.trial_rng", None),
    ("engine", "run_sequential", "rules.run_sequential", _stopping_time),
    ("engine", "fixed_sample_pvalues", "engine.fixed_sample_pvalues", None),
    ("engine", "bh_decide", "rules.bh_decide", None),
    ("engine", "top_m_decide", "rules.top_m_decide", None),
    ("engine", "confusion", "metrics.confusion", None),
    ("rules", "order_view", "llr.order_view", None),
]
# The same for methods, patched on their class.
_METHOD_TARGETS = [
    ("StreamProfile", "sample_block", "models.sample_block", _steps),
    ("StreamProfile", "increments", "models.increments", None),
    ("GapRule", "scan_path", "rules.scan_path", None),
    ("GapIntersectionRule", "scan_path", "rules.scan_path", None),
    ("GapRule", "decide", "rules.decide", None),
    ("GapIntersectionRule", "decide", "rules.decide", None),
]


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self._stack: list[int] = []
        self._current_op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.start.append(now())
        self.end.append(0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self.count.append(0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = now()
        self._stack.pop()

    def add(self, name: str, start: int, end: int, parent: int) -> None:
        """Record a span measured by the caller."""
        self.start.append(start)
        self.end.append(end)
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.op.append(self._current_op)
        self.count.append(0)

    def call(self, op: int, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op``."""
        self._current_op = op
        index = self._open(self._name_id(name))
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, count):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.count[index] = count(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, pool_only: bool = False) -> None:
        """Patch seqgap's layer boundaries, or only its process pool;
        ``uninstall`` restores them."""
        import seqgap.calibrate
        import seqgap.cli
        import seqgap.engine
        import seqgap.models
        import seqgap.rules

        modules = {
            "cli": seqgap.cli,
            "engine": seqgap.engine,
            "calibrate": seqgap.calibrate,
            "rules": seqgap.rules,
        }
        self._patch(seqgap.engine, "ProcessPoolExecutor",
                    self._pool_class(seqgap.engine.ProcessPoolExecutor))
        if pool_only:
            return
        for module, attr, name, count in _FUNCTION_TARGETS:
            owner = modules[module]
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, count))
        classes = {
            "StreamProfile": seqgap.models.StreamProfile,
            "GapRule": seqgap.rules.GapRule,
            "GapIntersectionRule": seqgap.rules.GapIntersectionRule,
        }
        for cls, attr, name, count in _METHOD_TARGETS:
            owner = classes[cls]
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, count))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _pool_class(self, base):
        """Pool whose life splits into start (constructor and submissions,
        which fork the workers), wait (until the with-block exits) and
        shutdown spans."""
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._parent = tracer._stack[-1] if tracer._stack else -1
                self._started = now()
                super().__init__(*args, **kwargs)
                self._submitted = now()

            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                self._submitted = now()
                return future

            def __exit__(self, *exc):
                exiting = now()
                tracer.add("engine.pool.start", self._started, self._submitted, self._parent)
                tracer.add("engine.pool.wait", self._submitted, exiting, self._parent)
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.add("engine.pool.shutdown", exiting, now(), self._parent)

        return TracedPool

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns."""
        return {
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "count": np.array(self.count, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children, in ns."""
    duration = spans["end_ns"] - spans["start_ns"]
    child = np.zeros(duration.size, dtype=np.int64)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], duration[has_parent])
    return duration - child


# Per-trial self times, in microseconds.
PER_TRIAL_LAYERS = [
    "engine.trial_rng",
    "engine.run_trial",
    "metrics.confusion",
    "rules.decide",
    "llr.order_view",
    "rules.run_sequential",
    "models.sample_block",
    "models.increments",
    "rules.scan_path",
    "engine.fixed_sample_pvalues",
    "rules.bh_decide",
    "rules.top_m_decide",
]
ROOT_SPAN = "cli.main"


def layer_unit(name: str) -> str:
    if name.endswith("us_per_trial"):
        return "us"
    if name.endswith(("_ms", ".ms", "ms_per_call")):
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, count_ops: int) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    Times use every traced op.  Counts use ops ``0 .. count_ops - 1`` only,
    whose inputs depend on the seed alone, so they repeat exactly.
    """
    spans = tracer.arrays()
    own = self_times(spans)
    ids = {name: i for i, name in enumerate(tracer.names)}
    absent = len(tracer.names)
    name_of = spans["name"]

    def select(name: str, ops: int | None = None) -> np.ndarray:
        mask = name_of == ids.get(name, absent)
        if ops is not None:
            mask &= spans["op"] < ops
        return mask

    def self_ms(name: str) -> float:
        return float(own[select(name)].sum()) / 1e6

    experiments = select("engine.run_experiment")
    trials = int(spans["count"][experiments].sum())
    ops = np.unique(spans["op"][select(ROOT_SPAN)]).size
    out: dict[str, float] = {}
    for name in PER_TRIAL_LAYERS:
        out[f"{name}.us_per_trial"] = self_ms(name) * 1e3 / trials

    counted = select("engine.run_experiment", count_ops)
    counted_trials = int(spans["count"][counted].sum())
    blocks = select("models.sample_block", count_ops)
    sequential = select("rules.run_sequential", count_ops)
    in_sequential = blocks & np.isin(
        spans["parent"], np.nonzero(select("rules.run_sequential"))[0]
    )
    out["models.rows_per_trial"] = float(spans["count"][blocks].sum()) / counted_trials
    sequential_rows = int(spans["count"][in_sequential].sum())
    out["rules.useful_row_ratio"] = (
        float(spans["count"][sequential].sum()) / sequential_rows if sequential_rows else 0.0
    )
    calibrations = select("calibrate.search", count_ops)
    calibrated = np.isin(spans["parent"], np.nonzero(calibrations)[0]) & counted
    out["calibrate.probes"] = float(spans["count"][calibrations].sum()) / count_ops
    out["calibrate.trials"] = float(spans["count"][calibrated].sum()) / count_ops
    out["calibrate.self_ms"] = self_ms("calibrate.search") / ops
    out["engine.asymptotic_sweep.self_ms"] = self_ms("engine.asymptotic_sweep") / ops
    out.update(pool_metrics(tracer, count_ops))
    out["engine.trials"] = counted_trials / count_ops
    out["engine.experiments"] = float(counted.sum()) / count_ops
    out["engine.run_experiment.ms_per_call"] = self_ms("engine.run_experiment") / max(
        int(experiments.sum()), 1
    )
    out["metrics.aggregate.ms_per_call"] = self_ms("metrics.aggregate") / max(
        int(select("metrics.aggregate").sum()), 1
    )
    out["config.load_config.ms"] = self_ms("config.load_config") / ops
    out["cli.main.self_ms"] = self_ms(ROOT_SPAN) / ops
    out["cli.write.ms"] = self_ms("cli.write") / ops
    # Share of op wall time that a layer below cli.main accounts for; the
    # rest is cli.main's own time (argument parsing, dispatch, file opens).
    roots = select(ROOT_SPAN)
    wall = float((spans["end_ns"] - spans["start_ns"])[roots].sum())
    out["trace.attributed_share"] = 1.0 - float(own[roots].sum()) / wall
    return out


def pool_metrics(tracer: Tracer, count_ops: int) -> dict[str, float]:
    """Pools per op and the mean start, wait and shutdown time of a pool."""
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    duration = spans["end_ns"] - spans["start_ns"]
    out = {}
    starts = spans["name"] == ids.get("engine.pool.start", -1)
    pools = int(starts.sum())
    out["engine.pools"] = float((starts & (spans["op"] < count_ops)).sum()) / count_ops
    for phase in ("start", "wait", "shutdown"):
        mask = spans["name"] == ids.get(f"engine.pool.{phase}", -1)
        out[f"engine.pool.{phase}_ms"] = float(duration[mask].sum()) / 1e6 / pools if pools else 0.0
    return out
