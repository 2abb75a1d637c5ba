"""The benchmark's layer tracer still fits the program.

``perfbench/spans.py`` patches seqgap's functions at the module bindings
their callers use and its methods on their own classes.  A refactor that
renames one of those bindings, or moves a method off its class, makes the
tracer fail, and with it the benchmark.  This test reads ``perfbench/``
and changes nothing there.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import seqgap
from seqgap.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans) -> dict:
    """Every object the tracer replaces, keyed by where it lives."""
    found = {("engine", "ProcessPoolExecutor"): seqgap.engine.ProcessPoolExecutor}
    for module, attr, _, _ in spans._FUNCTION_TARGETS:
        owner = importlib.import_module(f"seqgap.{module}")
        found[(module, attr)] = getattr(owner, attr)
    for cls, attr, _, _ in spans._METHOD_TARGETS:
        found[(cls, attr)] = getattr(seqgap, cls).__dict__[attr]
    return found


def test_tracer_installs_traces_calibrate_and_uninstalls(tmp_path):
    spans = _load_spans()
    originals = _bindings(spans)
    out = tmp_path / "calibrate.json"
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = main(
            [
                "calibrate",
                "--config",
                str(ROOT / "configs" / "gap.yaml"),
                "--reps",
                "20",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    assert all(_bindings(spans)[key] is value for key, value in originals.items())

    arrays = tracer.arrays()
    names = np.array(tracer.names)[arrays["name"]]
    searches = names == "calibrate.search"
    assert searches.sum() == 1
    probes = len(json.loads(out.read_text())["probes"])
    assert int(arrays["count"][searches][0]) == probes
    for layer in ("rules.scan_path", "llr.order_view", "models.sample_block"):
        assert (names == layer).any(), layer
