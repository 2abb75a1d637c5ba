"""``tools/time_trials.py`` still runs on this tree.

The script times ``engine._run_range(configs, start, stop)`` in two source
trees, a fresh process per run, so its probe must fit the program of both.
These tests run the probe on this tree for a sequential config, a shared
sweep and two fixed-sample baselines, one read from ``configs/`` and one
built from its spec, with their trial counts cut to a few, and check its
guard on ``--pairs``.  Nothing under ``tools/`` changes.
"""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def time_trials():
    spec = importlib.util.spec_from_file_location(
        "time_trials", ROOT / "tools" / "time_trials.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["J=10 m=5", "gap-intersection sweep", "bh", "top-m J=100"]
)
def test_probe_times_a_few_trials_in_this_tree(time_trials, name, monkeypatch):
    probe, _ = time_trials.CONFIGS[name]
    monkeypatch.setitem(time_trials.CONFIGS, name, (probe, 3))
    microseconds = time_trials.time_once(ROOT, name)
    assert microseconds > 0 and math.isfinite(microseconds)


def test_one_pair_is_rejected(time_trials, capsys):
    """Quartiles need at least two runs per tree."""
    with pytest.raises(SystemExit) as exited:
        time_trials.main([str(ROOT), str(ROOT), "--pairs", "1"])
    assert exited.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
