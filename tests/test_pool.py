"""Process pools: one per command, and clean ends when a run is cut short.

Every library call that runs experiments opens at most one pool and hands
it to each experiment, so each CLI command forks its workers once.  A
worker that dies, or an interrupt in the parent, ends the command with one
stderr line, no worker left running and no output file.
"""

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

import seqgap.engine
from seqgap.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _on(config: str) -> list[str]:
    return ["--config", f"{CONFIGS}/{config}.yaml", "--reps", "100"]


COMMANDS = {
    "run": ["run", *_on("gap")],
    "calibrate-gap": ["calibrate", *_on("gap")],
    "calibrate-top-m": ["calibrate", *_on("top-m")],
    "reproduce": ["reproduce", "--which", "table1", "--rows", "1,5", "--reps", "100"],
    "sweep": ["sweep", *_on("gap-intersection"), "--alphas", "1e-2,1e-4,1e-6"],
}


@pytest.fixture
def opened(monkeypatch):
    """The pools constructed through ``seqgap.engine.ProcessPoolExecutor``."""
    pools = []

    class CountingPool(seqgap.engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(seqgap.engine, "ProcessPoolExecutor", CountingPool)
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    return pools


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_opens_one_pool(name, opened, tmp_path):
    outputs = {}
    for workers, pools in ((1, 0), (2, 1)):
        out = tmp_path / f"{workers}.json"
        argv = COMMANDS[name] + ["--workers", str(workers)]
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        assert len(opened) == pools
        outputs[workers] = out.read_bytes()
    assert outputs[2] == outputs[1]


def _die(config, start, stop):
    os._exit(3)


@pytest.mark.parametrize("name", ["run", "sweep", "calibrate-gap"])
def test_a_dead_worker_ends_the_command_cleanly(name, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(seqgap.engine, "_run_range", _die)
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    out = tmp_path / "report.json"
    argv = COMMANDS[name] + ["--workers", "2", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


_MARKS = None  # directory where each chunk leaves a mark; set before the fork
_CHUNK_S = 0.5


def _interrupt_parent(config, start, stop):
    """A slow chunk; the first one sends the parent a Ctrl-C."""
    (_MARKS / str(start)).touch()
    if start == 0:
        time.sleep(0.1)
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(_CHUNK_S)
    return []


def test_an_interrupt_cancels_pending_chunks(monkeypatch, tmp_path, capsys):
    """Of the 8 chunks of a run at 2 workers, only those already handed to
    the workers still run: 2 running, and at most 3 in the pool's call
    queue.  ``main`` reports the interrupt in one line and exits 130."""
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setitem(globals(), "_MARKS", marks)
    monkeypatch.setattr(seqgap.engine, "_run_range", _interrupt_parent)
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    out = tmp_path / "report.json"
    argv = COMMANDS["run"] + ["--workers", "2", "--out", str(out)]
    try:
        code = main(argv)
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    assert code == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert len(list(marks.iterdir())) <= 5
    assert multiprocessing.active_children() == []
    assert not out.exists()


_TRIAL_S = 0.05


def _interrupting_trial(config, trial_index):
    """A slow trial that leaves a mark; trial 0 sends the parent a Ctrl-C."""
    (_MARKS / str(trial_index)).touch()
    if trial_index == 0:
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(_TRIAL_S)


def test_an_interrupt_stops_the_chunks_already_handed_out(
    monkeypatch, tmp_path, capsys
):
    """The chunks of a gap run at 2 workers hold 12 or 13 trials each.  Once
    the parent is interrupted, the chunks running and queued in the workers
    stop before their next trial, so fewer trials run than the smallest
    chunk holds."""
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setitem(globals(), "_MARKS", marks)
    monkeypatch.setattr(seqgap.engine, "run_trial", _interrupting_trial)
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    out = tmp_path / "report.json"
    argv = COMMANDS["run"] + ["--workers", "2", "--out", str(out)]
    assert main(argv) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert len(list(marks.iterdir())) < 12
    assert multiprocessing.active_children() == []
    assert not out.exists()


_trial_rng = seqgap.engine.trial_rng


def _interrupting_draw(master_seed, trial_index, rng=None, start=0):
    """A slow trial draw that leaves a mark; trial 0 sends the parent a
    Ctrl-C."""
    (_MARKS / str(trial_index)).touch()
    if trial_index == 0:
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(_TRIAL_S)
    return _trial_rng(master_seed, trial_index, rng, start)


def test_an_interrupt_stops_fixed_sample_chunks_between_batches(
    monkeypatch, tmp_path, capsys
):
    """A bh run at 2 workers has chunks of 12 trials, drawn in batches of
    2.  Once the parent is interrupted, the chunks running and queued in
    the workers stop before their next batch: fewer trials are drawn than
    the smallest chunk holds, and only whole batches."""
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setitem(globals(), "_MARKS", marks)
    monkeypatch.setattr(seqgap.engine, "trial_rng", _interrupting_draw)
    # bh.yaml has J = 10 and n = 52; the chunks start at multiples of 12.
    monkeypatch.setattr(seqgap.engine, "_BATCH_VALUES", 2 * 52 * 10)
    monkeypatch.delenv("SEQGAP_WORKERS", raising=False)
    out = tmp_path / "report.json"
    argv = ["run", "--config", f"{CONFIGS}/bh.yaml", "--reps", "96"]
    assert main(argv + ["--workers", "2", "--out", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    marked = {int(path.name) for path in marks.iterdir()}
    assert 0 < len(marked) < 12
    assert len(marked) == 2 * len({i // 2 for i in marked})  # whole batches
    assert multiprocessing.active_children() == []
    assert not out.exists()
