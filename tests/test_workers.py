"""Builds with worker processes: none outlives a build, and a failure in a
worker fails the build cleanly.

Every test lifts the CPU cap (`pipeline.available_cpus`), so the pool runs
even on a one-CPU machine.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import scenetext
from scenetext import pipeline
from scenetext.pipeline import PipelineConfig, ingest, run
from scenetext.pretrain import Objective
from scenetext.records import serialize_record

from conftest import random_layout_record

SRC = str(Path(scenetext.__file__).resolve().parents[1])

# The CLI with the CPU cap lifted; {patch} may replace more of the pipeline.
CLI = """
import os, sys
from scenetext import cli, pipeline
pipeline.available_cpus = lambda: 4
{patch}
sys.exit(cli.main(sys.argv[1:]))
"""

# A builder that kills the worker process it runs in.
EXIT_IN_WORKER = """
parent = os.getpid()
build_example = pipeline.build_example
def exit_in_worker(*args):
    if os.getpid() != parent:
        os._exit(1)
    return build_example(*args)
pipeline.build_example = exit_in_worker
"""


# A builder that marks the first call in a worker, then works slowly.
SLOW_IN_WORKER = """
import time
parent = os.getpid()
build_example = pipeline.build_example
def slow_in_worker(*args):
    if os.getpid() != parent:
        open("worker-started", "a").close()
        time.sleep(0.01)
    return build_example(*args)
pipeline.build_example = slow_in_worker
"""


@pytest.fixture
def corpus(tmp_path, rng):
    records = [random_layout_record(rng, image_id=f"img{i:04d}", with_caption=True)
               for i in range(5 * pipeline.CHUNK_LINES)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(serialize_record(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.fixture
def pooled(monkeypatch):
    monkeypatch.setattr(pipeline, "available_cpus", lambda: 4)


def start_cli_in_own_session(tmp_path, argv, patch="", stderr=subprocess.PIPE):
    """Start the CLI as the leader of a new session, whose id names its
    process group too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", CLI.format(patch=patch), *map(str, argv)],
                            cwd=tmp_path, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=stderr, text=True)


def run_cli_in_own_session(tmp_path, argv, patch=""):
    """Run the CLI in a new session; return (exit code, stderr, session id)."""
    proc = start_cli_in_own_session(tmp_path, argv, patch)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    return proc.returncode, err, proc.pid


def assert_no_process_left(session):
    with pytest.raises(ProcessLookupError):
        os.killpg(session, 0)


def test_cli_build_leaves_no_process(corpus, tmp_path):
    out_dir = tmp_path / "out"
    code, err, session = run_cli_in_own_session(
        tmp_path, ["build-pretrain", "--stages", "splitocr,cap", "--shards", 2, "--threads", 2,
                   "--in", corpus, "--out-dir", out_dir])
    assert (code, err.startswith("built 2 stage(s)")) == (0, True)
    assert len(list(out_dir.iterdir())) == 5
    assert_no_process_left(session)


def test_failed_cli_build_leaves_no_process(corpus, tmp_path):
    out_dir = tmp_path / "out"
    blocked = "stage1_cap-00001-of-00002.jsonl"
    (out_dir / blocked).mkdir(parents=True)
    code, err, session = run_cli_in_own_session(
        tmp_path, ["build-pretrain", "--stages", "splitocr,cap", "--shards", 2, "--threads", 2,
                   "--in", corpus, "--out-dir", out_dir])
    assert code == 1
    assert err.startswith("error: ")
    assert [p.name for p in out_dir.iterdir()] == [blocked]
    assert_no_process_left(session)


def test_worker_that_dies_fails_the_build_cleanly(corpus, tmp_path):
    out_dir = tmp_path / "out"
    code, err, session = run_cli_in_own_session(
        tmp_path, ["build-pretrain", "--objective", "splitocr", "--threads", 2,
                   "--in", corpus, "--out-dir", out_dir], patch=EXIT_IN_WORKER)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert list(out_dir.iterdir()) == []
    assert_no_process_left(session)


def test_workers_exit_when_the_build_is_killed(corpus, tmp_path):
    proc = start_cli_in_own_session(
        tmp_path, ["build-pretrain", "--objective", "splitocr", "--threads", 2,
                   "--in", corpus, "--out-dir", tmp_path / "out"],
        patch=SLOW_IN_WORKER, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    while not (tmp_path / "worker-started").exists() and proc.poll() is None:
        assert time.monotonic() < deadline, "no worker started"
        time.sleep(0.01)
    proc.kill()  # SIGKILL: the parent gets no chance to stop its workers
    proc.wait(timeout=60)
    deadline = time.monotonic() + 10
    try:
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        return
    os.killpg(proc.pid, signal.SIGKILL)
    pytest.fail("a worker outlived its killed parent by 10 s")


def config(corpus, out_dir):
    return PipelineConfig(inputs=(str(corpus),), out_dir=str(out_dir), seed=3, shard_count=2,
                          stages=(Objective.OCR, Objective.SPLITCAP), threads=2)


def test_pooled_run_leaves_no_process(corpus, tmp_path, pooled):
    manifest = run(config(corpus, tmp_path / "out"))
    assert manifest["counters"]["valid_records"] == 5 * pipeline.CHUNK_LINES
    assert multiprocessing.active_children() == []


def test_exception_in_worker_fails_the_run_cleanly(corpus, tmp_path, pooled, monkeypatch):
    def fail(*args):
        raise RuntimeError(f"failed in process {os.getpid()}")

    monkeypatch.setattr(pipeline, "build_example", fail)
    out_dir = tmp_path / "out"
    with pytest.raises(RuntimeError, match="failed in process") as raised:
        run(config(corpus, out_dir))
    assert int(str(raised.value).split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []
    assert list(out_dir.iterdir()) == []


def test_interrupt_during_ingest_stops_the_workers(corpus, tmp_path, pooled, monkeypatch):
    seen = []

    def interrupt(stats, entry):
        seen.append(entry)
        if len(seen) == pipeline.CHUNK_LINES + 1:
            raise KeyboardInterrupt

    monkeypatch.setattr(pipeline.DatasetStats, "add", interrupt)
    out_dir = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run(config(corpus, out_dir))
    assert multiprocessing.active_children() == []
    assert list(out_dir.iterdir()) == []


def test_closing_the_ingest_stops_the_workers(corpus, pooled):
    counters = Counter()
    lines = ingest([str(corpus)], counters, threads=2)
    next(lines)
    assert len(multiprocessing.active_children()) == 2
    lines.close()
    assert multiprocessing.active_children() == []
    assert counters["valid_records"] == 1
