"""Builds and `evaluate` with worker processes: none outlives a command,
the output is the same for any worker count, and a failure in a worker
fails the command cleanly.

Every test lifts the CPU cap (`workers.available_cpus`), so the workers
run even on a one-CPU machine. Workers are forked with `os.fork`, so the
checks ask the OS (`waitpid`, /proc) which children this process has.
"""

import gzip
import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import scenetext
from scenetext import pipeline, workers
from scenetext.cli import main
from scenetext.pipeline import PipelineConfig, ingest, run
from scenetext.pretrain import Objective
from scenetext.records import serialize_record

from conftest import random_layout_record, write_damaged_gzip

SRC = str(Path(scenetext.__file__).resolve().parents[1])

# The CLI with the CPU cap lifted; {patch} may replace more of the pipeline.
CLI = """
import os, sys
from scenetext import cli, pipeline, workers
workers.available_cpus = lambda: 4
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
               for i in range(5 * workers.CHUNK_ITEMS)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(serialize_record(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.fixture
def pooled(monkeypatch):
    monkeypatch.setattr(workers, "available_cpus", lambda: 4)


def start_cli_in_own_session(tmp_path, argv, patch="", stderr=subprocess.PIPE, stdin=None,
                             stdout=subprocess.DEVNULL):
    """Start the CLI as the leader of a new session, whose id names its
    process group too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", CLI.format(patch=patch), *map(str, argv)],
                            cwd=tmp_path, env=env, start_new_session=True, stdin=stdin,
                            stdout=stdout, stderr=stderr, encoding="utf-8")


def run_cli_in_own_session(tmp_path, argv, patch="", stdin_text=None):
    """Run the CLI in a new session, with `stdin_text`, if given, fed to its
    stdin through a pipe; return (exit code, stderr, session id)."""
    proc = start_cli_in_own_session(tmp_path, argv, patch,
                                    stdin=None if stdin_text is None else subprocess.PIPE)
    try:
        _, err = proc.communicate(stdin_text, timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    return proc.returncode, err, proc.pid


def assert_no_process_left(session):
    with pytest.raises(ProcessLookupError):
        os.killpg(session, 0)


def children() -> list[int]:
    """The pids of this process's children, running or not yet reaped."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]  # after "pid (comm) state"
        except OSError:  # gone since the listing
            continue
        if int(ppid) == os.getpid():
            found.append(int(pid))
    return found


def assert_no_child_left():
    """This process has no child at all, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    assert manifest["counters"]["valid_records"] == 5 * workers.CHUNK_ITEMS
    assert_no_child_left()


def test_exception_in_worker_fails_the_run_cleanly(corpus, tmp_path, pooled, monkeypatch):
    def fail(*args):
        raise RuntimeError(f"failed in process {os.getpid()}")

    monkeypatch.setattr(pipeline, "build_example", fail)
    out_dir = tmp_path / "out"
    with pytest.raises(RuntimeError, match="failed in process") as raised:
        run(config(corpus, out_dir))
    assert int(str(raised.value).split()[-1]) != os.getpid()
    assert_no_child_left()
    assert list(out_dir.iterdir()) == []


def test_interrupt_during_ingest_stops_the_workers(corpus, tmp_path, pooled, monkeypatch):
    # Ctrl-C while this process reads the third chunk of lines, which the
    # workers read too: they live then, and are gone once the run fails
    parent, alive = os.getpid(), []
    chunks = pipeline._chunks

    def interrupt(paths):
        for k, chunk in enumerate(chunks(paths)):
            if os.getpid() == parent and k == 2:
                alive.append(len(children()))
                raise KeyboardInterrupt
            yield chunk

    monkeypatch.setattr(pipeline, "_chunks", interrupt)
    out_dir = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run(config(corpus, out_dir))
    assert alive == [2]
    assert_no_child_left()
    assert list(out_dir.iterdir()) == []


def test_closing_the_ingest_stops_the_workers(corpus, pooled):
    counters = Counter()
    lines = ingest([str(corpus)], counters, threads=2)
    next(lines)
    assert len(children()) == 2
    lines.close()
    assert_no_child_left()
    # the record counts are set after the pass, which a closed ingest never ends
    assert dict(counters) == {"lines": 1}


def shards_of(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir() if "-of-" in p.name}


def test_gzip_and_stdin_inputs_build_the_shards_of_the_plain_file(corpus, tmp_path):
    """Each worker rereads a gzip input itself; a pipe (here /dev/stdin) is
    read once, by the build's own process, whatever --threads asks for."""
    build = ["build-pretrain", "--stages", "splitocr,cap", "--passes", 2, "--shards", 2]
    assert run_cli_in_own_session(tmp_path, [*build, "--in", corpus, "--out-dir", "plain"])[0] == 0
    expected = shards_of(tmp_path / "plain")
    assert len(expected) == 4
    gz = tmp_path / "corpus.jsonl.gz"
    gz.write_bytes(gzip.compress(corpus.read_bytes()))
    for threads in (1, 2):
        for name, source, stdin_text in (("gzip", gz, None),
                                         ("stdin", "/dev/stdin", corpus.read_text("utf-8"))):
            out_dir = tmp_path / f"{name}{threads}"
            code, err, session = run_cli_in_own_session(
                tmp_path, [*build, "--threads", threads, "--in", source, "--out-dir", out_dir],
                stdin_text=stdin_text)
            assert (code, err.startswith("built 2 stage(s)")) == (0, True)
            assert shards_of(out_dir) == expected, (name, threads)
            assert_no_process_left(session)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("damage", ["truncated", "corrupted"])
def test_damaged_gzip_input_fails_the_build_cleanly(corpus, tmp_path, damage, threads):
    gz = tmp_path / "damaged.jsonl.gz"
    write_damaged_gzip(gz, corpus.read_bytes(), damage)
    out_dir = tmp_path / "out"
    code, err, session = run_cli_in_own_session(
        tmp_path, ["build-pretrain", "--stages", "splitocr,cap", "--threads", threads,
                   "--in", gz, "--out-dir", out_dir])
    assert code == 1
    assert err.startswith(f"error: {gz}: ")
    assert "Traceback" not in err
    assert list(out_dir.iterdir()) == []
    assert_no_process_left(session)


CHUNK = workers.CHUNK_ITEMS
WORDS = ["stop", "sign", "red", "cafe", "open", "late", "two", "dogs", "park", "a", "the", "taxi"]


def write_eval_fixture(directory: Path, rng, task: str, count: int, bad_at: int | None = None):
    """Prediction and gold files of `count` items for `task`: ten answers
    per VQA gold (nine for item `bad_at`), five references per caption
    gold, and predictions that match a gold text, partly or not at all."""
    directory.mkdir(exist_ok=True)
    golds, preds = [], []
    for i in range(count):
        texts = [" ".join(rng.choices(WORDS, k=rng.randint(1, 6))) for _ in range(5)]
        if task == "caption":
            golds.append({"example_id": f"e{i:04d}", "references": texts})
        else:
            golds.append({"example_id": f"e{i:04d}",
                          "answers": rng.choices(texts, k=9 if i == bad_at else 10)})
        prediction = rng.choice([rng.choice(texts), rng.choice(texts)[1:],
                                 " ".join(rng.choices(WORDS, k=rng.randint(1, 6)))])
        preds.append({"example_id": f"e{i:04d}", "prediction": prediction})
    paths = directory / "pred.jsonl", directory / "gold.jsonl"
    for path, rows in zip(paths, (preds, golds)):
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return paths


@pytest.fixture
def forks(monkeypatch):
    """The pids this process forks from now on."""
    pids, fork = [], os.fork

    def counted_fork():
        if pid := fork():
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def evaluate_at(capsys, monkeypatch, cpus, argv):
    """(exit code, stdout, stderr) of `evaluate` with `cpus` CPUs available."""
    monkeypatch.setattr(workers, "available_cpus", lambda: cpus)
    code = main(["--json", "evaluate", "--per-item", *map(str, argv)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("task", ["vqa", "vqa_anls", "caption"])
@pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 5 * CHUNK + 3])
def test_evaluate_output_is_the_same_for_any_worker_count(tmp_path, rng, capsys, monkeypatch,
                                                          forks, task, count):
    pred, gold = write_eval_fixture(tmp_path, rng, task, count)
    argv = ["--task", task, "--pred", pred, "--gold", gold]
    chunks = math.ceil(count / CHUNK)
    outputs = []
    for cpus in (1, 2, 3, 4):
        forks.clear()
        outputs.append(evaluate_at(capsys, monkeypatch, cpus, argv))
        # one worker per CPU and chunk at most, and none where that is one,
        # as for a one-item caption corpus, which is rejected before scoring
        assert len(forks) == (min(cpus, chunks) if min(cpus, chunks) > 1 else 0)
        assert_no_child_left()
    assert outputs == [outputs[0]] * 4
    if task == "caption" and count == 1:
        assert outputs[0] == (1, "", "error: CIDEr needs at least 2 items for document frequencies\n")
    else:
        assert outputs[0][0] == 0
        assert len(json.loads(outputs[0][1])["per_item"]) == count


@pytest.mark.parametrize("task,bad_at,argv,error", [
    ("vqa", CHUNK + 5, [], "error: VQA items require exactly 10 answers, got 9\n"),
    ("vqa_anls", None, ["--tau", 2], "error: ANLS threshold tau must be in [0, 1], got 2.0\n"),
], ids=["nine-answers", "tau"])
def test_evaluate_rejects_bad_input_alike_at_any_worker_count(tmp_path, rng, capsys, monkeypatch,
                                                              forks, task, bad_at, argv, error):
    pred, gold = write_eval_fixture(tmp_path, rng, task, 3 * CHUNK, bad_at)
    argv = ["--task", task, "--pred", pred, "--gold", gold, *argv]
    for cpus in (1, 4):
        assert evaluate_at(capsys, monkeypatch, cpus, argv) == (1, "", error)
        assert forks == []
        assert_no_child_left()


# A scorer that kills the worker process it runs in.
KILL_IN_WORKER = """
import signal
from scenetext.metrics import report
parent = os.getpid()
anls = report.anls
def killed_in_worker(*args, **kwargs):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return anls(*args, **kwargs)
report.anls = killed_in_worker
"""


def test_worker_killed_mid_run_fails_evaluate_cleanly(tmp_path, rng):
    pred, gold = write_eval_fixture(tmp_path, rng, "vqa_anls", 3 * CHUNK)
    proc = start_cli_in_own_session(
        tmp_path, ["--json", "evaluate", "--task", "vqa_anls", "--per-item", "--pred", pred,
                   "--gold", gold], patch=KILL_IN_WORKER, stdout=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    assert (proc.returncode, out, err) == (1, "", "error: a worker process died\n")
    assert_no_process_left(proc.pid)
