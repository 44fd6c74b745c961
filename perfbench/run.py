#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for the scenetext CLI.

    python3 perfbench/run.py --workload build_full --seed 1 --seconds 30 --trace 0

Run from the repository root. Inputs are generated from --seed (cached under
perfbench/.work), then the workload's commands run back to back, each in a
fresh `python -m scenetext.cli` subprocess, repeating until --seconds have
passed: a closed loop with one client. Every output is checked. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
an in-process traced run with --trace 1. See perfbench/NOTES.md.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
COMMAND_TIMEOUT_S = 120
SETUP_RUNS = 15
# Timed wall clocks are scaled to the machine speed at which launcher.py's
# calibration loop takes this long; see launcher.py. The small loop slows
# down more than the program when the machine does: fitted over single-
# threaded commands, log(wall) moves about 0.65 times as much as
# log(loop time), so the scale is the speed ratio to this power.
CALIBRATION_REF_S = 0.1
CALIBRATION_EXPONENT = 0.75
SETUP_CODE = "import scenetext.cli, scenetext.metrics; scenetext.cli.build_parser()"
ENV_CODE = ("import json, sys, scenetext, scenetext.kernels as k; "
            "print(json.dumps({'python': sys.version.split()[0], 'backend': k.BACKEND, "
            "'scenetext': scenetext.__version__}))")

# Per-layer metrics, by layer. busy_frac and self_frac are a layer's busy
# and self time as a share of the traced wall time (trace.wall_s): a time
# share, unlike seconds, is still a measurement on a workload where the layer
# never runs (it reads 0 there). Busy time is summed across threads, so on the
# threaded build it can exceed 1. The run prints the seconds alongside.
LAYERS = [
    ("pipeline.iter_lines", ["busy_frac", "lines"]),
    ("records.parse_record", ["busy_frac", "calls", "parse_errors", "schema_errors"]),
    ("records.validate", ["busy_frac", "skips"]),
    ("pipeline.subsample", ["busy_frac", "kept_ratio"]),
    ("pipeline.compute_stats", ["busy_frac"]),
    ("ordering.order_tokens", ["busy_frac", "calls", "tokens", "calls_per_record"]),
    ("hashing.derive_rng", ["busy_frac", "calls"]),
    ("hashing.hash64", ["calls"]),
    ("pretrain.build_example", ["self_frac", "calls", "skips"]),
    ("pretrain.to_json", ["busy_frac", "bytes"]),
    ("finetune.build_vqa_examples", ["self_frac", "examples"]),
    ("finetune.to_json", ["busy_frac"]),
    ("pipeline.shuffle_and_shard", ["busy_frac", "examples"]),
    ("pipeline._write_shards", ["busy_frac", "bytes"]),
    ("pipeline.run", ["self_frac"]),
    ("pipeline.run_finetune", ["self_frac"]),
    ("metrics.read_golds", ["busy_frac"]),
    ("metrics.read_predictions", ["busy_frac"]),
    ("metrics.evaluate", ["self_frac"]),
    ("metrics.vqa_accuracy", ["busy_frac"]),
    ("metrics.anls", ["self_frac"]),
    ("kernels.levenshtein", ["busy_frac", "calls", "cells"]),
    ("metrics.cider", ["self_frac"]),
    ("metrics.bleu4", ["self_frac"]),
    ("metrics.rouge_l", ["self_frac"]),
    ("metrics.tokenize", ["calls"]),
    ("kernels.lcs_length", ["busy_frac", "calls", "cells"]),
    ("trace", ["wall_s", "coverage", "overhead_frac"]),
]
_TIMED = {"busy_frac": "busy_s", "self_frac": "self_s"}
_UNITS = {"busy_frac": "ratio", "self_frac": "ratio", "kept_ratio": "ratio", "calls_per_record": "ratio",
          "coverage": "ratio", "overhead_frac": "ratio", "wall_s": "s", "bytes": "bytes"}
PER_LAYER = [(f"{layer}.{q}", _UNITS.get(q, "count")) for layer, qs in LAYERS for q in qs]
# counters that the tracer records under the exception a call raised
_RAISED = {"records.parse_record.parse_errors": "raised.ParseError",
           "records.parse_record.schema_errors": "raised.SchemaError",
           "pretrain.build_example.skips": "raised.SkipRecord"}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Runs commands through launcher.py, started while this process is
    still small, so each command's peak RSS is its own."""

    def __init__(self, env):
        self.env = env
        self._proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")], cwd=ROOT,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, log_prefix, timed=False):
        """Run argv to completion. Returns (wall seconds, peak RSS MB, exit
        code, speed scale); with timed=True the scale takes the wall time to
        the reference speed, otherwise it is 1."""
        job = {"argv": argv, "env": self.env, "cwd": ROOT, "timeout": COMMAND_TIMEOUT_S,
               "stdout": log_prefix + ".out", "stderr": log_prefix + ".err", "calibrate": timed}
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            die("the command launcher stopped")
        reply = json.loads(reply)
        scale = (CALIBRATION_REF_S / reply["calibration_s"]) ** CALIBRATION_EXPONENT if timed else 1.0
        return reply["wall"], reply["maxrss_kb"] / 1024.0, reply["code"], scale

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=COMMAND_TIMEOUT_S)
        self._proc.stdout.close()
        return False


def _tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    return lines[-1] if lines else ""


def check_output(cmd, code, stdout_text, err_tail):
    """(problems, fingerprint) for one finished command."""
    if code != 0:
        return [f"exit code {code}: {err_tail}"], None
    try:
        return cmd.check(json.loads(stdout_text.strip().splitlines()[-1]), cmd.out_dir)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], None


def run_subprocess(cmd, launcher, index, timed=True):
    if cmd.out_dir:
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
    log = os.path.join(WORK, "logs", f"{cmd.name}-{index}")
    argv = [sys.executable, "-m", "scenetext.cli", "--json", *cmd.argv]
    wall, rss, code, scale = launcher.run(argv, log, timed)
    with open(log + ".out", encoding="utf-8", errors="replace") as fh:
        problems, fingerprint = check_output(cmd, code, fh.read(), _tail(log + ".err"))
    return {"cmd": cmd, "wall": wall * scale, "raw_wall": wall, "rss": rss, "code": code,
            "problems": problems, "fingerprint": fingerprint}


def measure_setup(launcher):
    """setup_s: a fresh interpreter imports the CLI and metrics and builds
    the parser. One warm-up run, then the median of SETUP_RUNS runs."""
    argv = [sys.executable, "-c", SETUP_CODE]
    log = os.path.join(WORK, "logs", "setup")
    walls = []
    for _ in range(SETUP_RUNS + 1):
        wall, _, code, scale = launcher.run(argv, log, timed=True)
        if code != 0:
            die(f"the program does not import: {_tail(log + '.err')}")
        walls.append(wall * scale)
    return statistics.median(walls[1:])


def environment(env, workload, seed):
    out = subprocess.run([sys.executable, "-c", ENV_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        die(f"the program does not import: {out.stderr.strip().splitlines()[-1:]}")
    echo = json.loads(out.stdout)
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    echo.update({"nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
                 "workload": workload.name, "seed": seed, "input_sizes": workload.sizes})
    return echo


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _verdict(results, first):
    """The names of the commands that failed, and whether every output was
    correct; fingerprints are compared with the first repetition's."""
    failed, correct = set(), True
    for r in results:
        want = first.get(r["cmd"].name, r["fingerprint"])
        first.setdefault(r["cmd"].name, r["fingerprint"])
        if r["fingerprint"] is not None and r["fingerprint"] != want:
            r["problems"].append("output differs from the first repetition")
        if not r["problems"]:
            continue
        failed.add(r["cmd"].name)
        # a probe that exits non-zero is the known defect it probes, not wrong output
        if not (r["cmd"].probe and r["code"] != 0):
            correct = False
        label = "known-defect probe" if r["cmd"].probe else "OUTPUT CHECK FAILED"
        for p in r["problems"][:5]:
            print(f"perfbench: {label}: {r['cmd'].name}: {p}", file=sys.stderr)
    return failed, correct


def untraced(workload, launcher, seconds):
    deadline = perf_counter() + seconds
    reps, first = [], {}
    failed, correct = set(), True
    while not reps or perf_counter() < deadline:
        rep = [run_subprocess(c, launcher, len(reps)) for c in workload.commands]
        f, ok = _verdict(rep, first)
        failed, correct = failed | f, correct and ok
        reps.append(rep)
    return reps, failed, correct


def end_to_end(workload, reps, setup_s):
    rates = [sum(r["cmd"].units for r in rep) / sum(r["wall"] for r in rep) for rep in reps]
    peaks = [max(r["rss"] for r in rep) for rep in reps]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }, rates


# Per-command end-to-end figures, printed by name for reading alongside
# the gated metrics above.
_DETAIL = {
    ("build_full", "build-pretrain"): "pretrain", ("build_sparse", "build-pretrain"): "pretrain",
    ("build_full", "build-finetune"): "finetune",
    ("evaluate", "evaluate-vqa_anls"): "eval_vqa_anls", ("evaluate", "evaluate-caption"): "eval_caption",
}
_ALL_DETAIL = ["setup_s", "pretrain_records_per_s", "pretrain_peak_rss_mb", "finetune_records_per_s",
               "finetune_peak_rss_mb", "eval_vqa_anls_items_per_s", "eval_caption_items_per_s",
               "eval_peak_rss_mb", "failed_ops_frac"]


def detail_lines(workload, reps, setup_s, attempted, failed):
    values = {"setup_s": (setup_s, "s", f"median of {SETUP_RUNS} fresh interpreters")}
    peaks: dict = {}
    for i, cmd in enumerate(workload.commands):
        prefix = _DETAIL[workload.name, cmd.name]
        rates = [rep[i]["cmd"].units / rep[i]["wall"] for rep in reps]
        raw = statistics.median(rep[i]["cmd"].units / rep[i]["raw_wall"] for rep in reps)
        lo, hi = _quartiles(rates)
        values[f"{prefix}_{cmd.unit}_per_s"] = (
            statistics.median(rates), f"{cmd.unit}/s",
            f"median of {len(rates)}, quartiles {lo:.1f}..{hi:.1f}, unscaled {raw:.1f}; "
            f"{cmd.units} {cmd.unit}")
        group = "eval" if prefix.startswith("eval") else prefix
        per_rep = peaks.setdefault(group, [0.0] * len(reps))
        for j, rep in enumerate(reps):
            per_rep[j] = max(per_rep[j], rep[i]["rss"])
    for group, per_rep in peaks.items():
        values[f"{group}_peak_rss_mb"] = (statistics.median(per_rep), "MB", f"median of {len(per_rep)}")
    values["failed_ops_frac"] = (failed / attempted, "ratio",
                                 f"{failed} of {attempted} distinct commands, known-defect probes included")
    lines = []
    for name in _ALL_DETAIL:
        if name in values:
            value, unit, note = values[name]
            lines.append(f"  {name:28s} {value:14.4f} {unit:10s} {note}")
        else:
            lines.append(f"  {name:28s} {'n/a':>14s} {'':10s} not run by this workload")
    return lines


def traced(workload, seconds):
    """In-process runs of each command, untraced then traced, until --seconds
    pass. Reports per-layer totals and the trace's own self-checks."""
    sys.path.insert(0, SRC)
    from scenetext import cli
    import layers

    def once(cmd, tracer):
        if cmd.out_dir:
            shutil.rmtree(cmd.out_dir, ignore_errors=True)
        out = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                (tracer or contextlib.nullcontext()):
            start = perf_counter()
            try:
                code = cli.main(["--json", *cmd.argv])
            except (Exception, SystemExit) as exc:
                code = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
        problems, fingerprint = check_output(cmd, code, out.getvalue(), str(code))
        return {"cmd": cmd, "wall": wall, "code": code, "problems": problems,
                "fingerprint": fingerprint}

    deadline = perf_counter() + seconds
    passes, first, last = [], {}, []
    failed, correct = set(), True
    while not passes or perf_counter() < deadline:
        rows, results, tracers = [], [], []
        for cmd in workload.commands:
            plain = once(cmd, None)
            tracer = layers.Tracer()
            with_trace = once(cmd, tracer)
            if with_trace["fingerprint"] != plain["fingerprint"]:
                with_trace["problems"].append("traced shards or scores differ from the untraced run")
            coverage = tracer.self_seconds() / with_trace["wall"]
            if cmd.threads == 1 and abs(coverage - 1.0) > 0.05:
                with_trace["problems"].append(f"span self times cover {coverage:.3f} of the wall time")
            rows.append((cmd, plain["wall"], with_trace["wall"], tracer.totals(), coverage))
            results += [plain, with_trace]
            tracers.append(tracer)
        f, ok = _verdict(results, first)
        failed, correct = failed | f, correct and ok
        passes.append(rows)
        last = tracers
    for tracer in last:
        if tracer.missing:
            print(f"perfbench: not traced (not found): {', '.join(tracer.missing)}", file=sys.stderr)
    spans = sum(t.write_spans(os.path.join(WORK, f"spans-{workload.name}-{i}.tsv"))
                for i, t in enumerate(last))

    per_pass = [layer_metrics(rows) for rows in passes]
    metrics = {}
    for name, unit in PER_LAYER:
        values = [m[name] for m in per_pass]
        exact = name.rpartition(".")[2] not in _TIMED and not name.startswith("trace.")
        if exact and len(set(values)) > 1:
            correct = False
            print(f"perfbench: TRACE CHECK FAILED: {name} differs between passes: {values}",
                  file=sys.stderr)
        metrics[name] = (values[0] if exact else statistics.median(values), unit)
    note = f"{len(passes)} traced passes, {spans} spans in the last"
    return metrics, failed, correct, note


def layer_metrics(rows) -> dict:
    """Per-layer values for one pass over the workload's commands."""
    totals: dict = {}
    for _, _, _, tot, _ in rows:
        for name, row in tot.items():
            merged = totals.setdefault(name, {})
            for key, value in row.items():
                merged[key] = merged.get(key, 0) + value

    def get(name, quantity):
        return totals.get(name, {}).get(quantity, 0)

    wall = sum(r[2] for r in rows)
    single = [r for r in rows if r[0].threads == 1]
    kept = get("pipeline.subsample", "kept")
    parsed = get("records.parse_record", "calls")
    out = {
        "pipeline.subsample.kept_ratio": kept / parsed if parsed else 0.0,
        "ordering.order_tokens.calls_per_record":
            get("ordering.order_tokens", "calls") / kept if kept else 0.0,
        "trace.wall_s": wall,
        "trace.coverage": (sum(r[4] * r[2] for r in single) / sum(r[2] for r in single)
                           if single else 0.0),
        "trace.overhead_frac": wall / sum(r[1] for r in rows) - 1.0,
    }
    for metric, _ in PER_LAYER:
        layer, _, quantity = metric.rpartition(".")
        if quantity in _TIMED:
            out[metric] = get(layer, _TIMED[quantity]) / wall
        elif metric not in out:
            out[metric] = get(layer, _RAISED.get(metric, quantity))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (os.path.join(SRC, "scenetext", "cli.py"), os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.exists(needed):
            die(f"{os.path.relpath(needed, ROOT)} not found; run from a full checkout")
    os.makedirs(os.path.join(WORK, "logs"), exist_ok=True)
    # the workloads set --threads themselves
    os.environ.pop("SCENETEXT_THREADS", None)
    with Launcher(child_env()) as launcher:
        with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)
        workload = workloads.prepare(args.workload, args.seed, WORK, ROOT, pinned)
        echo = environment(launcher.env, workload, args.seed)
        print(f"perfbench {workload.name} seed={args.seed} tracing={'on' if args.trace else 'off'}")
        print("env " + json.dumps(echo, sort_keys=True))
        if args.trace:
            metrics, failed, correct, note = traced(workload, args.seconds)
        else:
            setup_s = measure_setup(launcher)
            reps, failed, correct = untraced(workload, launcher, args.seconds)
        probes = [run_subprocess(c, launcher, 0, timed=False) for c in workload.probes]
    f, ok = _verdict(probes, {})
    correct = correct and ok
    # An operation is one command of the workload; its repetitions are timing
    # samples of it, and it fails if any of them fails. So `attempted` and
    # `failed` do not depend on how many repetitions fit in --seconds.
    attempted, failed = len(workload.commands) + len(probes), len(failed | f)

    if args.trace:
        print(f"  {note}")
        wall = metrics["trace.wall_s"][0]
        for name, (value, unit) in metrics.items():
            seconds = f"{value * wall:10.4f} s" if name.rpartition(".")[2] in _TIMED else ""
            print(f"  {name:44s} {value:16.6f} {unit:6s} {seconds}")
    else:
        metrics, rates = end_to_end(workload, reps, setup_s)
        lo, hi = _quartiles(rates)
        print(f"  {len(reps)} repetitions of {len(workload.commands)} command(s); "
              f"throughput quartiles {lo:.1f}..{hi:.1f} 1/s")
        unscaled = [sum(r["cmd"].units for r in rep) / sum(r["raw_wall"] for r in rep) for rep in reps]
        print("  throughput per repetition: " + " ".join(f"{x:.1f}" for x in rates)
              + "; unscaled: " + " ".join(f"{x:.1f}" for x in unscaled))
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:14.4f} {unit}")
        print("  per command:")
        for line in detail_lines(workload, reps, setup_s, attempted, failed):
            print(line)
    for p in probes:
        state = "passes" if not p["problems"] else "FAILS (known defect)"
        print(f"  probe {p['cmd'].name}: {state}")
    if not correct:
        print("perfbench: OUTPUT CHECK FAILED; see the messages above", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
