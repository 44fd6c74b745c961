"""Workload definitions: inputs, CLI commands, and the checks on their output.

A command is one `scenetext` invocation. Its check returns a list of
problems (empty when the output is right) and a fingerprint that must be
the same on every repetition and in the traced run.
"""

import hashlib
import importlib.util
import os
import random
from dataclasses import dataclass, field

import gen

BUILD_SEED = 7          # the program's own --seed; the workload seed only drives generation
STAGES = ("OCR", "SPLITOCR", "CAP", "SPLITCAP")
PASSES = 2
SHARDS = 8
SPARSE_FRACTION = 0.05
TOL = 1e-9

SIZES = {
    "build_full": {"records": 2500},
    "build_sparse": {"records": 16000},
    "evaluate": {"vqa_items": 600, "caption_items": 400},
}


@dataclass
class Command:
    name: str
    argv: list            # arguments after `scenetext`
    units: int            # input records or eval items it processes
    unit: str             # "records" or "items"
    check: object         # (stdout_json, out_dir) -> (problems, fingerprint)
    out_dir: str | None = None
    threads: int = 1
    probe: bool = False


@dataclass
class Workload:
    name: str
    commands: list
    probes: list = field(default_factory=list)
    sizes: dict = field(default_factory=dict)


def load_oracles(root: str):
    """tests/oracles.py: the independent reference implementations."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("scenetext_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= TOL


def _shard_problems(out_dir, shards, expected_examples, label):
    problems, digests = [], []
    if sum(s["examples"] for s in shards) != expected_examples:
        problems.append(f"{label}: shard example counts do not add up to {expected_examples}")
    for shard in shards:
        path = os.path.join(out_dir, shard["file"])
        try:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            problems.append(f"{label}: {exc}")
            continue
        if digest != shard["sha256"]:
            problems.append(f"{label}: {shard['file']} sha256 differs from the manifest")
        digests.append(digest)
    return problems, digests


def _counter_problems(counters, expected):
    return [f"counter {key}: got {counters.get(key)}, expected {expected[key]}"
            for key in ("lines", "parse_errors", "validation_skips", "subsampled_records")
            if counters.get(key) != expected[key]]


def _pinned_problems(pinned, key, digests):
    want = pinned.get(key) if pinned else None
    if want is not None and want != digests:
        return [f"{key}: shard sha256 values differ from the digests pinned for this seed"]
    return []


def pretrain_check(expected, stages, passes, pinned, key):
    def check(manifest, out_dir):
        problems = _counter_problems(manifest["counters"], expected)
        got = [s["objective"] for s in manifest["stages"]]
        if got != list(stages):
            return problems + [f"stages {got}, expected {list(stages)}"], None
        digests = []
        for stage in manifest["stages"]:
            want = expected["eligible"][stage["objective"]] * passes
            if stage["example_count"] != want:
                problems.append(f"{stage['objective']}: {stage['example_count']} examples, expected {want}")
            p, d = _shard_problems(out_dir, stage["shards"], stage["example_count"], stage["objective"])
            problems += p
            digests.append(d)
        problems += _pinned_problems(pinned, key, digests)
        return problems, digests
    return check


def finetune_check(expected, pinned, key):
    def check(manifest, out_dir):
        problems = _counter_problems(manifest["counters"], expected)
        if manifest["example_count"] != expected["vqa_examples"]:
            problems.append(f"{manifest['example_count']} VQA examples, expected {expected['vqa_examples']}")
        p, digests = _shard_problems(out_dir, manifest["shards"], manifest["example_count"], "finetune")
        problems += p + _pinned_problems(pinned, key, digests)
        return problems, digests
    return check


def eval_check(truth, pinned, key):
    """Aggregates against oracle values; per-item rows against an oracle sample."""
    def check(report, out_dir):
        problems = []
        if report.get("n_items") != truth["n_items"]:
            problems.append(f"n_items {report.get('n_items')}, expected {truth['n_items']}")
        aggregate = report.get("aggregate", {})
        expect = dict(truth["aggregate"])
        expect.update((pinned or {}).get(key, {}))
        for metric, value in expect.items():
            if not _close(aggregate.get(metric), value):
                problems.append(f"aggregate {metric}: got {aggregate.get(metric)}, oracle {value}")
        rows = {r["example_id"]: r for r in report.get("per_item", [])}
        for ex_id, want in truth["sample"].items():
            for metric, value in want.items():
                got = rows.get(ex_id, {}).get(metric)
                if not _close(got, value):
                    problems.append(f"{ex_id} {metric}: got {got}, oracle {value}")
        return problems, sorted(aggregate.items())
    return check


def probe_build_check(truth):
    """The bad line is counted and skipped; the good lines all build."""
    def check(manifest, out_dir):
        counters = manifest["counters"]
        problems = []
        if counters.get("lines") != truth["lines"]:
            problems.append(f"lines {counters.get('lines')}, expected {truth['lines']}")
        if counters.get("subsampled_records") != truth["records"]:
            problems.append(f"records {counters.get('subsampled_records')}, expected {truth['records']}")
        count = manifest["stages"][0]["example_count"]
        if count != truth["ocr_examples"]:
            problems.append(f"{count} OCR examples, expected {truth['ocr_examples']}")
        return problems, None
    return check


def _anls_oracle(oracles, pred, golds, tau=0.5):
    p = pred.lower().strip()
    best = 0.0
    for gold in golds:
        g = gold.lower().strip()
        denom = max(len(p), len(g))
        s = 1.0 if denom == 0 else 1.0 - oracles.levenshtein_memo(p, g) / denom
        best = max(best, s if s >= tau else 0.0)
    return best


def vqa_truth(oracles, items, seed, sample_size=20, with_anls_aggregate=False):
    """Oracle accuracy over all items; oracle accuracy and ANLS on a sample
    (the longest answers plus a seeded random draw)."""
    acc = [oracles.vqa_accuracy_leave_one_out(pred, answers) for _, pred, answers in items]
    by_len = sorted(range(len(items)), key=lambda i: -len(items[i][1]))
    rng = random.Random(seed)
    chosen = set(by_len[: sample_size // 2])
    chosen.update(rng.sample(range(len(items)), sample_size - len(chosen)))
    sample = {items[i][0]: {"accuracy": acc[i],
                            "anls": _anls_oracle(oracles, items[i][1], items[i][2])}
              for i in sorted(chosen)}
    aggregate = {"accuracy": sum(acc) / len(acc)}
    if with_anls_aggregate:
        aggregate["anls"] = sum(_anls_oracle(oracles, p, a) for _, p, a in items) / len(items)
    return {"n_items": len(items), "aggregate": aggregate, "sample": sample}


def caption_truth(oracles, items, with_cider=False):
    cands = [c for _, c, _ in items]
    refs = [r for _, _, r in items]
    aggregate = {"bleu4": oracles.oracle_bleu4(cands, refs)}
    if with_cider:
        per_item = oracles.oracle_cider_d(cands, refs)
        aggregate["cider"] = float(sum(per_item) / len(per_item))
    return {"n_items": len(items), "aggregate": aggregate, "sample": {}}


def stvqa_truth(oracles, items):
    anls = [_anls_oracle(oracles, p, a) for _, p, a in items]
    return {"n_items": len(items), "aggregate": {"anls": sum(anls) / len(anls)}, "sample": {}}


def _gen_digest() -> str:
    """Cached inputs are regenerated whenever the generator changes."""
    with open(gen.__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def prepare(name, seed, work, root, pinned):
    """Generate (or reuse) the inputs for workload `name` and build its commands."""
    sizes = SIZES[name]
    data = os.path.join(work, "data", f"{name}-{seed}")
    spec = {"workload": name, "seed": seed, "sizes": sizes, "gen": _gen_digest()}
    out = os.path.join(work, "out", name)
    pins = pinned.get(name) if pinned.get("seed") == seed else None

    if name in ("build_full", "build_sparse"):
        corpus = os.path.join(data, "corpus.jsonl")
        truth = gen.ensure(data, spec, lambda d: gen.write_corpus(corpus, seed, sizes["records"]))
        sizes = dict(sizes, bytes=os.path.getsize(corpus))
        lines = truth["lines"]
    if name == "build_full":
        expected = gen.expected_counters(truth, 1.0, BUILD_SEED)
        commands = [
            Command("build-pretrain", ["build-pretrain", "--stages", ",".join(STAGES).lower(),
                                       "--passes", str(PASSES), "--shards", str(SHARDS),
                                       "--threads", "2", "--seed", str(BUILD_SEED)],
                    lines, "records", pretrain_check(expected, STAGES, PASSES, pins, "pretrain"),
                    threads=2),
            Command("build-finetune", ["build-finetune", "--task", "vqa", "--shards", str(SHARDS),
                                       "--compress", "--seed", str(BUILD_SEED)],
                    lines, "records", finetune_check(expected, pins, "finetune")),
        ]
        for cmd in commands:
            cmd.out_dir = os.path.join(out, cmd.name)
            cmd.argv += ["--in", corpus, "--out-dir", cmd.out_dir]
        return Workload(name, commands, sizes=sizes)

    if name == "build_sparse":
        expected = gen.expected_counters(truth, SPARSE_FRACTION, BUILD_SEED)
        cmd = Command("build-pretrain", ["build-pretrain", "--objective", "splitocr",
                                         "--fraction", str(SPARSE_FRACTION), "--shards", str(SHARDS),
                                         "--threads", "1", "--seed", str(BUILD_SEED),
                                         "--in", corpus, "--out-dir", os.path.join(out, "build-pretrain")],
                      lines, "records", pretrain_check(expected, ("SPLITOCR",), 1, pins, "pretrain"),
                      out_dir=os.path.join(out, "build-pretrain"))
        return Workload(name, [cmd], probes=_probes(seed, work, root, out), sizes=sizes)

    def build_eval(directory):
        oracles = load_oracles(root)
        vqa = gen.write_vqa_fixture(os.path.join(directory, "vqa_pred.jsonl"),
                                    os.path.join(directory, "vqa_gold.jsonl"), seed, sizes["vqa_items"])
        cap = gen.write_caption_fixture(os.path.join(directory, "cap_pred.jsonl"),
                                        os.path.join(directory, "cap_gold.jsonl"), seed + 1,
                                        sizes["caption_items"])
        return {"vqa_anls": vqa_truth(oracles, vqa, seed), "caption": caption_truth(oracles, cap)}

    truth = gen.ensure(data, spec, build_eval)
    commands = []
    for task, prefix in (("vqa_anls", "vqa"), ("caption", "cap")):
        pred = os.path.join(data, f"{prefix}_pred.jsonl")
        gold = os.path.join(data, f"{prefix}_gold.jsonl")
        commands.append(Command(f"evaluate-{task}", ["evaluate", "--task", task, "--per-item",
                                                      "--pred", pred, "--gold", gold],
                                truth[task]["n_items"], "items", eval_check(truth[task], pins, task)))
    return Workload(name, commands, sizes=dict(sizes))


def _probes(seed, work, root, out):
    """Known-defect probes: each passes only when the program skips the bad input."""
    data = os.path.join(work, "data", f"probes-{seed}")
    spec = {"probes": seed, "gen": _gen_digest()}

    def build(directory):
        truth = {kind: gen.write_probe_corpus(os.path.join(directory, f"{kind}.jsonl"), seed, kind)
                 for kind in ("image_size_not_int", "undecodable_byte")}
        items = gen.write_vqa_fixture(os.path.join(directory, "stvqa_pred.jsonl"),
                                      os.path.join(directory, "stvqa_gold.jsonl"), seed, 20,
                                      answers_per_item=None)
        truth["stvqa"] = stvqa_truth(load_oracles(root), items)
        return truth

    truth = gen.ensure(data, spec, build)
    probes = []
    for kind in ("image_size_not_int", "undecodable_byte"):
        out_dir = os.path.join(out, f"probe-{kind}")
        probes.append(Command(f"probe-{kind}", ["build-pretrain", "--objective", "ocr",
                                                "--in", os.path.join(data, f"{kind}.jsonl"),
                                                "--out-dir", out_dir],
                              truth[kind]["lines"], "records", probe_build_check(truth[kind]),
                              out_dir=out_dir, probe=True))
    probes.append(Command("probe-stvqa_anls", ["evaluate", "--task", "vqa_anls", "--per-item",
                                               "--pred", os.path.join(data, "stvqa_pred.jsonl"),
                                               "--gold", os.path.join(data, "stvqa_gold.jsonl")],
                          truth["stvqa"]["n_items"], "items", eval_check(truth["stvqa"], None, None),
                          probe=True))
    return probes
