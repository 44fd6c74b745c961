"""End-to-end corpus builds: stream, validate, subsample, build, shard.

A build makes one pass over the kept records. A record that passes some
dataset's eligibility rule (`Objective.eligible`, `Task.eligible`) is
ordered once (`ordering.order_tokens`) and handed with its ordered OCR
texts to those datasets' builders, then dropped; only the built examples
are held, as UTF-8 JSON lines, until they are shuffled into shards.

The per-line work (decode, parse, the per-record validation rules, the
keep test, ordering, building and serializing) runs on chunks of lines.
With `threads` > 1 it runs in up to that many forked worker processes,
capped at the CPUs available; with 1 it runs in this process. Either way
this process reads the lines, applies the duplicate rule and the counters
in line order, and shuffles and writes, so the chunking changes nothing.

Every output is a pure function of (inputs, config): subsampling and
shuffling key off stable hashes of record ids, per-record RNGs are derived
from (seed, image_id), and shards plus manifest are byte-reproducible
across reruns and worker counts, and across input orderings when no two
records share an image_id.
"""

import dataclasses
import gzip
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator

from . import __version__
from .errors import ConfigError, ParseError, SceneTextError, SchemaError
from .finetune import Task, build_caption_examples, build_vqa_examples
from .hashing import hash64, keep_fraction
from .ordering import order_tokens
from .pretrain import Objective, ObjectiveConfig, build_example, build_stage_plan
from .records import CorpusValidator, Record, parse_record, record_violations
from .textformat import TextFormat


@dataclass(frozen=True)
class PipelineConfig:
    inputs: tuple[str, ...]
    out_dir: str
    stages: tuple[Objective, ...] = (Objective.SPLITOCR,)
    seed: int = 0
    fraction: float = 1.0
    shard_count: int = 1
    overlap_threshold: float = 0.5
    fmt: TextFormat = TextFormat()
    passes: int = 1
    threads: int = 1  # up to this many forked worker processes; output is the same for any
    compress: bool = False
    resolution: int | None = None  # image-resolution tag, manifest metadata only

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        _check_fraction(self.fraction)
        if self.shard_count < 1:
            raise ConfigError(f"shard count must be >= 1, got {self.shard_count}")
        if self.passes < 1:
            raise ConfigError("passes must be >= 1")
        if not 0.0 <= self.overlap_threshold <= 1.0:  # NaN fails too
            raise ConfigError(f"overlap threshold must be in [0, 1], got {self.overlap_threshold}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["inputs"] = list(self.inputs)
        d["stages"] = [s.value for s in self.stages]
        return d


@dataclass
class DatasetStats:
    record_count: int = 0
    eligible: Counter = field(default_factory=Counter)
    ocr_token_histogram: Counter = field(default_factory=Counter)
    caption_length_histogram: Counter = field(default_factory=Counter)

    @staticmethod
    def entry(record: Record) -> tuple[int, int | None, tuple[str, ...]]:
        """What `add` counts of one record: its OCR token count, its caption
        word count (None without a caption) and its eligible objectives."""
        return (len(record.ocr), len(record.caption.split()) if record.caption else None,
                tuple([o.value for o in Objective if o.eligible(record)]))

    def add(self, entry: tuple[int, int | None, tuple[str, ...]]) -> None:
        """Count one record, given as its `entry`."""
        ocr_count, caption_words, eligible = entry
        self.record_count += 1
        self.ocr_token_histogram[ocr_count] += 1
        if caption_words is not None:
            self.caption_length_histogram[caption_words] += 1
        self.eligible.update(eligible)

    @property
    def empty_ocr_count(self) -> int:
        return self.ocr_token_histogram[0]

    @property
    def empty_ocr_fraction(self) -> float:
        return self.empty_ocr_count / self.record_count if self.record_count else 0.0

    def to_dict(self) -> dict:
        return {
            "record_count": self.record_count,
            "eligible": {k: v for k, v in sorted(self.eligible.items())},
            "ocr_token_histogram": {str(k): v for k, v in sorted(self.ocr_token_histogram.items())},
            "caption_length_histogram": {str(k): v for k, v in sorted(self.caption_length_histogram.items())},
            "empty_ocr_count": self.empty_ocr_count,
            "empty_ocr_fraction": self.empty_ocr_fraction,
        }


def iter_lines(paths: Iterable[str]) -> Iterator[bytes]:
    """Non-blank lines of plain or gzip (.gz) files, undecoded."""
    for path in paths:
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "rb") as fh:
            for line in fh:
                if line.strip():
                    yield line


CHUNK_LINES = 64  # lines per unit of work handed to a worker
CHUNKS_PER_WORKER = 4  # chunks in flight per worker: enough to keep each busy


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunks(paths: Iterable[str]) -> Iterator[list[bytes]]:
    lines = iter_lines(paths)
    while chunk := list(islice(lines, CHUNK_LINES)):
        yield chunk


def _check_chunk(lines: list[bytes], work) -> list:
    """The per-line work of an ingest, on one chunk. One entry per line: None
    if it does not decode or parse, else (image_id, violations, output), where
    violations are the record's `record_violations` and output is
    work(record) when there are none, else None. Runs in a worker process
    when the ingest has more than one."""
    results = []
    for raw in lines:
        try:
            record = parse_record(raw.decode("utf-8"))
        except (UnicodeDecodeError, ParseError, SchemaError):
            results.append(None)
            continue
        violations = record_violations(record)
        results.append((record.image_id, violations, None if violations else work(record)))
    return results


_worker_job = None  # in a worker process: the chunk function of its pool


def _start_worker(job) -> None:
    import multiprocessing
    import signal
    import threading

    global _worker_job
    _worker_job = job
    # Ctrl-C reaches the whole process group; the parent alone handles it
    # and shuts the pool down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A parent killed outright runs no shutdown, and its workers would wait
    # for work forever: each exits as soon as its parent is gone.
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_exit_with_parent, args=(sentinel,), daemon=True).start()


def _exit_with_parent(sentinel: int) -> None:
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _run_job(lines: list[bytes]) -> list:
    return _worker_job(lines)


def _map_chunks(job, chunks: Iterator[list[bytes]], workers: int) -> Iterator[tuple[list, list]]:
    """Yield (chunk, job(chunk)) for each chunk, in order. With more than one
    worker, and where processes can fork, `workers` forked processes run the
    job with a bounded window of chunks in flight; otherwise it runs here."""
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            yield from _pooled(job, chunks, multiprocessing.get_context("fork"), workers)
            return
    for chunk in chunks:
        yield chunk, job(chunk)


def _pooled(job, chunks, context, workers: int) -> Iterator[tuple[list, list]]:
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Under fork the pool starts every worker at the first submit, before
    # its manager thread; the job reaches them by fork, not by pickling.
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker,
                               initargs=(job,))
    try:
        window: deque = deque()
        for chunk in chunks:
            window.append((chunk, pool.submit(_run_job, chunk)))
            if len(window) >= CHUNKS_PER_WORKER * workers:
                chunk, future = window.popleft()
                yield chunk, future.result()
        while window:
            chunk, future = window.popleft()
            yield chunk, future.result()
    except BrokenProcessPool:
        raise SceneTextError("a build worker process died") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _same(record: Record) -> Record:
    return record


def ingest(paths: Iterable[str], counters: Counter, violations: Counter | None = None,
           work=_same, threads: int = 1) -> Iterator[tuple[bytes, object]]:
    """Yield (line, work(record)) for each valid record of the inputs, in order.

    The one ingest loop. Each line is decoded on its own, so a bad byte costs
    one line. A line that does not decode or parse counts as a parse error, a
    record the validator rejects as a validation skip; neither stops the
    stream. `violations`, when given, counts the validator's findings by
    name. Parsing, the per-record rules and `work` run on chunks of lines in
    up to `threads` processes (capped at `available_cpus()`); the duplicate
    rule and the counters run here, in line order, so neither depends on
    the chunking. A duplicate's work is done and dropped.
    """
    validator = CorpusValidator()
    job = partial(_check_chunk, work=work)
    for lines, results in _map_chunks(job, _chunks(paths), min(threads, available_cpus())):
        for line, result in zip(lines, results):
            counters["lines"] += 1
            if result is None:
                counters["parse_errors"] += 1
                continue
            image_id, found, output = result
            report = validator.check(image_id, found)
            if not report.ok:
                counters["validation_skips"] += 1
                if violations is not None:
                    violations.update(report.violations)
                continue
            counters["valid_records"] += 1
            yield line, output


def subsample(records: Iterable, fraction: float, seed: int,
              key=attrgetter("image_id")) -> Iterator:
    """Keep a record iff hash64(seed, key(record))/2^64 < fraction.

    Order-independent, and nested across fractions under the same seed.
    The fraction is checked at once; the records are filtered lazily.
    """
    _check_fraction(fraction)
    if fraction == 1.0:
        return iter(records)
    return (r for r in records if keep_fraction(seed, key(r), fraction))


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")


def kept_records(paths: Iterable[str], fraction: float, seed: int, counters: Counter,
                 work=_same, threads: int = 1) -> Iterator:
    """Ingest and subsample, yielding work(record) for each kept record, in
    line order. The keep test runs just before `work`, in the same process
    (see `ingest`), so a record the subsample drops is never built.

    The one place that sets the `valid_records` counter (reported even when
    no line is valid) and the `subsampled_records` counter.
    """
    _check_fraction(fraction)
    kept_work = work
    if fraction < 1.0:
        def kept_work(record):
            return work(record) if keep_fraction(seed, record.image_id, fraction) else None
    counters.setdefault("valid_records", 0)
    counters["subsampled_records"] = 0
    for _, output in ingest(paths, counters, work=kept_work, threads=threads):
        if output is not None:
            counters["subsampled_records"] += 1
            yield output


def compute_stats(records: Iterable[Record]) -> DatasetStats:
    """Single streaming pass of exact counts."""
    stats = DatasetStats()
    for record in records:
        stats.add(DatasetStats.entry(record))
    return stats


def shuffle_and_shard(examples: list[tuple[int, str, bytes]],
                      shard_count: int) -> list[list[bytes]]:
    """Deterministically permute (shuffle_key, example_id, line) triples,
    where shuffle_key is hash64(seed, "shuffle", example_id), and assign the
    lines round-robin to shard_count buckets."""
    if shard_count < 1:
        raise ConfigError(f"shard count must be >= 1, got {shard_count}")
    shards: list[list[bytes]] = [[] for _ in range(shard_count)]
    for i, (_, _, line) in enumerate(sorted(examples)):
        shards[i % shard_count].append(line)
    return shards


def _write_shards(shards: list[list[bytes]], out_dir: str, dataset: str,
                  compress: bool, written: list[str]) -> list[dict]:
    """Write one file per shard of newline-terminated UTF-8 lines; each path
    joins `written` once opened."""
    infos = []
    suffix = ".jsonl.gz" if compress else ".jsonl"
    for i, lines in enumerate(shards):
        name = f"{dataset}-{i:05d}-of-{len(shards):05d}{suffix}"
        path = os.path.join(out_dir, name)
        payload = b"".join(lines)
        if compress:
            # fixed mtime so compressed shards are byte-reproducible
            data = gzip.compress(payload, mtime=0)
        else:
            data = payload
        with open(path, "wb") as fh:
            written.append(path)
            fh.write(data)
        infos.append({
            "file": name,
            "examples": len(lines),
            "sha256": hashlib.sha256(data).hexdigest(),
        })
    return infos


def _config_hash(config: PipelineConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def _build(config: PipelineConfig, datasets, manifest_name: str, describe,
           stats: DatasetStats | None = None, order_ocr: bool = True) -> dict:
    """The one build path. One pass over the kept records adds each to the
    stats, if given, and keeps the (name, eligible, build) datasets whose
    eligible(record) holds; if any, it orders the record's OCR once into
    texts (None unless order_ocr) and adds build(record, texts) to each.
    Then each dataset is shuffled/sharded and written, and the manifest:
    the common head plus describe([(example_count, shard_infos), ...]).
    Every file this run wrote is removed if any step fails.

    Ordering, building and serializing are the per-record `work` of the
    ingest, so they run in its worker processes; the stats, the held
    examples and everything after the pass stay in this one."""
    seed, with_stats = config.seed, stats is not None

    def work(record):
        """The record's stats entry (None without stats) and, per dataset,
        its examples as (shuffle key, example_id, UTF-8 JSON line) triples."""
        builds = [build if eligible(record) else None for _, eligible, build in datasets]
        texts = None
        if order_ocr and any(builds):
            texts = [t.text for t in order_tokens(record.ocr, config.overlap_threshold)]
        examples = [[(hash64(seed, "shuffle", ex.example_id), ex.example_id,
                      (ex.to_json() + "\n").encode("utf-8")) for ex in build(record, texts)]
                    if build else [] for build in builds]
        return (DatasetStats.entry(record) if with_stats else None), examples

    os.makedirs(config.out_dir, exist_ok=True)
    written: list[str] = []
    try:
        counters: Counter = Counter()
        examples: list[list[tuple[int, str, bytes]]] = [[] for _ in datasets]
        for entry, built_examples in kept_records(config.inputs, config.fraction, seed,
                                                  counters, work, config.threads):
            if with_stats:
                stats.add(entry)
            for held, new in zip(examples, built_examples):
                held.extend(new)
        built = []
        for (name, _, _), keyed in zip(datasets, examples):
            shards = shuffle_and_shard(keyed, config.shard_count)
            built.append((len(keyed),
                          _write_shards(shards, config.out_dir, name, config.compress, written)))
        manifest = {
            "tool": "scenetext",
            "version": __version__,
            "config": config.to_dict(),
            "config_hash": _config_hash(config),
            "seed": seed,
            "counters": dict(counters),
            **describe(built),
        }
        manifest_path = os.path.join(config.out_dir, manifest_name)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            written.append(manifest_path)
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise


def run(config: PipelineConfig) -> dict:
    """Build every stage dataset (and the stats) from one pass over the
    kept records, shuffle/shard each, and write a reproducibility manifest."""
    plan = build_stage_plan(config.stages)
    configs = [ObjectiveConfig(fmt=config.fmt, pass_index=p) for p in range(config.passes)]
    stats = DatasetStats()

    def stage_build(objective):
        return lambda record, texts: [build_example(record, texts, objective, config.seed, c)
                                      for c in configs]

    def describe(built):
        return {
            "stats": stats.to_dict(),
            "stages": [{"stage": i, "objective": objective.value, "example_count": count,
                        "shards": shards}
                       for i, (objective, (count, shards)) in enumerate(zip(plan.stages, built))],
        }

    datasets = [(name, objective.eligible, stage_build(objective))
                for name, objective in zip(plan.dataset_names, plan.stages)]
    return _build(config, datasets, "manifest.json", describe, stats)


def run_finetune(config: PipelineConfig, task: Task, ocr_included: bool = True) -> dict:
    """Fine-tuning variant of run(): one dataset instead of stage datasets."""
    obj_config = ObjectiveConfig(fmt=config.fmt)
    builder = build_vqa_examples if task is Task.VQA else build_caption_examples
    dataset = f"finetune_{task.value.lower()}"

    def describe(built):
        [(count, shards)] = built
        return {"task": task.value, "ocr_included": ocr_included, "example_count": count,
                "shards": shards}

    return _build(config, [(dataset, task.eligible,
                            lambda record, texts: builder(record, texts, obj_config))],
                  f"{dataset}_manifest.json", describe, order_ocr=ocr_included)
