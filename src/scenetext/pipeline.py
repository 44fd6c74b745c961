"""End-to-end corpus builds: stream, validate, subsample, build, shard.

A build makes one pass over the kept records. A record that passes some
dataset's eligibility rule (`Objective.eligible`, `Task.eligible`) is
ordered once (`ordering.order_tokens`) and handed with its ordered OCR
texts to those datasets' builders, then dropped; only the built examples
are held until they are shuffled into shards.

Every output is a pure function of (inputs, config): subsampling and
shuffling key off stable hashes of record ids, per-record RNGs are derived
from (seed, image_id), and shards plus manifest are byte-reproducible
across reruns, worker counts, and input orderings.
"""

import dataclasses
import gzip
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator

from . import __version__
from .errors import ConfigError, ParseError, SchemaError
from .finetune import Task, build_caption_examples, build_vqa_examples
from .hashing import hash64, keep_fraction
from .ordering import order_tokens
from .pretrain import Objective, ObjectiveConfig, build_example, build_stage_plan
from .records import CorpusValidator, Record, parse_record
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
    threads: int = 1  # recorded in the manifest; builds run in one thread
    compress: bool = False
    resolution: int | None = None  # image-resolution tag, manifest metadata only

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"fraction must be in (0, 1], got {self.fraction}")
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

    def add(self, record: Record) -> None:
        """Count one record."""
        self.record_count += 1
        self.ocr_token_histogram[len(record.ocr)] += 1
        if record.caption:
            self.caption_length_histogram[len(record.caption.split())] += 1
        self.eligible.update(o.value for o in Objective if o.eligible(record))

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


def ingest(paths: Iterable[str], counters: Counter,
           violations: Counter | None = None) -> Iterator[tuple[str, Record]]:
    """Yield (line, record) for each valid record of the inputs, in order.

    Each line is decoded on its own, so a bad byte costs one line. A line
    that does not decode or parse counts as a parse error, a record the
    validator rejects as a validation skip; neither stops the stream.
    `violations`, when given, counts the validator's findings by name.
    """
    validator = CorpusValidator()
    for raw in iter_lines(paths):
        counters["lines"] += 1
        try:
            line = raw.decode("utf-8")
            record = parse_record(line)
        except (UnicodeDecodeError, ParseError, SchemaError):
            counters["parse_errors"] += 1
            continue
        report = validator.validate(record)
        if not report.ok:
            counters["validation_skips"] += 1
            if violations is not None:
                violations.update(report.violations)
            continue
        counters["valid_records"] += 1
        yield line, record


def subsample(records: Iterable, fraction: float, seed: int,
              key=attrgetter("image_id")) -> Iterator:
    """Keep a record iff hash64(seed, key(record))/2^64 < fraction.

    Order-independent, and nested across fractions under the same seed.
    The fraction is checked at once; the records are filtered lazily.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return iter(records)
    return (r for r in records if keep_fraction(seed, key(r), fraction))


def kept_records(paths: Iterable[str], fraction: float, seed: int,
                 counters: Counter) -> Iterator[Record]:
    """Ingest and subsample, yielding each kept record as it is read.

    The one place that sets the `valid_records` counter (reported even when
    no line is valid) and the `subsampled_records` counter.
    """
    counters.setdefault("valid_records", 0)
    counters["subsampled_records"] = 0
    for record in subsample((record for _, record in ingest(paths, counters)), fraction, seed):
        counters["subsampled_records"] += 1
        yield record


def compute_stats(records: Iterable[Record]) -> DatasetStats:
    """Single streaming pass of exact counts."""
    stats = DatasetStats()
    for record in records:
        stats.add(record)
    return stats


def shuffle_and_shard(examples: list[tuple[str, str]], seed: int,
                      shard_count: int) -> list[list[str]]:
    """Deterministically permute (example_id, line) pairs and assign them
    round-robin to shard_count buckets of JSONL lines."""
    if shard_count < 1:
        raise ConfigError(f"shard count must be >= 1, got {shard_count}")
    permuted = sorted(examples, key=lambda e: (hash64(seed, "shuffle", e[0]), e[0]))
    shards: list[list[str]] = [[] for _ in range(shard_count)]
    for i, (_, line) in enumerate(permuted):
        shards[i % shard_count].append(line)
    return shards


def _write_shards(shards: list[list[str]], out_dir: str, dataset: str,
                  compress: bool, written: list[str]) -> list[dict]:
    """Write one file per shard; each path joins `written` once opened."""
    infos = []
    suffix = ".jsonl.gz" if compress else ".jsonl"
    for i, lines in enumerate(shards):
        name = f"{dataset}-{i:05d}-of-{len(shards):05d}{suffix}"
        path = os.path.join(out_dir, name)
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
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
    Every file this run wrote is removed if any step fails."""
    os.makedirs(config.out_dir, exist_ok=True)
    written: list[str] = []
    try:
        counters: Counter = Counter()
        examples: list[list[tuple[str, str]]] = [[] for _ in datasets]
        for record in kept_records(config.inputs, config.fraction, config.seed, counters):
            if stats is not None:
                stats.add(record)
            wanted = [(build, pairs) for (_, eligible, build), pairs in zip(datasets, examples)
                      if eligible(record)]
            if wanted:
                texts = ([t.text for t in order_tokens(record.ocr, config.overlap_threshold)]
                         if order_ocr else None)
                for build, pairs in wanted:
                    pairs.extend((ex.example_id, ex.to_json()) for ex in build(record, texts))
        built = []
        for (name, _, _), pairs in zip(datasets, examples):
            shards = shuffle_and_shard(pairs, config.seed, config.shard_count)
            built.append((len(pairs),
                          _write_shards(shards, config.out_dir, name, config.compress, written)))
        manifest = {
            "tool": "scenetext",
            "version": __version__,
            "config": config.to_dict(),
            "config_hash": _config_hash(config),
            "seed": config.seed,
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
