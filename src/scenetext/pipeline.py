"""End-to-end corpus builds: stream, validate, subsample, build, shard.

A build makes one pass over the kept records. A record that passes some
dataset's eligibility rule (`Objective.eligible`, `Task.eligible`) is
ordered once (`ordering.order_tokens`) and handed with its ordered OCR
texts to those datasets' builders, then dropped. Nothing built is held in
memory: each example goes, as its shuffle key and UTF-8 JSON line
(`spill_records`), to its dataset's one spill file in the output directory.
After the pass each dataset's spill file is split by its key range into
parts of about SPILL_BUCKET_BYTES, as many as its size asks for, within
the descriptors the process may still open (its soft RLIMIT_NOFILE). The
parts are read back once each, in key order, sorted and dealt
round-robin, each shard's lines appended to its hidden shard file; then
the shards are finalized one at a time, so a build holds one part, or one
shard's compressor, at a time. Hidden files (`.{dataset}-spill`, a part
adds `-{part}`, and `.{dataset}-{i}-of-{n}.jsonl`) take about the
uncompressed shard bytes of free disk beside the shards and never outlive
a build: each is removed or renamed once done, and all are removed if the
build fails. A build that succeeds removes every shard of the datasets it
owns that its manifest does not list: a pre-training build owns every
stage dataset (`stage{i}_{objective}`), since only its manifest.json
lists them, and a fine-tuning build its task's.

The per-line work (decode, parse, the per-record validation rules, the
keep test, ordering, building and serializing) runs on chunks of lines.
With `threads` > 1 it runs in up to that many forked worker processes,
capped at the CPUs available, that read regular-file inputs themselves
(`workers.map`); with 1 it runs in this process. Either way this process
reads the lines, applies the duplicate rule and the counters in line
order, and shuffles and writes, so the chunking changes nothing.

Every output is a pure function of (inputs, config): subsampling and
shuffling key off stable hashes of record ids, per-record RNGs are derived
from (seed, image_id), and shards plus manifest are byte-reproducible
across reruns and worker counts, and across input orderings when no two
records share an image_id.
"""

import dataclasses
import gzip
import json
import math
import os
import re
import zlib
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Iterable, Iterator

from . import __version__, workers
from .errors import ConfigError, ParseError, SceneTextError, SchemaError
from .finetune import Task, build_caption_examples, build_vqa_examples, layout
from .hashing import hash64, keep_fraction, sha256
from .ordering import order_tokens
from .pretrain import Objective, build_example, build_stage_plan, fragments, layouts
from .records import Record, parse_record, record_violations
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
    resolution: int | None = None  # image-resolution tag in pixels, manifest metadata only

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.resolution is not None and self.resolution < 1:
            raise ConfigError(f"resolution must be >= 1, got {self.resolution}")
        _check_fraction(self.fraction)
        for stage in self.stages:
            if not isinstance(stage, Objective):
                raise ConfigError(f"stages must be Objectives, got {stage!r}")
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


_ELIGIBILITY = tuple((objective.value, objective.eligible) for objective in Objective)


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
                tuple([value for value, eligible in _ELIGIBILITY if eligible(record)]))

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
    """Non-blank lines of plain or gzip (.gz) files, undecoded. A gzip stream
    that cannot be read to its end fails with its file's name: the lines
    after the damage are lost, and the rest alone is another corpus."""
    for path in paths:
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "rb") as fh:
            try:
                for line in fh:
                    if line.strip():
                        yield line
            except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
                raise SceneTextError(f"{path}: {exc}") from None


def _chunks(paths: Iterable[str]) -> Iterator[list[bytes]]:
    lines = iter_lines(paths)
    while chunk := list(islice(lines, workers.CHUNK_ITEMS)):
        yield chunk


def _check_chunk(lines: list[bytes], work, seed: int, fraction: float) -> list:
    """The per-line work of an ingest, on one chunk. One entry per line: None
    if it does not decode or parse, else (image_id, violations, output), where
    violations are the record's `record_violations` and output is
    work(record) when there are none and the keep test keeps the record,
    else None. Runs in a worker process when the ingest has more than one."""
    results = []
    for raw in lines:
        try:
            record = parse_record(raw.decode("utf-8"))
        except (UnicodeDecodeError, ParseError, SchemaError):
            results.append(None)
            continue
        violations = record_violations(record)
        kept = not violations and keep_fraction(seed, record.image_id, fraction)
        results.append((record.image_id, violations, work(record) if kept else None))
    return results


def _same(record: Record) -> Record:
    return record


def ingest(paths: Iterable[str], counters: Counter, fraction: float = 1.0, seed: int = 0,
           work=_same, violations: Counter | None = None,
           threads: int = 1) -> Iterator[tuple[bytes, object]]:
    """Yield (line, work(record)) for each valid record of the inputs that
    the subsample keeps, in line order; `work` must not return None.

    The one loop over input lines. Each line is decoded on its own, so a
    bad byte costs one line. A line that does not decode or parse counts as
    a parse error; a record with `record_violations` findings, or whose
    image_id an earlier line had (the first line read wins), counts as a
    validation skip. Neither stops the stream. `violations`, when given,
    counts the findings by name, a repeat as `duplicate_image_id`. A valid
    record is kept iff `keep_fraction(seed, image_id, fraction)`, so
    subsamples are order-independent and nested across fractions.

    The fraction is checked at once, before any line is read. Parsing, the
    per-record rules, the keep test and `work` run on chunks of lines: in up
    to `threads` forked processes (`workers.map`) when every input is a
    regular file, which each worker reads itself, else here; the duplicate
    rule and the counters run here, in line order, so neither depends on
    the chunking. A kept duplicate's work is done and dropped. This is the
    one place that sets `valid_records` and `subsampled_records`, both
    reported even when no line is valid.
    """
    _check_fraction(fraction)
    paths = tuple(paths)
    job = partial(_check_chunk, work=work, seed=seed, fraction=fraction)
    if not all(map(os.path.isfile, paths)):  # a pipe is read once, here
        threads = 1
    return _ingest(workers.map(job, partial(_chunks, paths), threads), counters, violations)


def _ingest(chunk_results, counters: Counter, violations: Counter | None):
    counters.update(valid_records=0, subsampled_records=0)
    seen: set[str] = set()
    for lines, results in chunk_results:
        for line, result in zip(lines, results):
            counters["lines"] += 1
            if result is None:
                counters["parse_errors"] += 1
                continue
            image_id, found, output = result
            if image_id in seen:
                found = ["duplicate_image_id", *found]
            seen.add(image_id)
            if found:
                counters["validation_skips"] += 1
                if violations is not None:
                    violations.update(found)
                continue
            counters["valid_records"] += 1
            if output is not None:
                counters["subsampled_records"] += 1
                yield line, output


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")


def spill_records(keyed: Iterable[tuple[int, str]]) -> bytes:
    """(shuffle key, JSON line) pairs as spill records, encoded at once: each
    key as 16 hex digits, then its line and a newline, in UTF-8. A JSON line
    holds no raw CR or LF, so each record is one line of its spill file."""
    return "".join([f"{key:016x}{json_line}\n" for key, json_line in keyed]).encode("utf-8")


def _key_id_line(record: bytes) -> tuple[bytes, str, bytes]:
    """A spill record's whole sort key: its key, example_id and line."""
    return record[:16], json.loads(record[16:])["example_id"], record[16:]


def shuffle_and_shard(records: list[bytes], shard_count: int, start: int = 0) -> list[list[bytes]]:
    """Deterministically permute examples given as `spill_records`, keyed by
    hash64(seed, "shuffle", example_id), into (key, example_id, line) order,
    and deal their lines round-robin to shard_count shards, the first to
    shard `start` mod shard_count. Records sort by key, then line; only
    where two keys collide is each example_id read back from its line."""
    if shard_count < 1:
        raise ConfigError(f"shard count must be >= 1, got {shard_count}")
    records = sorted(records)
    if len({record[:16] for record in records}) < len(records):
        records.sort(key=_key_id_line)
    lines = [record[16:] for record in records]
    return [lines[(i - start) % shard_count::shard_count] for i in range(shard_count)]


def _create(paths: Iterable[str], written: list[str], stack: ExitStack) -> list:
    """Open each path for binary writing, closed when `stack` exits; each
    path joins `written` once created."""
    files = []
    for path in paths:
        files.append(stack.enter_context(open(path, "wb")))
        written.append(path)
    return files


SPILL_BUCKET_BYTES = 1 << 17  # spill bytes of a part read back; a file over twice this is split
OPEN_FILES_MAX = 512  # spill parts a split opens at once, each with an 8 KiB write buffer


def _free_descriptors() -> int:
    """How many more files this process may open: its soft RLIMIT_NOFILE less
    the descriptors open now (the listing's own included). Where there is no
    limit, or the platform cannot tell (no `resource` module or no /dev/fd),
    a count no cap here reaches: OPEN_FILES_MAX alone applies."""
    try:
        import resource

        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        used = len(os.listdir("/dev/fd"))
    except (ImportError, OSError):
        return 1 << 30
    return 1 << 30 if soft == resource.RLIM_INFINITY else soft - used


def _split_oversized(path: str, written: list[str], parts: int = 1, index: int = 0) -> list[str]:
    """A dataset's spill file as files in key order, none much over
    SPILL_BUCKET_BYTES: a file over twice that is split by its key range into
    parts of about SPILL_BUCKET_BYTES, and each part again as needed. The
    file holds part `index` of `parts` of the key range, the keys k with
    k * parts >> 64 == index. Each part joins `written` once created, and a
    file split is removed. A split that leaves every record in one part
    (keys that collide) is not split again."""
    size, ways = os.path.getsize(path), 1
    if size > 2 * SPILL_BUCKET_BYTES:
        ways = min(math.ceil(size / SPILL_BUCKET_BYTES), OPEN_FILES_MAX, _free_descriptors() - 2)
    if ways < 2:
        return [path]
    split = [f"{path}-{j:05d}" for j in range(ways)]
    with ExitStack() as stack:
        files = _create(split, written, stack)
        with open(path, "rb") as fh:
            for record in fh:
                files[((int(record[:16], 16) * parts * ways) >> 64) - index * ways].write(record)
    os.remove(path)
    if any(os.path.getsize(part) == size for part in split):
        return split
    return [kept for j, part in enumerate(split)
            for kept in _split_oversized(part, written, parts * ways, index * ways + j)]


def _read_spill(path: str) -> list[bytes]:
    """The spill records of one spill file."""
    with open(path, "rb") as fh:
        return fh.read().splitlines(keepends=True)


def _write_shards(spills: list[str], out_dir: str, dataset: str, shard_count: int,
                  compress: bool, written: list[str]) -> list[dict]:
    """Write shard file i of a dataset as the i-th line list of each of its
    spill parts (`spills`, in key order), each read once and removed, then
    dealt by `shuffle_and_shard` from where the previous part stopped: the
    shards of the whole dataset sorted at once. Each line list is appended
    to its shard's hidden file `.{name}`. Then, one shard at a time, that
    file is renamed to `name`, or under `compress` read in blocks into a
    `zlib.compressobj(9, DEFLATED, 31)` writing `name.gz`, and removed. The
    compressor writes zlib's own header (mtime 0) and the same bytes however
    the payload is fed, on every CPython: `gzip.compress(payload, mtime=0)`
    on 3.11, while 3.10 and 3.13 write 255 in place of zlib's OS byte. Each
    path joins `written` once created."""
    names = [f"{dataset}-{i:05d}-of-{shard_count:05d}.jsonl" for i in range(shard_count)]
    hidden = [os.path.join(out_dir, f".{name}") for name in names]
    for path in hidden:
        open(path, "wb").close()
        written.append(path)
    counts, digests, dealt = [0] * shard_count, [sha256() for _ in names], 0
    for spill in spills:
        examples = _read_spill(spill)
        os.remove(spill)
        for i, lines in enumerate(shuffle_and_shard(examples, shard_count, dealt)):
            if lines:
                data = b"".join(lines)
                counts[i] += len(lines)
                if not compress:  # a gzip shard's digest is of its compressed bytes
                    digests[i].update(data)
                with open(hidden[i], "ab") as fh:
                    fh.write(data)
        dealt += len(examples)
    suffix = ".gz" if compress else ""
    for name, path, digest in zip(names, hidden, digests):
        final = os.path.join(out_dir, name + suffix)
        if compress:
            gz = zlib.compressobj(9, zlib.DEFLATED, 31)
            with open(path, "rb") as fh, open(final, "wb") as out:
                written.append(final)
                for block in iter(partial(fh.read, 1 << 16), b""):
                    out.write(data := gz.compress(block))
                    digest.update(data)
                out.write(data := gz.flush())
                digest.update(data)
            os.remove(path)
        else:
            os.replace(path, final)
            written.append(final)
    return [{"file": name + suffix, "examples": count, "sha256": digest.hexdigest()}
            for name, count, digest in zip(names, counts, digests)]


def _config_hash(config: PipelineConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return sha256(canon).hexdigest()


def _build(config: PipelineConfig, datasets, manifest_name: str, describe, owned: str,
           stats: DatasetStats | None = None, order_ocr: bool = True) -> dict:
    """The one build path. One pass over the kept records adds each to the
    stats, if given, and keeps the (name, eligible, build) datasets whose
    eligible(record) holds; if any, it orders the record's OCR once into
    texts (None unless order_ocr), escapes its `fragments` once, and
    appends the (example_id, JSON line) pairs of build(record, fragments)
    to each dataset's spill file, keyed hash64(seed, "shuffle",
    example_id). Then each dataset's spill file, split into parts by
    `_split_oversized`, is dealt to its shards, and the manifest is
    written: the common head plus describe([(example_count, shard_infos),
    ...]). Every file this run wrote, spill files included, is removed if
    any step fails; once the manifest is written, every shard file that it
    does not list of a dataset whose name fully matches the regex `owned`
    is removed.

    Ordering, building and serializing are the per-record `work` of the
    ingest, so they run in its worker processes; the stats, the spill
    writes and everything after the pass stay in this one."""
    seed, with_stats = config.seed, stats is not None
    os.makedirs(config.out_dir, exist_ok=True)
    written: list[str] = []
    try:
        def work(record):
            """The record's stats entry (None without stats) and, for each
            dataset, its examples' spill records joined (b"" for a dataset
            that does not want the record)."""
            builds = [build if eligible(record) else None for _, eligible, build in datasets]
            spilled = [b""] * len(builds)
            if any(builds):
                texts = None
                if order_ocr:
                    texts = [t.text for t in order_tokens(record.ocr, config.overlap_threshold)]
                frags = fragments(record.image_id, texts)
                spilled = [spill_records([(hash64(seed, "shuffle", example_id), line)
                                          for example_id, line in build(record, frags)])
                           if build else b"" for build in builds]
            return (DatasetStats.entry(record) if with_stats else None), spilled

        spills = [os.path.join(config.out_dir, f".{name}-spill") for name, _, _ in datasets]
        counters: Counter = Counter()
        # Forked workers inherit these files with empty buffers (they fork at
        # the first chunk, before any write) and leave by os._exit, which flushes nothing.
        with ExitStack() as stack:
            writes = [fh.write for fh in _create(spills, written, stack)]
            for _, (entry, spilled) in ingest(config.inputs, counters, config.fraction, seed,
                                              work, threads=config.threads):
                if with_stats:
                    stats.add(entry)
                for write, records in zip(writes, spilled):
                    if records:
                        write(records)
        built = []
        for (name, _, _), path in zip(datasets, spills):
            infos = _write_shards(_split_oversized(path, written), config.out_dir, name,
                                  config.shard_count, config.compress, written)
            built.append((sum(info["examples"] for info in infos), infos))
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
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise
    # an earlier build's shards of the datasets this build owns, which a
    # loader that globs a dataset's shards would read with this build's
    shard_name = re.compile(r"(?:%s)-[0-9]{5,}-of-[0-9]{5,}\.jsonl(?:\.gz)?" % owned)
    listed = {info["file"] for _, infos in built for info in infos}
    for name in os.listdir(config.out_dir):
        if shard_name.fullmatch(name) and name not in listed:
            os.remove(os.path.join(config.out_dir, name))
    return manifest


def run(config: PipelineConfig) -> dict:
    """Build every stage dataset (and the stats) from one pass over the
    kept records, shuffle/shard each, and write a reproducibility manifest."""
    stages = build_stage_plan(config.stages)
    stats = DatasetStats()

    def stage_build(objective):
        passes = layouts(objective, config.fmt, config.passes)
        return lambda record, frags: [build_example(record, frags, config.seed, pass_layout)
                                      for pass_layout in passes]

    def describe(built):
        return {
            "stats": stats.to_dict(),
            "stages": [{"stage": i, "objective": objective.value, "example_count": count,
                        "shards": shards}
                       for i, (objective, (count, shards)) in enumerate(zip(stages, built))],
        }

    datasets = [(f"stage{i}_{objective.value.lower()}", objective.eligible,
                 stage_build(objective)) for i, objective in enumerate(stages)]
    # every stage dataset: manifest.json, now this build's, lists no other
    owned = r"stage[0-9]+_(?:%s)" % "|".join(objective.value.lower() for objective in Objective)
    return _build(config, datasets, "manifest.json", describe, owned, stats)


def run_finetune(config: PipelineConfig, task: Task, ocr_included: bool = True) -> dict:
    """Fine-tuning variant of run(): one dataset instead of stage datasets."""
    task_layout = layout(task, config.fmt)
    builder = build_vqa_examples if task is Task.VQA else build_caption_examples
    dataset = f"finetune_{task.value.lower()}"

    def describe(built):
        [(count, shards)] = built
        return {"task": task.value, "ocr_included": ocr_included, "example_count": count,
                "shards": shards}

    return _build(config, [(dataset, task.eligible,
                            lambda record, frags: builder(record, frags, task_layout))],
                  f"{dataset}_manifest.json", describe, re.escape(dataset),
                  order_ocr=ocr_included)
