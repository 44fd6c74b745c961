"""End-to-end corpus builds: stream, validate, subsample, build, shard.

A build makes one pass over the kept records. A record that passes some
dataset's eligibility rule (`Objective.eligible`, `Task.eligible`) is
ordered once (`ordering.order_tokens`) and handed with its ordered OCR
texts to those datasets' builders, then dropped. Nothing built is held in
memory: each example goes, as its shuffle key, UTF-8 JSON line and the
digest of its input line (`spill_records`), to its dataset's one spill
file, and each valid line's image_id to the id spill (`ingest`), from
which the duplicate rule is decided after the pass. Each spill file is
then split by its key range into parts of about SPILL_BUCKET_BYTES, as
many as its size asks for, within the descriptors the process may still
open (its soft RLIMIT_NOFILE). The parts are read back once each, in key
order, and sorted; the examples' parts, less the losing duplicate copies'
records, are dealt round-robin, each shard's lines appended to its shard
file; then the shards are finalized one at a time, so a build holds one
part, or one shard's compressor, at a time, and nothing per image_id.

Every file in flight (the spills and their parts, the shards and the
manifest) is made in one hidden work directory in the output directory,
`.scenetext-build` (`work_dir`), which takes about the uncompressed shard
bytes of free disk. Once all are whole, the shards and then the manifest
are renamed into the output directory, and the work directory is
removed however the build ends: a build that fails before those renames
leaves the output directory as it was, and one that fails during them
removes the files it had renamed. A build that succeeds removes every
shard of the datasets it owns that its manifest does not list: a
pre-training build owns every stage dataset (`stage{i}_{objective}`),
since only its manifest.json lists them, and a fine-tuning build its
task's.

The per-line work (decode, parse, the per-record validation rules, the
keep test, ordering, building and serializing) runs on chunks of lines.
With `threads` > 1 it runs in up to that many forked worker processes,
capped at the CPUs available, that read regular-file inputs themselves
(`workers.map`); with 1 it runs in this process. Either way this process
reads the lines, applies the line counters in line order, writes the
spills, decides the duplicate rule and sets the record counts and stats
from each image_id's winning copy after the pass, and shuffles and writes
the shards, so the chunking changes nothing.

Every output is a pure function of (inputs, config), and of the inputs
only through the set of their lines: subsampling and shuffling key off
stable hashes of record ids, per-record RNGs are derived from (seed,
image_id), the duplicate rule picks a copy by its line's digest, and
shards plus manifest are byte-reproducible across reruns, worker counts
and input orderings.
"""

import gzip
import json
import math
import os
import re
import zlib
from collections import Counter
from contextlib import ExitStack, closing, contextmanager
from functools import partial
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii
from operator import eq, itemgetter
from typing import Iterable, Iterator, NamedTuple

from . import __version__, workers
from .errors import ConfigError, ParseError, SceneTextError, SchemaError
from .finetune import Task, build_caption_examples, build_vqa_examples, layout
from .hashing import blake2b, hash64, kept_hash, sha256
from .ordering import order_tokens
from .pretrain import Objective, build_example, build_stage_plan, fragments, layouts
from .records import Record, parse_record, record_violations
from .textformat import TextFormat


class _ConfigFields(NamedTuple):
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


class PipelineConfig(_ConfigFields):
    """A build's settings: a named tuple, checked whenever one is made, by
    the constructor or by `_replace`, which copies one with changes."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, iterable):
        """The named tuple's `_replace` builds its copy here, which would
        skip `__new__`: checked like any new config."""
        return cls(*iterable)

    def to_dict(self) -> dict:
        """The fields as the manifest's JSON values: the format as a dict,
        the inputs and stage values as lists."""
        d = self._asdict()
        d["inputs"] = list(self.inputs)
        d["stages"] = [s.value for s in self.stages]
        d["fmt"] = self.fmt._asdict()
        return d


_ELIGIBILITY = tuple((objective.value, objective.eligible) for objective in Objective)


class DatasetStats:
    __slots__ = ("record_count", "eligible", "ocr_token_histogram", "caption_length_histogram")

    def __init__(self):
        self.record_count = 0
        self.eligible = Counter()
        self.ocr_token_histogram = Counter()
        self.caption_length_histogram = Counter()

    @staticmethod
    def entry(record: Record) -> str:
        """What `add` counts of one record, as words of text: its OCR token
        count, its caption word count ("-" without a caption, None or "")
        and its eligible objectives, e.g. "3 5 OCR SPLITOCR"."""
        words = str(len(record.caption.split())) if record.caption else "-"
        return " ".join([str(len(record.ocr)), words,
                         *[value for value, eligible in _ELIGIBILITY if eligible(record)]])

    def add(self, entry: str) -> None:
        """Count one record, given as its `entry`."""
        ocr_count, caption_words, *eligible = entry.split()
        self.record_count += 1
        self.ocr_token_histogram[int(ocr_count)] += 1
        if caption_words != "-":
            self.caption_length_histogram[int(caption_words)] += 1
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


def line_digest(line: bytes) -> str:
    """A line's 16-byte blake2b digest, as 32 hex digits, of its bytes
    without the CR and LF bytes that end it: a CRLF copy of an LF line is
    the same line."""
    return blake2b(line.rstrip(b"\r\n"), digest_size=16).hexdigest()


def _check_chunk(lines: list[bytes], work, seed: int, fraction: float,
                 with_stats: bool) -> tuple[bytes, list]:
    """The per-line work of an ingest, on one chunk: (notes, results). One
    result per line: None if it does not decode or parse, else (violations,
    output), where violations are the record's `record_violations`, and
    output is work(record, digest) when there are none and the keep test
    keeps the record, else None; digest is the line's `line_digest`.
    notes holds the id record of each valid line: hash64(seed, image_id) as
    16 hex digits, the image_id as an ASCII JSON string, and for a kept
    line its digest and, with stats, its `DatasetStats.entry` text; one
    line each. Neither the digest nor the entry holds a '"', so the
    image_id's string ends at the record's last one, and a record that
    ends there is of a line the keep test dropped. Runs in a worker process
    when the ingest has more than one."""
    results, notes = [], []
    for raw in lines:
        try:
            record = parse_record(raw.decode("utf-8"))
        except (UnicodeDecodeError, ParseError, SchemaError):
            results.append(None)
            continue
        violations = record_violations(record)
        if violations:
            results.append((violations, None))
            continue
        key = hash64(seed, record.image_id)
        note = f"{key:016x}{encode_basestring_ascii(record.image_id)}"
        output = None
        if kept_hash(key, fraction):
            digest = line_digest(raw)
            output = work(record, digest)
            note += digest
            if with_stats:
                note += DatasetStats.entry(record)
        notes.append(note)
        results.append(((), output))
    return "".join([f"{note}\n" for note in notes]).encode("ascii"), results


def _same(record: Record, digest: str) -> Record:
    return record


def ingest(paths: Iterable[str], counters: Counter, fraction: float = 1.0, seed: int = 0,
           work=_same, violations: Counter | None = None, threads: int = 1,
           stats: DatasetStats | None = None, copies: dict[str, int] | None = None,
           spill_dir: str | None = None) -> Iterator[tuple[bytes, object]]:
    """Yield (line, work(record, line_digest(line))) for each valid record of
    the inputs that the subsample keeps, in line order, every copy of an
    image_id included; `work` must not return None. Once the last is
    yielded, the duplicate rule has set the counters, `violations`, `stats`
    and `copies`.

    The one loop over input lines. Each line is decoded on its own, so a
    bad byte costs one line. A line that does not decode or parse counts as
    a parse error; a record with `record_violations` findings counts as a
    validation skip, and `violations`, when given, counts the findings by
    name. Neither stops the stream. A valid record is kept iff
    `keep_fraction(seed, image_id, fraction)`, so subsamples are
    order-independent and nested across fractions. The line counters
    (`lines`, `parse_errors`, `validation_skips`) are set in the read loop;
    `valid_records`, `subsampled_records` and `stats` (when given, the
    `DatasetStats.entry` of each kept record) after the pass, from the copy
    of each image_id that the duplicate rule keeps.

    The duplicate rule: among the valid lines that share an image_id, the
    one with the smallest `line_digest` stays, and every other counts once
    as a validation skip and as `duplicate_image_id` (a counter, when
    nonzero, and a violation); a copy with the same digest is the same line
    and builds the same output. The rule is decided after the pass, from one
    id record per valid line (`_check_chunk`), appended to the file
    `ids-spill` in `spill_dir`, split by key range like the example spills
    and read back one part at a time. So it is a function of the set of
    lines and holds no state per image_id. Its decisions on kept lines go
    into `copies`: the digest of a losing copy maps to 0, and that of a
    winning line with byte-identical copies to 1, so it is empty when no
    two kept lines share an image_id.
    A caller drops every output whose digest maps to 0 and keeps one of
    those whose digest maps to 1 (`keep_copies`).

    The fraction is checked at once, before any line is read. Parsing, the
    per-record rules, the keep test, the digest and `work` run on chunks of
    lines: in up to `threads` forked processes (`workers.map`) when every
    input is a regular file, which each worker reads itself, else here; the
    counters and the id spill run here, in line order, so nothing depends
    on the chunking. This is the one place that sets `valid_records` and
    `subsampled_records`, both reported even when no line is valid, and
    neither when the ingest is closed before its end. With `spill_dir`
    None, the id spill goes to a temporary directory of its own, removed
    when the ingest ends; a caller who passes `spill_dir` must remove what
    an ingest that fails leaves there (`work_dir`).
    """
    _check_fraction(fraction)
    paths = tuple(paths)
    job = partial(_check_chunk, work=work, seed=seed, fraction=fraction,
                  with_stats=stats is not None)
    if not all(map(os.path.isfile, paths)):  # a pipe is read once, here
        threads = 1
    return _ingest(workers.map(job, partial(_chunks, paths), threads), counters, violations,
                   stats, copies, spill_dir)


def _ingest(chunk_results, counters: Counter, violations: Counter | None,
            stats: DatasetStats | None, copies: dict[str, int] | None, spill_dir: str | None):
    with ExitStack() as stack:
        if spill_dir is None:
            import tempfile

            spill_dir = stack.enter_context(tempfile.TemporaryDirectory())
        stack.enter_context(closing(chunk_results))  # kills and reaps any workers first
        spill = os.path.join(spill_dir, "ids-spill")
        # opened before the workers fork, which leave by os._exit: they flush nothing
        with open(spill, "wb") as ids:
            for lines, (notes, results) in chunk_results:
                ids.write(notes)
                for line, result in zip(lines, results):
                    counters["lines"] += 1
                    if result is None:
                        counters["parse_errors"] += 1
                        continue
                    found, output = result
                    if found:
                        counters["validation_skips"] += 1
                        if violations is not None:
                            violations.update(found)
                    elif output is not None:
                        yield line, output
        _resolve(_split_oversized(spill), counters, violations, stats,
                 {} if copies is None else copies)


def keep_copies(lines: Iterable[bytes], copies: dict[str, int]) -> Iterator[bytes]:
    """The kept lines that the duplicate rule keeps, of those `ingest`
    yielded, given its `copies`: a line whose digest maps to 0 goes, and of
    the lines whose digest maps to 1 the first stays (`copies` then maps it
    to 0)."""
    for line in lines:
        digest = line_digest(line)
        if copies.get(digest, 1):
            if digest in copies:
                copies[digest] = 0
            yield line


def _resolve(parts: list[str], counters: Counter, violations: Counter | None,
             stats: DatasetStats | None, copies: dict[str, int]) -> None:
    """The duplicate rule (see `ingest`), on the id spill's parts, each read
    once and removed, and the record counts and stats of its winners, one
    per image_id. Sorted, a part holds the records of an image_id next to
    each other and in digest order, so the first is the winner; only in a
    part where keys repeat are the records grouped, by key and image_id
    string, which ends at a record's last '"' (see `_check_chunk`). The keep
    test is of the key alone, so every copy of an image_id is kept or none
    is. The workers made it: a kept line's id record carries its digest,
    so it does not end at the image_id's string."""
    valid = subsampled = duplicates = 0
    key = itemgetter(slice(0, 16))
    for part in parts:
        notes = _read_spill(part)
        os.remove(part)
        notes.sort()
        winners = notes
        if any(map(eq, map(key, notes), map(key, islice(notes, 1, None)))):
            winners = []
            for head, same_id in groupby(notes, key=lambda note: note[:note.rindex(b'"') + 1]):
                winner, *others = same_id
                winners.append(winner)
                duplicates += len(others)
                end = len(head)  # the key and the image_id string
                first = winner[end:end + 32]
                for other in others:
                    if digest := other[end:end + 32]:  # the digests of a kept image_id's copies
                        copies[digest.decode("ascii")] = int(digest == first)
        valid += len(winners)
        winners = [note for note in winners if not note.endswith(b'"\n')]
        subsampled += len(winners)
        if stats is not None:
            for note in winners:
                stats.add(note[note.rindex(b'"') + 33:-1].decode("ascii"))
        notes = winners = others = None  # freed before the next part is read
    counters.update(valid_records=valid, subsampled_records=subsampled)
    if duplicates:
        counters.update(validation_skips=duplicates, duplicate_image_id=duplicates)
        if violations is not None:
            violations["duplicate_image_id"] += duplicates


def _remove(directory: str, names: Iterable[str]) -> None:
    for name in names:
        os.remove(os.path.join(directory, name))


@contextmanager
def work_dir(path: str) -> Iterator[str]:
    """`path` as an empty directory for a command's files in flight: made,
    or emptied if a run that was killed left it. When the block exits,
    however it does, the directory is removed with every file in it."""
    os.makedirs(path, exist_ok=True)
    _remove(path, os.listdir(path))
    try:
        yield path
    finally:
        _remove(path, os.listdir(path))
        os.rmdir(path)


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")


def spill_records(keyed: Iterable[tuple[int, str]], digest: str) -> bytes:
    """(shuffle key, JSON line) pairs of the examples of one input line, whose
    `line_digest` is `digest`, as spill records, encoded at once: each key as
    16 hex digits, then its line, the digest and a newline, in UTF-8. A JSON
    line holds no raw CR or LF, so each record is one line of its spill
    file. No JSON line is a prefix of another, so the digest after it
    changes no order of records with different lines."""
    return "".join([f"{key:016x}{json_line}{digest}\n"
                    for key, json_line in keyed]).encode("utf-8")


def _key_id_line(record: bytes) -> tuple[bytes, str, bytes]:
    """A spill record's whole sort key: its key, example_id and line."""
    return record[:16], json.loads(record[16:-33])["example_id"], record[16:]


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
    lines = [record[16:-33] + b"\n" for record in records]
    return [lines[(i - start) % shard_count::shard_count] for i in range(shard_count)]


SPILL_BUCKET_BYTES = 1 << 17  # spill bytes of a part read back; a spill file over this is split
OPEN_FILES_MAX = 128  # spill parts a split opens at once, each with a file block of write buffer


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


def _split_oversized(path: str, parts: int = 1, index: int = 0) -> list[str]:
    """A dataset's spill file as files in key order, none much over
    SPILL_BUCKET_BYTES: a file over that is split by its key range into
    parts of about SPILL_BUCKET_BYTES, and each part again while it is over
    twice that, which a part of an even split seldom is. The file holds
    part `index` of `parts` of the key range, the keys k with k * parts >>
    64 == index. A file split is removed, its parts named after it. A split
    that leaves every record in one part (keys that collide) is not split
    again."""
    size, ways = os.path.getsize(path), 1
    if size > (1 if parts == 1 else 2) * SPILL_BUCKET_BYTES:
        ways = min(math.ceil(size / SPILL_BUCKET_BYTES), OPEN_FILES_MAX, _free_descriptors() - 2)
    if ways < 2:
        return [path]
    split = [f"{path}-{j:05d}" for j in range(ways)]
    with ExitStack() as stack:
        files = [stack.enter_context(open(part, "wb")) for part in split]
        with open(path, "rb") as fh:
            for record in fh:
                files[((int(record[:16], 16) * parts * ways) >> 64) - index * ways].write(record)
    os.remove(path)
    if any(os.path.getsize(part) == size for part in split):
        return split
    return [kept for j, part in enumerate(split)
            for kept in _split_oversized(part, parts * ways, index * ways + j)]


def _read_spill(path: str) -> list[bytes]:
    """The spill records of one spill file, read without one buffer of the
    whole file beside them."""
    with open(path, "rb") as fh:
        return fh.readlines()


def _write_shards(spills: list[str], directory: str, dataset: str, shard_count: int,
                  compress: bool, copies: dict[str, int]) -> list[dict]:
    """Write shard file i of a dataset, in `directory`, as the i-th line list
    of each of its spill parts (`spills`, in key order), each read once and
    removed, less the records of the duplicate copies that `copies` drops
    (see `ingest`), then dealt by `shuffle_and_shard` from where the
    previous part stopped: the shards of the whole dataset sorted at once.
    Each line list is appended to its shard's file `name`. Under `compress`
    each file is then, one shard at a time, read in blocks into a
    `zlib.compressobj(9, DEFLATED, 31)` writing `name.gz`, and removed. The
    compressor writes zlib's own header (mtime 0) and the same bytes however
    the payload is fed, on every CPython: `gzip.compress(payload, mtime=0)`
    on 3.11, while 3.10 and 3.13 write 255 in place of zlib's OS byte."""
    names = [f"{dataset}-{i:05d}-of-{shard_count:05d}.jsonl" for i in range(shard_count)]
    paths = [os.path.join(directory, name) for name in names]
    for path in paths:
        open(path, "wb").close()
    counts, digests, dealt = [0] * shard_count, [sha256() for _ in names], 0
    for spill in spills:
        examples = _read_spill(spill)
        os.remove(spill)
        if copies:  # byte-identical copies make identical records, which the set collapses
            examples = list({record for record in examples
                             if copies.get(record[-33:-1].decode("ascii"), 1)})
        for i, lines in enumerate(shuffle_and_shard(examples, shard_count, dealt)):
            if lines:
                data = b"".join(lines)
                counts[i] += len(lines)
                if not compress:  # a gzip shard's digest is of its compressed bytes
                    digests[i].update(data)
                with open(paths[i], "ab") as fh:
                    fh.write(data)
        dealt += len(examples)
        examples = lines = data = None  # freed before the next part is read
    suffix = ".gz" if compress else ""
    if compress:
        for path, digest in zip(paths, digests):
            gz = zlib.compressobj(9, zlib.DEFLATED, 31)
            with open(path, "rb") as fh, open(path + suffix, "wb") as out:
                for block in iter(partial(fh.read, 1 << 16), b""):
                    out.write(data := gz.compress(block))
                    digest.update(data)
                out.write(data := gz.flush())
                digest.update(data)
            os.remove(path)
    return [{"file": name + suffix, "examples": count, "sha256": digest.hexdigest()}
            for name, count, digest in zip(names, counts, digests)]


def _config_hash(config: PipelineConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return sha256(canon).hexdigest()


def _build(config: PipelineConfig, datasets, manifest_name: str, describe, owned: str,
           stats: DatasetStats | None = None, order_ocr: bool = True) -> dict:
    """The one build path. One pass over the kept records (`ingest`, which
    then counts the stats, if given) keeps the (name, eligible, build)
    datasets whose eligible(record) holds; if any, it orders the record's
    OCR once into texts (None unless order_ocr), escapes its `fragments`
    once, and appends the (example_id, JSON line) pairs of build(record,
    fragments) to each dataset's spill file, keyed hash64(seed, "shuffle",
    example_id) and marked with the record's line digest. Then each
    dataset's spill file, split into parts by `_split_oversized`, is dealt
    to its shards, less the records of duplicate copies the duplicate rule
    drops, and the manifest is written: the common head plus
    describe([(example_count, shard_infos), ...]). All are made in the
    out-dir's `.scenetext-build` (`work_dir`); once every one is whole, the
    shards and then the manifest are renamed into the out-dir, and if a
    rename fails, those already renamed are removed. Once published, every
    shard file that the manifest does not list of a dataset whose name
    fully matches the regex `owned` is removed.

    Ordering, building and serializing are the per-record `work` of the
    ingest, so they run in its worker processes; the stats, the spill
    writes and everything after the pass stay in this one."""
    seed = config.seed

    def work(record, digest):
        """For each dataset, the record's examples' spill records joined
        (b"" for a dataset that does not want the record)."""
        builds = [build if eligible(record) else None for _, eligible, build in datasets]
        if not any(builds):
            return [b""] * len(builds)
        texts = None
        if order_ocr:
            texts = [t.text for t in order_tokens(record.ocr, config.overlap_threshold)]
        frags = fragments(record.image_id, texts)
        return [spill_records([(hash64(seed, "shuffle", example_id), line)
                               for example_id, line in build(record, frags)], digest)
                if build else b"" for build in builds]

    os.makedirs(config.out_dir, exist_ok=True)
    with work_dir(os.path.join(config.out_dir, ".scenetext-build")) as hidden:
        spills = [os.path.join(hidden, f"{name}-spill") for name, _, _ in datasets]
        counters: Counter = Counter()
        copies: dict[str, int] = {}
        # Forked workers inherit these files with empty buffers (they fork at
        # the first chunk, before any write) and leave by os._exit, which flushes nothing.
        with ExitStack() as stack:
            writes = [stack.enter_context(open(path, "wb")).write for path in spills]
            kept = stack.enter_context(closing(ingest(
                config.inputs, counters, config.fraction, seed, work, threads=config.threads,
                stats=stats, copies=copies, spill_dir=hidden)))
            for _, spilled in kept:
                for write, records in zip(writes, spilled):
                    if records:
                        write(records)
        built = []
        for (name, _, _), path in zip(datasets, spills):
            infos = _write_shards(_split_oversized(path), hidden, name, config.shard_count,
                                  config.compress, copies)
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
        with open(os.path.join(hidden, manifest_name), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        listed = {info["file"] for _, infos in built for info in infos}
        published = []
        try:
            for name in [*sorted(listed), manifest_name]:
                os.replace(os.path.join(hidden, name), os.path.join(config.out_dir, name))
                published.append(name)
        except BaseException:
            _remove(config.out_dir, published)
            raise
    # an earlier build's shards of the datasets this build owns, which a
    # loader that globs a dataset's shards would read with this build's
    shard_name = re.compile(r"(?:%s)-[0-9]{5,}-of-[0-9]{5,}\.jsonl(?:\.gz)?" % owned)
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
