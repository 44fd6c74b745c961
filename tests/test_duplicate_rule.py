"""The duplicate rule on hostile corpora: of the valid lines that share an
image_id, the line with the smallest digest stays, so every output is a
function of the set of lines, and no memory is held per image_id.

Builds run in-process through the CLI, with the CPU cap lifted
(`workers.available_cpus`) so `--threads` 2 and 3 fork their workers on
any machine.
"""

import hashlib
import io
import json
import random
import tempfile
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scenetext import pipeline, workers
from scenetext.cli import main
from scenetext.errors import ParseError, SchemaError
from scenetext.pipeline import DatasetStats
from scenetext.records import QaAnnotation, serialize_record

from conftest import make_record, make_token, random_layout_record, write_damaged_gzip
from oracles import (oracle_dedup_build, oracle_duplicate_rule, oracle_hash64, oracle_parse_record,
                     oracle_record_violations)

BUILDS = {
    "pretrain": ["build-pretrain", "--stages", "ocr,splitocr,cap,splitcap", "--passes", "2",
                 "--shards", "3"],
    "vqa": ["build-finetune", "--task", "vqa", "--shards", "2"],
}


def hostile_lines(rng: random.Random, n: int) -> list[bytes]:
    """n lines, each ended by LF or CRLF: records over a pool of about n/3
    image_ids, some with QA or a confidence out of range, byte-identical
    copies of earlier lines (some with the other line ending), bad JSON,
    0xff bytes, NaN boxes, lone-surrogate escapes and blank lines. The first
    id always has two valid copies with other content."""
    ids = [f"im{i}" for i in range(max(2, n // 3))]

    def record(image_id, valid=False):
        r = random_layout_record(rng, image_id=image_id, max_tokens=5,
                                 with_caption=rng.random() < 0.7)
        if rng.random() < 0.4:
            r = r._replace(qa=(QaAnnotation(f"q{rng.randrange(9)}", ("a",) * 10),))
        if not valid and rng.random() < 0.08:
            r = r._replace(ocr=(make_token("x", confidence=1.5),))
        return serialize_record(r).encode("utf-8")

    lines = [record(ids[0], valid=True), record(ids[0], valid=True)]
    while len(lines) < n:
        kind = rng.random()
        if kind < 0.05:
            line = b"{not json"
        elif kind < 0.08:
            line = b'{"image_id": "%s", "caption": "\xff"}' % rng.choice(ids).encode()
        elif kind < 0.11:
            line = b'{"image_id": "%s", "ocr": [{"text": "x", "bbox": [NaN, 0, 5, 5]}]}' % (
                rng.choice(ids).encode())
        elif kind < 0.14:
            line = b'{"image_id": "%s", "caption": "a\\uD800b"}' % rng.choice(ids).encode()
        elif kind < 0.17:
            line = rng.choice([b"", b"  ", b"\t"])
        elif kind < 0.35:
            line = rng.choice(lines)
        else:
            line = record(rng.choice(ids))
        lines.append(line)
    return [line + rng.choice([b"\n", b"\n", b"\r\n"]) for line in lines]


def build(kind: str, corpus: Path, out_dir: Path, *flags) -> dict[str, bytes]:
    """Every file one build leaves in an emptied out_dir, by name."""
    for path in out_dir.glob("*") if out_dir.exists() else ():
        path.unlink()
    assert main([*BUILDS[kind], "--seed", "13", *flags, "--in", str(corpus),
                 "--out-dir", str(out_dir)]) == 0
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def shards(files: dict[str, bytes]) -> dict[str, bytes]:
    return {name: data for name, data in files.items() if "-of-" in name}


def shard_lines(files: dict[str, bytes]) -> set[bytes]:
    return {line for data in shards(files).values() for line in data.splitlines()}


def reported(*argv) -> dict:
    """The --json payload of one in-process CLI run."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--json", *argv]) == 0
    return json.loads(out.getvalue())


def reports(corpus: Path) -> list[dict]:
    """What `stats` at fractions 1 and 0.3, and `validate`, report of a corpus."""
    return [*(reported("stats", "--seed", "13", "--fraction", fraction, "--in", str(corpus))
              for fraction in ("1", "0.3")),
            reported("validate", "--in", str(corpus))]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.integers(40, 170), st.sampled_from(list(BUILDS)))
def test_outputs_are_a_function_of_the_set_of_lines(monkeypatch, seed, n, kind):
    monkeypatch.setattr(workers, "available_cpus", lambda: 4)
    rng = random.Random(seed)
    lines = hostile_lines(rng, n)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus, out = tmp / "corpus.jsonl", tmp / "out"
        corpus.write_bytes(b"".join(lines))
        built = build(kind, corpus, out)
        [manifest] = [data for name, data in built.items() if name.endswith(".json")]
        assert b'"duplicate_image_id"' in manifest
        stats_and_validate = reports(corpus)
        # a rerun, and the lines in another order
        assert build(kind, corpus, out) == built
        assert reports(corpus) == stats_and_validate
        shuffled = lines[:]
        rng.shuffle(shuffled)
        corpus.write_bytes(b"".join(shuffled))
        assert build(kind, corpus, out) == built
        assert reports(corpus) == stats_and_validate
        # stats count the lines that the rule keeps, and count the others as duplicates
        kept, gone = oracle_duplicate_rule([line for line in lines if line.strip()])
        survivors = tmp / "survivors.jsonl"
        survivors.write_bytes(b"".join(kept))
        for expected, of_survivors in zip(stats_and_validate, reports(survivors)[:2]):
            counters = Counter(of_survivors["counters"])
            counters.update(lines=gone, validation_skips=gone, duplicate_image_id=gone)
            assert expected == {"counters": dict(counters), "stats": of_survivors["stats"]}
        corpus.write_bytes(b"".join(lines))
        # any worker count
        for threads in ("2", "3"):
            assert shards(build(kind, corpus, out, "--threads", threads)) == shards(built)
        # the rule from its definition, held in memory
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_build", oracle_dedup_build)
            assert build(kind, corpus, out) == built
        # a subsample builds the shards of its fraction, and fractions nest
        sample = tmp / "sample.jsonl"
        by_fraction = {}
        for fraction in ("0.3", "0.7"):
            by_fraction[fraction] = build(kind, corpus, out, "--fraction", fraction)
            assert main(["subsample", "--in", str(corpus), "--out", str(sample),
                         "--fraction", fraction, "--seed", "13"]) == 0
            assert shards(build(kind, sample, out)) == shards(by_fraction[fraction])
        assert shard_lines(by_fraction["0.3"]) <= shard_lines(by_fraction["0.7"])
        assert shard_lines(by_fraction["0.7"]) <= shard_lines(built)


def test_stats_count_the_winning_copy_alone(tmp_path):
    """Copies of an image_id with a quote, a backslash and non-ASCII in it,
    which differ in OCR count and caption: `stats` counts the entry of the
    copy whose line has the smallest digest, in either line order."""
    image_id = 'im"g\\é東'
    copies = [make_record(image_id, ocr=[make_token("a")], caption="one"),
              make_record(image_id, ocr=[make_token("a"), make_token("b", x=50)]),
              make_record(image_id, caption="three more words"),
              make_record(image_id, ocr=[make_token("c")], caption="")]
    other = make_record("other", ocr=[make_token("z")], caption="two words")
    lines = [serialize_record(r).encode("utf-8") + b"\n" for r in [*copies, other]]
    [winner] = [r for r, line in zip(copies, lines)
                if line == min(lines[:-1], key=lambda line: hashlib.blake2b(
                    line.rstrip(b"\r\n"), digest_size=16).digest())]
    expected = DatasetStats()
    for record in (winner, other):
        expected.add(DatasetStats.entry(record))
    corpus = tmp_path / "corpus.jsonl"
    for order in (lines, lines[::-1]):
        corpus.write_bytes(b"".join(order))
        payload = reported("stats", "--in", str(corpus))
        assert payload["stats"] == expected.to_dict()
        assert payload["counters"] == {"lines": 5, "valid_records": 2, "subsampled_records": 2,
                                       "validation_skips": 3, "duplicate_image_id": 3}


def counted_from_definition(lines: list[bytes], fraction: float) -> tuple[int, int, dict]:
    """valid_records, subsampled_records and the stats of the lines, from
    `oracle_duplicate_rule`'s survivors and the keep test's definition."""
    kept, _ = oracle_duplicate_rule([line for line in lines if line.strip()])
    valid = subsampled = 0
    stats = DatasetStats()
    for line in kept:
        try:
            record = oracle_parse_record(line.decode("utf-8"))
        except (UnicodeDecodeError, ParseError, SchemaError):
            continue
        if oracle_record_violations(record):
            continue
        valid += 1
        if fraction >= 1.0 or oracle_hash64(13, record.image_id) / 2**64 < fraction:
            subsampled += 1
            stats.add(DatasetStats.entry(record))
    return valid, subsampled, stats.to_dict()


@pytest.mark.parametrize("fraction", ["0.05", "0.3", "1"])
def test_record_counts_follow_the_keep_test_of_each_winner(tmp_path, fraction):
    lines = hostile_lines(random.Random(29), 900)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"".join(lines))
    valid, subsampled, stats = counted_from_definition(lines, float(fraction))
    assert 0 < subsampled < valid or fraction == "1"

    def counts(counters):
        return counters["valid_records"], counters["subsampled_records"]

    payload = reported("stats", "--seed", "13", "--fraction", fraction, "--in", str(corpus))
    assert (*counts(payload["counters"]), payload["stats"]) == (valid, subsampled, stats)
    assert payload["counters"]["duplicate_image_id"] > 0
    sampled = reported("subsample", "--seed", "13", "--fraction", fraction, "--in", str(corpus),
                       "--out", str(tmp_path / "sample.jsonl"))
    assert counts(sampled["counters"]) == (valid, subsampled)
    assert sampled["kept"] == subsampled
    for kind in BUILDS:
        built = build(kind, corpus, tmp_path / "out", "--fraction", fraction)
        [manifest] = [data for name, data in built.items() if name.endswith(".json")]
        assert counts(json.loads(manifest)["counters"]) == (valid, subsampled)
    # a library call with the default work, which needs no digest of its own
    counters = Counter()
    yielded = list(pipeline.ingest([str(corpus)], counters, fraction=float(fraction), seed=13))
    assert counts(counters) == (valid, subsampled)
    assert len({record.image_id for _, record in yielded}) == subsampled
    if fraction == "1":
        assert reported("validate", "--in", str(corpus))["counts"]["valid"] == valid


def traced_peak(argv) -> int:
    """The tracemalloc peak of one in-process CLI run, after an untraced one
    has loaded the modules and filled their caches."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_distinct_ids(tmp_path):
    sizes = (2000, 8000)
    # what a set of the image_ids adds, as the rule's state would
    tracemalloc.start()
    try:
        held = {f"image-{i:07d}" for i in range(sizes[0])}
        small = tracemalloc.get_traced_memory()[0]
        held = {f"image-{i:07d}" for i in range(sizes[1])}
        per_set = tracemalloc.get_traced_memory()[0] - small
    finally:
        tracemalloc.stop()
    del held
    peaks = {"validate": [], "build": []}
    for n in sizes:
        corpus = tmp_path / f"corpus-{n}.jsonl"
        corpus.write_text("".join(f'{{"image_id": "image-{i:07d}", "caption": "a red sign", '
                                  f'"ocr": [{{"text": "STOP", "bbox": [1, 2, 3, 4]}}]}}\n'
                                  for i in range(n)), encoding="utf-8")
        peaks["validate"].append(traced_peak(["validate", "--in", str(corpus)]))
        peaks["build"].append(traced_peak(["build-finetune", "--task", "caption", "--shards", "2",
                                           "--in", str(corpus),
                                           "--out-dir", str(tmp_path / "out")]))
    for command, (small_peak, large_peak) in peaks.items():
        assert large_peak - small_peak < per_set / 4, (command, small_peak, large_peak, per_set)


def test_no_id_spill_outlives_a_command(tmp_path, monkeypatch):
    # validate and stats spill the ids to a temporary directory, and
    # subsample to its hidden work directory beside --out; each is removed
    # when the command ends, also when a damaged input fails it
    spills = tmp_path / "tmp"
    spills.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spills))
    corpus, damaged = tmp_path / "corpus.jsonl", tmp_path / "damaged.jsonl.gz"
    corpus.write_bytes(b"".join(hostile_lines(random.Random(3), 300)))
    write_damaged_gzip(damaged, corpus.read_bytes(), "truncated")
    for path, code in ((corpus, 0), (damaged, 1)):
        for argv in (["validate"], ["stats"],
                     ["subsample", "--out", str(tmp_path / "sample.jsonl"), "--fraction", "0.5"]):
            assert main([*argv, "--in", str(path)]) == code
            assert list(spills.iterdir()) == []
            assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
