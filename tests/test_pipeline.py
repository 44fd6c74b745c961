import gzip
import hashlib
import json
import math
import os
import random
import sys
from collections import Counter
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from scenetext import hashing, pipeline, pretrain, workers
from scenetext.errors import ConfigError
from scenetext.finetune import Task
from scenetext.hashing import hash64, keep_fraction
from scenetext.pipeline import (
    DatasetStats,
    PipelineConfig,
    ingest,
    run,
    run_finetune,
    shuffle_and_shard,
    spill_records,
)
from scenetext.pretrain import Objective
from scenetext.records import QaAnnotation, serialize_record
from scenetext.textformat import TextFormat

from conftest import make_record, make_token, random_layout_record
from oracles import oracle_dedup_build, oracle_hash64, oracle_hold_and_sort_build


def write_corpus(path: Path, records):
    path.write_text("".join(serialize_record(r) + "\n" for r in records), encoding="utf-8")


@pytest.fixture
def corpus(tmp_path, rng):
    records = [random_layout_record(rng, image_id=f"img{i:04d}", with_caption=(i % 2 == 0))
               for i in range(200)]
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, records)
    return path, records


def test_hash64_is_stable():
    # frozen value: guards cross-run and cross-machine stability
    assert hash64(0, "img0") == hash64(0, "img0")
    assert hash64(0, "img0") != hash64(1, "img0")
    assert hash64(0, "a", "b") != hash64(0, "ab")


_PARTS = [(), ("",), ("", ""), ("img0",), ("a", "b"), ("ab",), ("café", "東京", "ñ"),
          ("a\x1fb",), ("a", "\x1f", "b"), ("shuffle", "x" * 300)]


def test_builtin_hash_constructors_match_hashlib():
    for data in (b"", "café 東京 \x1f".encode("utf-8"), bytes(range(256)) * 4096):
        assert hashing.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
        for key in (b"", b"seed\x00\xff", (2**64 - 1).to_bytes(8, "little")):
            for size in (8, 64):
                ours = hashing.blake2b(data, digest_size=size, key=key)
                assert ours.digest() == hashlib.blake2b(data, digest_size=size, key=key).digest()
    # streamed in pieces, and from a copy, as the builds feed them
    digest = hashing.sha256()
    for piece in (b"a", b"", "ü".encode("utf-8") * 1000):
        digest.update(piece)
    assert digest.copy().hexdigest() == hashlib.sha256(b"a" + "ü".encode("utf-8") * 1000).hexdigest()


def test_hash64_matches_reference():
    # seeds interleaved, and more of them than the keyed-hash cache holds
    seeds = [0, 7, 2**64 - 1, *range(100, 120), 0, 7, 2**64 - 1]
    for parts in _PARTS:
        for seed in seeds:
            assert hash64(seed, *parts) == oracle_hash64(seed, *parts), (seed, parts)


@given(st.integers(0, 2**64 - 1), st.lists(st.text(max_size=6), max_size=4))
def test_hash64_matches_reference_on_any_parts(seed, parts):
    assert hash64(seed, *parts) == oracle_hash64(seed, *parts)


def kept_ids(path, fraction, seed):
    return {record.image_id for _, record in ingest([str(path)], Counter(), fraction, seed)}


def test_subsample_identity_at_full_fraction(corpus):
    path, records = corpus
    counters = Counter()
    assert [record for _, record in ingest([str(path)], counters, 1.0, seed=3)] == records
    assert counters["valid_records"] == counters["subsampled_records"] == len(records)


def test_subsample_rejects_bad_fraction(corpus):
    path, _ = corpus
    # checked when ingest is called, before the stream is iterated
    for fraction in (0.0, 1.5, -0.1, math.nan):
        with pytest.raises(ConfigError):
            ingest([str(path)], Counter(), fraction)


def test_subsample_order_independent(corpus, rng, tmp_path):
    path, records = corpus
    shuffled = records[:]
    rng.shuffle(shuffled)
    write_corpus(tmp_path / "shuffled.jsonl", shuffled)
    kept = kept_ids(path, 0.3, seed=7)
    assert 0 < len(kept) < len(records)
    assert kept_ids(tmp_path / "shuffled.jsonl", 0.3, seed=7) == kept


def test_subsample_nesting(corpus):
    path, _ = corpus
    subsets = {f: kept_ids(path, f, seed=5) for f in (0.05, 0.15, 0.4, 0.8, 1.0)}
    assert subsets[0.05] <= subsets[0.15] <= subsets[0.4] <= subsets[0.8] <= subsets[1.0]
    assert len(subsets[0.05]) < len(subsets[0.8])


def test_keep_fraction_one_keeps_the_largest_hash(monkeypatch):
    # (2**64 - 1) / 2.0**64 rounds to 1.0, which is not below a fraction of 1
    monkeypatch.setattr(hashing, "hash64", lambda seed, *parts: 2**64 - 1)
    assert keep_fraction(0, "img0", 1.0)
    assert not keep_fraction(0, "img0", 0.999)


def test_full_fraction_computes_no_keep_hash(corpus, monkeypatch):
    path, records = corpus
    calls = counted(monkeypatch, hashing, "hash64")
    assert kept_ids(path, 1.0, seed=3) == {r.image_id for r in records}
    assert calls == []


def test_subsample_binomial_count():
    n, fraction, seed = 50_000, 0.1, 9
    kept = sum(1 for i in range(n) if keep_fraction(seed, f"id{i}", fraction))
    sigma = math.sqrt(n * fraction * (1 - fraction))
    assert abs(kept - n * fraction) <= 3 * sigma


def stats_dict(count, eligible, ocr, caption):
    """A `DatasetStats.to_dict()`, from its counts and histograms."""
    empty = ocr.get("0", 0)
    return {"record_count": count, "eligible": eligible, "ocr_token_histogram": ocr,
            "caption_length_histogram": caption, "empty_ocr_count": empty,
            "empty_ocr_fraction": empty / count}


ONE_OCR = [make_token("x")]


@pytest.mark.parametrize("records, expected", [
    pytest.param([make_record("a", ocr=[make_token("x"), make_token("y", x=50)],
                              caption="two words"),
                  make_record("b", ocr=[]),
                  make_record("c", ocr=[make_token("z")])],
                 stats_dict(3, {"CAP": 1, "OCR": 2, "SPLITCAP": 1, "SPLITOCR": 2},
                            {"0": 1, "1": 1, "2": 1}, {"2": 1}), id="mixed"),
    # None and "" are no caption; a whitespace-only caption has 0 words
    pytest.param([make_record("a", ocr=ONE_OCR, caption=None)],
                 stats_dict(1, {"OCR": 1, "SPLITOCR": 1}, {"1": 1}, {}), id="caption-none"),
    pytest.param([make_record("a", ocr=ONE_OCR, caption="")],
                 stats_dict(1, {"OCR": 1, "SPLITOCR": 1}, {"1": 1}, {}), id="caption-empty"),
    pytest.param([make_record("a", ocr=ONE_OCR, caption="   ")],
                 stats_dict(1, {"CAP": 1, "OCR": 1, "SPLITOCR": 1}, {"1": 1}, {"0": 1}),
                 id="caption-blank"),
    pytest.param([make_record("a")], stats_dict(1, {}, {"0": 1}, {}), id="no-objective"),
])
def test_compute_stats(records, expected):
    stats = DatasetStats()
    for record in records:
        stats.add(DatasetStats.entry(record))
    assert stats.to_dict() == expected


def test_compute_stats_empty_stream():
    stats = DatasetStats()
    assert stats.record_count == 0
    assert stats.empty_ocr_fraction == 0.0


def example_line(example_id, text):
    return json.dumps({"example_id": example_id, "text": text}, ensure_ascii=False)


DIGEST = "0123456789abcdef" * 2  # a line digest: 32 hex digits


def keyed(examples, seed):
    """(example_id, text) pairs as the spill records of their examples."""
    return spill_records([(hash64(seed, "shuffle", ex_id), example_line(ex_id, text))
                          for ex_id, text in examples], DIGEST).splitlines(keepends=True)


def lines_of(examples):
    return [f"{example_line(ex_id, text)}\n".encode() for ex_id, text in examples]


def test_shuffle_and_shard_single_shard_permutes():
    examples = [(f"id{i}", f"line{i}") for i in range(100)]
    (shard,) = shuffle_and_shard(keyed(examples, seed=1), shard_count=1)
    assert sorted(shard) == sorted(lines_of(examples))
    assert shard != lines_of(examples)


def test_shuffle_and_shard_conservation():
    examples = [(f"id{i}", f"line{i}") for i in range(103)]
    shards = shuffle_and_shard(keyed(examples, seed=2), shard_count=7)
    merged = Counter(line for shard in shards for line in shard)
    assert merged == Counter(lines_of(examples))


def test_shuffle_and_shard_deterministic():
    examples = [(f"id{i}", f"line{i}") for i in range(50)]
    assert shuffle_and_shard(keyed(examples, 3), 4) == shuffle_and_shard(keyed(examples, 3), 4)
    assert shuffle_and_shard(keyed(examples, 3), 4) != shuffle_and_shard(keyed(examples, 4), 4)
    # the input order does not matter
    assert (shuffle_and_shard(keyed(examples[::-1], 3), 4)
            == shuffle_and_shard(keyed(examples, 3), 4))


@given(st.lists(st.tuples(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.text(max_size=3),
                          st.text(max_size=3), st.sampled_from(["0" * 32, "f" * 32, DIGEST])),
                max_size=40))
def test_shuffle_and_shard_orders_colliding_keys_by_example_id(examples):
    # few keys, so most collide; ids and texts share prefixes and hold any
    # code point, and an id's order differs from its JSON-escaped order;
    # the line digest a record carries changes no order
    records = [record for key, ex_id, text, digest in examples
               for record in spill_records([(key, example_line(ex_id, text))], digest).splitlines(True)]
    expected = sorted((key, ex_id, f"{example_line(ex_id, text)}\n".encode())
                      for key, ex_id, text, _ in examples)
    assert shuffle_and_shard(records, 1) == [[line for _, _, line in expected]]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=60), st.integers(1, 5),
       st.lists(st.integers(0, 2**64 - 1), max_size=4))
def test_shuffle_and_shard_dealt_by_key_range_equals_one_deal(keys, shard_count, cuts):
    # keys may repeat; ties on the key fall back to example_id order
    examples = [(key, spill_records([(key, example_line(f"id{i % 7}", f"line{i}"))], DIGEST))
                for i, key in enumerate(keys)]
    whole = shuffle_and_shard([record for _, record in examples], shard_count)
    edges = [0, *sorted(cuts), 2**64]
    dealt, merged = 0, [[] for _ in range(shard_count)]
    for low, high in zip(edges, edges[1:]):
        part = [record for key, record in examples if low <= key < high]
        for shard, lines in zip(merged, shuffle_and_shard(part, shard_count, dealt)):
            shard.extend(lines)
        dealt += len(part)
    assert merged == whole


def run_config(corpus_path, out_dir, **kwargs):
    defaults = dict(
        inputs=(str(corpus_path),),
        out_dir=str(out_dir),
        stages=(Objective.SPLITOCR, Objective.CAP),
        seed=13,
        shard_count=3,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def test_run_end_to_end(corpus, tmp_path):
    path, records = corpus
    manifest = run(run_config(path, tmp_path / "out"))
    assert len(manifest["stages"]) == 2
    assert manifest["stages"][0]["objective"] == "SPLITOCR"
    assert manifest["counters"]["valid_records"] == len(records)
    for stage in manifest["stages"]:
        assert stage["example_count"] > 0
        assert sum(s["examples"] for s in stage["shards"]) == stage["example_count"]
        for shard in stage["shards"]:
            assert (tmp_path / "out" / shard["file"]).exists()


def test_run_is_byte_identical_across_reruns(corpus, tmp_path):
    path, _ = corpus
    m1 = run(run_config(path, tmp_path / "o1"))
    # rerun into the same out_dir: identical config -> identical manifest
    m2 = run(run_config(path, tmp_path / "o1"))
    assert m1 == m2
    m3 = run(run_config(path, tmp_path / "o3"))
    assert [s["shards"] for s in m1["stages"]] == [s["shards"] for s in m3["stages"]]


def _hostile_corpus(path: Path, rng, seed, fraction):
    """A corpus of several chunks with one line of each kind a build skips:
    bad JSON, a 0xff byte, a schema error, each per-record rule, and copies
    of image_ids (in one chunk and in later chunks) with other content, with
    the same bytes and with a CRLF ending. Returns the counters every build
    of it must report."""
    chunk = workers.CHUNK_ITEMS
    records = [random_layout_record(rng, image_id=f"img{i:04d}", with_caption=i % 2 == 0)
               for i in range(4 * chunk + 17)]
    records = [r._replace(qa=(QaAnnotation(f"q {r.image_id}", ("a",) * 10),))
               if i % 3 == 0 else r for i, r in enumerate(records)]
    # duplicated ids that the subsample keeps, so their examples are built
    dup_ids = [i for i in (f"dup{k}" for k in range(100)) if keep_fraction(seed, i, fraction)][:3]
    lines = [serialize_record(r).encode("utf-8") for r in records]

    def put(index, record):
        lines[index] = serialize_record(record).encode("utf-8")

    first = [records[i]._replace(image_id=d, caption="first copy")
             for i, d in zip((3, chunk + 5, 2 * chunk + 1), dup_ids)]
    put(3, first[0])
    put(chunk + 5, first[1]._replace(ocr=(make_token("x", confidence=1.5),)))
    put(2 * chunk + 1, first[2])
    put(9, first[0]._replace(caption="same chunk"))
    put(2 * chunk + 7, first[0]._replace(caption="later chunk"))
    put(3 * chunk + 2, first[1]._replace(caption="valid later copy"))
    put(4 * chunk + 3, first[2]._replace(ocr=records[0].ocr))
    put(chunk + 20, make_record("conf", ocr=[make_token("x", confidence=-0.5)]))
    put(3 * chunk + 30, make_record("bbox", ocr=[make_token("x", x=95, w=10)], image_size=(100, 100)))
    lines[4 * chunk + 10] = lines[3]
    lines[chunk + 30] = lines[2 * chunk + 1] + b"\r"
    lines[chunk - 1] = b"{not json"
    lines[2 * chunk + 40] = b'{"image_id": "bad-byte", "caption": "\xff"}'
    lines[3 * chunk] = b'{"ocr": []}'
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    # skipped: the first copy with a bad confidence, conf and bbox under
    # their own rules, and all but one valid copy of each id: 3 + 0 + 2
    return {"lines": len(lines), "parse_errors": 3, "validation_skips": 8,
            "valid_records": len(lines) - 11, "duplicate_image_id": 5}


def test_run_thread_count_does_not_change_output(tmp_path, rng, monkeypatch):
    # up to 3 workers wherever the test runs, so 2 and 3 both use the pool
    monkeypatch.setattr(workers, "available_cpus", lambda: 4)
    seed = 13

    def without_threads(manifest):
        del manifest["config_hash"]
        del manifest["config"]["threads"]
        return manifest

    for fraction in (1.0, 0.5):
        path = tmp_path / f"hostile-{fraction}.jsonl"
        expected = _hostile_corpus(path, rng, seed, fraction)
        builds = [lambda threads: run(run_config(path, tmp_path / f"pre-{fraction}", seed=seed,
                                                 stages=ALL_STAGES, passes=2, fraction=fraction,
                                                 threads=threads)),
                  lambda threads: run_finetune(run_config(path, tmp_path / f"ft-{fraction}",
                                                          seed=seed, fraction=fraction,
                                                          threads=threads), Task.VQA)]
        for build in builds:
            manifests = [without_threads(build(threads)) for threads in (1, 2, 3)]
            counters = manifests[0]["counters"]
            assert {k: counters[k] for k in expected} == expected
            assert 0 < counters["subsampled_records"] <= expected["valid_records"]
            assert manifests[1] == manifests[0]
            assert manifests[2] == manifests[0]


def test_run_skips_bad_records(tmp_path, rng):
    path = tmp_path / "c.jsonl"
    good = random_layout_record(rng, image_id="ok")
    lines = [serialize_record(good), "{not json", '{"ocr": []}']
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = run(run_config(path, tmp_path / "out", stages=(Objective.SPLITOCR,)))
    assert manifest["counters"]["parse_errors"] == 2
    assert manifest["counters"]["valid_records"] == 1


def test_run_unreadable_input_raises(tmp_path):
    with pytest.raises(OSError):
        run(run_config(tmp_path / "missing.jsonl", tmp_path / "out"))


def test_run_compressed_shards_roundtrip(corpus, tmp_path):
    path, _ = corpus
    manifest = run(run_config(path, tmp_path / "z", stages=(Objective.CAP,), compress=True))
    shard = manifest["stages"][0]["shards"][0]
    data = gzip.decompress((tmp_path / "z" / shard["file"]).read_bytes())
    lines = [json.loads(l) for l in data.decode("utf-8").splitlines()]
    assert len(lines) == shard["examples"]
    assert all(obj["objective"] == "CAP" for obj in lines)


def test_pass_count_multiplies_examples(corpus, tmp_path):
    path, _ = corpus
    m1 = run(run_config(path, tmp_path / "p1", stages=(Objective.SPLITOCR,), passes=1))
    m3 = run(run_config(path, tmp_path / "p3", stages=(Objective.SPLITOCR,), passes=3))
    assert m3["stages"][0]["example_count"] == 3 * m1["stages"][0]["example_count"]


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(inputs=("x",), out_dir="y", fraction=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(inputs=("x",), out_dir="y", shard_count=0)
    for threshold in (math.nan, math.inf, -0.1, 1.5):
        with pytest.raises(ConfigError):
            PipelineConfig(inputs=("x",), out_dir="y", overlap_threshold=threshold)
    for threshold in (0.0, 1.0):
        PipelineConfig(inputs=("x",), out_dir="y", overlap_threshold=threshold)
    # a seed keys a 64-bit hash
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            PipelineConfig(inputs=("x",), out_dir="y", seed=seed)
    PipelineConfig(inputs=("x",), out_dir="y", seed=2**64 - 1)
    for threads in (0, -2):
        with pytest.raises(ConfigError, match="threads"):
            PipelineConfig(inputs=("x",), out_dir="y", threads=threads)
    for stages in (("ocr",), (Objective.OCR, "CAP")):
        with pytest.raises(ConfigError, match="stages"):
            PipelineConfig(inputs=("x",), out_dir="y", stages=stages)


def test_config_replace_is_checked_like_a_new_config():
    # `_replace` builds through `_make`, which skips `__new__` unless overridden
    config = PipelineConfig(inputs=("x",), out_dir="y")
    for field, value in (("seed", -1), ("seed", 2**64), ("threads", 0), ("fraction", 0.0),
                         ("fraction", math.nan)):
        with pytest.raises(ConfigError, match=field):
            config._replace(**{field: value})
    assert config._replace(seed=5) == PipelineConfig(inputs=("x",), out_dir="y", seed=5)
    assert type(config._replace(seed=5)) is PipelineConfig
    with pytest.raises(ValueError):
        config._replace(not_a_field=1)


def test_config_dict_and_hash_are_pinned():
    # golden values: the manifest's "config" and "config_hash" of this
    # 4-stage config, as the frozen-dataclass config wrote them
    config = PipelineConfig(
        inputs=("a.jsonl", "b.jsonl.gz"), out_dir="out",
        stages=(Objective.OCR, Objective.SPLITOCR, Objective.CAP, Objective.SPLITCAP),
        seed=7, fraction=0.25, shard_count=8, overlap_threshold=0.4,
        fmt=TextFormat(token_separator="|"), passes=2, threads=2, compress=True,
        resolution=384)
    expected = {
        "inputs": ["a.jsonl", "b.jsonl.gz"], "out_dir": "out",
        "stages": ["OCR", "SPLITOCR", "CAP", "SPLITCAP"], "seed": 7, "fraction": 0.25,
        "shard_count": 8, "overlap_threshold": 0.4,
        "fmt": {"ocr_prompt": "read:", "caption_prompt": "caption:", "vqa_prompt": "answer:",
                "token_separator": "|", "segment_separator": " \n ", "ocr_label": "OCR: "},
        "passes": 2, "threads": 2, "compress": True, "resolution": 384}
    assert config.to_dict() == expected
    assert list(config.to_dict()) == list(expected)
    assert (pipeline._config_hash(config)
            == "c359425a5aad47a34b72912061353c63e0324a9a0a2f6c18334aa4727a0db70d")


def counted(monkeypatch, module, name):
    """Replace module.name with a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


ALL_STAGES = (Objective.OCR, Objective.SPLITOCR, Objective.CAP, Objective.SPLITCAP)


def test_run_names_each_stage_dataset_by_index_and_objective(corpus, tmp_path):
    path, _ = corpus
    out_dir = tmp_path / "out"
    stages = (Objective.SPLITOCR, Objective.CAP, Objective.SPLITOCR)
    manifest = run(run_config(path, out_dir, stages=stages, shard_count=2))
    names = [[shard["file"] for shard in stage["shards"]] for stage in manifest["stages"]]
    assert names == [[f"{dataset}-0000{i}-of-00002.jsonl" for i in range(2)]
                     for dataset in ("stage0_splitocr", "stage1_cap", "stage2_splitocr")]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        ["manifest.json", *(name for stage in names for name in stage)])


def test_run_orders_each_kept_record_once(corpus, tmp_path, monkeypatch):
    path, records = corpus
    calls = counted(monkeypatch, pipeline, "order_tokens")
    manifest = run(run_config(path, tmp_path / "out", stages=ALL_STAGES, passes=2, fraction=0.5))
    kept = manifest["counters"]["subsampled_records"]
    assert 0 < kept < len(records)
    assert len(calls) == kept


@pytest.fixture
def qa_corpus(tmp_path, rng):
    records = []
    for i in range(60):
        record = random_layout_record(rng, image_id=f"qa{i:03d}", with_caption=True)
        if i % 3 == 0:
            record = record._replace(qa=(QaAnnotation(f"q{i}", ("a",) * 10),))
        records.append(record)
    path = tmp_path / "qa.jsonl"
    write_corpus(path, records)
    return path, records


def test_run_finetune_orders_each_kept_record_once(qa_corpus, tmp_path, monkeypatch):
    path, records = qa_corpus
    calls = counted(monkeypatch, pipeline, "order_tokens")
    manifest = run_finetune(run_config(path, tmp_path / "ft"), Task.VQA)
    assert manifest["example_count"] == 20
    # only the 20 records with QA are ordered
    assert len(calls) == sum(1 for r in records if r.qa) == 20


def test_run_finetune_without_ocr_input_orders_nothing(qa_corpus, tmp_path, monkeypatch):
    path, _ = qa_corpus
    calls = counted(monkeypatch, pipeline, "order_tokens")
    manifest = run_finetune(run_config(path, tmp_path / "ft"), Task.VQA, ocr_included=False)
    assert manifest["example_count"] == 20
    assert calls == []


def test_run_derives_rngs_only_for_split_objectives(corpus, tmp_path, monkeypatch):
    path, _ = corpus
    calls = counted(monkeypatch, pretrain, "derive_rng")
    manifest = run(run_config(path, tmp_path / "out", stages=ALL_STAGES, passes=2))
    assert {args[2] for args in calls} == {"SPLITOCR", "SPLITCAP"}
    # one RNG per pass and eligible record, none for a record the stage skips
    eligible = manifest["stats"]["eligible"]
    assert eligible["SPLITCAP"] < eligible["SPLITOCR"]
    assert len(calls) == 2 * (eligible["SPLITOCR"] + eligible["SPLITCAP"])


@pytest.fixture
def sparse_corpus(tmp_path, rng):
    """Records that fail each eligibility rule in turn: empty OCR, no caption,
    an empty or whitespace-only caption, and an empty QA list."""
    captions = [None, "", " \t ", "a red sign", "sign"]
    records = []
    for i in range(50):
        record = random_layout_record(rng, image_id=f"sp{i:03d}")
        qa = (QaAnnotation(f"q{i}", ("a",) * 10),) * (i % 3) if i % 4 else None
        record = record._replace(caption=captions[i % 5], qa=qa,
                                 ocr=() if i % 7 == 0 else record.ocr)
        records.append(record)
    path = tmp_path / "sparse.jsonl"
    write_corpus(path, records)
    return path, records


def test_stage_example_counts_equal_eligible_counts(sparse_corpus, tmp_path):
    path, records = sparse_corpus
    assert '"qa": []' in path.read_text(encoding="utf-8")
    passes = 3
    manifest = run(run_config(path, tmp_path / "out", stages=ALL_STAGES, passes=passes))
    eligible = manifest["stats"]["eligible"]
    assert 0 < eligible["SPLITCAP"] < eligible["CAP"] < eligible["OCR"] < len(records)
    for stage in manifest["stages"]:
        assert stage["example_count"] == passes * eligible[stage["objective"]]


def test_ineligible_records_yield_no_examples(sparse_corpus, tmp_path, monkeypatch):
    path, records = sparse_corpus
    calls = counted(monkeypatch, pipeline, "order_tokens")
    manifest = run(run_config(path, tmp_path / "out", stages=(Objective.OCR, Objective.SPLITCAP),
                              shard_count=1))
    built = [{json.loads(line)["image_id"]
              for line in (tmp_path / "out" / stage["shards"][0]["file"]).read_text().splitlines()}
             for stage in manifest["stages"]]
    assert built == [{r.image_id for r in records if r.ocr},
                     {r.image_id for r in records if r.caption and r.caption.split()}]
    # a record that no stage wants is never ordered
    assert len(calls) == len(built[0] | built[1]) < len(records)
    for task, has_target in ((Task.VQA, lambda r: r.qa), (Task.CAPTION, lambda r: r.caption)):
        out = tmp_path / task.value
        manifest = run_finetune(run_config(path, out, shard_count=1), task)
        lines = (out / manifest["shards"][0]["file"]).read_text().splitlines()
        assert ({json.loads(line)["image_id"] for line in lines}
                == {r.image_id for r in records if has_target(r)})


def _build_files(build, out_dir: Path) -> dict[str, bytes]:
    """Run build() into an empty out_dir; every file it leaves, by name."""
    build()
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    for p in out_dir.iterdir():
        p.unlink()
    return files


SPILL_BUILDS = {
    "build-pretrain": ["build-pretrain", "--stages", "ocr,splitocr,cap,splitcap", "--passes", "2",
                       "--shards", "3"],
    "build-pretrain-half-compress": ["build-pretrain", "--stages", "splitocr,cap", "--shards", "4",
                                     "--fraction", "0.5", "--compress"],
    "build-finetune": ["build-finetune", "--task", "vqa", "--shards", "3", "--compress"],
    "build-finetune-caption": ["build-finetune", "--task", "caption", "--shards", "2",
                               "--no-ocr-input"],
}


def spill_splits(monkeypatch) -> list[tuple[str, int, int]]:
    """Wrap pipeline._split_oversized; each call's (file name, parts, file
    size) on an examples' spill file, the recursive calls included."""
    calls = []
    split = pipeline._split_oversized

    def recording(path, parts=1, index=0):
        if not os.path.basename(path).startswith("ids-spill"):  # the examples' spills only
            calls.append((os.path.basename(path), parts, os.path.getsize(path)))
        return split(path, parts, index)

    monkeypatch.setattr(pipeline, "_split_oversized", recording)
    return calls


def spill_reads(monkeypatch) -> list[list[bytes]]:
    """Wrap pipeline._read_spill; the records of each read of an examples'
    spill part."""
    reads = []
    read_spill = pipeline._read_spill

    def recording(path):
        records = read_spill(path)
        if not os.path.basename(path).startswith("ids-spill"):
            reads.append(records)
        return records

    monkeypatch.setattr(pipeline, "_read_spill", recording)
    return reads


def assert_reads_bounded(reads) -> None:
    """No spill part read back holds over twice SPILL_BUCKET_BYTES, unless
    its records all share one key, which no split can separate."""
    for records in reads:
        assert (sum(map(len, records)) <= 2 * pipeline.SPILL_BUCKET_BYTES
                or len({record[:16] for record in records}) == 1)


def spill_bytes(files: dict[str, bytes]) -> dict[str, int]:
    """What a build spills per dataset, from the shards of a build that
    keeps every copy of an image_id: each example line after its 16-digit
    key and before its 32-digit line digest."""
    sizes = Counter()
    for name, data in files.items():
        if "-of-" in name:
            lines = gzip.decompress(data) if name.endswith(".gz") else data
            sizes[name.split("-")[0]] += len(lines) + (16 + 32) * lines.count(b"\n")
    return dict(sizes)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("split", ["capped", "several", "one"])
@pytest.mark.parametrize("argv", SPILL_BUILDS.values(), ids=SPILL_BUILDS.keys())
def test_spilled_build_is_byte_identical_to_hold_and_sort(tmp_path, rng, monkeypatch, argv,
                                                          split, threads):
    from scenetext.cli import main

    monkeypatch.setattr(workers, "available_cpus", lambda: 4)
    path = tmp_path / "hostile.jsonl"
    _hostile_corpus(path, rng, 13, 1.0)
    out_dir = tmp_path / "out"
    command = [*argv, "--seed", "13", "--threads", str(threads), "--in", str(path),
               "--out-dir", str(out_dir)]
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_build", oracle_dedup_build)
        held = _build_files(lambda: main(command), out_dir)
        # the hold-and-sort build alone holds every kept copy's examples,
        # as the spill files do before the duplicate rule drops some
        patch.setattr(pipeline, "_build", oracle_hold_and_sort_build)
        sizes = spill_bytes(_build_files(lambda: main(command), out_dir))
    if split == "capped":
        # at most two ways per split, so each spill file is split again and
        # again until its parts are at most twice the target
        monkeypatch.setattr(pipeline, "OPEN_FILES_MAX", 2)
    target = {"capped": min(sizes.values()) // 16, "several": min(sizes.values()) // 4,
              "one": max(sizes.values())}[split]
    monkeypatch.setattr(pipeline, "SPILL_BUCKET_BYTES", target)
    splits, reads = spill_splits(monkeypatch), spill_reads(monkeypatch)
    read = counted(monkeypatch, pipeline, "_read_spill")
    spilled = _build_files(lambda: main(command), out_dir)
    assert spilled == held
    assert not [name for name in spilled if name.startswith(".")]
    assert len(read) == len({path for (path,) in read})  # each spill part read once
    # one spill file per dataset, holding what the dataset spilled
    assert {name[:-len("-spill")]: size for name, parts, size in splits if parts == 1} == sizes
    assert_reads_bounded(reads)
    if split == "one":  # no spill file is over twice the target
        assert len(splits) == len(reads) == len(sizes)
    elif split == "several":  # each is split once, into size / target parts or more
        assert {parts for _, parts, _ in splits} > {1}
        assert len(reads) >= sum(math.ceil(size / target) for size in sizes.values())
    else:  # two ways at a time, and three splits or more down to any part read
        assert {parts for _, parts, _ in splits} >= {1, 2, 4, 8}
        assert len(reads) >= sum(math.ceil(size / target) for size in sizes.values()) // 2


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("argv", [SPILL_BUILDS["build-pretrain"],
                                  SPILL_BUILDS["build-pretrain-half-compress"]],
                         ids=["build-pretrain", "build-pretrain-half-compress"])
def test_build_with_more_shards_than_free_descriptors(tmp_path, rng, monkeypatch, argv, threads):
    resource = pytest.importorskip("resource")
    from scenetext.cli import main

    monkeypatch.setattr(workers, "available_cpus", lambda: 4)
    path = tmp_path / "hostile.jsonl"
    _hostile_corpus(path, rng, 13, 1.0)
    monkeypatch.setattr(pipeline, "SPILL_BUCKET_BYTES", path.stat().st_size // 40)
    shards = 100
    argv = [*argv[:argv.index("--shards")], "--shards", str(shards), "--seed", "13",
            "--threads", str(threads), "--in", str(path), "--out-dir", str(tmp_path / "out")]
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    # 40 more descriptors than are open now: too few for every shard to be
    # open at once; and the split of each dataset's spill file, into parts
    # of a 40th of the input, may open no more parts than are still free
    limit = len(os.listdir("/dev/fd")) + 40
    assert limit < shards
    read = counted(monkeypatch, pipeline, "_read_spill")
    resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
    try:
        codes = [main(argv)]
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    spilled = _build_files(lambda: None, tmp_path / "out")
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_build", oracle_dedup_build)
        codes.append(main(argv))
        held = _build_files(lambda: None, tmp_path / "out")
    assert codes == [0, 0]
    assert spilled == held
    datasets = len(argv[argv.index("--stages") + 1].split(","))
    assert len([name for name in spilled if "-of-" in name]) == datasets * shards
    # each spill part was read once, however many shards it was dealt to
    assert len(read) == len({path for (path,) in read}) > 0


def test_compressed_build_memory_does_not_grow_with_shards(tmp_path, rng):
    import tracemalloc

    from scenetext.cli import main

    path = tmp_path / "hostile.jsonl"
    _hostile_corpus(path, rng, 13, 1.0)
    argv = ["build-finetune", "--task", "vqa", "--shards", "64", "--compress", "--seed", "13",
            "--in", str(path), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0  # loads the modules and fills their caches outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a gzip compressor holds ~263 KiB of deflate state: one open per shard
    # would take 16 MiB here
    assert peak < 3 << 20


def test_build_where_the_descriptor_limit_cannot_be_read(tmp_path, rng, monkeypatch):
    from scenetext.cli import main

    path = tmp_path / "hostile.jsonl"
    _hostile_corpus(path, rng, 13, 1.0)
    argv = [*SPILL_BUILDS["build-pretrain"], "--seed", "13", "--in", str(path),
            "--out-dir", str(tmp_path / "out")]
    built = _build_files(lambda: main(argv), tmp_path / "out")
    monkeypatch.setitem(sys.modules, "resource", None)  # as on a platform without it
    assert pipeline._free_descriptors() > pipeline.OPEN_FILES_MAX
    assert _build_files(lambda: main(argv), tmp_path / "out") == built


def test_spill_split_fits_the_free_descriptors(tmp_path, rng, monkeypatch):
    resource = pytest.importorskip("resource")
    from scenetext.cli import main

    path = tmp_path / "hostile.jsonl"
    _hostile_corpus(path, rng, 13, 1.0)
    target = path.stat().st_size // 200
    monkeypatch.setattr(pipeline, "SPILL_BUCKET_BYTES", target)
    argv = [*SPILL_BUILDS["build-pretrain"], "--seed", "13", "--in", str(path),
            "--out-dir", str(tmp_path / "out")]
    splits, reads = spill_splits(monkeypatch), spill_reads(monkeypatch)
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    # 8 more descriptors than are open now: each split opens a few parts at
    # a time where its size asks for dozens
    resource.setrlimit(resource.RLIMIT_NOFILE, (len(os.listdir("/dev/fd")) + 8, hard))
    try:
        code = main(argv)
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    spilled = _build_files(lambda: None, tmp_path / "out")
    assert code == 0
    roots = [size for _, parts, size in splits if parts == 1]
    first = [parts for _, parts, _ in splits if parts > 1]
    assert 1 < min(first) < 8 < min(math.ceil(size / target) for size in roots)
    assert_reads_bounded(reads)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_build", oracle_dedup_build)
        assert _build_files(lambda: main(argv), tmp_path / "out") == spilled


@pytest.mark.parametrize("threads", [1, 2])
def test_spilled_build_keeps_key_then_id_order_when_keys_collide(tmp_path, rng, monkeypatch,
                                                                 threads):
    # Four keys for every example: both ends of the range and both sides of
    # its middle, so colliding keys sit at part edges and every part
    # boundary is crossed by a run of equal keys ordered by example_id.
    monkeypatch.setattr(workers, "available_cpus", lambda: 4)
    # each spill file is split four ways, one key to a part; each part is
    # split once more and keeps all of its records in one part, so the
    # split stops there
    monkeypatch.setattr(pipeline, "SPILL_BUCKET_BYTES", 1)
    monkeypatch.setattr(pipeline, "OPEN_FILES_MAX", 4)
    splits, reads = spill_splits(monkeypatch), spill_reads(monkeypatch)
    keys = (0, 2**63 - 1, 2**63, 2**64 - 1)

    def key_of(example_id):
        return keys[sum(example_id.encode("utf-8")) % 4]

    monkeypatch.setattr(pipeline, "hash64", lambda seed, *parts: key_of(parts[-1]))
    path = tmp_path / "hostile.jsonl"
    _hostile_corpus(path, rng, 13, 1.0)
    out_dir = tmp_path / "out"
    config = run_config(path, out_dir, seed=13, stages=ALL_STAGES, passes=2, threads=threads)
    spilled = _build_files(lambda: run(config), out_dir)
    assert sorted(parts for _, parts, _ in splits) == [1] * 4 + [4] * 16
    assert all(size > 2 for _, parts, size in splits if parts == 4)
    assert_reads_bounded(reads)
    assert sorted(len({record[:16] for record in records}) for records in reads) == [0] * 48 + [1] * 16
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_build", oracle_dedup_build)
        held = _build_files(lambda: run(config), out_dir)
    assert spilled == held
    # the first line of shard 0 has the smallest example_id keyed 0
    ids = [json.loads(line)["example_id"] for name, data in spilled.items()
           if name.startswith("stage0_ocr") for line in data.splitlines()]
    first = json.loads(spilled["stage0_ocr-00000-of-00003.jsonl"].splitlines()[0])
    assert first["example_id"] == min(i for i in ids if key_of(i) == 0)


class BuilderFailed(Exception):
    pass


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("extra,fraction", [(0, 1.0), (600, 0.5)], ids=["hostile", "larger-half"])
def test_build_failing_mid_pass_leaves_the_out_dir_as_it_was(tmp_path, rng, monkeypatch, threads,
                                                             extra, fraction):
    monkeypatch.setattr(workers, "available_cpus", lambda: 4)
    monkeypatch.setattr(pipeline, "SPILL_BUCKET_BYTES", 4096)
    path = tmp_path / "hostile.jsonl"
    _hostile_corpus(path, rng, 13, fraction)
    with path.open("a", encoding="utf-8") as fh:
        for i in range(extra):
            fh.write(serialize_record(random_layout_record(rng, image_id=f"more{i:04d}")) + "\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("not the build's")
    at_failure = tmp_path / "at-failure.txt"
    build_example = pipeline.build_example
    calls = []

    def fails_on_the_300th_call(*args):
        calls.append(None)  # per process: each worker counts its own calls
        if len(calls) == 300:
            # the first failure's whole listing of the out-dir and its work
            # directory, linked into place: another worker's may come after
            # the main process has already failed and cleaned up, and a
            # worker may be killed mid-write
            listing = tmp_path / f"listing-{os.getpid()}.txt"
            listing.write_text("\n".join(sorted(p.relative_to(out_dir).as_posix()
                                                for p in out_dir.rglob("*"))))
            with suppress(FileExistsError):
                os.link(listing, at_failure)
            raise BuilderFailed("builder failed")
        return build_example(*args)

    monkeypatch.setattr(pipeline, "build_example", fails_on_the_300th_call)
    with pytest.raises(BuilderFailed):
        run(run_config(path, out_dir, seed=13, stages=ALL_STAGES, passes=2, fraction=fraction,
                       threads=threads))
    # the id spill and one spill file per dataset were in the work directory
    # when the builder failed, however many times over SPILL_BUCKET_BYTES
    # the input is, and nothing of the build was in the out-dir itself
    assert path.stat().st_size * fraction > 40 * pipeline.SPILL_BUCKET_BYTES
    work = ".scenetext-build"
    assert at_failure.read_text().split("\n") == [
        work, *(f"{work}/{name}-spill" for name in ("ids", "stage0_ocr", "stage1_splitocr",
                                                      "stage2_cap", "stage3_splitcap")),
        "keep.txt"]
    assert [p.name for p in out_dir.iterdir()] == ["keep.txt"]
    assert (out_dir / "keep.txt").read_text() == "not the build's"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("argv", [SPILL_BUILDS["build-pretrain"], SPILL_BUILDS["build-finetune"]],
                         ids=["build-pretrain", "build-finetune"])
def test_gzip_input_builds_the_shards_of_the_plain_file(tmp_path, rng, monkeypatch, argv, threads):
    from scenetext.cli import main

    monkeypatch.setattr(workers, "available_cpus", lambda: 4)
    path = tmp_path / "hostile.jsonl"
    expected = _hostile_corpus(path, rng, 13, 1.0)
    gz = tmp_path / "hostile.jsonl.gz"
    gz.write_bytes(gzip.compress(path.read_bytes()))
    # small enough that every dataset's spill file is split
    target = path.stat().st_size // 100
    monkeypatch.setattr(pipeline, "SPILL_BUCKET_BYTES", target)
    splits = spill_splits(monkeypatch)
    built = []
    for corpus in (path, gz):
        out_dir = tmp_path / "out"
        assert main([*argv, "--seed", "13", "--threads", str(threads), "--in", str(corpus),
                     "--out-dir", str(out_dir)]) == 0
        files = _build_files(lambda: None, out_dir)
        [manifest] = [json.loads(data) for name, data in files.items() if name.endswith(".json")]
        built.append(({name: data for name, data in files.items() if "-of-" in name},
                      manifest["counters"]))
    assert built[1] == built[0]
    assert {k: built[0][1][k] for k in expected} == expected
    # both builds spilled the same bytes, and split every spill file
    roots = [(name, size) for name, parts, size in splits if parts == 1]
    assert roots[:len(roots) // 2] == roots[len(roots) // 2:]
    assert min(size for _, size in roots) > 2 * target
