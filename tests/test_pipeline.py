import gzip
import json
import math
import random
from collections import Counter
from pathlib import Path

import dataclasses

import pytest

from scenetext import pipeline, pretrain
from scenetext.errors import ConfigError
from scenetext.finetune import Task
from scenetext.hashing import hash64, keep_fraction
from scenetext.pipeline import (
    PipelineConfig,
    compute_stats,
    run,
    run_finetune,
    shuffle_and_shard,
    subsample,
)
from scenetext.pretrain import Objective
from scenetext.records import QaAnnotation, serialize_record

from conftest import make_record, make_token, random_layout_record


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


def test_subsample_identity_at_full_fraction(corpus):
    _, records = corpus
    assert list(subsample(records, 1.0, seed=3)) == records


def test_subsample_rejects_bad_fraction(corpus):
    _, records = corpus
    with pytest.raises(ConfigError):
        list(subsample(records, 0.0, seed=0))
    with pytest.raises(ConfigError):
        list(subsample(records, 1.5, seed=0))


def test_subsample_order_independent(corpus, rng):
    _, records = corpus
    kept = {r.image_id for r in subsample(records, 0.3, seed=7)}
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert {r.image_id for r in subsample(shuffled, 0.3, seed=7)} == kept


def test_subsample_nesting(corpus):
    _, records = corpus
    subsets = {
        f: {r.image_id for r in subsample(records, f, seed=5)}
        for f in (0.05, 0.15, 0.4, 0.8)
    }
    assert subsets[0.05] <= subsets[0.15] <= subsets[0.4] <= subsets[0.8]


def test_subsample_binomial_count():
    n, fraction, seed = 50_000, 0.1, 9
    kept = sum(1 for i in range(n) if keep_fraction(seed, f"id{i}", fraction))
    sigma = math.sqrt(n * fraction * (1 - fraction))
    assert abs(kept - n * fraction) <= 3 * sigma


def test_compute_stats():
    records = [
        make_record("a", ocr=[make_token("x"), make_token("y", x=50)], caption="two words"),
        make_record("b", ocr=[]),
        make_record("c", ocr=[make_token("z")]),
    ]
    stats = compute_stats(records)
    assert stats.record_count == 3
    assert stats.empty_ocr_count == 1
    assert stats.empty_ocr_fraction == pytest.approx(1 / 3)
    assert stats.eligible["SPLITOCR"] == 2
    assert stats.eligible["CAP"] == 1
    assert sum(stats.ocr_token_histogram.values()) == 3
    assert stats.ocr_token_histogram[2] == 1


def test_compute_stats_empty_stream():
    stats = compute_stats([])
    assert stats.record_count == 0
    assert stats.empty_ocr_fraction == 0.0


def keyed(examples, seed):
    """(example_id, line) pairs as the (shuffle key, example_id, line) triples a build holds."""
    return [(hash64(seed, "shuffle", ex_id), ex_id, line) for ex_id, line in examples]


def test_shuffle_and_shard_single_shard_permutes():
    examples = [(f"id{i}", f"line{i}") for i in range(100)]
    (shard,) = shuffle_and_shard(keyed(examples, seed=1), shard_count=1)
    assert sorted(shard) == sorted(line for _, line in examples)
    assert shard != [line for _, line in examples]


def test_shuffle_and_shard_conservation():
    examples = [(f"id{i}", f"line{i}") for i in range(103)]
    shards = shuffle_and_shard(keyed(examples, seed=2), shard_count=7)
    merged = Counter(line for shard in shards for line in shard)
    assert merged == Counter(line for _, line in examples)


def test_shuffle_and_shard_deterministic():
    examples = [(f"id{i}", f"line{i}") for i in range(50)]
    assert shuffle_and_shard(keyed(examples, 3), 4) == shuffle_and_shard(keyed(examples, 3), 4)
    assert shuffle_and_shard(keyed(examples, 3), 4) != shuffle_and_shard(keyed(examples, 4), 4)
    # the input order does not matter
    assert (shuffle_and_shard(keyed(examples[::-1], 3), 4)
            == shuffle_and_shard(keyed(examples, 3), 4))


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
    bad JSON, a 0xff byte, a schema error, each per-record rule, and later
    copies of image_ids (in the first copy's chunk and in later chunks) with
    other content. Returns the counters every build of it must report."""
    chunk = pipeline.CHUNK_LINES
    records = [random_layout_record(rng, image_id=f"img{i:04d}", with_caption=i % 2 == 0)
               for i in range(4 * chunk + 17)]
    records = [dataclasses.replace(r, qa=(QaAnnotation(f"q {r.image_id}", ("a",) * 10),))
               if i % 3 == 0 else r for i, r in enumerate(records)]
    # duplicated ids that the subsample keeps, so their examples are built
    dup_ids = [i for i in (f"dup{k}" for k in range(100)) if keep_fraction(seed, i, fraction)][:3]
    lines = [serialize_record(r).encode("utf-8") for r in records]

    def put(index, record):
        lines[index] = serialize_record(record).encode("utf-8")

    first = [dataclasses.replace(records[i], image_id=d, caption="first copy")
             for i, d in zip((3, chunk + 5, 2 * chunk + 1), dup_ids)]
    put(3, first[0])
    put(chunk + 5, dataclasses.replace(first[1], ocr=(make_token("x", confidence=1.5),)))
    put(2 * chunk + 1, first[2])
    put(9, dataclasses.replace(first[0], caption="same chunk"))
    put(2 * chunk + 7, dataclasses.replace(first[0], caption="later chunk"))
    put(3 * chunk + 2, dataclasses.replace(first[1], caption="valid later copy"))
    put(4 * chunk + 3, dataclasses.replace(first[2], ocr=records[0].ocr))
    put(chunk + 20, make_record("conf", ocr=[make_token("x", confidence=-0.5)]))
    put(3 * chunk + 30, make_record("bbox", ocr=[make_token("x", x=95, w=10)], image_size=(100, 100)))
    lines[chunk - 1] = b"{not json"
    lines[2 * chunk + 40] = b'{"image_id": "bad-byte", "caption": "\xff"}'
    lines[3 * chunk] = b'{"ocr": []}'
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    # skipped: 4 later copies, the first copy with a bad confidence, conf, bbox
    return {"lines": len(lines), "parse_errors": 3, "validation_skips": 7,
            "valid_records": len(lines) - 10}


def test_run_thread_count_does_not_change_output(tmp_path, rng, monkeypatch):
    # up to 3 workers wherever the test runs, so 2 and 3 both use the pool
    monkeypatch.setattr(pipeline, "available_cpus", lambda: 4)
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
            record = dataclasses.replace(record, qa=(QaAnnotation(f"q{i}", ("a",) * 10),))
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
        record = dataclasses.replace(record, caption=captions[i % 5], qa=qa,
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
