import json
import os
import subprocess
import sys

import pytest

import scenetext
from scenetext import cli, kernels, pipeline, workers
from scenetext.cli import main
from scenetext.records import serialize_record

from conftest import random_layout_record, write_damaged_gzip
from scenetext.records import QaAnnotation


@pytest.fixture
def corpus(tmp_path, rng):
    records = []
    for i in range(60):
        r = random_layout_record(rng, image_id=f"img{i:03d}", with_caption=True)
        if i % 3 == 0:
            r = r._replace(qa=(QaAnnotation(f"question {i}", tuple(["ans"] * 10)),))
        records.append(r)
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(serialize_record(r) + "\n" for r in records), encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(corpus, capsys):
    code, out, err = run_cli(capsys, "--json", "validate", "--in", corpus)
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["valid"] == 60
    assert "valid" in err


def test_stats(corpus, capsys):
    code, out, _ = run_cli(capsys, "--json", "stats", "--in", corpus)
    assert code == 0
    assert json.loads(out)["stats"]["record_count"] == 60


def test_build_pretrain(corpus, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "--json", "build-pretrain", "--objective", "splitocr",
                           "--seed", 7, "--in", corpus, "--out-dir", out_dir)
    assert code == 0
    manifest = json.loads(out)
    assert (out_dir / "manifest.json").exists()
    assert manifest["stages"][0]["objective"] == "SPLITOCR"
    assert manifest["seed"] == 7


def test_build_pretrain_stage_plan(corpus, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--json", "build-pretrain", "--stages", "splitocr,cap",
                           "--in", corpus, "--out-dir", tmp_path / "stages")
    assert code == 0
    manifest = json.loads(out)
    assert [s["objective"] for s in manifest["stages"]] == ["SPLITOCR", "CAP"]


def test_build_pretrain_unknown_stage_tag_exits_1(corpus, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "build-pretrain", "--stages", "ocr,bogus",
                             "--in", corpus, "--out-dir", out_dir)
    assert code == 1
    assert err.startswith("error: unknown objective 'bogus'")
    assert out == ""
    assert not out_dir.exists()


def test_build_pretrain_bogus_objective_exits_2(corpus, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-pretrain", "--objective", "bogus",
              "--in", str(corpus), "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--bogus-flag"])
    assert exc.value.code == 2


def test_build_finetune_no_ocr_input(corpus, tmp_path, capsys):
    out_dir = tmp_path / "ft"
    code, out, _ = run_cli(capsys, "--json", "build-finetune", "--task", "vqa",
                           "--no-ocr-input", "--in", corpus, "--out-dir", out_dir)
    assert code == 0
    manifest = json.loads(out)
    assert manifest["ocr_included"] is False
    assert manifest["example_count"] == 20


def test_subsample_command(corpus, tmp_path, capsys):
    out_file = tmp_path / "sub.jsonl"
    code, out, _ = run_cli(capsys, "--json", "subsample", "--in", corpus,
                           "--out", out_file, "--fraction", 0.5, "--seed", 3)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 60
    assert payload["kept"] == len(out_file.read_text().splitlines())
    # the counter set that stats and the build manifests report
    assert payload["counters"] == {"lines": 60, "valid_records": 60,
                                   "subsampled_records": payload["kept"]}


def test_subsample_counts_zero_valid_records(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{not json\n{"ocr": []}\n')
    code, out, _ = run_cli(capsys, "--json", "subsample", "--in", path,
                           "--out", tmp_path / "sub.jsonl", "--fraction", 0.5)
    assert code == 0
    assert json.loads(out)["counters"] == {"lines": 2, "parse_errors": 2, "valid_records": 0,
                                           "subsampled_records": 0}
    assert (tmp_path / "sub.jsonl").read_bytes() == b""


def test_evaluate_vqa(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(
        json.dumps({"example_id": "e0", "answers": ["stop"] * 10}) + "\n"
        + json.dumps({"example_id": "e1", "answers": ["go"] * 5 + ["run"] * 5}) + "\n"
    )
    pred.write_text(
        json.dumps({"example_id": "e0", "prediction": "stop"}) + "\n"
        + json.dumps({"example_id": "e1", "prediction": "left"}) + "\n"
    )
    code, out, err = run_cli(capsys, "--json", "evaluate", "--task", "vqa",
                             "--pred", pred, "--gold", gold)
    assert code == 0
    payload = json.loads(out)
    assert payload["aggregate"]["accuracy"] == pytest.approx(0.5)
    assert "accuracy" in err


def test_evaluate_vqa_anls_emits_both_columns(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"example_id": "e0", "answers": ["hallo"] * 10}) + "\n")
    pred.write_text(json.dumps({"example_id": "e0", "prediction": "hello"}) + "\n")
    code, out, _ = run_cli(capsys, "--json", "evaluate", "--task", "vqa_anls",
                           "--pred", pred, "--gold", gold)
    assert code == 0
    payload = json.loads(out)
    assert set(payload["aggregate"]) == {"accuracy", "anls"}
    assert payload["aggregate"]["anls"] == pytest.approx(0.8)


def test_evaluate_caption(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold_lines = [
        {"example_id": "e0", "references": ["a red stop sign on a pole"]},
        {"example_id": "e1", "references": ["two dogs in the park"]},
        {"example_id": "e2", "references": ["people at the station"]},
    ]
    gold.write_text("".join(json.dumps(g) + "\n" for g in gold_lines))
    pred.write_text("".join(
        json.dumps({"example_id": g["example_id"], "prediction": g["references"][0]}) + "\n"
        for g in gold_lines
    ))
    code, out, _ = run_cli(capsys, "--json", "evaluate", "--task", "caption",
                           "--pred", pred, "--gold", gold, "--per-item")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["aggregate"]) == {"bleu4", "rougeL", "cider"}
    assert payload["aggregate"]["rougeL"] == pytest.approx(1.0)
    assert len(payload["per_item"]) == 3


@pytest.mark.parametrize("tau", ["nan", "inf", "-0.1", "1.5"])
def test_evaluate_tau_outside_unit_interval_exits_1(tmp_path, capsys, tau):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"example_id": "e0", "answers": ["stop"]}) + "\n")
    pred.write_text(json.dumps({"example_id": "e0", "prediction": "stop"}) + "\n")
    code, out, err = run_cli(capsys, "--json", "evaluate", "--task", "vqa_anls",
                             "--tau", tau, "--pred", pred, "--gold", gold)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "tau" in err and "Traceback" not in err


@pytest.mark.parametrize("task,tau", [("vqa", "nan"), ("caption", "7")])
def test_evaluate_tau_outside_unit_interval_exits_1_for_every_task(tmp_path, capsys, task, tau):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    golds = [{"example_id": f"e{i}", "answers": ["stop"] * 10, "references": ["a stop sign"]}
             for i in range(2)]
    gold.write_text("".join(json.dumps(g) + "\n" for g in golds))
    pred.write_text("".join(json.dumps({"example_id": g["example_id"], "prediction": "stop"}) + "\n"
                            for g in golds))
    code, out, err = run_cli(capsys, "--json", "evaluate", "--task", task,
                             "--tau", tau, "--pred", pred, "--gold", gold)
    assert (code, out) == (1, "")
    assert err == f"error: ANLS threshold tau must be in [0, 1], got {float(tau)}\n"
    code, _, _ = run_cli(capsys, "evaluate", "--task", task, "--pred", pred, "--gold", gold)
    assert code == 0


@pytest.mark.parametrize("tau,expected", [("0", 0.8), ("1", 0.0)])
def test_evaluate_tau_bounds_are_accepted(tmp_path, capsys, tau, expected):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"example_id": "e0", "answers": ["hallo"]}) + "\n")
    pred.write_text(json.dumps({"example_id": "e0", "prediction": "hello"}) + "\n")
    code, out, _ = run_cli(capsys, "--json", "evaluate", "--task", "vqa_anls",
                           "--tau", tau, "--pred", pred, "--gold", gold)
    assert code == 0
    assert json.loads(out)["aggregate"]["anls"] == pytest.approx(expected)


def test_evaluate_json_records_the_kernel_backend(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"example_id": "e0", "answers": ["stop"]}) + "\n")
    pred.write_text(json.dumps({"example_id": "e0", "prediction": "stop"}) + "\n")
    code, out, _ = run_cli(capsys, "--json", "evaluate", "--task", "vqa_anls",
                           "--pred", pred, "--gold", gold)
    assert code == 0
    assert json.loads(out) == {"n_items": 1, "aggregate": {"anls": 1.0}, "kernels": kernels.BACKEND}


def test_evaluate_alignment_error_exits_1(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"example_id": "e0", "answers": ["a"] * 10}) + "\n")
    pred.write_text("")
    code, _, err = run_cli(capsys, "evaluate", "--task", "vqa",
                           "--pred", pred, "--gold", gold)
    assert code == 1
    assert "error" in err


def test_missing_input_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", "--in", tmp_path / "nope.jsonl")
    assert code == 1
    assert "error" in err


def test_evaluate_vqa_anls_short_golds_score_anls_only(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"example_id": "e0", "answers": ["hallo"]}) + "\n"
                    + json.dumps({"example_id": "e1", "answers": ["stop", "halt"]}) + "\n")
    pred.write_text(json.dumps({"example_id": "e0", "prediction": "hello"}) + "\n"
                    + json.dumps({"example_id": "e1", "prediction": "halt"}) + "\n")
    code, out, _ = run_cli(capsys, "--json", "evaluate", "--task", "vqa_anls", "--per-item",
                           "--pred", pred, "--gold", gold)
    assert code == 0
    payload = json.loads(out)
    assert set(payload["aggregate"]) == {"anls"}
    assert payload["aggregate"]["anls"] == pytest.approx(0.9)
    assert [set(row) for row in payload["per_item"]] == [{"example_id", "anls"}] * 2

    code, _, err = run_cli(capsys, "evaluate", "--task", "vqa", "--pred", pred, "--gold", gold)
    assert code == 1
    assert "exactly 10 answers" in err


@pytest.mark.parametrize("which,bad_line", [
    ("pred", b'{"example_id": "e1", "prediction": '),
    ("gold", b'{"example_id": "e1", "answers": ['),
    ("pred", b'{"prediction": "go"}'),
    ("gold", b'{"answers": ["go"]}'),
    ("pred", b'{"example_id": "e1"}'),
    ("pred", b'["e1", "go"]'),
    ("gold", b'\xff'),
])
def test_evaluate_malformed_line_exits_1_with_location(tmp_path, capsys, which, bad_line):
    files = {
        "gold": json.dumps({"example_id": "e0", "answers": ["stop"] * 10}).encode(),
        "pred": json.dumps({"example_id": "e0", "prediction": "stop"}).encode(),
    }
    files[which] += b"\n" + bad_line
    for name, data in files.items():
        (tmp_path / f"{name}.jsonl").write_bytes(data + b"\n")
    code, _, err = run_cli(capsys, "evaluate", "--task", "vqa",
                           "--pred", tmp_path / "pred.jsonl", "--gold", tmp_path / "gold.jsonl")
    assert code == 1
    assert err.startswith(f"error: {tmp_path / which}.jsonl:2: ")


@pytest.mark.parametrize("which", ["pred", "gold"])
def test_evaluate_duplicate_example_id_exits_1(tmp_path, capsys, which):
    gold = [json.dumps({"example_id": "a", "answers": ["x"] * 10})]
    pred = [json.dumps({"example_id": "a", "prediction": "x"})]
    if which == "pred":
        pred.append(json.dumps({"example_id": "a", "prediction": "y"}))
    else:
        gold.append(json.dumps({"example_id": "a", "answers": ["y"] * 10}))
    (tmp_path / "gold.jsonl").write_text("\n".join(gold) + "\n")
    (tmp_path / "pred.jsonl").write_text("\n".join(pred) + "\n")
    code, out, err = run_cli(capsys, "--json", "evaluate", "--task", "vqa",
                             "--pred", tmp_path / "pred.jsonl", "--gold", tmp_path / "gold.jsonl")
    assert code == 1
    assert out == ""
    assert f"{which}.jsonl:2: duplicate example_id 'a'" in err


@pytest.mark.parametrize("task", ["vqa", "vqa_anls", "caption"])
@pytest.mark.parametrize("texts", ["stop", [1] * 10, []])
def test_evaluate_malformed_gold_texts_exit_1(tmp_path, capsys, task, texts):
    key = "references" if task == "caption" else "answers"
    (tmp_path / "gold.jsonl").write_text(
        "".join(json.dumps({"example_id": ex_id, key: texts}) + "\n" for ex_id in ("e0", "e1")))
    (tmp_path / "pred.jsonl").write_text(
        "".join(json.dumps({"example_id": ex_id, "prediction": "stop"}) + "\n" for ex_id in ("e0", "e1")))
    code, _, err = run_cli(capsys, "evaluate", "--task", task,
                           "--pred", tmp_path / "pred.jsonl", "--gold", tmp_path / "gold.jsonl")
    assert code == 1
    assert err == f"error: e0: gold entry needs a non-empty list of string {key}\n"


@pytest.fixture
def corpus_with_bad_lines(corpus, tmp_path):
    """The corpus with an undecodable byte, a malformed line and a
    schema-invalid line spliced in; its 60 valid records are unchanged."""
    lines = corpus.read_bytes().splitlines(keepends=True)
    bad = [b'{"image_id": "bad-byte", "caption": "\xff"}\n', b"{not json\n", b'{"ocr": []}\n']
    path = tmp_path / "with_bad_lines.jsonl"
    path.write_bytes(b"".join(lines[:5] + bad[:1] + lines[5:30] + bad[1:] + lines[30:]))
    return path


def test_validate_counts_undecodable_line_as_parse_error(corpus_with_bad_lines, capsys):
    code, out, _ = run_cli(capsys, "--json", "validate", "--in", corpus_with_bad_lines)
    assert code == 0
    assert json.loads(out)["counts"] == {"lines": 63, "parse_errors": 3, "valid": 60, "invalid": 0}


def test_build_pretrain_counts_undecodable_line_as_parse_error(corpus_with_bad_lines, tmp_path,
                                                                capsys):
    code, out, _ = run_cli(capsys, "--json", "build-pretrain", "--objective", "ocr",
                           "--in", corpus_with_bad_lines, "--out-dir", tmp_path / "out")
    assert code == 0
    counters = json.loads(out)["counters"]
    assert counters["lines"] == 63
    assert counters["parse_errors"] == 3
    assert counters["valid_records"] == 60


@pytest.mark.parametrize("fraction", ["5", "0", "-1"])
def test_subsample_rejects_fraction_outside_unit_interval(corpus, tmp_path, capsys, fraction):
    out_file = tmp_path / "sub.jsonl"
    code, _, err = run_cli(capsys, "subsample", "--in", corpus, "--out", out_file,
                           "--fraction", fraction)
    assert code == 1
    assert err.startswith("error: fraction must be in (0, 1]")
    assert not out_file.exists()


def test_subsample_bad_fraction_leaves_an_existing_output_untouched(corpus, tmp_path, capsys):
    out_file = tmp_path / "sub.jsonl"
    out_file.write_bytes(b"earlier sample\n")
    code, out, err = run_cli(capsys, "--json", "subsample", "--in", corpus, "--out", out_file,
                             "--fraction", 5)
    assert code == 1
    assert err.startswith("error: fraction must be in (0, 1]")
    assert out == ""
    assert out_file.read_bytes() == b"earlier sample\n"


@pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
def test_subsample_failing_after_its_sample_leaves_no_hidden_entry(corpus, tmp_path, capsys,
                                                                    duplicates):
    if duplicates:  # the duplicate rule drops a copy: the sample is rewritten first
        lines = corpus.read_bytes().splitlines(keepends=True)
        corpus.write_bytes(b"".join([*lines, lines[0].replace(b'"img000"', b'"img001"')]))
    out = tmp_path / "sub.jsonl"
    out.mkdir()  # the finished sample cannot be renamed onto a directory
    code, _, err = run_cli(capsys, "subsample", "--in", corpus, "--out", out, "--fraction", 1)
    assert code == 1
    assert err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "sub.jsonl"]
    assert list(out.iterdir()) == []


def test_subsample_removes_its_output_on_failure(tmp_path, capsys):
    out_file = tmp_path / "sub.jsonl"
    code, _, err = run_cli(capsys, "subsample", "--in", tmp_path / "missing.jsonl",
                           "--out", out_file, "--fraction", 0.5)
    assert code == 1
    assert err.startswith("error: ")
    assert not out_file.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
def test_build_rejects_overlap_threshold_outside_unit_interval(corpus, tmp_path, capsys,
                                                               threshold):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "build-pretrain", "--objective", "ocr",
                             "--overlap-threshold", threshold, "--in", corpus,
                             "--out-dir", out_dir)
    assert code == 1
    assert err.startswith("error: overlap threshold must be in [0, 1]")
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_build_rejects_thread_count_below_one(corpus, tmp_path, capsys, threads):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "build-pretrain", "--objective", "ocr",
                             "--threads", threads, "--in", corpus, "--out-dir", out_dir)
    assert code == 1
    assert err.startswith(f"error: threads must be >= 1, got {threads}")
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["build-pretrain", "--objective", "ocr"],
                                  ["build-finetune", "--task", "vqa"]],
                         ids=["build-pretrain", "build-finetune"])
@pytest.mark.parametrize("resolution", ["0", "-5"])
def test_build_rejects_resolution_below_one(corpus, tmp_path, capsys, argv, resolution):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--resolution", resolution, "--in", corpus,
                             "--out-dir", out_dir)
    assert code == 1
    assert err.startswith(f"error: resolution must be >= 1, got {resolution}")
    assert out == ""
    assert not out_dir.exists()


def test_build_records_a_positive_resolution(corpus, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "build-pretrain", "--objective", "ocr", "--resolution", "1",
                   "--in", corpus, "--out-dir", out_dir)[0] == 0
    assert json.loads((out_dir / "manifest.json").read_text())["config"]["resolution"] == 1


def test_subsample_skips_and_counts_bad_lines(corpus, corpus_with_bad_lines, tmp_path, capsys):
    out_file = tmp_path / "sub.jsonl"
    code, out, _ = run_cli(capsys, "--json", "subsample", "--in", corpus_with_bad_lines,
                           "--out", out_file, "--fraction", 1.0)
    assert code == 0
    payload = json.loads(out)
    assert (payload["total"], payload["kept"]) == (63, 60)
    assert payload["counters"]["parse_errors"] == 3
    assert out_file.read_bytes() == corpus.read_bytes()


def test_subsample_output_builds_the_same_shards(corpus_with_bad_lines, tmp_path, capsys):
    sub = tmp_path / "sub.jsonl"
    code, _, _ = run_cli(capsys, "subsample", "--in", corpus_with_bad_lines, "--out", sub,
                         "--fraction", 0.3, "--seed", 7)
    assert code == 0
    build = ["--json", "build-pretrain", "--stages", "splitocr,cap", "--shards", 3, "--seed", 7]
    _, from_sub, _ = run_cli(capsys, *build, "--in", sub, "--out-dir", tmp_path / "a")
    _, from_full, _ = run_cli(capsys, *build, "--fraction", 0.3, "--in", corpus_with_bad_lines,
                              "--out-dir", tmp_path / "b")

    def digests(out):
        return [[s["sha256"] for s in stage["shards"]] for stage in json.loads(out)["stages"]]

    assert json.loads(from_full)["counters"]["subsampled_records"] > 0
    assert digests(from_sub) == digests(from_full)


@pytest.mark.parametrize("argv,datasets,blocked", [
    (["build-pretrain", "--stages", "splitocr,cap"], ["stage0_splitocr", "stage1_cap"],
     "stage1_cap-00001-of-00002.jsonl"),
    (["build-finetune", "--task", "vqa"], ["finetune_vqa"], "finetune_vqa-00001-of-00002.jsonl"),
], ids=["build-pretrain", "build-finetune"])
def test_failed_build_removes_its_shards(corpus, tmp_path, capsys, monkeypatch, argv, datasets,
                                         blocked):
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)
    # the out-dir and its work directory as each dataset's shards start to
    # be written, and the files renamed into the out-dir
    listings, published = [], []
    write_shards, replace = pipeline._write_shards, os.replace

    def listing_write_shards(*args):
        listings.append(sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*")))
        return write_shards(*args)

    def recording_replace(source, target):
        replace(source, target)
        published.append(os.path.relpath(target, out_dir))

    monkeypatch.setattr(pipeline, "_write_shards", listing_write_shards)
    monkeypatch.setattr(os, "replace", recording_replace)
    code, _, err = run_cli(capsys, *argv, "--shards", 2, "--in", corpus, "--out-dir", out_dir)
    assert code == 1
    assert err.startswith("error: ")
    # every dataset's shards were written in the work directory, beside its
    # spill file, with nothing of the build's in the out-dir itself
    assert len(listings) == len(datasets)
    for dataset, listing in zip(datasets, listings):
        assert f".scenetext-build/{dataset}-spill" in listing
        assert [name for name in listing if not name.startswith(".scenetext-build")] == [blocked]
    # the rename onto the blocked path failed after the shards sorted
    # before it were renamed, and those were removed
    shards = sorted(f"{dataset}-{i:05d}-of-00002.jsonl" for dataset in datasets for i in range(2))
    assert published == shards[:shards.index(blocked)]
    assert [p.name for p in out_dir.iterdir()] == [blocked]


def test_build_clears_the_work_directory_a_killed_build_left(corpus, tmp_path, capsys):
    build = ["build-pretrain", "--objective", "ocr", "--in", corpus, "--out-dir"]
    assert run_cli(capsys, *build, tmp_path / "clean")[0] == 0
    out_dir = tmp_path / "out"
    (out_dir / ".scenetext-build").mkdir(parents=True)
    (out_dir / ".scenetext-build" / "stage0_ocr-spill").write_bytes(b"a killed build's\n")
    assert run_cli(capsys, *build, out_dir)[0] == 0
    # the manifest names its out-dir, so only the shards compare whole
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json",
                                                        "stage0_ocr-00000-of-00001.jsonl"]
    shard = "stage0_ocr-00000-of-00001.jsonl"
    assert (out_dir / shard).read_bytes() == (tmp_path / "clean" / shard).read_bytes()


@pytest.mark.parametrize("compress", [[], ["--compress"]], ids=["plain", "compress"])
@pytest.mark.parametrize("threads", [1, 2])
def test_rebuild_failing_before_publishing_leaves_the_earlier_build(corpus, tmp_path, capsys,
                                                                   monkeypatch, threads,
                                                                   compress):
    monkeypatch.setattr(workers, "available_cpus", lambda: 2)
    out_dir = tmp_path / "out"
    build = ["build-pretrain", "--stages", "ocr,cap", "--shards", 2, "--threads", threads,
             *compress, "--in", corpus, "--out-dir", out_dir]
    assert run_cli(capsys, *build)[0] == 0
    earlier = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(earlier) == 5
    calls = []
    write_shards = pipeline._write_shards

    def second_call_fails(*args):
        calls.append(None)
        if len(calls) == 2:
            raise OSError("no space left for the second dataset's shards")
        return write_shards(*args)

    monkeypatch.setattr(pipeline, "_write_shards", second_call_fails)
    code, _, err = run_cli(capsys, *build, "--seed", 3)
    assert code == 1
    assert err.startswith("error: no space left")
    assert not [p.name for p in out_dir.iterdir() if p.name.startswith(".")]
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == earlier


@pytest.mark.parametrize("compress", [[], ["--compress"]], ids=["plain", "compress"])
@pytest.mark.parametrize("argv,blocked", [
    (["build-pretrain", "--stages", "splitocr,cap"], "stage1_cap-00002-of-00003.jsonl"),
    (["build-finetune", "--task", "vqa"], "finetune_vqa-00002-of-00003.jsonl"),
], ids=["build-pretrain", "build-finetune"])
def test_rebuild_leaves_only_the_shards_its_manifest_lists(corpus, tmp_path, capsys, argv,
                                                           blocked, compress):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # not the datasets of this build: kept, but for another stage plan's
    # shards, which only a pre-training build's manifest.json could list
    other_stage = "stage2_ocr-00000-of-00004.jsonl"
    others = ["finetune_caption-00000-of-00001.jsonl.gz", "notes.txt"]
    (out_dir / other_stage).write_text("an earlier stage plan's")
    if argv[0] == "build-finetune":
        others.append(other_stage)
    for name in others:
        (out_dir / name).write_text("not this build's")
    build = [*argv, "--in", corpus, "--out-dir", out_dir]
    assert run_cli(capsys, *build, "--shards", 4)[0] == 0
    code, out, _ = run_cli(capsys, "--json", *build, "--shards", 2, *compress)
    assert code == 0
    manifest = json.loads(out)
    listed = [shard["file"] for dataset in manifest.get("stages", [manifest])
              for shard in dataset["shards"]]
    assert len(listed) == len(manifest.get("stages", [manifest])) * 2
    built = sorted(p.name for p in out_dir.iterdir())
    assert [name for name in built if "-of-" in name and name not in others] == sorted(listed)
    assert set(others) <= set(built)
    assert (other_stage in built) == (argv[0] == "build-finetune")
    # a failed rebuild removes none of them
    blocked += ".gz" if compress else ""
    (out_dir / blocked).mkdir()
    assert run_cli(capsys, *build, "--shards", 3, *compress)[0] == 1
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*built, blocked])


def test_pretrain_rebuild_with_other_stages_removes_the_earlier_stage_shards(corpus, tmp_path,
                                                                            capsys):
    out_dir = tmp_path / "out"
    build = ["build-pretrain", "--shards", 2, "--in", corpus, "--out-dir", out_dir]
    assert run_cli(capsys, *build, "--stages", "ocr,cap", "--compress")[0] == 0
    assert run_cli(capsys, "build-finetune", "--task", "vqa", "--in", corpus,
                   "--out-dir", out_dir)[0] == 0
    finetune = sorted(p.name for p in out_dir.iterdir() if p.name.startswith("finetune_"))
    assert finetune == ["finetune_vqa-00000-of-00001.jsonl", "finetune_vqa_manifest.json"]
    code, out, _ = run_cli(capsys, "--json", *build, "--stages", "splitocr")
    assert code == 0
    assert [s["objective"] for s in json.loads(out)["stages"]] == ["SPLITOCR"]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        *finetune, "manifest.json", "stage0_splitocr-00000-of-00002.jsonl",
        "stage0_splitocr-00001-of-00002.jsonl"]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("argv,output", [
    (["build-pretrain", "--objective", "splitocr", "--out-dir"], "out"),
    (["build-finetune", "--task", "vqa", "--out-dir"], "out"),
    (["subsample", "--fraction", "0.5", "--out"], "sub.jsonl"),
    (["stats", "--fraction", "0.5"], None),
], ids=["build-pretrain", "build-finetune", "subsample", "stats"])
def test_seed_outside_64_bits_is_a_usage_error(corpus, tmp_path, capsys, argv, output, seed):
    if output is not None:
        argv = [*argv, str(tmp_path / output)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed, "--in", str(corpus)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --seed" in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


@pytest.mark.parametrize("damage", ["truncated", "corrupted"])
@pytest.mark.parametrize("argv,output", [
    (["validate"], None),
    (["stats"], None),
    (["subsample", "--fraction", "0.5", "--out"], "sub.jsonl"),
    (["build-pretrain", "--stages", "ocr,cap", "--threads", "1", "--out-dir"], "out"),
    (["build-pretrain", "--stages", "ocr,cap", "--threads", "2", "--out-dir"], "out"),
    (["build-finetune", "--task", "vqa", "--threads", "2", "--out-dir"], "out"),
], ids=["validate", "stats", "subsample", "build-pretrain-1", "build-pretrain-2",
        "build-finetune-2"])
def test_damaged_gzip_input_exits_1_naming_the_file(tmp_path, rng, capsys, monkeypatch, argv,
                                                    output, damage):
    monkeypatch.setattr(workers, "available_cpus", lambda: 2)
    records = [random_layout_record(rng, image_id=f"img{i:03d}", with_caption=True)
               for i in range(300)]
    records = [r._replace(qa=(QaAnnotation("q", ("a",) * 10),)) if i % 3 == 0 else r
               for i, r in enumerate(records)]
    path = tmp_path / "corpus.jsonl.gz"
    write_damaged_gzip(path, "".join(serialize_record(r) + "\n" for r in records).encode("utf-8"),
                       damage)
    if output == "out":
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "keep.txt").write_text("not the build's")
    out_arg = [tmp_path / output] if output else []
    code, out, err = run_cli(capsys, "--json", *argv, *out_arg, "--in", path)
    assert code == 1
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err
    assert out == ""
    if output == "out":
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["keep.txt"]
        assert (tmp_path / "out" / "keep.txt").read_text() == "not the build's"
    elif output:
        assert not (tmp_path / output).exists()


@pytest.mark.parametrize("damage", ["truncated", "corrupted"])
def test_failed_subsample_keeps_an_existing_output(tmp_path, rng, capsys, damage):
    records = [random_layout_record(rng, image_id=f"img{i:03d}") for i in range(300)]
    data = "".join(serialize_record(r) + "\n" for r in records).encode("utf-8")
    good = tmp_path / "corpus.jsonl"
    good.write_bytes(data)
    bad = tmp_path / "damaged.jsonl.gz"
    write_damaged_gzip(bad, data, damage)
    out_file = tmp_path / "sub.jsonl"
    out_file.write_bytes(b"earlier sample\n")
    code, out, err = run_cli(capsys, "subsample", "--in", bad, "--out", out_file,
                             "--fraction", 0.5)
    assert code == 1
    assert err.startswith(f"error: {bad}: ")
    assert out_file.read_bytes() == b"earlier sample\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "damaged.jsonl.gz",
                                                         "sub.jsonl"]
    # a run that succeeds replaces it
    assert run_cli(capsys, "subsample", "--in", good, "--out", out_file, "--fraction", 1)[0] == 0
    assert out_file.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "damaged.jsonl.gz",
                                                         "sub.jsonl"]


BUILD_MODULES = {f"scenetext.{name}" for name in
                 ("pipeline", "pretrain", "finetune", "records", "ordering", "hashing", "textformat")}
METRIC_MODULES = {"scenetext.metrics", "scenetext.kernels"}
# `dataclasses` loads `inspect`, `ast`, `dis`, `tokenize` and more: ~1 MB of peak RSS
INTROSPECTION = {"dataclasses", "inspect"}


def run_fresh(code: str, *argv):
    """The JSON that `code` prints, run with `argv` in a fresh interpreter
    that imports this scenetext package."""
    src = os.path.dirname(os.path.dirname(scenetext.__file__))
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def modules_after_main(*argv, setup=""):
    """Exit code of `main(argv)` (or of its SystemExit, as `--help` raises)
    in a fresh interpreter that first runs `setup`, and the modules that
    interpreter then holds."""
    exit_code, modules = run_fresh(
        "import contextlib, io, json, sys\n"
        f"{setup}\n"
        "from scenetext.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        code = main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n", *argv)
    return exit_code, set(modules)


# The CPU cap lifted, and a fork marked by a name in sys.modules, which
# `modules_after_main` reports.
FORKING = """
import os, sys
from scenetext import workers
workers.available_cpus = lambda: 2
fork = os.fork
os.fork = lambda: sys.modules.setdefault("<forked>", sys) and fork()
"""


@pytest.mark.parametrize("task,gold_key", [("vqa_anls", "answers"), ("caption", "references")])
@pytest.mark.parametrize("count", [2, 2 * workers.CHUNK_ITEMS + 1], ids=["here", "forked"])
def test_evaluate_loads_no_build_module(tmp_path, task, gold_key, count):
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text("".join(json.dumps({"example_id": f"e{i}", gold_key: ["a red sign"]}) + "\n"
                            for i in range(count)))
    pred.write_text("".join(json.dumps({"example_id": f"e{i}", "prediction": "a sign"}) + "\n"
                            for i in range(count)))
    code, modules = modules_after_main("--json", "evaluate", "--task", task,
                                       "--pred", pred, "--gold", gold, setup=FORKING)
    assert code == 0
    assert "scenetext.metrics" in modules
    assert ("<forked>" in modules) == (count > workers.CHUNK_ITEMS)
    assert not modules & BUILD_MODULES
    assert not modules & {"hashlib", "_hashlib", "concurrent.futures", "multiprocessing",
                          "fractions", "decimal", *INTROSPECTION}


@pytest.mark.parametrize("argv", [["build-pretrain", "--stages", "ocr,cap", "--out-dir"],
                                  ["validate"]], ids=["build-pretrain", "validate"])
def test_builds_load_no_metric_module(corpus, tmp_path, argv):
    out_arg = [tmp_path / "out"] if "--out-dir" in argv else []
    code, modules = modules_after_main(*argv, *out_arg, "--in", corpus)
    assert code == 0
    assert "scenetext.pipeline" in modules
    assert not modules & METRIC_MODULES
    assert not modules & INTROSPECTION


@pytest.mark.parametrize("threads", ["1", "2"])
def test_builds_load_no_openssl_and_no_process_pool(corpus, tmp_path, threads):
    # the CPU cap lifted, so --threads 2 forks its workers on any machine
    code, modules = modules_after_main(
        "build-pretrain", "--stages", "ocr,cap", "--threads", threads, "--out-dir",
        tmp_path / "out", "--in", corpus,
        setup="from scenetext import workers; workers.available_cpus = lambda: 2")
    assert code == 0
    assert len(list((tmp_path / "out").iterdir())) == 3
    assert not modules & {"hashlib", "_hashlib", "concurrent.futures", "multiprocessing",
                          *INTROSPECTION}


@pytest.mark.parametrize("command", ["stats", "subsample", "build-finetune", "evaluate-vqa",
                                     "--help"])
def test_no_command_loads_dataclasses_or_inspect(corpus, tmp_path, command):
    # validate, build-pretrain and evaluate vqa_anls and caption: the tests above
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"example_id": "e0", "answers": ["stop"] * 10}) + "\n")
    pred.write_text(json.dumps({"example_id": "e0", "prediction": "stop"}) + "\n")
    argv = {
        "stats": ["stats", "--in", corpus],
        "subsample": ["subsample", "--fraction", "0.5", "--in", corpus,
                      "--out", tmp_path / "sample.jsonl"],
        "build-finetune": ["build-finetune", "--task", "vqa", "--in", corpus,
                           "--out-dir", tmp_path / "out"],
        "evaluate-vqa": ["evaluate", "--task", "vqa", "--pred", pred, "--gold", gold],
        "--help": ["--help"],
    }[command]
    code, modules = modules_after_main(*argv)
    assert code == 0
    assert not modules & INTROSPECTION


def test_benchmark_setup_import_loads_no_dataclasses_or_inspect():
    modules = run_fresh("import json, sys, scenetext.cli, scenetext.metrics\n"
                        "scenetext.cli.build_parser()\n"
                        "print(json.dumps(sorted(sys.modules)))\n")
    assert "scenetext.metrics" in modules
    assert not set(modules) & INTROSPECTION


def test_package_reexports_load_on_first_access():
    names = ("OcrToken", "QaAnnotation", "Record", "parse_record", "order_tokens", "Objective",
             "build_stage_plan", "Task")
    assert run_fresh("import json, sys, scenetext\n"
                     "loaded = sorted(m for m in sys.modules if m.startswith('scenetext.'))\n"
                     f"from scenetext import {', '.join(names)}\n"
                     "print(json.dumps(loaded))\n") == []
    from scenetext import finetune, ordering, pretrain, records
    owners = {"OcrToken": records, "QaAnnotation": records, "Record": records,
              "parse_record": records, "order_tokens": ordering, "Objective": pretrain,
              "build_stage_plan": pretrain, "Task": finetune}
    assert set(owners) == set(names)
    for name, owner in owners.items():
        assert getattr(scenetext, name) is getattr(owner, name)
    with pytest.raises(AttributeError):
        scenetext.not_a_name


def test_main_calls_the_functions_bound_on_the_cli_module(corpus, tmp_path, capsys, monkeypatch):
    """A tracer wraps `scenetext.cli.run` and friends by setting attributes
    on the module; `main` must call whatever is bound there."""
    calls = []

    def wrap(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    for name in ("run", "run_finetune", "read_predictions", "read_golds", "evaluate"):
        wrap(name)
    assert run_cli(capsys, "build-pretrain", "--objective", "ocr", "--in", corpus,
                   "--out-dir", tmp_path / "pre")[0] == 0
    assert run_cli(capsys, "build-finetune", "--task", "vqa", "--in", corpus,
                   "--out-dir", tmp_path / "fine")[0] == 0
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"example_id": "e0", "answers": ["stop"] * 10}) + "\n")
    pred.write_text(json.dumps({"example_id": "e0", "prediction": "stop"}) + "\n")
    assert run_cli(capsys, "evaluate", "--task", "vqa", "--pred", pred, "--gold", gold)[0] == 0
    assert calls == ["run", "run_finetune", "read_predictions", "read_golds", "evaluate"]
    with pytest.raises(AttributeError):
        cli.not_a_name
