import json

import pytest

from scenetext.cli import main
from scenetext.records import serialize_record

from conftest import random_layout_record
from scenetext.records import QaAnnotation
import dataclasses


@pytest.fixture
def corpus(tmp_path, rng):
    records = []
    for i in range(60):
        r = random_layout_record(rng, image_id=f"img{i:03d}", with_caption=True)
        if i % 3 == 0:
            r = dataclasses.replace(
                r, qa=(QaAnnotation(f"question {i}", tuple(["ans"] * 10)),)
            )
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


@pytest.mark.parametrize("argv,blocked", [
    (["build-pretrain", "--stages", "splitocr,cap"], "stage1_cap-00001-of-00002.jsonl"),
    (["build-finetune", "--task", "vqa"], "finetune_vqa-00001-of-00002.jsonl"),
], ids=["build-pretrain", "build-finetune"])
def test_failed_build_removes_its_shards(corpus, tmp_path, capsys, argv, blocked):
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)
    code, _, err = run_cli(capsys, *argv, "--shards", 2, "--in", corpus, "--out-dir", out_dir)
    assert code == 1
    assert err.startswith("error: ")
    assert [p.name for p in out_dir.iterdir()] == [blocked]


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
