"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import gzip
import hashlib
import json
import random
import string
import time

import pytest
from scipy.stats import chisquare

from scenetext.finetune import Task, build_caption_examples, build_vqa_examples, layout
from scenetext.hashing import hash64, keep_fraction
from scenetext.kernels import levenshtein
from scenetext.metrics import (
    CaptionItem,
    VqaItem,
    anls,
    bleu4,
    cider,
    normalize_answer,
    vqa_accuracy,
)
from scenetext.ordering import order_tokens
from scenetext.pipeline import PipelineConfig, run
from scenetext.pretrain import Objective, build_example, fragments, layouts, sample_split_point
from scenetext.records import QaAnnotation, serialize_record
from scenetext.textformat import DEFAULT_FORMAT, render_input

from conftest import make_record, make_token, ordered_texts, random_layout_record
from oracles import levenshtein_memo, oracle_bleu4, oracle_cider_d, vqa_accuracy_leave_one_out
from test_metrics_captioning import toy_corpus


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_vqa_accuracy_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(17)
    fillers = [f"w{i}" for i in range(1000)]
    for m in range(11):
        for _ in range(1000):
            pred = rng.choice(["yes", "Stop Sign", "two"])
            norm = normalize_answer(pred)
            answers = [pred.upper() if rng.random() < 0.5 else pred] * m
            while len(answers) < 10:
                filler = rng.choice(fillers)
                if normalize_answer(filler) != norm:
                    answers.append(filler)
            rng.shuffle(answers)
            item = VqaItem(pred, tuple(answers))
            expected = vqa_accuracy_leave_one_out(
                norm, [normalize_answer(a) for a in answers]
            )
            assert vqa_accuracy(item) == expected
    spot = (
        vqa_accuracy(VqaItem("x", tuple(["x"] * 3 + [f"y{i}" for i in range(7)]))) == 0.9
        and vqa_accuracy(VqaItem("x", tuple(["x"] * 4 + [f"y{i}" for i in range(6)]))) == 1.0
        and vqa_accuracy(VqaItem("x", tuple(f"y{i}" for i in range(10)))) == 0.0
    )
    elapsed = time.monotonic() - start
    report("VQA-accuracy oracle equivalence", spot and elapsed < 5.0,
           f"11,000 randomized sets, {elapsed:.2f}s")


def test_criterion_levenshtein_anls_oracle():
    start = time.monotonic()
    rng = random.Random(23)
    alphabet = string.ascii_lowercase + "0123456789 "
    for _ in range(10_000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        assert levenshtein(a, b) == levenshtein_memo(a, b)
    spot = anls("hello", ["hallo"]) == pytest.approx(0.8) and anls("ab", ["xy"]) == 0.0
    elapsed = time.monotonic() - start
    report("Levenshtein/ANLS oracle", spot and elapsed < 10.0,
           f"10,000 pairs, {elapsed:.2f}s")


def test_criterion_cider_bleu_oracle():
    items = toy_corpus(50)
    cands = [i.candidate for i in items]
    refs = [list(i.references) for i in items]

    _, per_item = cider(items)
    expected = oracle_cider_d(cands, refs)
    cider_ok = all(abs(a - b) < 1e-4 for a, b in zip(per_item, expected))

    bleu_ok = abs(bleu4(items) - oracle_bleu4(cands, refs)) < 1e-4

    # exact-match candidate with non-universal n-grams scores 10.0 per item
    exact_items = [
        CaptionItem("a red stop sign by the road", ("a red stop sign by the road",)),
        CaptionItem("two dogs play", ("dogs run in a park",)),
        CaptionItem("people wait for a train", ("a crowded station at dawn",)),
    ]
    _, exact_scores = cider(exact_items)
    exact_ok = abs(exact_scores[0] - 10.0) < 1e-6

    report("CIDEr/BLEU oracle", cider_ok and bleu_ok and exact_ok,
           "50-item corpus within 1e-4; exact match 10.0 +/- 1e-6")


def test_criterion_splitocr_contract_suite(tmp_path):
    rng = random.Random(31)
    seed = 71

    # (a) input ++ target reconstructs the full ordered OCR on 10,000 records
    [split_layout] = layouts(Objective.SPLITOCR, DEFAULT_FORMAT)
    for i in range(10_000):
        record = random_layout_record(rng, image_id=f"rec{i}")
        texts = ordered_texts(record)
        _, line = build_example(record, fragments(record.image_id, texts), seed, split_layout)
        ex = json.loads(line)
        full = " ".join(texts)
        assert " ".join(ex["input_ocr"] + [ex["target"]]) == full
        assert ex["target"]

    # (b) split-point uniformity for n=4, 100,000 draws
    draw_rng = random.Random(41)
    counts = [0, 0, 0, 0]
    for _ in range(100_000):
        counts[sample_split_point(4, draw_rng)] += 1
    p = chisquare(counts).pvalue
    uniform_ok = p > 0.01 and all(abs(c / 100_000 - 0.25) < 0.015 for c in counts)

    # (c) identical shards from (seed, image_id) whatever the record order
    lines = [serialize_record(random_layout_record(rng, image_id=f"ord{i}")) + "\n"
             for i in range(2000)]

    def shard_digests(name, ordered_lines):
        corpus = tmp_path / f"{name}.jsonl"
        corpus.write_text("".join(ordered_lines), encoding="utf-8")
        manifest = run(PipelineConfig(inputs=(str(corpus),), out_dir=str(tmp_path / name),
                                      seed=seed, shard_count=4))
        return [shard["sha256"] for shard in manifest["stages"][0]["shards"]]

    order_ok = shard_digests("forward", lines) == shard_digests("backward", lines[::-1])

    report("SplitOCR contract suite", uniform_ok and order_ok,
           f"chi-square p={p:.3f}; forward == reversed record order")


def test_criterion_ordering_suite():
    rng = random.Random(37)
    for i in range(10_000):
        record = random_layout_record(rng, image_id=f"lay{i}", max_tokens=8)
        tokens = list(record.ocr)
        base = order_tokens(tokens)

        shuffled = tokens[:]
        rng.shuffle(shuffled)
        assert order_tokens(shuffled) == base  # permutation invariance
        assert order_tokens(base) == base  # idempotence

        # raster variant of the same layout: disjoint vertical intervals
        y = 0.0
        raster = []
        for t in tokens:
            raster.append(make_token(t.text, x=t.x, y=y, w=t.w, h=t.h))
            y += t.h + 1.0
        shuffled_raster = raster[:]
        rng.shuffle(shuffled_raster)
        expected = sorted(raster, key=lambda t: (t.y, t.x))
        assert list(order_tokens(shuffled_raster)) == expected

    report("Ordering suite", True, "10,000 layouts")


def test_criterion_subsample_bookkeeping():
    import math

    start = time.monotonic()
    n = 13_000_000
    seed = 3
    fractions = (0.01, 0.03, 0.10, 0.30)
    thresholds = [f * 2.0**64 for f in fractions]
    counts = [0, 0, 0, 0]
    nested_ok = True
    for i in range(n):
        h = hash64(seed, f"img{i:08d}")
        kept_prev = None
        for j, t in enumerate(thresholds):
            kept = h < t
            if kept:
                counts[j] += 1
            # thresholds ascend, so a keep at a smaller fraction must imply
            # a keep at every larger one
            if kept_prev and not kept:
                nested_ok = False
            kept_prev = kept
    elapsed = time.monotonic() - start

    # spot-check that the loop's predicate is keep_fraction itself
    sample_rng = random.Random(0)
    for _ in range(10_000):
        i = sample_rng.randrange(n)
        f = sample_rng.choice(fractions)
        assert keep_fraction(seed, f"img{i:08d}", f) == \
            (hash64(seed, f"img{i:08d}") < f * 2.0**64)

    within = []
    for f, c in zip(fractions, counts):
        sigma = math.sqrt(n * f * (1 - f))
        within.append(abs(c - n * f) <= 3 * sigma)
    report(
        "Subsample bookkeeping reproduction",
        all(within) and nested_ok and elapsed < 120.0,
        f"counts={counts} for 130K/390K/1.3M/3.9M targets, {elapsed:.1f}s",
    )


def test_criterion_input_format_congruence():
    rng = random.Random(43)
    ocr_marker = "XQZ"
    [cap_layout] = layouts(Objective.CAP, DEFAULT_FORMAT)
    caption_layout, vqa_layout = layout(Task.CAPTION, DEFAULT_FORMAT), layout(Task.VQA, DEFAULT_FORMAT)
    congruent = True
    clean = True
    for i in range(1000):
        tokens = [
            make_token(f"{ocr_marker}{i}T{j}", x=10.0 * j, y=5, w=8, h=8)
            for j in range(rng.randint(1, 6))
        ]
        record = make_record(
            image_id=f"cong{i}",
            ocr=tokens,
            caption=f"view number {i} of the scene",
            qa=(QaAnnotation(f"what is item {i}", tuple(["thing"] * 10)),),
        )
        texts = ordered_texts(record)
        frags = fragments(record.image_id, texts)
        cap_pretrain = json.loads(build_example(record, frags, 1, cap_layout)[1])
        ((_, cap_finetune),) = build_caption_examples(record, frags, caption_layout)
        rendered = render_input(cap_pretrain["prompt"], DEFAULT_FORMAT,
                                caption_prefix=cap_pretrain["input_caption_prefix"] or None,
                                ocr_text=" ".join(cap_pretrain["input_ocr"]))
        congruent &= rendered == json.loads(cap_finetune)["input_text"]

        no_ocr = fragments(record.image_id, None)
        for builder, task_layout in ((build_caption_examples, caption_layout),
                                     (build_vqa_examples, vqa_layout)):
            for _, line in builder(record, no_ocr, task_layout):
                clean &= all(t.text not in json.loads(line)["input_text"] for t in tokens)
    report("Input-format congruence", congruent and clean,
           "CAP == CAPTION input; no OCR text under --no-ocr-input")


def _snapshot(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def test_criterion_end_to_end_determinism(tmp_path):
    rng = random.Random(47)
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(500):
            fh.write(serialize_record(
                random_layout_record(rng, image_id=f"e2e{i}", with_caption=True)
            ) + "\n")

    out = tmp_path / "out"
    config = PipelineConfig(
        inputs=(str(corpus),), out_dir=str(out),
        stages=(Objective.SPLITOCR, Objective.CAP),
        seed=99, fraction=0.8, shard_count=4, compress=True,
    )
    run(config)
    first = _snapshot(out)
    run(config._replace())
    second = _snapshot(out)
    report("End-to-end determinism", first == second and len(first) > 1,
           f"{len(first)} output files byte-identical")
