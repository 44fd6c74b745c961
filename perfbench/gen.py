"""Seeded generator for the benchmark's corpora, eval fixtures and probes.

Every size-determining quantity (OCR token counts, caption lengths, answer
lengths, QA counts, bad-line kinds) is drawn from a fixed multiset that the
seed only permutes, so two seeds give different content but the same amount
of work. That keeps run-to-run spread down to the machine's own noise.

Each writer returns the generator's known truth: the counters a correct
build must report for the file it wrote.
"""

import hashlib
import json
import math
import os
import random

# Lowercase-stable words (str.lower() is the identity on them), so the ANLS
# and VQA normalisations leave generated answers unchanged.
_WORDS = (
    "open closed exit push pull stop cafe bar pizza menu coffee tea fresh daily "
    "special market street avenue road hotel bank pharmacy bakery sale price "
    "total tax cash card thank you welcome parking only entrance floor room "
    "north south east west red blue green yellow black white large small "
    "café straße ñandú crème brûlée façade smørrebrød zürich малина кофе "
    "東京 大阪 ラーメン 서울 커피 αθήνα καφές"
).split()
_NUMBERS = ["12", "3.50", "$4.99", "2024", "24/7", "no.5", "15%", "100g", "7-11", "#42"]
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789éüñøçжк東"
_FORBIDDEN = {"a", "an", "the", "zero", "one", "two", "three", "four", "five",
              "six", "seven", "eight", "nine", "ten"}

BAD_KINDS = ("truncated_json", "missing_image_id", "zero_width_bbox",
             "confidence_gt_1", "bbox_outside_image")
PARSE_ERROR_KINDS = {"truncated_json", "missing_image_id", "zero_width_bbox"}


def hash_keep(seed: int, item_id: str, fraction: float) -> bool:
    """The README's subsample rule, restated: keep iff the seed-keyed 64-bit
    blake2b of the id, as a fraction of 2**64, is below `fraction`."""
    h = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little"))
    h.update(item_id.encode("utf-8") + b"\x1f")
    return int.from_bytes(h.digest(), "little") / float(2**64) < fraction


def _quantiles(n: int, fn) -> list:
    """fn evaluated at the n mid-quantiles (i + 0.5) / n: a fixed multiset."""
    return [fn((i + 0.5) / n) for i in range(n)]


def _token_text(rng: random.Random) -> str:
    return rng.choice(_NUMBERS) if rng.random() < 0.15 else rng.choice(_WORDS)


def _scene_tokens(rng, n, width, height):
    """n tokens in a few loose, jittered lines, as in street scenes."""
    rows = max(1, round(n / 4))
    row_h = max(12, height // (rows + 2))
    tokens = []
    for i in range(n):
        row = i % rows
        h = rng.randint(8, max(9, row_h - 2))
        y = min(height - h, row * row_h + rng.randint(0, 6))
        w = rng.randint(10, 90)
        x = rng.randint(0, width - w)
        tokens.append((x, y, w, h))
    return tokens


def _dense_tokens(rng, n, width, height):
    """n tokens laid out in rows of a menu or document page."""
    cols = rng.randint(6, 10)
    rows = math.ceil(n / cols)
    row_h = max(6, (height - 20) // rows)
    col_w = (width - 20) // cols
    tokens = []
    for i in range(n):
        r, c = divmod(i, cols)
        h = max(4, row_h - rng.randint(1, 3))
        y = 10 + r * row_h + rng.randint(0, 1)
        w = rng.randint(max(4, col_w // 3), col_w - 2)
        x = 10 + c * col_w + rng.randint(0, 2)
        tokens.append((x, y, w, h))
    return tokens


def _record(rng, image_id, n_tokens, caption_words, n_qa):
    width, height = rng.choice(((640, 480), (1024, 768), (800, 1200)))
    layout = _dense_tokens if n_tokens >= 100 else _scene_tokens
    ocr = [
        {"text": _token_text(rng), "bbox": [x, y, w, h],
         "confidence": round(rng.uniform(0.3, 1.0), 3)}
        for x, y, w, h in layout(rng, n_tokens, width, height)
    ]
    rec = {"image_id": image_id, "image_uri": f"images/{image_id}.jpg",
           "image_size": [width, height], "ocr": ocr}
    if caption_words is not None:
        rec["caption"] = " ".join(rng.choice(_WORDS) for _ in range(caption_words))
    if n_qa:
        rec["qa"] = []
        for q in range(n_qa):
            main = rng.choice(ocr)["text"] if ocr else rng.choice(_WORDS)
            answers = [main] * rng.randint(3, 10)
            answers += [rng.choice(_WORDS) for _ in range(10 - len(answers))]
            rec["qa"].append({"question": f"what is written on sign {q}?",
                              "answers": answers})
    return rec


def _bad_line(rng, kind, image_id):
    rec = _record(rng, image_id, rng.randint(1, 6), 5, 0)
    tok = rec["ocr"][0]
    if kind == "missing_image_id":
        del rec["image_id"]
    elif kind == "zero_width_bbox":
        tok["bbox"][2] = 0
    elif kind == "confidence_gt_1":
        tok["confidence"] = 1.5
    elif kind == "bbox_outside_image":
        tok["bbox"][0] = rec["image_size"][0] - 2
    line = json.dumps(rec, ensure_ascii=False)
    if kind == "truncated_json":
        # any proper prefix of an object lacks its closing brace
        line = line[: rng.randint(10, len(line) - 1)]
    return line


def write_corpus(path: str, seed: int, n_lines: int) -> dict:
    """A JSONL corpus of n_lines lines, 1% of them bad, and its truth.

    OCR token counts: 20% empty, a scene body with a mean near 9, and a 3%
    tail of dense records with 100-220 tokens; about 12 tokens per record.
    """
    rng = random.Random(seed)
    n_bad = n_lines // 100
    n_good = n_lines - n_bad
    n_empty = n_good // 5
    n_dense = n_good * 3 // 100
    counts = ([0] * n_empty
              + _quantiles(n_dense, lambda q: 100 + int(120 * q))
              + _quantiles(n_good - n_empty - n_dense,
                           lambda q: 1 + min(40, int(-8.5 * math.log(1 - q)))))
    # caption: 10% none, 2% whitespace-only (CAP eligible, SPLITCAP not)
    captions = _quantiles(n_good, lambda q: None if q < 0.10 else
                          (0 if q < 0.12 else 4 + int(14 * (q - 0.12) / 0.88)))
    qa_counts = _quantiles(n_good, lambda q: 0 if q < 0.3 else 1 + int(3 * (q - 0.3) / 0.7))
    kinds = [BAD_KINDS[i % len(BAD_KINDS)] for i in range(n_bad)]
    for column in (counts, captions, qa_counts, kinds):
        rng.shuffle(column)
    bad_at = set(rng.sample(range(n_lines), n_bad))

    truth = {"lines": n_lines, "bad": {k: 0 for k in BAD_KINDS}, "records": []}
    good = iter(zip(counts, captions, qa_counts))
    kinds_iter = iter(kinds)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_lines):
            image_id = f"{rng.getrandbits(40):010x}-{i}"
            if i in bad_at:
                kind = next(kinds_iter)
                truth["bad"][kind] += 1
                fh.write(_bad_line(rng, kind, image_id) + "\n")
                continue
            n_tok, cap_words, n_qa = next(good)
            rec = _record(rng, image_id, n_tok, cap_words, n_qa)
            if cap_words == 0:
                rec["caption"] = " "
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            caption = rec.get("caption")
            truth["records"].append((image_id, n_tok, bool(caption),
                                     bool(caption and caption.split()), n_qa))
    return truth


def expected_counters(truth: dict, fraction: float, build_seed: int) -> dict:
    """Manifest counters a correct build reports for a write_corpus file."""
    kept = [r for r in truth["records"] if hash_keep(build_seed, r[0], fraction)]
    bad = truth["bad"]
    return {
        "lines": truth["lines"],
        "parse_errors": sum(bad[k] for k in PARSE_ERROR_KINDS),
        "validation_skips": sum(n for k, n in bad.items() if k not in PARSE_ERROR_KINDS),
        "subsampled_records": len(kept),
        "eligible": {
            "OCR": sum(1 for r in kept if r[1] > 0),
            "SPLITOCR": sum(1 for r in kept if r[1] > 0),
            "CAP": sum(1 for r in kept if r[2]),
            "SPLITCAP": sum(1 for r in kept if r[3]),
        },
        "vqa_examples": sum(r[4] for r in kept),
    }


def _normal_form(text: str) -> bool:
    """True when both the VQA and the ANLS normalisations leave text as is."""
    words = text.split(" ")
    return (text == text.lower().strip() and all(words)
            and not _FORBIDDEN.intersection(words)
            and not any(ch in ".,!?\"'" for ch in text))


def _phrase(rng, n_chars):
    words = []
    while len(" ".join(words)) < n_chars:
        words.append(rng.choice(_WORDS))
    return " ".join(words)


def _perturb(rng, text, n_edits):
    chars = list(text)
    for _ in range(n_edits):
        op = rng.random()
        i = rng.randrange(len(chars))
        if op < 0.5:
            chars[i] = rng.choice(_ALPHABET)
        elif op < 0.75 and len(chars) > 1:
            del chars[i]
        else:
            chars.insert(i, rng.choice(_ALPHABET))
    return "".join(chars)


def _normal_perturb(rng, text, n_edits):
    while True:
        out = _perturb(rng, text, n_edits)
        if _normal_form(out):
            return out


def write_vqa_fixture(pred_path, gold_path, seed, n_items, answers_per_item=10):
    """VQA predictions and golds; answer lengths run from 2 to ~120 chars.

    Every string is in normal form, so the oracles apply to it directly.
    answers_per_item=None draws 1-2 answers per item (ST-VQA style).
    """
    rng = random.Random(seed)
    lengths = _quantiles(n_items, lambda q: 2 + int(12 * q) if q < 0.8 else 14 + int(530 * (q - 0.8)))
    agreement = _quantiles(n_items, lambda q: int(11 * q))
    rng.shuffle(lengths)
    rng.shuffle(agreement)
    items = []
    with open(pred_path, "w", encoding="utf-8") as pf, open(gold_path, "w", encoding="utf-8") as gf:
        for i in range(n_items):
            ex_id = f"q{i:06d}"
            canon = _phrase(rng, lengths[i])
            k = answers_per_item or rng.randint(1, 2)
            m = min(agreement[i], k)
            answers = [canon] * m + [_normal_perturb(rng, canon, rng.randint(1, 4))
                                     for _ in range(k - m)]
            rng.shuffle(answers)
            roll = rng.random()
            if roll < 0.35:
                pred = canon
            elif roll < 0.85:
                pred = _normal_perturb(rng, canon, 1 + int(len(canon) * rng.uniform(0, 0.6)))
            else:
                pred = _phrase(rng, lengths[i])
            pf.write(json.dumps({"example_id": ex_id, "prediction": pred}, ensure_ascii=False) + "\n")
            gf.write(json.dumps({"example_id": ex_id, "answers": answers}, ensure_ascii=False) + "\n")
            items.append((ex_id, pred, answers))
    return items


def write_caption_fixture(pred_path, gold_path, seed, n_items, n_refs=5):
    """Caption predictions with n_refs references each, 6-24 words long."""
    rng = random.Random(seed)
    lengths = _quantiles(n_items * (n_refs + 1), lambda q: 6 + int(19 * q))
    rng.shuffle(lengths)
    lengths = iter(lengths)
    items = []
    with open(pred_path, "w", encoding="utf-8") as pf, open(gold_path, "w", encoding="utf-8") as gf:
        for i in range(n_items):
            ex_id = f"c{i:06d}"
            base = [rng.choice(_WORDS) for _ in range(30)]
            refs = []
            for _ in range(n_refs):
                n = next(lengths)
                start = rng.randint(0, 30 - n)
                words = base[start:start + n]
                for _ in range(rng.randint(0, 3)):
                    words[rng.randrange(n)] = rng.choice(_WORDS)
                refs.append(" ".join(words).capitalize() + ".")
            n = next(lengths)
            words = [w if rng.random() < 0.8 else rng.choice(_WORDS) for w in base[:n]]
            cand = " ".join(words)
            pf.write(json.dumps({"example_id": ex_id, "prediction": cand}, ensure_ascii=False) + "\n")
            gf.write(json.dumps({"example_id": ex_id, "references": refs}, ensure_ascii=False) + "\n")
            items.append((ex_id, cand, refs))
    return items


def write_probe_corpus(path, seed, bad_kind, n_good=20):
    """n_good valid records plus one line the seed code crashes on.

    bad_kind "image_size_not_int": image_size ["a", 1];
    bad_kind "undecodable_byte": a 0xff byte inside the caption string.
    Returns the line and record counts and the OCR examples a build should
    make (one per good record with OCR tokens).
    """
    rng = random.Random(seed)
    lines, with_ocr = [], 0
    for i in range(n_good):
        rec = _record(rng, f"p{i:04d}", rng.randint(0, 8), 6, 0)
        with_ocr += bool(rec["ocr"])
        lines.append(json.dumps(rec, ensure_ascii=False).encode("utf-8"))
    bad = _record(rng, "probe-bad", 3, 6, 0)
    if bad_kind == "image_size_not_int":
        bad["image_size"] = ["a", 1]
        raw = json.dumps(bad, ensure_ascii=False).encode("utf-8")
    else:
        raw = json.dumps(bad, ensure_ascii=False).encode("utf-8").replace(b'"caption": "', b'"caption": "\xff', 1)
    lines.insert(rng.randrange(len(lines) + 1), raw)
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    return {"lines": n_good + 1, "records": n_good, "ocr_examples": with_ocr}


def ensure(directory: str, spec: dict, build):
    """Generate into directory once per spec; reuse it while spec matches."""
    stamp = os.path.join(directory, "spec.json")
    want = json.dumps(spec, sort_keys=True)
    if os.path.exists(stamp):
        with open(stamp, encoding="utf-8") as fh:
            if fh.read() == want:
                with open(os.path.join(directory, "truth.json"), encoding="utf-8") as fh:
                    return json.load(fh)
    os.makedirs(directory, exist_ok=True)
    truth = build(directory)
    with open(os.path.join(directory, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, ensure_ascii=False)
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(want)
    return truth
