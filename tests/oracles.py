"""Independent oracle implementations used only by the tests.

These deliberately take the slow, direct-from-definition route so they
share no code path with the library implementations they check.
"""

import hashlib
import json
import math
import re
from collections import Counter
from functools import lru_cache

import numpy as np


def levenshtein_memo(a: str, b: str) -> int:
    """Recursive edit distance with memoization."""

    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(dist(i - 1, j) + 1, dist(i, j - 1) + 1, dist(i - 1, j - 1) + cost)

    return dist(len(a), len(b))


def oracle_lcs_length(seq_a, seq_b) -> int:
    """Longest common subsequence length by the row-by-row DP."""
    row = [0] * (len(seq_b) + 1)
    for ta in seq_a:
        diag = 0
        for j, tb in enumerate(seq_b, 1):
            above = row[j]
            row[j] = diag + 1 if ta == tb else max(above, row[j - 1])
            diag = above
    return row[-1]


def vqa_accuracy_leave_one_out(prediction_norm: str, answers_norm: list[str]) -> float:
    """Brute-force enumeration over all ten leave-one-out nine-answer
    subsets, in exact rational arithmetic."""
    from fractions import Fraction

    assert len(answers_norm) == 10
    total = Fraction(0)
    for leave in range(10):
        subset = [a for i, a in enumerate(answers_norm) if i != leave]
        occurrences = sum(1 for a in subset if a == prediction_norm)
        total += min(Fraction(occurrences, 3), Fraction(1))
    return float(total / 10)


def oracle_tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric characters (loop-based)."""
    out, cur = [], []
    for ch in text.lower():
        if ch.isalnum():
            cur.append(ch)
        elif cur:
            out.append("".join(cur))
            cur = []
    if cur:
        out.append("".join(cur))
    return out


def _grams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def oracle_cider_d(candidates: list[str], references: list[list[str]],
                   max_n: int = 4, sigma: float = 6.0) -> list[float]:
    """CIDEr-D per-item scores via dense numpy TF-IDF vectors."""
    n_items = len(candidates)
    cand_toks = [oracle_tokenize(c) for c in candidates]
    ref_toks = [[oracle_tokenize(r) for r in refs] for refs in references]

    scores = []
    for n in range(1, max_n + 1):
        # vocabulary and document frequency for this n
        vocab = sorted({g for refs in ref_toks for r in refs for g in _grams(r, n)}
                       | {g for c in cand_toks for g in _grams(c, n)})
        index = {g: i for i, g in enumerate(vocab)}
        df = np.zeros(len(vocab))
        for refs in ref_toks:
            present = {g for r in refs for g in _grams(r, n)}
            for g in present:
                df[index[g]] += 1.0
        idf = np.log(n_items) - np.log(np.maximum(df, 1.0))

        def vec(tokens):
            v = np.zeros(len(vocab))
            for g in _grams(tokens, n):
                v[index[g]] += 1.0
            return v * idf

        sims_n = []
        for cand, refs in zip(cand_toks, ref_toks):
            cv = vec(cand)
            cnorm = np.linalg.norm(cv)
            item = 0.0
            for r in refs:
                rv = vec(r)
                rnorm = np.linalg.norm(rv)
                if cnorm > 0 and rnorm > 0:
                    dot = float(np.minimum(cv, rv) @ rv)
                    penalty = math.exp(-((len(cand) - len(r)) ** 2) / (2 * sigma**2))
                    item += dot / (cnorm * rnorm) * penalty
            sims_n.append(item / len(refs))
        scores.append(sims_n)

    arr = np.array(scores)  # shape (max_n, n_items)
    return list(arr.mean(axis=0) * 10.0)


def oracle_bleu4(candidates: list[str], references: list[list[str]],
                 max_n: int = 4) -> float:
    """Corpus BLEU directly from the definition."""
    cand_toks = [oracle_tokenize(c) for c in candidates]
    ref_toks = [[oracle_tokenize(r) for r in refs] for refs in references]

    precisions = []
    for n in range(1, max_n + 1):
        clipped = total = 0
        for cand, refs in zip(cand_toks, ref_toks):
            cgrams = _grams(cand, n)
            total += len(cgrams)
            for g in set(cgrams):
                count = cgrams.count(g)
                max_ref = max((_grams(r, n).count(g) for r in refs), default=0)
                clipped += min(count, max_ref)
        if total == 0 or clipped == 0:
            return 0.0
        precisions.append(clipped / total)

    c = sum(len(t) for t in cand_toks)
    r = 0
    for cand, refs in zip(cand_toks, ref_toks):
        best = None
        for ref in refs:
            diff = abs(len(ref) - len(cand))
            if best is None or diff < best[0] or (diff == best[0] and len(ref) < best[1]):
                best = (diff, len(ref))
        r += best[1]
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(sum(math.log(p) for p in precisions) / max_n)


# Exact-order references: CIDEr-D, BLEU@4 and ROUGE-L as written before the
# one-pass scorer, with one TF-IDF dict per string and three tokenizations
# per string. They perform the same float operations in the same order as
# `scenetext.metrics.captioning`, so tests compare them with ==. They use
# the oracle tokenizer and LCS above, which match the library's exactly.
def _ngram_counts(tokens: list[str], max_n: int) -> list[Counter]:
    """Counters for n = 1..max_n (index 0 holds unigrams)."""
    return [Counter(zip(*(tokens[k:] for k in range(n)))) for n in range(1, max_n + 1)]


def exact_cider(items, max_n: int = 4, sigma: float = 6.0) -> tuple[float, list[float]]:
    """CIDEr-D corpus score and per-item scores on the 0-10 scale."""
    if len(items) < 2:
        raise ValueError("CIDEr needs at least 2 items for document frequencies")

    cand_tokens = [oracle_tokenize(it.candidate) for it in items]
    ref_tokens = [[oracle_tokenize(r) for r in it.references] for it in items]

    idf: Counter = Counter()
    for refs in ref_tokens:
        idf.update({ng for ref in refs for counts in _ngram_counts(ref, max_n) for ng in counts})
    log_corpus = math.log(float(len(items)))
    for ngram, df in idf.items():
        idf[ngram] = log_corpus - math.log(df)

    def tfidf_vec(tokens: list[str]):
        vecs, norms = [], []
        for counts in _ngram_counts(tokens, max_n):
            vec = {ng: count * idf.get(ng, log_corpus) for ng, count in counts.items()}
            vecs.append(vec)
            norms.append(math.sqrt(sum(w * w for w in vec.values())))
        return vecs, norms

    per_item = []
    for cand, refs in zip(cand_tokens, ref_tokens):
        cvecs, cnorms = tfidf_vec(cand)
        total = 0.0
        for ref in refs:
            rvecs, rnorms = tfidf_vec(ref)
            penalty = math.exp(-((len(cand) - len(ref)) ** 2) / (2 * sigma**2))
            sim = 0.0
            for n in range(max_n):
                dot = sum(
                    min(w, rvecs[n].get(ng, 0.0)) * rvecs[n].get(ng, 0.0)
                    for ng, w in cvecs[n].items()
                )
                if cnorms[n] > 0 and rnorms[n] > 0:
                    sim += dot / (cnorms[n] * rnorms[n]) * penalty
            total += sim / max_n
        per_item.append(10.0 * total / len(refs))
    return sum(per_item) / len(per_item), per_item


def exact_bleu4(items, max_n: int = 4) -> float:
    """Corpus-level BLEU with modified n-gram precision, geometric mean over
    n = 1..4, and brevity penalty against the closest reference length."""
    if not items:
        raise ValueError("BLEU needs at least one item")

    matched = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for it in items:
        cand = oracle_tokenize(it.candidate)
        refs = [oracle_tokenize(r) for r in it.references]
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]

        cand_counts = _ngram_counts(cand, max_n)
        ref_counts = [_ngram_counts(r, max_n) for r in refs]
        for n in range(max_n):
            max_ref: Counter = Counter()
            for counts in ref_counts:
                max_ref |= counts[n]
            totals[n] += sum(cand_counts[n].values())
            matched[n] += sum((cand_counts[n] & max_ref).values())

    if any(t == 0 or m == 0 for m, t in zip(matched, totals)):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, totals)) / max_n
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    return bp * math.exp(log_prec)


def exact_rouge_l(item, beta: float = 1.2) -> float:
    """LCS F-measure, max over references."""
    cand = oracle_tokenize(item.candidate)
    vocab: dict[str, int] = {}
    cand_ids = [vocab.setdefault(t, len(vocab)) for t in cand]
    best = 0.0
    for ref in item.references:
        rtoks = oracle_tokenize(ref)
        ref_ids = [vocab.setdefault(t, len(vocab)) for t in rtoks]
        if not cand_ids or not ref_ids:
            continue
        lcs = oracle_lcs_length(cand_ids, ref_ids)
        if lcs == 0:
            continue
        prec = lcs / len(cand_ids)
        rec = lcs / len(ref_ids)
        score = (1 + beta**2) * prec * rec / (rec + beta**2 * prec)
        best = max(best, score)
    return best


# --- `caption_scorer` as it was before token ids and integer n-grams: tuples
# of token strings as n-gram keys, and a document frequency for every
# reference n-gram. Copied (renamed), with the oracle tokenizer and LCS
# above in place of the library's, which they match exactly, so the tests
# can check that the library gives the same rows, byte for byte, and holds
# less memory.
def oracle_caption_scorer(items, max_n: int = 4, sigma: float = 6.0, beta: float = 1.2):
    """score(i), item i's row, as `scenetext.metrics.captioning.caption_scorer`."""
    if not items:
        raise ValueError("caption metrics need at least one item")

    # one str per distinct token, shared by every string's tokens and n-grams
    one_copy = {}.setdefault
    cand_tokens = [[one_copy(t, t) for t in oracle_tokenize(it.candidate)] for it in items]
    ref_tokens = [[[one_copy(t, t) for t in oracle_tokenize(r)] for r in it.references]
                  for it in items]

    # document frequency: number of items whose references contain the
    # n-gram; idf[df] is log(N / df), and an n-gram that no reference
    # contains counts as df = 1
    df: Counter = Counter()
    for refs in ref_tokens:
        df.update({ng for ref in refs for n in range(1, max_n + 1)
                   for ng in zip(*(ref[k:] for k in range(n)))})
    log_corpus = math.log(float(len(items)))
    idf = [0.0] + [log_corpus - math.log(d) for d in range(1, len(items) + 1)]

    def rouge_l(cand, refs) -> float:
        best = 0.0
        for ref in refs:
            if not cand or not ref:
                continue
            lcs = oracle_lcs_length(cand, ref)
            if lcs == 0:
                continue
            prec = lcs / len(cand)
            rec = lcs / len(ref)
            score = (1 + beta**2) * prec * rec / (rec + beta**2 * prec)
            best = max(best, score)
        return best

    def score(i: int) -> tuple:
        cand, refs = cand_tokens[i], ref_tokens[i]
        cand_counts = _ngram_counts(cand, max_n)
        ref_counts = [_ngram_counts(r, max_n) for r in refs]

        cvecs = [{ng: count * idf[df.get(ng, 1)] for ng, count in counts.items()}
                 for counts in cand_counts]
        cnorms = [math.sqrt(sum(w * w for w in vec.values())) for vec in cvecs]
        total = 0.0
        for ref, rcounts in zip(refs, ref_counts):
            penalty = math.exp(-((len(cand) - len(ref)) ** 2) / (2 * sigma**2))
            sim = 0.0
            for n in range(max_n):
                if cnorms[n] == 0:
                    continue
                rc = rcounts[n]
                rweights = (count * idf[df[ng]] for ng, count in rc.items())
                rnorm = math.sqrt(sum(w * w for w in rweights))
                if rnorm > 0:
                    shared = [(w, rc[ng] * idf[df[ng]]) for ng, w in cvecs[n].items() if ng in rc]
                    dot = sum(min(w, rw) * rw for w, rw in shared)
                    sim += dot / (cnorms[n] * rnorm) * penalty
            total += sim / max_n

        matched = tuple(sum(min(count, max(rc[n].get(ng, 0) for rc in ref_counts))
                            for ng, count in counts.items())
                        for n, counts in enumerate(cand_counts))
        totals = tuple(sum(counts.values()) for counts in cand_counts)
        ref_len = min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        return (10.0 * total / len(refs), rouge_l(cand, refs), matched, totals,
                len(cand), ref_len)

    return score


def oracle_anls(prediction: str, gold_answers, tau: float = 0.5) -> float:
    """ANLS with one memoized edit distance per gold, duplicates included."""
    pred = prediction.lower().strip()
    best = 0.0
    for gold in gold_answers:
        g = gold.lower().strip()
        denom = max(len(pred), len(g))
        s = 1.0 if denom == 0 else 1.0 - levenshtein_memo(pred, g) / denom
        best = max(best, s if s >= tau else 0.0)
    return best


# --- The record parser, record_violations and hash64 as they were before the exact-type walk
# and the cached keyed hash: copied verbatim (renamed), so the tests can
# check that the faster code gives the same records, errors and digests.
# perfbench loads this file without `scenetext` on the path, so the parser
# copies import the package's types and errors when they are called.


def _oracle_parse_token(raw):
    from scenetext.errors import SchemaError
    from scenetext.records import OcrToken

    if not isinstance(raw, dict):
        raise SchemaError(f"ocr entry must be an object, got {raw!r}")
    if "text" not in raw or "bbox" not in raw:
        raise SchemaError("ocr entry requires 'text' and 'bbox'")
    text = raw["text"]
    if not isinstance(text, str):
        raise SchemaError("ocr token text must be a string")
    if not text.strip():
        raise SchemaError("ocr token text must be non-empty")
    if "\n" in text:
        raise SchemaError("ocr token text must not contain newlines")
    conf = raw.get("confidence", 1.0)
    if not isinstance(conf, (int, float)) or isinstance(conf, bool):
        raise SchemaError("ocr token confidence must be a number")
    bbox = raw["bbox"]
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise SchemaError(f"bbox must be [x,y,w,h], got {bbox!r}")
    for v in bbox:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SchemaError(f"bbox coordinates must be numbers, got {bbox!r}")
    x, y, w, h = map(float, bbox)
    # Written so that NaN fails each test. Finite right and bottom edges
    # keep every reading-order computation finite, so the order is total.
    if not (w > 0 and h > 0):
        raise SchemaError(f"bbox width/height must be positive, got {bbox!r}")
    if not (x >= 0 and y >= 0):
        raise SchemaError(f"bbox origin must be non-negative, got {bbox!r}")
    if not (x + w < math.inf and y + h < math.inf):
        raise SchemaError(f"bbox edges must be finite, got {bbox!r}")
    return OcrToken(x, y, text, w, h, float(conf))


def _oracle_parse_qa(raw):
    from scenetext.errors import SchemaError
    from scenetext.records import QaAnnotation

    if not isinstance(raw, dict) or "question" not in raw or "answers" not in raw:
        raise SchemaError("qa entry requires 'question' and 'answers'")
    question = raw["question"]
    if not isinstance(question, str) or not question:
        raise SchemaError("question must be a non-empty string")
    answers = raw["answers"]
    if not isinstance(answers, list) or not all(isinstance(a, str) for a in answers):
        raise SchemaError("answers must be a list of strings")
    if not answers:
        raise SchemaError("answers list must be non-empty")
    return QaAnnotation(question, tuple(answers))


def _oracle_record(obj):
    """The Record a decoded JSON value describes; SchemaError if it breaks the schema."""
    from scenetext.errors import SchemaError
    from scenetext.records import Record

    if not isinstance(obj, dict):
        raise SchemaError("record must be a JSON object")
    if "image_id" not in obj or not isinstance(obj["image_id"], str) or not obj["image_id"]:
        raise SchemaError("record requires a non-empty string 'image_id'")

    image_size = None
    if obj.get("image_size") is not None:
        raw = obj["image_size"]
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise SchemaError("image_size must be [width, height]")
        for v in raw:
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise SchemaError("image_size values must be finite numbers")
        image_size = (int(raw[0]), int(raw[1]))

    ocr_raw = obj.get("ocr", [])
    if not isinstance(ocr_raw, list):
        raise SchemaError("ocr must be a list")

    # ocr and qa are built as tuple([...]), not tuple(genexpr): a generator
    # makes tuple() over-allocate and resize, and the freed tuples pile up
    # on CPython's tuple free list, which raises peak RSS.
    qa = None
    if obj.get("qa") is not None:
        if not isinstance(obj["qa"], list):
            raise SchemaError("qa must be a list")
        qa = tuple([_oracle_parse_qa(q) for q in obj["qa"]])

    caption = obj.get("caption")
    if caption is not None and not isinstance(caption, str):
        raise SchemaError("caption must be a string")
    image_uri = obj.get("image_uri")
    if image_uri is not None and not isinstance(image_uri, str):
        raise SchemaError("image_uri must be a string")

    return Record(
        image_id=obj["image_id"],
        image_uri=image_uri,
        image_size=image_size,
        caption=caption,
        ocr=tuple([_oracle_parse_token(t) for t in ocr_raw]),
        qa=qa,
    )


# A lone surrogate can only come from a \uD800-\uDFFF escape in UTF-8 input.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def oracle_parse_record(line: str):
    """Parse one JSONL line into a Record.

    Unknown fields are ignored. Raises ParseError for malformed JSON (with
    the byte offset when the decoder gives one) and SchemaError for schema
    violations; no other exception escapes for any input string.
    """
    from scenetext.errors import ParseError, SchemaError
    from scenetext.records import serialize_record

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        offset = len(line[: exc.pos].encode("utf-8", "surrogatepass"))
        raise ParseError(f"malformed JSON: {exc.msg}", offset=offset) from exc
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the decoder's recursion limit, or an integer
        # literal longer than int() converts
        raise ParseError(f"malformed JSON: {exc}") from None
    try:
        record = _oracle_record(obj)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError("numbers must be within the float range") from None
    if _SURROGATE_ESCAPE.search(line):
        try:
            serialize_record(record).encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError("strings must not contain lone surrogates") from None
    return record


def oracle_hash64(seed: int, *parts: str) -> int:
    """64-bit keyed hash of the joined string parts."""
    key = seed.to_bytes(8, "little", signed=False)
    h = hashlib.blake2b(digest_size=8, key=key)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def oracle_record_violations(record) -> list[str]:
    """The validator's findings that depend on this record alone: one
    `confidence_range` per token whose confidence is outside [0, 1], one
    `bbox_out_of_bounds` per token whose box leaves `image_size`."""
    violations = []
    for tok in record.ocr:
        if not 0.0 <= tok.confidence <= 1.0:
            violations.append("confidence_range")
        if record.image_size is not None:
            width, height = record.image_size
            if tok.x + tok.w > width or tok.y + tok.h > height:
                violations.append("bbox_out_of_bounds")
    return violations


# --- The example dataclasses, builders and `to_json`s as they were before
# lines were spliced from escaped fragments: copied verbatim, so the tests
# can check that the library writes the same lines. They are defined on
# the first call of `old_examples`, because perfbench loads this file
# without `scenetext` on the path.


@lru_cache(maxsize=None)
def old_examples():
    """The old example code, as a namespace: `ObjectiveConfig`,
    `PretrainExample`, `build_example` (and the per-objective builders),
    `FinetuneExample`, `build_vqa_examples` and `build_caption_examples`."""
    import random
    from dataclasses import dataclass
    from types import SimpleNamespace

    from scenetext.errors import ConfigError
    from scenetext.finetune import Task, majority_answer
    from scenetext.hashing import derive_rng
    from scenetext.pretrain import Objective
    from scenetext.records import Record
    from scenetext.textformat import DEFAULT_FORMAT, TextFormat, render_input

    @dataclass(frozen=True)
    class ObjectiveConfig:
        fmt: TextFormat = DEFAULT_FORMAT
        pass_index: int = 0

    DEFAULT_CONFIG = ObjectiveConfig()

    # The encoder json.dumps(obj, ensure_ascii=False) builds on every call,
    # built once: same defaults, same bytes. Example lines use it.
    encode_json = json.JSONEncoder(ensure_ascii=False).encode

    @dataclass(frozen=True)
    class PretrainExample:
        example_id: str
        image_id: str
        objective: Objective
        prompt: str
        input_ocr: tuple[str, ...]
        input_caption_prefix: str
        target: str

        def input_text(self, fmt: TextFormat = DEFAULT_FORMAT) -> str:
            """Rendered model input; byte-compatible with the fine-tune formats."""
            if self.objective in (Objective.OCR, Objective.SPLITOCR):
                # the plain-OCR case conditions on the image and prompt only
                ocr_text = fmt.token_separator.join(self.input_ocr) if self.input_ocr else None
                return render_input(self.prompt, fmt, ocr_text=ocr_text)
            ocr_text = fmt.token_separator.join(self.input_ocr)
            prefix = self.input_caption_prefix or None
            return render_input(self.prompt, fmt, caption_prefix=prefix, ocr_text=ocr_text)

        def to_json(self) -> str:
            return encode_json(
                {
                    "example_id": self.example_id,
                    "image_id": self.image_id,
                    "objective": self.objective.value,
                    "prompt": self.prompt,
                    "input_ocr": list(self.input_ocr),
                    "input_caption_prefix": self.input_caption_prefix,
                    "target": self.target,
                }
            )

    def rng_for(seed: int, image_id: str, objective: Objective, pass_index: int = 0) -> random.Random:
        """Per-record RNG; identical (seed, image_id) gives identical draws
        regardless of processing order or worker count."""
        return derive_rng(seed, image_id, objective.value, str(pass_index))

    def sample_split_point(n: int, rng: random.Random) -> int:
        """Uniform split point in {0..n-1} for n >= 1; k=0 means an empty input
        part and the target part is never empty."""
        return rng.randrange(n)

    def _example_id(record: Record, objective: Objective, config: ObjectiveConfig) -> str:
        return f"{record.image_id}/{objective.value.lower()}/{config.pass_index}"

    def build_splitocr(record: Record, texts: list[str], rng: random.Random,
                       config: ObjectiveConfig = DEFAULT_CONFIG) -> PretrainExample:
        k = sample_split_point(len(texts), rng)
        sep = config.fmt.token_separator
        return PretrainExample(
            example_id=_example_id(record, Objective.SPLITOCR, config),
            image_id=record.image_id,
            objective=Objective.SPLITOCR,
            prompt=config.fmt.ocr_prompt,
            input_ocr=tuple(texts[:k]),
            input_caption_prefix="",
            target=sep.join(texts[k:]),
        )

    def build_ocr(record: Record, texts: list[str],
                  config: ObjectiveConfig = DEFAULT_CONFIG) -> PretrainExample:
        return PretrainExample(
            example_id=_example_id(record, Objective.OCR, config),
            image_id=record.image_id,
            objective=Objective.OCR,
            prompt=config.fmt.ocr_prompt,
            input_ocr=(),
            input_caption_prefix="",
            target=config.fmt.token_separator.join(texts),
        )

    def build_cap(record: Record, texts: list[str],
                  config: ObjectiveConfig = DEFAULT_CONFIG) -> PretrainExample:
        return PretrainExample(
            example_id=_example_id(record, Objective.CAP, config),
            image_id=record.image_id,
            objective=Objective.CAP,
            prompt=config.fmt.caption_prompt,
            input_ocr=tuple(texts),
            input_caption_prefix="",
            target=record.caption,
        )

    def build_splitcap(record: Record, texts: list[str], rng: random.Random,
                       config: ObjectiveConfig = DEFAULT_CONFIG) -> PretrainExample:
        words = record.caption.split()
        k = sample_split_point(len(words), rng)
        return PretrainExample(
            example_id=_example_id(record, Objective.SPLITCAP, config),
            image_id=record.image_id,
            objective=Objective.SPLITCAP,
            prompt=config.fmt.caption_prompt,
            input_ocr=tuple(texts),
            input_caption_prefix=" ".join(words[:k]),
            target=" ".join(words[k:]),
        )

    def build_example(record: Record, texts: list[str], objective: Objective, seed: int,
                      config: ObjectiveConfig = DEFAULT_CONFIG) -> PretrainExample:
        """Dispatch on objective for an eligible record; only the split
        objectives derive the per-record RNG, because only they draw from it."""
        if objective is Objective.OCR:
            return build_ocr(record, texts, config)
        if objective is Objective.CAP:
            return build_cap(record, texts, config)
        rng = rng_for(seed, record.image_id, objective, config.pass_index)
        if objective is Objective.SPLITOCR:
            return build_splitocr(record, texts, rng, config)
        if objective is Objective.SPLITCAP:
            return build_splitcap(record, texts, rng, config)
        raise ConfigError(f"unknown objective {objective!r}")

    @dataclass(frozen=True)
    class FinetuneExample:
        example_id: str
        image_id: str
        task: Task
        input_text: str
        target: str
        ocr_included: bool
        answers: tuple[str, ...] = ()  # all gold answers, carried through for eval

        def to_json(self) -> str:
            obj = {
                "example_id": self.example_id,
                "image_id": self.image_id,
                "task": self.task.value,
                "input_text": self.input_text,
                "target": self.target,
                "ocr_included": self.ocr_included,
            }
            if self.answers:
                obj["answers"] = list(self.answers)
            return encode_json(obj)

    def _ocr_text(texts: list[str] | None, config: ObjectiveConfig) -> str | None:
        return None if texts is None else config.fmt.token_separator.join(texts)

    def build_vqa_examples(record: Record, texts: list[str] | None,
                           config: ObjectiveConfig = DEFAULT_CONFIG) -> list[FinetuneExample]:
        """One example per question; training target is the majority answer."""
        ocr_text = _ocr_text(texts, config)
        examples = []
        for i, qa in enumerate(record.qa):
            input_text = render_input(
                config.fmt.vqa_prompt, config.fmt, question=qa.question, ocr_text=ocr_text
            )
            examples.append(
                FinetuneExample(
                    example_id=f"{record.image_id}/vqa/{i}",
                    image_id=record.image_id,
                    task=Task.VQA,
                    input_text=input_text,
                    target=majority_answer(qa.answers),
                    ocr_included=texts is not None,
                    answers=qa.answers,
                )
            )
        return examples

    def build_caption_examples(record: Record, texts: list[str] | None,
                               config: ObjectiveConfig = DEFAULT_CONFIG) -> list[FinetuneExample]:
        input_text = render_input(
            config.fmt.caption_prompt, config.fmt, ocr_text=_ocr_text(texts, config)
        )
        return [
            FinetuneExample(
                example_id=f"{record.image_id}/caption/0",
                image_id=record.image_id,
                task=Task.CAPTION,
                input_text=input_text,
                target=record.caption,
                ocr_included=texts is not None,
            )
        ]

    return SimpleNamespace(**{name: value for name, value in locals().items()
                              if not name.startswith("__")})


# --- The build's hold-and-sort path as it was before the spill buckets: every
# example of every dataset held in memory until one sort per dataset, and
# each shard joined and written at once. Copied verbatim (renamed), so the
# tests can check that the spill path writes the same shards and manifests:
# `monkeypatch.setattr(pipeline, "_build", oracle_hold_and_sort_build)`.
# The names of `scenetext.pipeline` are looked up when called, so a test's
# patch of `pipeline.hash64` reaches this copy too.


def oracle_shuffle_and_shard(examples, shard_count):
    """Deterministically permute (shuffle_key, example_id, line) triples,
    where shuffle_key is hash64(seed, "shuffle", example_id), and assign the
    lines round-robin to shard_count buckets."""
    shards = [[] for _ in range(shard_count)]
    for i, (_, _, line) in enumerate(sorted(examples)):
        shards[i % shard_count].append(line)
    return shards


def oracle_write_shards(shards, out_dir, dataset, compress, written):
    """Write one file per shard of newline-terminated UTF-8 lines; each path
    joins `written` once opened."""
    import os
    import zlib

    infos = []
    suffix = ".jsonl.gz" if compress else ".jsonl"
    for i, lines in enumerate(shards):
        name = f"{dataset}-{i:05d}-of-{len(shards):05d}{suffix}"
        path = os.path.join(out_dir, name)
        payload = b"".join(lines)
        if compress:
            # `gzip.compress(payload, mtime=0)` as CPython 3.11 and 3.12.1
            # compute it; 3.10 and 3.13 write 255 in place of zlib's OS byte
            data = zlib.compress(payload, 9, wbits=31)
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


def oracle_hold_and_sort_build(config, datasets, manifest_name, describe, owned, stats=None,
                               order_ocr=True):
    """The one build path. One pass over the kept records adds each to the
    stats, if given, and keeps the (name, eligible, build) datasets whose
    eligible(record) holds; if any, it orders the record's OCR once into
    texts (None unless order_ocr) and adds the examples of the dataset's
    old builder (`old_examples`, not its build) to each. Then each dataset is shuffled/sharded and written, and the manifest:
    the common head plus describe([(example_count, shard_infos), ...]).
    Every file this run wrote is removed if any step fails. It removes no
    earlier build's shards, so `owned` is unused."""
    import os
    from scenetext import __version__, pipeline

    seed, with_stats = config.seed, stats is not None
    old = old_examples()
    if manifest_name == "manifest.json":  # run's stage datasets, in stage order
        configs = [old.ObjectiveConfig(fmt=config.fmt, pass_index=p) for p in range(config.passes)]

        def stage_build(objective):
            return lambda record, texts: [old.build_example(record, texts, objective, seed, c)
                                          for c in configs]

        builders = [stage_build(objective) for objective in config.stages]
    else:  # run_finetune's one dataset, finetune_{task}
        [(name, _, _)] = datasets
        builder = old.build_vqa_examples if name == "finetune_vqa" else old.build_caption_examples
        obj_config = old.ObjectiveConfig(fmt=config.fmt)
        builders = [lambda record, texts: builder(record, texts, obj_config)]

    def work(record, digest):
        builds = [build if eligible(record) else None
                  for (_, eligible, _), build in zip(datasets, builders)]
        texts = None
        if order_ocr and any(builds):
            texts = [t.text for t in pipeline.order_tokens(record.ocr, config.overlap_threshold)]
        examples = [[(pipeline.hash64(seed, "shuffle", ex.example_id), ex.example_id,
                      (ex.to_json() + "\n").encode("utf-8")) for ex in build(record, texts)]
                    if build else [] for build in builds]
        return (pipeline.DatasetStats.entry(record) if with_stats else None), examples

    os.makedirs(config.out_dir, exist_ok=True)
    written = []
    try:
        counters = Counter()
        examples = [[] for _ in datasets]
        for _, (entry, built_examples) in pipeline.ingest(config.inputs, counters, config.fraction,
                                                          seed, work, threads=config.threads):
            if with_stats:
                stats.add(entry)
            for held, new in zip(examples, built_examples):
                held.extend(new)
        built = []
        for (name, _, _), keyed in zip(datasets, examples):
            shards = oracle_shuffle_and_shard(keyed, config.shard_count)
            built.append((len(keyed),
                          oracle_write_shards(shards, config.out_dir, name, config.compress, written)))
        manifest = {
            "tool": "scenetext",
            "version": __version__,
            "config": config.to_dict(),
            "config_hash": pipeline._config_hash(config),
            "seed": seed,
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


def oracle_duplicate_rule(lines):
    """The duplicate rule from its definition, held in memory: of the valid
    lines (they decode, parse and break no per-record rule) that share an
    image_id, the one whose bytes less their trailing CR and LF have the
    smallest 16-byte blake2b digest stays, and a copy with that digest is
    the same line. Returns the lines that stay, in their order, and how
    many valid copies go."""
    from scenetext.errors import ParseError, SchemaError

    copies = {}
    for index, line in enumerate(lines):
        try:
            record = oracle_parse_record(line.decode("utf-8"))
        except (UnicodeDecodeError, ParseError, SchemaError):
            continue
        if not oracle_record_violations(record):
            digest = hashlib.blake2b(line.rstrip(b"\r\n"), digest_size=16).digest()
            copies.setdefault(record.image_id, []).append((digest, index))
    gone = {index for same_id in copies.values() for _, index in sorted(same_id)[1:]}
    return [line for index, line in enumerate(lines) if index not in gone], len(gone)


def oracle_dedup_build(config, datasets, manifest_name, describe, owned, stats=None,
                       order_ocr=True):
    """`oracle_hold_and_sort_build` on the lines `oracle_duplicate_rule`
    keeps of the inputs (plain or gzip, blank lines left out), written to a
    temporary file; its manifest then echoes the real inputs and counts the
    copies that went as lines, validation skips and `duplicate_image_id`."""
    import gzip
    import os
    import tempfile

    from scenetext import pipeline

    lines = []
    for path in config.inputs:
        with (gzip.open if path.endswith(".gz") else open)(path, "rb") as fh:
            lines += [line for line in fh if line.strip()]
    kept, gone = oracle_duplicate_rule(lines)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "deduplicated.jsonl")
        with open(corpus, "wb") as fh:
            fh.writelines(line if line.endswith(b"\n") else line + b"\n" for line in kept)
        manifest = oracle_hold_and_sort_build(config._replace(inputs=(corpus,)),
                                              datasets, manifest_name, describe, owned, stats,
                                              order_ocr)
    counters = Counter(manifest["counters"])
    if gone:
        counters.update(lines=gone, validation_skips=gone, duplicate_image_id=gone)
    manifest.update(config=config.to_dict(), config_hash=pipeline._config_hash(config),
                    counters=dict(counters))
    with open(os.path.join(config.out_dir, manifest_name), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
