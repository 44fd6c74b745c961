"""Record schema, JSONL parsing, and the per-record rules.

Input is one JSON object per line:
{"image_id": str, "image_uri": str?, "image_size": [w,h]?, "caption": str?,
 "ocr": [{"text": str, "bbox": [x,y,w,h], "confidence": float?}],
 "qa": [{"question": str, "answers": [str,...]}]?}

This module is the one place input is checked: `_record`, `_parse_tokens`
and `_parse_qa` apply every schema rule while they walk the decoded JSON,
testing exact JSON types, so the token, QA and record types below are
plain named tuples with no checks of their own, which the walk builds with
`tuple.__new__`, past their Python-level constructors. `record_violations`
holds the rules that a well-formed record can still break; the duplicate
rule, which needs every record of the corpus, lives in `pipeline.ingest`.
"""

import json
import math
import re
from typing import NamedTuple

from .errors import ParseError, SchemaError


class OcrToken(NamedTuple):
    """One recognized text span: its box in image pixels (left edge x, top
    edge y, width w, height h), its text and its recognizer confidence.

    The field order is the reading-order tie order: two tokens compare as
    (x, y, text, w, h, confidence), so sorting tokens breaks ties the way
    `ordering.order_tokens` needs. Confidence is not range-checked at parse
    time: `record_violations` reports out-of-range values.
    """

    x: float
    y: float
    text: str
    w: float
    h: float
    confidence: float = 1.0


class QaAnnotation(NamedTuple):
    question: str
    answers: tuple[str, ...]


class Record(NamedTuple):
    """One corpus entry: image reference, optional caption, OCR, optional QA.
    `_replace` copies one with changes."""

    image_id: str
    image_uri: str | None = None
    image_size: tuple[int, int] | None = None
    caption: str | None = None
    ocr: tuple[OcrToken, ...] = ()
    qa: tuple[QaAnnotation, ...] | None = None


# `json.loads` makes only dict, list, str, int, float, bool and None, never
# a subclass, so the walk tests types exactly. `bool` is not in _NUMBER,
# which keeps true/false out of every numeric field.
_NUMBER = (int, float)


def _parse_tokens(ocr_raw: list) -> tuple[OcrToken, ...]:
    """The tokens of a decoded `ocr` list, each checked against every token rule."""
    tokens = []
    for raw in ocr_raw:
        if type(raw) is not dict:
            raise SchemaError(f"ocr entry must be an object, got {raw!r}")
        if "text" not in raw or "bbox" not in raw:
            raise SchemaError("ocr entry requires 'text' and 'bbox'")
        text = raw["text"]
        if type(text) is not str:
            raise SchemaError("ocr token text must be a string")
        if not text.strip():
            raise SchemaError("ocr token text must be non-empty")
        if "\n" in text:
            raise SchemaError("ocr token text must not contain newlines")
        conf = raw.get("confidence", 1.0)
        if type(conf) not in _NUMBER:
            raise SchemaError("ocr token confidence must be a number")
        bbox = raw["bbox"]
        if type(bbox) is not list or len(bbox) != 4:
            raise SchemaError(f"bbox must be [x,y,w,h], got {bbox!r}")
        x, y, w, h = bbox
        if (type(x) not in _NUMBER or type(y) not in _NUMBER
                or type(w) not in _NUMBER or type(h) not in _NUMBER):
            raise SchemaError(f"bbox coordinates must be numbers, got {bbox!r}")
        x = float(x)
        y = float(y)
        w = float(w)
        h = float(h)
        # Written so that NaN fails each test. Finite right and bottom edges
        # keep every reading-order computation finite, so the order is total.
        if not (w > 0 and h > 0):
            raise SchemaError(f"bbox width/height must be positive, got {bbox!r}")
        if not (x >= 0 and y >= 0):
            raise SchemaError(f"bbox origin must be non-negative, got {bbox!r}")
        if not (x + w < math.inf and y + h < math.inf):
            raise SchemaError(f"bbox edges must be finite, got {bbox!r}")
        tokens.append(tuple.__new__(OcrToken, (x, y, text, w, h, float(conf))))
    # tuple([...]), not tuple(genexpr): see _record
    return tuple(tokens)


def _parse_qa(raw) -> QaAnnotation:
    if type(raw) is not dict or "question" not in raw or "answers" not in raw:
        raise SchemaError("qa entry requires 'question' and 'answers'")
    question = raw["question"]
    if type(question) is not str or not question:
        raise SchemaError("question must be a non-empty string")
    answers = raw["answers"]
    if type(answers) is not list or any(type(a) is not str for a in answers):
        raise SchemaError("answers must be a list of strings")
    if not answers:
        raise SchemaError("answers list must be non-empty")
    return tuple.__new__(QaAnnotation, (question, tuple(answers)))


def _record(obj) -> Record:
    """The Record a decoded JSON value describes; SchemaError if it breaks the schema."""
    if type(obj) is not dict:
        raise SchemaError("record must be a JSON object")
    image_id = obj.get("image_id")
    if type(image_id) is not str or not image_id:
        raise SchemaError("record requires a non-empty string 'image_id'")

    image_size = None
    if (raw := obj.get("image_size")) is not None:
        if type(raw) is not list or len(raw) != 2:
            raise SchemaError("image_size must be [width, height]")
        for v in raw:
            if type(v) not in _NUMBER or not math.isfinite(v):
                raise SchemaError("image_size values must be finite numbers")
        image_size = (int(raw[0]), int(raw[1]))

    ocr_raw = obj.get("ocr", [])
    if type(ocr_raw) is not list:
        raise SchemaError("ocr must be a list")

    # ocr and qa are built as tuple([...]), not tuple(genexpr): a generator
    # makes tuple() over-allocate and resize, and the freed tuples pile up
    # on CPython's tuple free list, which raises peak RSS.
    qa = None
    if (qa_raw := obj.get("qa")) is not None:
        if type(qa_raw) is not list:
            raise SchemaError("qa must be a list")
        qa = tuple([_parse_qa(q) for q in qa_raw])

    caption = obj.get("caption")
    if caption is not None and type(caption) is not str:
        raise SchemaError("caption must be a string")
    image_uri = obj.get("image_uri")
    if image_uri is not None and type(image_uri) is not str:
        raise SchemaError("image_uri must be a string")

    return tuple.__new__(Record, (image_id, image_uri, image_size, caption,
                                  _parse_tokens(ocr_raw), qa))


# A lone surrogate can only come from a \uD800-\uDFFF escape in UTF-8 input.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_record(line: str) -> Record:
    """Parse one JSONL line into a Record.

    Unknown fields are ignored. Raises ParseError for malformed JSON (with
    the byte offset when the decoder gives one) and SchemaError for schema
    violations; no other exception escapes for any input string.
    """
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
        record = _record(obj)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError("numbers must be within the float range") from None
    if _SURROGATE_ESCAPE.search(line):
        try:
            serialize_record(record).encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError("strings must not contain lone surrogates") from None
    return record


def serialize_record(record: Record) -> str:
    """Inverse of parse_record; emits one compact JSON line."""
    obj: dict = {"image_id": record.image_id}
    if record.image_uri is not None:
        obj["image_uri"] = record.image_uri
    if record.image_size is not None:
        obj["image_size"] = list(record.image_size)
    if record.caption is not None:
        obj["caption"] = record.caption
    obj["ocr"] = [
        {"text": t.text, "bbox": [t.x, t.y, t.w, t.h], "confidence": t.confidence}
        for t in record.ocr
    ]
    if record.qa is not None:
        obj["qa"] = [{"question": q.question, "answers": list(q.answers)} for q in record.qa]
    return json.dumps(obj, ensure_ascii=False)


def record_violations(record: Record) -> list[str]:
    """The rule breaks found in this record alone: one `confidence_range`
    per token whose confidence is outside [0, 1], one `bbox_out_of_bounds`
    per token whose box leaves `image_size`."""
    violations = []
    # with no image_size no edge is out of bounds: no value exceeds inf
    width, height = record.image_size or (math.inf, math.inf)
    for x, y, _, w, h, confidence in record.ocr:
        if not 0.0 <= confidence <= 1.0:
            violations.append("confidence_range")
        if x + w > width or y + h > height:
            violations.append("bbox_out_of_bounds")
    return violations
