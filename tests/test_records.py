import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from scenetext.errors import ParseError, SchemaError
from scenetext.ordering import order_tokens
from scenetext.pipeline import ingest, keep_copies, line_digest
from scenetext.records import (
    parse_record,
    record_violations,
    serialize_record,
)

from conftest import make_record, make_token
from oracles import oracle_parse_record, oracle_record_violations


def test_parse_minimal_record():
    rec = parse_record('{"image_id":"a","ocr":[{"text":"STOP","bbox":[4,4,40,12]}]}')
    assert rec.image_id == "a"
    assert len(rec.ocr) == 1
    assert rec.ocr[0].text == "STOP"
    assert (rec.ocr[0].x, rec.ocr[0].y, rec.ocr[0].w, rec.ocr[0].h) == (4, 4, 40, 12)
    assert rec.ocr[0].confidence == 1.0


def test_parse_empty_ocr_is_valid():
    rec = parse_record('{"image_id":"b","ocr":[]}')
    assert rec.ocr == ()


def test_parse_empty_token_text_is_schema_error():
    with pytest.raises(SchemaError):
        parse_record('{"image_id":"c","ocr":[{"text":"","bbox":[0,0,1,1]}]}')


def test_parse_malformed_json_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse_record('{"image_id": "a", ')
    assert exc.value.offset is not None


def test_parse_missing_image_id():
    with pytest.raises(SchemaError):
        parse_record('{"ocr":[]}')


def test_parse_nonpositive_bbox_dims():
    with pytest.raises(SchemaError):
        parse_record('{"image_id":"a","ocr":[{"text":"x","bbox":[0,0,0,5]}]}')
    with pytest.raises(SchemaError):
        parse_record('{"image_id":"a","ocr":[{"text":"x","bbox":[0,0,5,-1]}]}')


def test_parse_ignores_unknown_fields_and_field_order():
    a = parse_record('{"image_id":"a","ocr":[],"future_field":123}')
    b = parse_record('{"ocr":[],"image_id":"a"}')
    assert a == b


def test_parse_full_record():
    rec = parse_record(
        '{"image_id":"a","image_uri":"gs://x","image_size":[640,480],'
        '"caption":"a sign","ocr":[{"text":"GO","bbox":[1,2,3,4],"confidence":0.9}],'
        '"qa":[{"question":"what?","answers":["go","go"]}]}'
    )
    assert rec.image_size == (640, 480)
    assert rec.caption == "a sign"
    assert rec.qa[0].question == "what?"
    assert rec.ocr[0].confidence == 0.9


def test_roundtrip_serialize_parse():
    line = (
        '{"image_id":"a","image_size":[100,100],"caption":"c",'
        '"ocr":[{"text":"GO","bbox":[1,2,3,4],"confidence":0.5}],'
        '"qa":[{"question":"q","answers":["x"]}]}'
    )
    rec = parse_record(line)
    assert parse_record(serialize_record(rec)) == rec


def test_parse_is_pure():
    line = '{"image_id":"a","ocr":[{"text":"GO","bbox":[1,2,3,4]}]}'
    assert parse_record(line) == parse_record(line)


def test_validate_bbox_out_of_bounds():
    rec = make_record(ocr=[make_token("x", x=95, y=0, w=10, h=5)], image_size=(100, 100))
    assert record_violations(rec) == ["bbox_out_of_bounds"]


def test_validate_wellformed_record_is_clean():
    rec = make_record(ocr=[make_token("x", x=5, y=5, w=10, h=5)], image_size=(100, 100))
    assert record_violations(rec) == []


def test_validate_confidence_range():
    rec = make_record(ocr=[make_token("x", confidence=1.3)])
    assert record_violations(rec) == ["confidence_range"]


def test_validator_flags_duplicate_image_id(tmp_path):
    # of the valid copies of an id, the line with the smallest digest stays
    # and every other is skipped once as a duplicate, in either line order;
    # a copy that breaks a per-record rule is skipped under that rule alone
    path = tmp_path / "dups.jsonl"
    records = [make_record(image_id="dup", caption="first"), make_record(image_id="other"),
               make_record(image_id="dup", caption="second"),
               make_record(image_id="dup", ocr=[make_token("x", confidence=1.3)])]
    lines = [serialize_record(r) + "\n" for r in records]
    winner = min(records[0], records[2], key=lambda r: line_digest(serialize_record(r).encode()))
    for order in (lines, lines[::-1]):
        path.write_text("".join(order), encoding="utf-8")
        counters, violations, copies = Counter(), Counter(), {}
        pairs = list(ingest([str(path)], counters, violations=violations, copies=copies))
        stay = set(keep_copies([line for line, _ in pairs], copies))
        assert {record for line, record in pairs if line in stay} == {winner, records[1]}
        assert violations == {"duplicate_image_id": 1, "confidence_range": 1}
        assert counters == {"lines": 4, "valid_records": 2, "subsampled_records": 2,
                            "validation_skips": 2, "duplicate_image_id": 1}


def test_token_rejects_interior_newline():
    with pytest.raises(SchemaError):
        parse_record('{"image_id":"a","ocr":[{"text":"a\\nb","bbox":[0,0,1,1]}]}')


_TOKEN = '{"image_id":"a","ocr":[{"text":"x","bbox":%s}]}'
_HOSTILE = {
    "image_size_text": ('{"image_id":"a","image_size":["a",1]}', SchemaError),
    "image_size_list": ('{"image_id":"a","image_size":[[1],2]}', SchemaError),
    "image_size_1e400": ('{"image_id":"a","image_size":[1e400,2]}', SchemaError),
    "image_size_nan": ('{"image_id":"a","image_size":[NaN,2]}', SchemaError),
    "image_size_bool": ('{"image_id":"a","image_size":[true,2]}', SchemaError),
    "text_whitespace_only": ('{"image_id":"a","ocr":[{"text":" ","bbox":[0,0,1,1]}]}', SchemaError),
    "text_newline": ('{"image_id":"a","ocr":[{"text":"a\\nb","bbox":[0,0,1,1]}]}', SchemaError),
    "bbox_x_negative": (_TOKEN % "[-1,0,1,1]", SchemaError),
    "bbox_w_zero": (_TOKEN % "[0,0,0,1]", SchemaError),
    "bbox_x_nan": (_TOKEN % "[NaN,0,1,1]", SchemaError),
    "bbox_w_nan": (_TOKEN % "[0,0,NaN,1]", SchemaError),
    "bbox_x_1e400": (_TOKEN % "[1e400,0,1,1]", SchemaError),
    "bbox_h_infinity": (_TOKEN % "[0,0,1,Infinity]", SchemaError),
    "bbox_right_edge_overflows": (_TOKEN % "[1e308,0,1e308,1]", SchemaError),
    "bbox_int_beyond_float": (_TOKEN % f"[1{'0' * 400},0,1,1]", SchemaError),
    "confidence_int_beyond_float": (
        '{"image_id":"a","ocr":[{"text":"x","bbox":[0,0,1,1],"confidence":1%s}]}' % ("0" * 400),
        SchemaError),
    "image_uri_number": ('{"image_id":"a","image_uri":5}', SchemaError),
    "question_number": ('{"image_id":"a","qa":[{"question":5,"answers":["x"]}]}', SchemaError),
    "question_empty": ('{"image_id":"a","qa":[{"question":"","answers":["x"]}]}', SchemaError),
    "answers_empty": ('{"image_id":"a","qa":[{"question":"q","answers":[]}]}', SchemaError),
    "image_id_lone_surrogate": ('{"image_id":"\\ud800"}', SchemaError),
    "caption_lone_surrogate": ('{"image_id":"a","caption":"x\\udfff"}', SchemaError),
    "nesting_too_deep": ('{"image_id":"a","caption":%s}' % ("[" * 100_000 + "]" * 100_000),
                         ParseError),
    "int_literal_too_long": ('{"image_id":"a","image_size":[1%s,1]}' % ("0" * 5000), ParseError),
    "bbox_bool": (_TOKEN % "[0,true,1,1]", SchemaError),
    "bbox_three_values": (_TOKEN % "[0,0,1]", SchemaError),
    "bbox_five_values": (_TOKEN % "[0,0,1,1,1]", SchemaError),
    "bbox_missing": ('{"image_id":"a","ocr":[{"text":"x"}]}', SchemaError),
    "confidence_bool": ('{"image_id":"a","ocr":[{"text":"x","bbox":[0,0,1,1],"confidence":false}]}',
                        SchemaError),
    "token_not_object": ('{"image_id":"a","ocr":["x"]}', SchemaError),
    "text_number": ('{"image_id":"a","ocr":[{"text":5,"bbox":[0,0,1,1]}]}', SchemaError),
}


@pytest.mark.parametrize("line,error", _HOSTILE.values(), ids=_HOSTILE.keys())
def test_parse_rejects_hostile_values_with_package_errors(line, error):
    with pytest.raises(error):
        parse_record(line)
    _assert_parses_as_oracle(line)


def test_parse_keeps_escaped_surrogate_pairs():
    rec = parse_record('{"image_id":"a","caption":"\\ud83d\\ude00"}')
    assert rec.caption == "\U0001F600"


def test_bbox_rejects_nan_and_infinite_edges():
    for coords in ([math.nan, 0, 1, 1], [0, 0, 1, math.nan], [0, 0, math.inf, 1], [1e308, 0, 1e308, 1]):
        with pytest.raises(SchemaError):
            parse_record(json.dumps({"image_id": "a", "ocr": [{"text": "x", "bbox": coords}]}))


def _assert_record_or_package_error(line):
    """parse_record either rejects the line with a package error or returns
    a record that validation, reading order and serialization all accept."""
    try:
        record = parse_record(line)
    except (ParseError, SchemaError):
        return
    record_violations(record)
    order_tokens(record.ocr)
    serialize_record(record).encode("utf-8")
    for tok in record.ocr:
        assert all(math.isfinite(v) for v in (tok.x, tok.y, tok.w, tok.h))


_VALID = {
    "image_id": "a", "image_uri": "u", "image_size": [100, 100], "caption": "c",
    "ocr": [{"text": "GO", "bbox": [1, 2, 3, 4], "confidence": 0.5}],
    "qa": [{"question": "q", "answers": ["x"]}],
}
# every position of _VALID that a hostile value can take
_POSITIONS = [
    ("image_id",), ("image_uri",), ("image_size",), ("image_size", 0), ("image_size", 1),
    ("caption",), ("ocr",), ("ocr", 0), ("ocr", 0, "text"), ("ocr", 0, "bbox"),
    ("ocr", 0, "bbox", 0), ("ocr", 0, "bbox", 1), ("ocr", 0, "bbox", 2), ("ocr", 0, "bbox", 3),
    ("ocr", 0, "confidence"), ("qa",), ("qa", 0), ("qa", 0, "question"), ("qa", 0, "answers"),
    ("qa", 0, "answers", 0),
]
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats() | _ANY_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_ANY_TEXT, inner, max_size=4),
    max_leaves=8,
)


_DELETE = object()


def _hostile_line(position, value) -> str:
    """_VALID with `value` at `position`, or with that key or item deleted."""
    obj = json.loads(json.dumps(_VALID))
    *parents, last = position
    target = obj
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return json.dumps(obj)


@given(st.sampled_from(_POSITIONS), _JSON_VALUES)
def test_parse_any_value_in_any_field_gives_record_or_package_error(position, value):
    _assert_record_or_package_error(_hostile_line(position, value))


def _assert_parses_as_oracle(line):
    """parse_record gives the reference parser's error class, or a record
    with the same repr and the same record_violations. repr, not ==: a NaN
    confidence parses, and 1 must not pass for 1.0."""
    def outcome(parse):
        try:
            record = parse(line)
        except (ParseError, SchemaError) as exc:
            return type(exc), None
        return repr(record), record

    (got, record), (expected, _) = outcome(parse_record), outcome(oracle_parse_record)
    assert got == expected, line
    if record is not None:
        assert record_violations(record) == oracle_record_violations(record)


@given(st.sampled_from(_POSITIONS), _JSON_VALUES | st.just(_DELETE))
def test_parse_matches_reference_parser_on_any_field_value(position, value):
    _assert_parses_as_oracle(_hostile_line(position, value))


def test_parse_matches_reference_parser_on_benchmark_corpus(tmp_path):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_gen", root / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / "corpus.jsonl"
    gen.write_corpus(str(path), seed=3, n_lines=2000)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2000
    for line in lines:
        _assert_parses_as_oracle(line)


@pytest.mark.parametrize("image_size", [None, (100, 60)])
def test_record_violations_matches_reference(image_size):
    tokens = [make_token("a", x=95, y=0, w=10, h=5), make_token("b", y=55, h=10, confidence=-0.1),
              make_token("c", x=90, w=10, h=60, confidence=math.nan), make_token("d")]
    record = make_record(ocr=tokens, image_size=image_size)
    assert record_violations(record) == oracle_record_violations(record)


@given(st.text(st.characters(exclude_categories=())))
def test_parse_any_text_gives_record_or_package_error(line):
    _assert_record_or_package_error(line)
