import json

from scenetext.finetune import (
    Task,
    build_caption_examples,
    build_vqa_examples,
    majority_answer,
)
from scenetext.pretrain import Objective, build_example
from scenetext.records import QaAnnotation

from conftest import make_record, make_token, ordered_texts


def sign_record(**kwargs):
    return make_record(
        image_id="sign",
        ocr=[make_token("STOP", x=10, y=10, w=40, h=20)],
        **kwargs,
    )


TEN = ("stop", "stop", "stop", "stop", "stop", "stop", "halt", "stop", "stop", "stop")


def test_vqa_example_assembly():
    record = sign_record(qa=(QaAnnotation("what does the sign say", TEN),))
    (ex,) = build_vqa_examples(record, ordered_texts(record))
    assert ex.input_text == "answer: what does the sign say \n OCR: STOP"
    assert ex.target == "stop"
    assert ex.task is Task.VQA
    assert ex.answers == TEN


def test_vqa_without_ocr_input():
    record = sign_record(qa=(QaAnnotation("what does the sign say", TEN),))
    (ex,) = build_vqa_examples(record, None)
    assert "STOP" not in ex.input_text
    assert ex.input_text == "answer: what does the sign say"
    assert not ex.ocr_included


def test_vqa_skips_record_without_qa():
    assert not Task.VQA.eligible(sign_record())
    assert not Task.VQA.eligible(sign_record(qa=()))
    assert Task.VQA.eligible(sign_record(qa=(QaAnnotation("q", TEN),)))


def test_vqa_one_example_per_question():
    record = sign_record(qa=(
        QaAnnotation("q1", ("a",) * 10),
        QaAnnotation("q2", ("b",) * 10),
    ))
    examples = build_vqa_examples(record, ordered_texts(record))
    assert [e.target for e in examples] == ["a", "b"]
    assert len({e.example_id for e in examples}) == 2


def test_majority_answer_lexicographic_tie():
    assert majority_answer(["b", "a", "b", "a"]) == "a"
    assert majority_answer(["z"]) == "z"
    assert majority_answer(TEN) == "stop"


def test_caption_example_assembly():
    record = sign_record(caption="a stop sign on a pole")
    (ex,) = build_caption_examples(record, ordered_texts(record))
    assert ex.input_text == "caption: \n OCR: STOP"
    assert ex.target == "a stop sign on a pole"
    assert ex.task is Task.CAPTION


def test_caption_without_ocr_input():
    record = sign_record(caption="a stop sign on a pole")
    (ex,) = build_caption_examples(record, None)
    assert ex.input_text == "caption:"
    assert "STOP" not in ex.input_text


def test_caption_with_empty_ocr_keeps_empty_segment():
    record = make_record(image_id="plain", caption="a wall")
    (ex,) = build_caption_examples(record, [])
    assert ex.input_text == "caption: \n OCR: "


def test_caption_skips_missing_caption():
    assert not Task.CAPTION.eligible(sign_record())
    assert not Task.CAPTION.eligible(sign_record(caption=""))
    assert Task.CAPTION.eligible(make_record(caption="a wall"))


def test_cap_pretrain_input_matches_caption_finetune_input():
    record = sign_record(caption="a stop sign on a pole")
    texts = ordered_texts(record)
    pretrain = build_example(record, texts, Objective.CAP, seed=0)
    (finetune,) = build_caption_examples(record, texts)
    assert pretrain.input_text() == finetune.input_text


def test_finetune_json_schema():
    record = sign_record(qa=(QaAnnotation("q", TEN),))
    (ex,) = build_vqa_examples(record, ordered_texts(record))
    obj = json.loads(ex.to_json())
    assert obj["task"] == "VQA"
    assert obj["ocr_included"] is True
    assert len(obj["answers"]) == 10


def test_finetune_json_is_json_dumps_without_ascii_escapes():
    record = make_record(image_id="ïd", caption="ça va 東京",
                         ocr=[make_token("café", x=1, y=1, w=4, h=2)],
                         qa=(QaAnnotation("où?", ("ici", "là", "\u2028")),))
    texts = ordered_texts(record)
    examples = [*build_vqa_examples(record, texts), *build_caption_examples(record, None)]
    for ex in examples:
        obj = {"example_id": ex.example_id, "image_id": ex.image_id, "task": ex.task.value,
               "input_text": ex.input_text, "target": ex.target,
               "ocr_included": ex.ocr_included}
        if ex.answers:
            obj["answers"] = list(ex.answers)
        assert ex.to_json() == json.dumps(obj, ensure_ascii=False)
