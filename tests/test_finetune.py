import json

from scenetext import finetune
from scenetext.finetune import Task, layout, majority_answer
from scenetext.pretrain import Objective, build_example, fragments, layouts
from scenetext.records import QaAnnotation
from scenetext.textformat import DEFAULT_FORMAT, render_input

from conftest import make_record, make_token, ordered_texts


def examples(task, record, texts, fmt=DEFAULT_FORMAT):
    """A record's examples of one task, as the dicts their lines decode to."""
    builder = finetune.build_vqa_examples if task is Task.VQA else finetune.build_caption_examples
    objs = []
    for example_id, line in builder(record, fragments(record.image_id, texts), layout(task, fmt)):
        obj = json.loads(line)
        assert obj["example_id"] == example_id
        objs.append(obj)
    return objs


def sign_record(**kwargs):
    return make_record(
        image_id="sign",
        ocr=[make_token("STOP", x=10, y=10, w=40, h=20)],
        **kwargs,
    )


TEN = ("stop", "stop", "stop", "stop", "stop", "stop", "halt", "stop", "stop", "stop")


def test_vqa_example_assembly():
    record = sign_record(qa=(QaAnnotation("what does the sign say", TEN),))
    (ex,) = examples(Task.VQA, record, ordered_texts(record))
    assert ex["input_text"] == "answer: what does the sign say \n OCR: STOP"
    assert ex["target"] == "stop"
    assert ex["task"] == "VQA"
    assert ex["answers"] == list(TEN)
    assert ex["example_id"] == "sign/vqa/0"


def test_vqa_without_ocr_input():
    record = sign_record(qa=(QaAnnotation("what does the sign say", TEN),))
    (ex,) = examples(Task.VQA, record, None)
    assert "STOP" not in ex["input_text"]
    assert ex["input_text"] == "answer: what does the sign say"
    assert ex["ocr_included"] is False


def test_vqa_skips_record_without_qa():
    assert not Task.VQA.eligible(sign_record())
    assert not Task.VQA.eligible(sign_record(qa=()))
    assert Task.VQA.eligible(sign_record(qa=(QaAnnotation("q", TEN),)))


def test_vqa_one_example_per_question():
    record = sign_record(qa=(
        QaAnnotation("q1", ("a",) * 10),
        QaAnnotation("q2", ("b",) * 10),
    ))
    built = examples(Task.VQA, record, ordered_texts(record))
    assert [e["target"] for e in built] == ["a", "b"]
    assert [e["example_id"] for e in built] == ["sign/vqa/0", "sign/vqa/1"]


def test_majority_answer_lexicographic_tie():
    assert majority_answer(["b", "a", "b", "a"]) == "a"
    assert majority_answer(["z"]) == "z"
    assert majority_answer(TEN) == "stop"


def test_caption_example_assembly():
    record = sign_record(caption="a stop sign on a pole")
    (ex,) = examples(Task.CAPTION, record, ordered_texts(record))
    assert ex["input_text"] == "caption: \n OCR: STOP"
    assert ex["target"] == "a stop sign on a pole"
    assert ex["task"] == "CAPTION"
    assert ex["example_id"] == "sign/caption/0"
    assert "answers" not in ex


def test_caption_without_ocr_input():
    record = sign_record(caption="a stop sign on a pole")
    (ex,) = examples(Task.CAPTION, record, None)
    assert ex["input_text"] == "caption:"
    assert "STOP" not in ex["input_text"]


def test_caption_with_empty_ocr_keeps_empty_segment():
    record = make_record(image_id="plain", caption="a wall")
    (ex,) = examples(Task.CAPTION, record, [])
    assert ex["input_text"] == "caption: \n OCR: "


def test_caption_skips_missing_caption():
    assert not Task.CAPTION.eligible(sign_record())
    assert not Task.CAPTION.eligible(sign_record(caption=""))
    assert Task.CAPTION.eligible(make_record(caption="a wall"))


def test_cap_pretrain_input_matches_caption_finetune_input():
    record = sign_record(caption="a stop sign on a pole")
    texts = ordered_texts(record)
    [cap_layout] = layouts(Objective.CAP, DEFAULT_FORMAT)
    pretrain = json.loads(build_example(record, fragments(record.image_id, texts), 0, cap_layout)[1])
    (caption,) = examples(Task.CAPTION, record, texts)
    rendered = render_input(pretrain["prompt"], DEFAULT_FORMAT,
                            caption_prefix=pretrain["input_caption_prefix"] or None,
                            ocr_text=DEFAULT_FORMAT.token_separator.join(pretrain["input_ocr"]))
    assert rendered == caption["input_text"]


def test_finetune_json_schema():
    record = sign_record(qa=(QaAnnotation("q", TEN),))
    (obj,) = examples(Task.VQA, record, ordered_texts(record))
    assert list(obj) == ["example_id", "image_id", "task", "input_text", "target",
                         "ocr_included", "answers"]
    assert obj["task"] == "VQA"
    assert obj["ocr_included"] is True
    assert len(obj["answers"]) == 10


def test_finetune_json_is_json_dumps_without_ascii_escapes():
    record = make_record(image_id="ïd", caption="ça va 東京",
                         ocr=[make_token("café", x=1, y=1, w=4, h=2)],
                         qa=(QaAnnotation("où?", ("ici", "là", "\u2028")),))
    texts = ordered_texts(record)
    lines = [*finetune.build_vqa_examples(record, fragments(record.image_id, texts),
                                          layout(Task.VQA, DEFAULT_FORMAT)),
             *finetune.build_caption_examples(record, fragments(record.image_id, None),
                                              layout(Task.CAPTION, DEFAULT_FORMAT))]
    assert len(lines) == 2
    for _, line in lines:
        assert line == json.dumps(json.loads(line), ensure_ascii=False)
