"""The example lines spliced from escaped fragments equal, byte for byte,
the lines the old example objects serialized (`oracles.old_examples`), on
hostile text: quotes, backslashes, every control character, DEL, the line
and paragraph separators and non-ASCII, in every string a line holds, and
in the prompts and separators of a custom `TextFormat`."""

import pytest
from hypothesis import given, settings, strategies as st

from scenetext.finetune import Task, build_caption_examples, build_vqa_examples, layout
from scenetext.hashing import hash64
from scenetext.pipeline import spill_records
from scenetext.pretrain import Objective, build_example, fragments, layouts
from scenetext.records import QaAnnotation
from scenetext.textformat import DEFAULT_FORMAT, TextFormat

from conftest import make_record, make_token
from oracles import old_examples

HOSTILE = ['"', "\\", "\x7f", "\u2028", "\u2029", "\x85", "\xa0", "é", "東", "\U0001f600", " ",
           "/", "a", "Z", *map(chr, range(0x20))]
text = st.text(st.sampled_from(HOSTILE), min_size=1, max_size=8)

CUSTOM = TextFormat(ocr_prompt='read "this":\\', caption_prompt='cap\\tion\n"',
                    vqa_prompt='a"n\\s\nwer:', token_separator=' \\"|\n',
                    segment_separator='\n"\\', ocr_label='O\\C"R:\n')
formats = st.sampled_from([DEFAULT_FORMAT, CUSTOM]) | st.builds(TextFormat, *[text] * 6)


@st.composite
def records(draw):
    texts = draw(st.lists(text, max_size=5))
    qa = draw(st.none() | st.lists(st.builds(QaAnnotation, text, st.lists(text, min_size=1,
                                                                           max_size=4).map(tuple)),
                                   max_size=3).map(tuple))
    record = make_record(image_id=draw(text), ocr=[make_token(t) for t in texts],
                         caption=draw(st.none() | st.text(st.sampled_from(HOSTILE), max_size=12)),
                         qa=qa)
    return record, texts


def pretrain_pairs(record, texts, objective, seed, fmt):
    """Both paths' (example_id, line) pairs of every pass of two, as functions."""
    old = old_examples()
    return (lambda: [build_example(record, fragments(record.image_id, texts), seed, layout)
                     for layout in layouts(objective, fmt, 2)],
            lambda: [(ex.example_id, ex.to_json())
                     for ex in (old.build_example(record, texts, objective, seed,
                                                  old.ObjectiveConfig(fmt, p)) for p in range(2))])


def finetune_pairs(record, texts, task, fmt):
    old = old_examples()
    builder, old_builder = ((build_vqa_examples, old.build_vqa_examples) if task is Task.VQA
                            else (build_caption_examples, old.build_caption_examples))
    return (lambda: builder(record, fragments(record.image_id, texts), layout(task, fmt)),
            lambda: [(ex.example_id, ex.to_json())
                     for ex in old_builder(record, texts, old.ObjectiveConfig(fmt))])


def all_pairs(record, texts, seed, fmt):
    """Both paths of every objective and task the record is eligible for."""
    for objective in Objective:
        if objective.eligible(record):
            yield objective, pretrain_pairs(record, texts, objective, seed, fmt)
    for task in Task:
        if task.eligible(record):
            for ocr in (texts, None):
                yield (task, ocr is None), finetune_pairs(record, ocr, task, fmt)


@settings(max_examples=300, deadline=None)
@given(records(), st.integers(0, 2**64 - 1), formats)
def test_lines_equal_the_old_serializers(record_texts, seed, fmt):
    record, texts = record_texts
    for dataset, (new, ref) in all_pairs(record, texts, seed, fmt):
        assert new() == ref(), dataset


def spilled(seed, pairs):
    """The spill records of the pairs pairs() builds, or the error that
    building or encoding them raised."""
    try:
        return spill_records([(hash64(seed, "shuffle", example_id), line)
                              for example_id, line in pairs()], "0" * 32)
    except UnicodeEncodeError as exc:
        return repr(exc)


@pytest.mark.parametrize("field", ["image_id", "ocr", "caption", "question", "answer"])
def test_a_lone_surrogate_raises_the_same_error_on_both_paths(field):
    bad = "x\ud800y"
    record = make_record(image_id=bad if field == "image_id" else "img",
                         ocr=[make_token("a"), make_token(bad if field == "ocr" else "b")],
                         caption=f"two {bad if field == 'caption' else 'words'}",
                         qa=(QaAnnotation(bad if field == "question" else "q",
                                          ("a", bad if field == "answer" else "b")),))
    texts = [t.text for t in record.ocr]
    raised = 0
    for dataset, (new, ref) in all_pairs(record, texts, 5, CUSTOM):
        assert spilled(5, new) == spilled(5, ref), dataset
        raised += isinstance(spilled(5, new), str)
    assert raised  # some dataset's line holds the surrogate
