"""Fine-tuning examples for scene-text VQA and captioning.

Both tasks are open-ended generation: input is prompt [+ question]
[+ ordered OCR], target is the answer or caption. The pipeline builds only
the records that `Task.eligible` admits, so the builders check nothing.
They take the record's `pretrain.Fragments`; fragments without texts drop
the OCR segment entirely for the no-OCR-input ablation.

As in `pretrain`, an example is only ever its JSON line: what
`json.JSONEncoder(ensure_ascii=False)` writes for {"example_id",
"image_id", "task", "input_text", "target", "ocr_included"[, "answers"]},
spliced from escaped literals. The input text is `render_input`'s, whose
parts are escaped apart: the prompt once per build, the OCR segment once
per record, and each question once.
"""

from collections import Counter
from enum import Enum
from typing import NamedTuple

from .pretrain import Fragments, escape
from .records import Record
from .textformat import TextFormat


class Task(str, Enum):
    VQA = "VQA"
    CAPTION = "CAPTION"

    def eligible(self, record: Record) -> bool:
        """Whether the record can yield this task's targets."""
        return bool(record.qa) if self is Task.VQA else bool(record.caption)


class Layout(NamedTuple):
    """What one task adds to each of its lines, built once."""

    id_suffix: str  # example_id = image_id + id_suffix + the question index
    middle: str  # from the image_id literal to the input text literal
    prompt: str  # the input text literal up to the question or the OCR segment
    segment: str  # the OCR segment before the texts
    separator: str  # the token separator


def layout(task: Task, fmt: TextFormat) -> Layout:
    prompt = f"{fmt.vqa_prompt} " if task is Task.VQA else fmt.caption_prompt
    return Layout(f"/{task.value.lower()}/", f', "task": "{task.value}", "input_text": ',
                  escape(prompt)[:-1], f"{fmt.segment_separator}{fmt.ocr_label}",
                  fmt.token_separator)


def majority_answer(answers) -> str:
    """Most frequent answer; ties broken lexicographically."""
    counts = Counter(answers)
    top = max(counts.values())
    return min(a for a, c in counts.items() if c == top)


def _input_tail(frags: Fragments, layout: Layout) -> str:
    """The input text's literal from after the question to its closing quote."""
    if frags.texts is None:
        return '"'
    return escape(layout.segment + layout.separator.join(frags.texts))[1:]


def _line(frags: Fragments, layout: Layout, index: int, input_text: str, target: str,
          answers: str = "") -> str:
    """Example `index`'s line, given its input text's and target's literals
    and, for VQA, its answers' key and array."""
    image_id = frags.image_id
    included = "false" if frags.texts is None else "true"
    return (f'{{"example_id": {image_id[:-1]}{layout.id_suffix}{index}", "image_id": {image_id}'
            f'{layout.middle}{input_text}, "target": {target}, "ocr_included": {included}'
            f'{answers}}}')


def build_vqa_examples(record: Record, frags: Fragments, layout: Layout) -> list[tuple[str, str]]:
    """The (example_id, JSON line) of each question; the training target is
    the majority answer, and every gold answer is carried through for eval."""
    tail = _input_tail(frags, layout)
    return [(f"{record.image_id}{layout.id_suffix}{i}",
             _line(frags, layout, i, f"{layout.prompt}{escape(qa.question)[1:-1]}{tail}",
                   escape(majority_answer(qa.answers)),
                   f', "answers": [{", ".join(map(escape, qa.answers))}]'))
            for i, qa in enumerate(record.qa)]


def build_caption_examples(record: Record, frags: Fragments,
                           layout: Layout) -> list[tuple[str, str]]:
    return [(f"{record.image_id}{layout.id_suffix}0",
             _line(frags, layout, 0, f"{layout.prompt}{_input_tail(frags, layout)}",
                   escape(record.caption)))]
