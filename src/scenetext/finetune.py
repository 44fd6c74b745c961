"""Fine-tuning example builders for scene-text VQA and captioning.

Both tasks are open-ended generation: input is prompt [+ question]
[+ ordered OCR], target is the answer or caption. The pipeline builds only
the records that `Task.eligible` admits, so the builders check nothing.
They take the record's OCR texts in reading order; texts=None drops the
OCR segment entirely for the no-OCR-input ablation.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .pretrain import DEFAULT_CONFIG, ObjectiveConfig, encode_json
from .records import Record
from .textformat import render_input


class Task(str, Enum):
    VQA = "VQA"
    CAPTION = "CAPTION"

    def eligible(self, record: Record) -> bool:
        """Whether the record can yield this task's targets."""
        return bool(record.qa) if self is Task.VQA else bool(record.caption)


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


def majority_answer(answers) -> str:
    """Most frequent answer; ties broken lexicographically."""
    counts = Counter(answers)
    top = max(counts.values())
    return min(a for a, c in counts.items() if c == top)


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
