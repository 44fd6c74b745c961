"""Model-facing input text assembly.

One renderer defines the input text of both pre-training and fine-tuning,
so that a CAP pre-training example and a CAPTION fine-tune example for the
same record render byte-identical input text. A fine-tune line holds its
input text (`finetune` splices it from escaped parts); a pre-training line
holds the parts that `render_input` joins (prompt, input_ocr,
input_caption_prefix). Delimiters and prompts are configuration with fixed
defaults; effective values are recorded in run manifests.
"""

from typing import NamedTuple


class TextFormat(NamedTuple):
    ocr_prompt: str = "read:"
    caption_prompt: str = "caption:"
    vqa_prompt: str = "answer:"
    token_separator: str = " "
    segment_separator: str = " \n "
    ocr_label: str = "OCR: "


DEFAULT_FORMAT = TextFormat()


def render_input(
    prompt: str,
    fmt: TextFormat = DEFAULT_FORMAT,
    question: str | None = None,
    caption_prefix: str | None = None,
    ocr_text: str | None = None,
) -> str:
    """Assemble prompt [+ question] [+ caption prefix] [+ OCR segment].

    ocr_text=None omits the OCR segment entirely; an empty string keeps the
    (empty) segment, which marks "OCR included but no scene text".
    """
    head = prompt
    if question is not None:
        head = f"{head} {question}"
    if caption_prefix:
        head = f"{head} {caption_prefix}"
    if ocr_text is None:
        return head
    return f"{head}{fmt.segment_separator}{fmt.ocr_label}{ocr_text}"
