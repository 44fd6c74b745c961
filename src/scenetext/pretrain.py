"""Pre-training examples: OCR, SPLITOCR, CAP, SPLITCAP.

`Objective.eligible` is the one rule for which records can yield an
objective's target; the pipeline builds and counts only records that pass
it, so the builders check nothing. A builder takes the record and its
`Fragments`, made once from its OCR texts in reading order (see
`ordering.order_tokens`). SPLITOCR splits the ordered texts at a uniform
random point; the prefix becomes extra model input and the suffix the
generation target. OCR is the degenerate case with an empty prefix. CAP
targets the caption conditioned on the full ordered OCR; SPLITCAP
additionally feeds a caption prefix and targets the remainder.

An example is only ever its JSON line: what `json.JSONEncoder(
ensure_ascii=False)` writes for {"example_id", "image_id", "objective",
"prompt", "input_ocr", "input_caption_prefix", "target"}, in that key
order, spliced from string literals escaped by the encoder's own escaper.
The record's literals are escaped once per record (`fragments`), and a
dataset's and pass's once per build (`layouts`). Escaping works character
by character, so escape(a + b) == escape(a)[:-1] + escape(b)[1:]: the
literal of an example_id is the image_id's with the plain-ASCII suffix
spliced in before the closing quote.
"""

import random
from enum import Enum
from json.encoder import encode_basestring as escape
from typing import NamedTuple

from .errors import ConfigError
from .hashing import derive_rng
from .records import Record
from .textformat import TextFormat


class Objective(str, Enum):
    OCR = "OCR"
    SPLITOCR = "SPLITOCR"
    CAP = "CAP"
    SPLITCAP = "SPLITCAP"

    @classmethod
    def from_tag(cls, tag: str) -> "Objective":
        try:
            return cls(tag.upper())
        except ValueError:
            raise ConfigError(f"unknown objective {tag!r}; expected one of "
                              f"{[o.value for o in cls]}") from None

    def eligible(self, record: Record) -> bool:
        """Whether the record can yield this objective's target."""
        if self is Objective.OCR or self is Objective.SPLITOCR:
            return bool(record.ocr)
        if self is Objective.CAP:
            return bool(record.caption)
        return bool(record.caption and record.caption.split())


class Fragments(NamedTuple):
    """A record's strings as JSON string literals, each escaped once and
    shared by every dataset and pass built from the record."""

    image_id: str  # the image_id's literal
    texts: list[str] | None  # the ordered OCR texts; None leaves OCR out
    ocr: list[str]  # each ordered text's literal
    input_ocr: str  # the JSON array of every text


def fragments(image_id: str, texts: list[str] | None) -> Fragments:
    ocr = [] if texts is None else list(map(escape, texts))
    return Fragments(escape(image_id), texts, ocr, f"[{', '.join(ocr)}]")


class Layout(NamedTuple):
    """What one (objective, pass) adds to each of its lines, built once."""

    objective: Objective
    id_suffix: str  # example_id = image_id + id_suffix
    rng_parts: tuple[str, str]  # the objective's value and the pass index
    head: str  # from the example_id's suffix to the image_id literal
    middle: str  # from the image_id literal to the input_ocr array
    separator: str  # the token separator


def layouts(objective: Objective, fmt: TextFormat, passes: int = 1) -> list[Layout]:
    """The layout of each pass of one objective."""
    prompt = fmt.ocr_prompt if objective in (Objective.OCR, Objective.SPLITOCR) else fmt.caption_prompt
    middle = f', "objective": "{objective.value}", "prompt": {escape(prompt)}, "input_ocr": '
    suffixes = [f"/{objective.value.lower()}/{p}" for p in range(passes)]
    return [Layout(objective, suffix, (objective.value, str(p)), f'{suffix}", "image_id": ', middle,
                   fmt.token_separator)
            for p, suffix in enumerate(suffixes)]


def sample_split_point(n: int, rng: random.Random) -> int:
    """Uniform split point in {0..n-1} for n >= 1; k=0 means an empty input
    part and the target part is never empty."""
    return rng.randrange(n)


def build_example(record: Record, frags: Fragments, seed: int, layout: Layout) -> tuple[str, str]:
    """The (example_id, JSON line) of an eligible record's example. Only
    the split objectives derive the per-record RNG, from (seed, image_id,
    objective, pass), because only they draw from it."""
    objective, prefix = layout.objective, '""'
    if objective is Objective.OCR:
        input_ocr, target = "[]", escape(layout.separator.join(frags.texts))
    elif objective is Objective.CAP:
        input_ocr, target = frags.input_ocr, escape(record.caption)
    elif objective is Objective.SPLITOCR:
        texts = frags.texts
        k = sample_split_point(len(texts), derive_rng(seed, record.image_id, *layout.rng_parts))
        input_ocr = f"[{', '.join(frags.ocr[:k])}]"
        target = escape(layout.separator.join(texts[k:]))
    else:
        words = record.caption.split()
        k = sample_split_point(len(words), derive_rng(seed, record.image_id, *layout.rng_parts))
        input_ocr, prefix = frags.input_ocr, escape(" ".join(words[:k]))
        target = escape(" ".join(words[k:]))
    image_id = frags.image_id
    return (record.image_id + layout.id_suffix,
            f'{{"example_id": {image_id[:-1]}{layout.head}{image_id}{layout.middle}{input_ocr}, '
            f'"input_caption_prefix": {prefix}, "target": {target}}}')


def build_stage_plan(stages) -> tuple[Objective, ...]:
    """The stage objectives, in training order; there must be at least one."""
    if not stages:
        raise ConfigError("stage plan must contain at least one objective")
    return tuple(stages)
