"""Pre-training example builders: OCR, SPLITOCR, CAP, SPLITCAP.

`Objective.eligible` is the one rule for which records can yield an
objective's target; the pipeline builds and counts only records that pass
it, so the builders check nothing. Each builder takes the record and its
OCR texts in reading order (see `ordering.order_tokens`). SPLITOCR splits
the ordered texts at a uniform random point; the prefix becomes extra
model input and the suffix the generation target. OCR is the degenerate
case with an empty prefix. CAP targets the caption conditioned on the
full ordered OCR; SPLITCAP additionally feeds a caption prefix and
targets the remainder.
"""

import json
import random
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError
from .hashing import derive_rng
from .records import Record
from .textformat import DEFAULT_FORMAT, TextFormat, render_input


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


@dataclass(frozen=True)
class ObjectiveConfig:
    fmt: TextFormat = DEFAULT_FORMAT
    pass_index: int = 0


DEFAULT_CONFIG = ObjectiveConfig()


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
        return json.dumps(
            {
                "example_id": self.example_id,
                "image_id": self.image_id,
                "objective": self.objective.value,
                "prompt": self.prompt,
                "input_ocr": list(self.input_ocr),
                "input_caption_prefix": self.input_caption_prefix,
                "target": self.target,
            },
            ensure_ascii=False,
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
class StagePlan:
    """Ordered list of per-objective dataset builds for sequential training."""

    stages: tuple[Objective, ...]

    @property
    def dataset_names(self) -> tuple[str, ...]:
        """One output dataset name per stage, in training order."""
        return tuple(f"stage{i}_{obj.value.lower()}" for i, obj in enumerate(self.stages))


def build_stage_plan(stages) -> StagePlan:
    """Validate the stage objectives, given as Objectives or tags."""
    if not stages:
        raise ConfigError("stage plan must contain at least one objective")
    return StagePlan(tuple(s if isinstance(s, Objective) else Objective.from_tag(s) for s in stages))
