"""Deterministic corpus construction and evaluation for scene-text understanding."""

__version__ = "0.1.0"

from .records import OcrToken, QaAnnotation, Record, parse_record  # noqa: E402,F401
from .ordering import order_tokens  # noqa: E402,F401
from .pretrain import Objective, PretrainExample, build_stage_plan  # noqa: E402,F401
from .finetune import FinetuneExample, Task  # noqa: E402,F401
