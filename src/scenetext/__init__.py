"""Deterministic corpus construction and evaluation for scene-text understanding."""

from importlib import import_module

__version__ = "0.1.0"


def __getattr__(name):
    """The package's re-exports load on first access (PEP 562), so importing
    one submodule, such as `scenetext.metrics`, loads none of the others."""
    for module, names in (("records", ("OcrToken", "QaAnnotation", "Record", "parse_record")),
                          ("ordering", ("order_tokens",)),
                          ("pretrain", ("Objective", "build_stage_plan")),
                          ("finetune", ("Task",))):
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
