"""Exception types shared across the package."""


class SceneTextError(Exception):
    """Base class for all package errors."""


class ParseError(SceneTextError):
    """Malformed JSON input; carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class SchemaError(SceneTextError):
    """Structurally valid JSON that violates the record schema."""


class ConfigError(SceneTextError):
    """Invalid pipeline or CLI configuration."""


class ContractError(SceneTextError):
    """A metric was called with inputs outside its contract."""


class AlignmentError(SceneTextError):
    """Prediction and gold files do not align on example_id."""

    def __init__(self, message: str, orphans: list[str] | None = None):
        super().__init__(message)
        self.orphans = orphans or []
