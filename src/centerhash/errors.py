"""Exception types shared across the package."""


class CenterHashError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(CenterHashError, ValueError):
    """Shapes or bit lengths that should agree do not."""


class InvalidLabelError(CenterHashError, ValueError):
    """A label set is empty or refers to an unknown category."""


class InsufficientCentersError(CenterHashError, ValueError):
    """More categories than available hash centers."""


class GenerationError(CenterHashError, RuntimeError):
    """Random center generation could not produce distinct centers."""


class NumericError(CenterHashError, ArithmeticError):
    """NaN or infinity where a finite value is required."""


class FormatError(CenterHashError, ValueError):
    """A serialized file is malformed. Carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class TrainingError(CenterHashError, RuntimeError):
    """Training diverged. Carries the epoch and batch where it happened."""

    def __init__(self, message: str, epoch: int, batch: int):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"{message} (epoch {epoch}, batch {batch})")


class StageError(CenterHashError, RuntimeError):
    """A pipeline stage failed. The message is prefixed with the stage tag."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")
