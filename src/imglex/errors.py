"""Exception types shared across the package."""


class ImglexError(Exception):
    """Base class for all package-specific errors."""


class DataError(ImglexError, ValueError):
    """A corpus, feature, task, vocabulary or embedding file is missing or malformed."""


class ConfigError(ImglexError):
    """A run configuration violates an invariant (checked before any work)."""


class EvalError(ImglexError):
    """An evaluation task is degenerate or cannot be scored."""


class TrainingDiverged(ImglexError):
    """Training produced a non-finite value; carries where and what."""

    def __init__(self, epoch: int, batch: int, what: str):
        super().__init__(f"epoch {epoch}, batch {batch}: non-finite {what}")
        self.epoch = epoch
        self.batch = batch
        self.what = what
