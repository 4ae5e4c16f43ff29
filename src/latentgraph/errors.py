"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
anything else -> 3.
"""


class LatentGraphError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(LatentGraphError):
    """Invalid configuration or unusable parameter combination."""


class DataError(LatentGraphError):
    """Unreadable, missing, or structurally broken input data."""


class SchemaError(DataError):
    """Input violates the expected record schema beyond tolerable noise."""


class UndefinedMetricError(LatentGraphError):
    """A metric has no defined value on this graph (reported as null)."""

