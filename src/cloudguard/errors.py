"""Exception taxonomy shared across the package."""


class CloudguardError(Exception):
    """Base class for all package errors."""


class DimensionError(CloudguardError, ValueError):
    """Array shapes incompatible with an operation's contract."""


class InputError(CloudguardError, ValueError):
    """Invalid or empty input data."""


class ConfigError(CloudguardError, ValueError):
    """Invalid configuration values."""


class TrainingDivergedError(CloudguardError, RuntimeError):
    """Loss or gradients became non-finite during training."""


class CatalogError(CloudguardError, LookupError):
    """Unknown action id or malformed action catalog."""


class CheckpointError(CloudguardError, RuntimeError):
    """Checkpoint file missing, corrupt, or schema-mismatched."""


class ComparisonError(CloudguardError, ValueError):
    """Reports do not share the metric schema needed for comparison."""


class FilesystemError(CloudguardError, OSError):
    """An output location cannot be created or written."""


class EnvironmentFault(CloudguardError, RuntimeError):
    """A simulation environment step failed."""
