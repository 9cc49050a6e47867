"""Exception types shared across the package."""


class MelGaugeError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedRatioError(MelGaugeError):
    """Resampling ratio does not reduce to small integers."""


class DegenerateFilterbankError(MelGaugeError):
    """A mel filter has no support on the FFT bin grid."""


class UnsupportedConfigError(MelGaugeError):
    """Configuration outside the supported analysis grid."""


class ShapeUnderflowError(MelGaugeError):
    """Pooling or convolution shrank a spatial dimension to zero."""


class UndefinedMetricError(MelGaugeError):
    """Metric preconditions not met (e.g. single-class labels)."""


class EmptySummaryError(UndefinedMetricError):
    """No tag satisfied the metric preconditions."""


class DegenerateVarianceError(MelGaugeError):
    """Both samples have zero variance but different means."""


class ManifestParseError(MelGaugeError):
    """Malformed annotation or manifest input."""


class UnsupportedLayoutError(MelGaugeError):
    """Dataset folder layout does not match the expected convention."""


class SchemaError(MelGaugeError):
    """Prediction and label tables disagree on the tag schema."""


class MspecFormatError(MelGaugeError):
    """Binary spectrogram container is malformed or unsupported."""


class OutputPathError(MelGaugeError):
    """An output file cannot be written, or two inputs would write the same one."""
