"""Mel spectrogram front-end analysis: signal chain, cost models, metrics.

The package measures what a mel front-end configuration costs (compute,
storage, time-frequency resolution) and what the downstream tagging
models make of it, over a fixed benchmark grid of sample rates, mel
counts, hop sizes, and magnitude compressions.

Exports are resolved on first use (PEP 562), so `import melgauge` loads
no submodule, and code that touches only the configuration layer, the
cost models and the reference table never imports numpy.
"""

import importlib

# Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "exceptions": (
            "DegenerateFilterbankError", "DegenerateVarianceError", "EmptySummaryError",
            "GridWarning", "ManifestParseError", "MelGaugeError", "MspecFormatError",
            "OutputPathError", "SchemaError", "ShapeUnderflowError", "UndefinedMetricError",
            "UnsupportedConfigError", "UnsupportedLayoutError", "UnsupportedRatioError",
        ),
        "config": (
            "BENCHMARK_FRAMES", "COMPRESSIONS", "MSPEC_HEADER_SIZE", "MelConfig",
            "benchmark_frames", "enumerate_grid", "frame_count", "is_grid_config", "mspec_size",
        ),
        "dsp": (
            "AudioBuffer", "FrameGrid", "PowerSpectrogram", "hann_window",
            "read_raw_float32", "read_wav_mono", "resample_rational", "stft_power",
        ),
        "mel": (
            "MelFilterbank", "MelSpectrogram", "compress_db", "compress_log",
            "hz_to_mel_slaney", "mel_filterbank", "mel_spectrogram", "mel_to_hz_slaney",
            "read_mspec", "write_mspec",
        ),
        "arch": (
            "ArchSpec", "ConvLayerSpec", "CostReport", "PoolingPlan", "ShapeTrace",
            "SweepEntry", "count_macs", "filter_extent", "grid_cost_sweep",
            "musicnn_filter_heights", "musicnn_frontend_spec", "propagate_shapes",
            "vgg_arch", "vgg_pooling_plan",
        ),
        "metrics": (
            "MetricSummary", "TagTable", "load_tag_table", "macro_summary", "pr_auc",
            "roc_auc", "t_test_independent",
        ),
        "dataset": (
            "MTAT_FOLDERS", "DatasetManifest", "ManifestItem", "SplitAssignment",
            "canonical_split", "parse_annotations", "top_k_tags",
        ),
        "reference": (
            "PUBLISHED_AUC", "SOURCE_LABEL", "PublishedResult", "published_auc",
            "published_for_config",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
