"""Mel spectrogram front-end analysis: signal chain, cost models, metrics.

The package measures what a mel front-end configuration costs (compute,
storage, time-frequency resolution) and what the downstream tagging
models make of it, over a fixed benchmark grid of sample rates, mel
counts, hop sizes, and magnitude compressions.
"""

from .exceptions import (
    DegenerateFilterbankError,
    DegenerateVarianceError,
    EmptySummaryError,
    GridWarning,
    ManifestParseError,
    MelGaugeError,
    MspecFormatError,
    SchemaError,
    ShapeUnderflowError,
    UndefinedMetricError,
    UnsupportedConfigError,
    UnsupportedLayoutError,
    UnsupportedRatioError,
)
from .dsp import (
    PAD_CENTER,
    PAD_NONE,
    AudioBuffer,
    FrameGrid,
    PowerSpectrogram,
    frame_count,
    hann_window,
    read_raw_float32,
    read_wav_mono,
    resample_rational,
    stft_power,
)
from .mel import (
    BENCHMARK_FRAMES,
    COMPRESSIONS,
    MSPEC_HEADER_SIZE,
    MelConfig,
    MelFilterbank,
    MelSpectrogram,
    benchmark_frames,
    compress_db,
    compress_log,
    enumerate_grid,
    hz_to_mel_slaney,
    is_grid_config,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz_slaney,
    read_mspec,
    write_mspec,
)
from .arch import (
    ArchSpec,
    ConvLayerSpec,
    CostReport,
    PoolingPlan,
    ShapeTrace,
    SweepEntry,
    arch_from_dict,
    arch_to_dict,
    count_macs,
    filter_extent,
    grid_cost_sweep,
    load_arch,
    musicnn_filter_heights,
    musicnn_frontend_spec,
    propagate_shapes,
    save_arch,
    vgg_arch,
    vgg_pooling_plan,
)
from .metrics import (
    MetricSummary,
    TagTable,
    load_tag_table,
    macro_summary,
    pr_auc,
    roc_auc,
    t_test_independent,
)
from .dataset import (
    MTAT_FOLDERS,
    DatasetManifest,
    ManifestItem,
    SplitAssignment,
    canonical_split,
    explicit_split,
    load_manifest,
    parse_annotations,
    save_manifest,
    storage_size,
    top_k_tags,
)
from .reference import (
    PUBLISHED_AUC,
    SOURCE_LABEL,
    PublishedResult,
    published_auc,
    published_for_config,
)

__version__ = "0.1.0"
