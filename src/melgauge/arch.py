"""CNN shape and cost models matched to the mel front-end grid.

Two architectures are modeled. "vgg-cnn" is a four-block stack of 3x3
convolutions (128/384/768/2048 channels) where each block ends in a max
pool; the pooling plan is looked up per front-end configuration so that
the stack reduces any grid input to exactly 1x1. "musicnn-frontend" is a
bank of parallel first-layer filters whose heights follow the mel count
(90% and 40% of the input rows) plus four temporal filters, followed
by a small sequential back-end.

Cost is measured in multiply-accumulate operations (MACs) of the
convolution layers, counted at the conv output dims before pooling, plus
one documented term for the final tag projection. Pooling, biases,
normalization, and activations are not counted. The MUSICNN back-end and
everything after it are approximations (the wiring between front-end and
back-end is under-specified) and are labeled as such in every report.

Shapes and MACs come from one walk over the architecture. It uses
floor division per pooling stage. If a stage would reach zero the walk
fails; if the stack ends above 1x1 a terminal global pool is appended
and recorded in the trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .config import (
    REFERENCE_HOP, MelConfig, benchmark_frames, frame_count, mspec_size, positive_int,
)
from .exceptions import ShapeUnderflowError, UnsupportedConfigError

__all__ = [
    "VGG_CHANNELS",
    "TIME_POOLS",
    "FREQ_POOLS",
    "MUSICNN_TIMBRE_WIDTHS",
    "MUSICNN_TEMPORAL_WIDTHS",
    "MUSICNN_SEGMENT_SECONDS",
    "ConvLayerSpec",
    "PoolingPlan",
    "ArchSpec",
    "ShapeTrace",
    "CostReport",
    "SweepEntry",
    "vgg_pooling_plan",
    "vgg_arch",
    "musicnn_frontend_spec",
    "musicnn_filter_heights",
    "propagate_shapes",
    "count_macs",
    "filter_extent",
    "grid_cost_sweep",
]

ARCH_NAMES = ("vgg-cnn", "musicnn-frontend")

VGG_CHANNELS = (128, 384, 768, 2048)

# Per-block time pools for each (sample rate, hop multiplier); the last
# block absorbs most of the hop-induced width change.
TIME_POOLS = {
    12000: {
        1: (4, 5, 8, 8),
        2: (4, 5, 8, 4),
        3: (4, 5, 8, 2),
        4: (4, 5, 8, 2),
        5: (4, 5, 8, 1),
        10: (4, 5, 4, 1),
    },
    16000: {
        1: (4, 5, 9, 10),
        2: (4, 5, 9, 5),
        3: (4, 5, 9, 3),
        4: (4, 5, 9, 2),
        5: (4, 5, 9, 2),
        10: (4, 5, 9, 1),
    },
}

# Per-block frequency pools for each mel count.
FREQ_POOLS = {
    128: (2, 4, 4, 4),
    96: (2, 4, 3, 4),
    48: (2, 4, 3, 2),
    32: (2, 2, 3, 2),
    24: (2, 2, 3, 2),
    16: (2, 2, 2, 2),
    8: (2, 2, 2, 1),
}

MUSICNN_TIMBRE_WIDTHS = (1, 3, 7)
MUSICNN_TEMPORAL_WIDTHS = (32, 64, 128, 165)
MUSICNN_SEGMENT_SECONDS = 3.0
MUSICNN_FILTERS_PER_SHAPE = 51
MUSICNN_BACKEND_CHANNELS = 512
MUSICNN_BACKEND_DEPTH = 3

# Tags of the final projection, the top-50 tagging task of the paper.
OUTPUT_TAGS = 50


@dataclass(frozen=True)
class ConvLayerSpec:
    """One 2-D convolution layer: (filter_freq x filter_time) filters."""

    filter_freq: int
    filter_time: int
    out_channels: int
    padding: str = "same"

    def __post_init__(self) -> None:
        for name in ("filter_freq", "filter_time", "out_channels"):
            object.__setattr__(self, name, positive_int(name, getattr(self, name)))
        if self.padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {self.padding!r}")


# The layers no configuration changes, built once: the whole vgg-cnn
# stack (3x3, "same" padding) and MUSICNN's temporal and back-end layers.
_VGG_LAYERS = tuple(ConvLayerSpec(3, 3, channels) for channels in VGG_CHANNELS)
_MUSICNN_TEMPORAL_LAYERS = tuple(
    ConvLayerSpec(1, width, MUSICNN_FILTERS_PER_SHAPE) for width in MUSICNN_TEMPORAL_WIDTHS
)
_MUSICNN_BACKEND_LAYERS = (ConvLayerSpec(1, 7, MUSICNN_BACKEND_CHANNELS),) * MUSICNN_BACKEND_DEPTH


@dataclass(frozen=True)
class PoolingPlan:
    """Per-block (freq, time) max-pool factors for the four VGG blocks."""

    freq_pools: tuple[int, int, int, int]
    time_pools: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        for name, pools in (("freq_pools", self.freq_pools), ("time_pools", self.time_pools)):
            pools = tuple(positive_int(f"{name}[{i}]", p) for i, p in enumerate(pools))
            if len(pools) != 4:
                raise ValueError(f"{name} must have 4 entries, got {len(pools)}")
            object.__setattr__(self, name, pools)


@dataclass(frozen=True)
class ArchSpec:
    """Architecture description sufficient for shape and MAC analysis.

    vgg-cnn: `layers` is the fixed four-conv stack and `pooling` is
    required. musicnn-frontend: `layers` run in parallel on the input,
    `backend_layers` run sequentially afterwards with frequency
    collapsed, and `segment_frames` is the model's input width. Both end
    in a projection onto OUTPUT_TAGS tags.
    """

    name: str
    layers: tuple[ConvLayerSpec, ...]
    pooling: PoolingPlan | None = None
    backend_layers: tuple[ConvLayerSpec, ...] = ()
    segment_frames: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "backend_layers", tuple(self.backend_layers))
        if self.name not in ARCH_NAMES:
            raise ValueError(f"name must be one of {ARCH_NAMES}, got {self.name!r}")
        if not self.layers:
            raise ValueError("layers must not be empty")
        if self.name == "vgg-cnn":
            if self.pooling is None:
                raise ValueError("vgg-cnn requires a pooling plan")
            if self.backend_layers:
                raise ValueError("vgg-cnn takes no backend_layers")
            if self.segment_frames is not None:
                raise ValueError("vgg-cnn takes no segment_frames")
            if self.layers != _VGG_LAYERS:
                raise ValueError(
                    'vgg-cnn is fixed to four 3x3 "same"-padded conv layers with '
                    f"channels {VGG_CHANNELS}"
                )
        else:
            if self.pooling is not None:
                raise ValueError("musicnn-frontend has no block pooling plan")
            segment_frames = positive_int("segment_frames", self.segment_frames)
            object.__setattr__(self, "segment_frames", segment_frames)


@dataclass(frozen=True)
class ShapeTrace:
    """Recorded (freq, time, channels) after each stage, input first."""

    stages: tuple[tuple[int, int, int], ...]
    labels: tuple[str, ...]
    used_global_pool: bool

    @property
    def final_shape(self) -> tuple[int, int, int]:
        return self.stages[-1]

    @property
    def stack_output(self) -> tuple[int, int, int]:
        """Shape after the last declared stage, before any terminal pool."""
        return self.stages[-2] if self.used_global_pool else self.stages[-1]


@dataclass(frozen=True)
class CostReport:
    """Per-layer and total MAC counts plus input feature storage size."""

    layer_names: tuple[str, ...]
    per_layer_macs: tuple[int, ...]
    total_macs: int
    feature_bytes: int
    approximate_layers: tuple[str, ...] = ()

    @property
    def gmacs(self) -> float:
        """Total in units of 1e9 MACs, per single example."""
        return self.total_macs / 1e9


@dataclass(frozen=True)
class SweepEntry:
    """One grid_cost_sweep row: a report or an inline per-config error."""

    config: MelConfig
    report: CostReport | None
    error: str | None = None


def vgg_pooling_plan(n_mels: int, hop_multiplier: int, sample_rate: int) -> PoolingPlan:
    """Look up the pooling plan that closes a grid input to exactly 1x1."""
    if sample_rate not in TIME_POOLS or hop_multiplier not in TIME_POOLS[sample_rate]:
        raise UnsupportedConfigError(
            f"no time pooling plan for ({sample_rate} Hz, x{hop_multiplier})"
        )
    if n_mels not in FREQ_POOLS:
        raise UnsupportedConfigError(f"no frequency pooling plan for {n_mels} mels")
    return PoolingPlan(
        freq_pools=FREQ_POOLS[n_mels], time_pools=TIME_POOLS[sample_rate][hop_multiplier]
    )


def vgg_arch(pooling: PoolingPlan) -> ArchSpec:
    """The fixed four-block 3x3 stack with the given pooling plan."""
    return ArchSpec(name="vgg-cnn", layers=_VGG_LAYERS, pooling=pooling)


def musicnn_filter_heights(n_mels: int) -> tuple[int, int]:
    """(90%, 40%) timbre filter heights: floor(0.9 n), floor(0.4 n)."""
    n_mels = positive_int("n_mels", n_mels)
    if n_mels < 8:
        raise ValueError(f"n_mels must be >= 8, got {n_mels}")
    return int(0.9 * n_mels), int(0.4 * n_mels)


def musicnn_frontend_spec(
    n_mels: int, sample_rate: int = 16000, hop_multiplier: int = 1
) -> ArchSpec:
    """Front-end filter bank derived from the mel count.

    Timbre filters span 40% and 90% of the mel rows at widths 1/3/7
    (valid padding: they slide only inside the input); temporal filters
    are 1-row at widths 32/64/128/165 (same padding); each shape has 51
    filters. The back-end is three 1x7 conv layers at 512 channels. The
    model consumes 3-second segments, so segment_frames follows the hop.
    """
    h90, h40 = musicnn_filter_heights(n_mels)
    timbre_layers = tuple(
        ConvLayerSpec(height, width, MUSICNN_FILTERS_PER_SHAPE, padding="valid")
        for height in (h40, h90)
        for width in MUSICNN_TIMBRE_WIDTHS
    )
    segment_frames = frame_count(
        round(MUSICNN_SEGMENT_SECONDS * sample_rate), REFERENCE_HOP * hop_multiplier
    )
    return ArchSpec(
        name="musicnn-frontend",
        layers=timbre_layers + _MUSICNN_TEMPORAL_LAYERS,
        backend_layers=_MUSICNN_BACKEND_LAYERS,
        segment_frames=segment_frames,
    )


def _conv_output(freq: int, time: int, layer: ConvLayerSpec, label: str) -> tuple[int, int]:
    if layer.padding == "same":
        return freq, time
    out_freq = freq - layer.filter_freq + 1
    out_time = time - layer.filter_time + 1
    if out_freq < 1 or out_time < 1:
        raise ShapeUnderflowError(
            f"{label}: valid {layer.filter_freq}x{layer.filter_time} filter does not "
            f"fit a {freq}x{time} input"
        )
    return out_freq, out_time


def _walk(arch: ArchSpec, input_freq: int, input_time: int):
    """The one pass over an architecture that shapes and costs both read.

    Returns the (freq, time, channels) stages with their labels, and one
    (name, macs, approximate) record per conv layer plus the final tag
    projection. An architecture without a pooling plan (musicnn-frontend)
    first runs its `layers` in parallel on the input and collapses
    frequency; the sequential part (vgg-cnn's `layers` with their block
    pools, musicnn-frontend's unpooled back-end) follows. Everything after
    the parallel front-end is an approximation.
    """
    freq = positive_int("input_freq", input_freq)
    time = positive_int("input_time", input_time)
    channels = 1
    stages = [(freq, time, channels)]
    labels = ["input"]
    records = []

    def conv(name, layer, approximate):
        """Record one conv applied at the current (freq, time, channels)."""
        out_f, out_t = _conv_output(freq, time, layer, name)
        weights = layer.filter_freq * layer.filter_time * channels * layer.out_channels
        records.append((name, weights * out_f * out_t, approximate))
        return out_f, out_t

    parallel = arch.pooling is None
    if parallel:
        for layer in arch.layers:
            conv(f"front_{layer.filter_freq}x{layer.filter_time}", layer, False)
        freq, channels = 1, sum(layer.out_channels for layer in arch.layers)
        stages.append((freq, time, channels))
        labels.append("frontend-concat")
        prefix, sequence = "backend", arch.backend_layers
        pools = itertools.repeat((1, 1))
    else:
        prefix, sequence = "conv", arch.layers
        pools = zip(arch.pooling.freq_pools, arch.pooling.time_pools)
    for i, (layer, (pool_f, pool_t)) in enumerate(zip(sequence, pools), start=1):
        out_f, out_t = conv(f"{prefix}{i}", layer, parallel)
        channels = layer.out_channels
        freq, time = out_f // pool_f, out_t // pool_t
        if freq < 1 or time < 1:
            raise ShapeUnderflowError(
                f"block {i}: pooling ({pool_f}, {pool_t}) empties a "
                f"{out_f}x{out_t} feature map"
            )
        stages.append((freq, time, channels))
        labels.append(f"{prefix}{i}")
    records.append(("output", channels * OUTPUT_TAGS, parallel))
    return stages, labels, records


def propagate_shapes(arch: ArchSpec, input_freq: int, input_time: int) -> ShapeTrace:
    """Trace (freq, time, channels) from the input through every stage.

    Raises ShapeUnderflowError if any stage reaches a zero dimension. If
    the declared stages end above 1x1, a terminal global pool stage is
    appended and flagged via used_global_pool.
    """
    stages, labels, _ = _walk(arch, input_freq, input_time)
    freq, time, channels = stages[-1]
    used_global_pool = freq > 1 or time > 1
    if used_global_pool:
        stages.append((1, 1, channels))
        labels.append("global-pool")
    return ShapeTrace(tuple(stages), tuple(labels), used_global_pool)


def count_macs(arch: ArchSpec, input_freq: int, input_time: int) -> CostReport:
    """MAC counts per layer for one example of the given input size.

    Conv MACs are filter_freq * filter_time * in_channels * out_channels
    * out_freq * out_time, with out dims taken at the conv output (before
    pooling). The final "output" entry is the tag projection from the
    last channel count. feature_bytes is the stored size of the input
    feature matrix (container header included).
    """
    _, _, records = _walk(arch, input_freq, input_time)
    names, macs, approximate = zip(*records)
    return CostReport(
        layer_names=names,
        per_layer_macs=macs,
        total_macs=sum(macs),
        feature_bytes=mspec_size(input_freq, input_time),
        approximate_layers=tuple(itertools.compress(names, approximate)),
    )


def filter_extent(filter_freq: int, filter_time: int, config: MelConfig) -> tuple[float, float]:
    """Physical span of a filter: (Hz across rows, seconds across columns).

    Rows are measured on the average linear bandwidth (fmax - fmin) /
    n_mels; columns span filter_time hops.
    """
    hz = positive_int("filter_freq", filter_freq) * (config.fmax - config.fmin) / config.n_mels
    seconds = positive_int("filter_time", filter_time) * config.hop / config.sample_rate
    return hz, seconds


def _entry_for_config(arch_name: str, config: MelConfig) -> CostReport:
    if arch_name == "vgg-cnn":
        plan = vgg_pooling_plan(config.n_mels, config.hop_multiplier, config.sample_rate)
        frames = benchmark_frames(config.sample_rate, config.hop_multiplier)
        return count_macs(vgg_arch(plan), config.n_mels, frames)
    spec = musicnn_frontend_spec(
        config.n_mels, config.sample_rate, config.hop_multiplier
    )
    return count_macs(spec, config.n_mels, spec.segment_frames)


def grid_cost_sweep(arch_name: str, configs) -> list[SweepEntry]:
    """Cost one architecture across many configs; errors stay inline.

    VGG rows use the benchmark segment width for the config; MUSICNN
    rows use the 3-second segment width. A config that cannot be costed
    produces an entry with report=None and the error message; the sweep
    never aborts, and output order follows input order.
    """
    if arch_name not in ARCH_NAMES:
        raise ValueError(f"arch_name must be one of {ARCH_NAMES}, got {arch_name!r}")
    entries = []
    for config in configs:
        try:
            entries.append(SweepEntry(config, _entry_for_config(arch_name, config)))
        except (UnsupportedConfigError, ShapeUnderflowError, ValueError) as exc:
            entries.append(SweepEntry(config, None, str(exc)))
    return entries
