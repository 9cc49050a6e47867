"""CNN shape and cost models matched to the mel front-end grid.

Two architectures are modeled. "vgg-cnn" is a four-block stack of 3x3
convolutions (128/384/768/2048 channels) where each block ends in a max
pool; the pooling plan is looked up per front-end configuration so that
the stack reduces any grid input to exactly 1x1. "musicnn-frontend" is a
bank of parallel first-layer filters whose heights follow the mel count
(90% and 40% of the input rows) plus four temporal filters, optionally
followed by a small sequential back-end.

Cost is measured in multiply-accumulate operations (MACs) of the
convolution layers, counted at the conv output dims before pooling, plus
one documented term for the final tag projection. Pooling, biases,
normalization, and activations are not counted. The MUSICNN back-end and
everything after it are approximations (the wiring between front-end and
back-end is under-specified) and are labeled as such in every report.

Shape propagation uses floor division per pooling stage. If a stage
would reach zero the propagation fails; if the stack ends above 1x1 a
terminal global pool is appended and recorded in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import ShapeUnderflowError, UnsupportedConfigError
from .dsp import frame_count
from .mel import MSPEC_HEADER_SIZE, MelConfig, benchmark_frames

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
VGG_FILTER = 3  # 3x3 everywhere

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


@dataclass(frozen=True)
class ConvLayerSpec:
    """One 2-D convolution layer: (filter_freq x filter_time) filters."""

    filter_freq: int
    filter_time: int
    out_channels: int
    padding: str = "same"

    def __post_init__(self) -> None:
        if self.filter_freq < 1 or self.filter_time < 1:
            raise ValueError(
                f"filter dims must be >= 1, got {self.filter_freq}x{self.filter_time}"
            )
        if self.out_channels < 1:
            raise ValueError(f"out_channels must be >= 1, got {self.out_channels}")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {self.padding!r}")


@dataclass(frozen=True)
class PoolingPlan:
    """Per-block (freq, time) max-pool factors for the four VGG blocks."""

    freq_pools: tuple[int, int, int, int]
    time_pools: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        for name, pools in (("freq_pools", self.freq_pools), ("time_pools", self.time_pools)):
            pools = tuple(int(p) for p in pools)
            if len(pools) != 4:
                raise ValueError(f"{name} must have 4 entries, got {len(pools)}")
            if any(p < 1 for p in pools):
                raise ValueError(f"{name} entries must be >= 1, got {pools}")
            object.__setattr__(self, name, pools)


@dataclass(frozen=True)
class ArchSpec:
    """Architecture description sufficient for shape and MAC analysis.

    vgg-cnn: `layers` is the fixed four-conv stack and `pooling` is
    required. musicnn-frontend: `layers` run in parallel on the input,
    `backend_layers` (possibly empty) run sequentially afterwards with
    frequency collapsed, and `segment_frames` is the model's input width.
    output_tags=None drops the final tag-projection term.
    """

    name: str
    layers: tuple[ConvLayerSpec, ...]
    pooling: PoolingPlan | None = None
    backend_layers: tuple[ConvLayerSpec, ...] = ()
    segment_frames: int | None = None
    output_tags: int | None = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "backend_layers", tuple(self.backend_layers))
        if self.name not in ARCH_NAMES:
            raise ValueError(f"name must be one of {ARCH_NAMES}, got {self.name!r}")
        if not self.layers:
            raise ValueError("layers must not be empty")
        if self.output_tags is not None and self.output_tags < 1:
            raise ValueError(f"output_tags must be >= 1 or None, got {self.output_tags}")
        if self.name == "vgg-cnn":
            if self.pooling is None:
                raise ValueError("vgg-cnn requires a pooling plan")
            if self.backend_layers:
                raise ValueError("vgg-cnn takes no backend_layers")
            channels = tuple(layer.out_channels for layer in self.layers)
            filters_ok = all(
                layer.filter_freq == VGG_FILTER and layer.filter_time == VGG_FILTER
                for layer in self.layers
            )
            if len(self.layers) != 4 or channels != VGG_CHANNELS or not filters_ok:
                raise ValueError(
                    "vgg-cnn is fixed to four 3x3 conv layers with channels "
                    f"{VGG_CHANNELS}"
                )
        else:
            if self.pooling is not None:
                raise ValueError("musicnn-frontend has no block pooling plan")
            if self.segment_frames is None or self.segment_frames < 1:
                raise ValueError("musicnn-frontend requires segment_frames >= 1")


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


def vgg_arch(pooling: PoolingPlan, output_tags: int | None = 50) -> ArchSpec:
    """The fixed four-block 3x3 stack with the given pooling plan."""
    layers = tuple(
        ConvLayerSpec(VGG_FILTER, VGG_FILTER, channels) for channels in VGG_CHANNELS
    )
    return ArchSpec(name="vgg-cnn", layers=layers, pooling=pooling, output_tags=output_tags)


def musicnn_filter_heights(n_mels: int) -> tuple[int, int]:
    """(90%, 40%) timbre filter heights: floor(0.9 n), floor(0.4 n)."""
    if n_mels < 8:
        raise ValueError(f"n_mels must be >= 8, got {n_mels}")
    return int(0.9 * n_mels), int(0.4 * n_mels)


def musicnn_frontend_spec(
    n_mels: int,
    sample_rate: int = 16000,
    hop_multiplier: int = 1,
    filters_per_shape: int = MUSICNN_FILTERS_PER_SHAPE,
    backend_layers: tuple[ConvLayerSpec, ...] | None = None,
    output_tags: int | None = 50,
) -> ArchSpec:
    """Front-end filter bank derived from the mel count.

    Timbre filters span 40% and 90% of the mel rows at widths 1/3/7
    (valid padding: they slide only inside the input); temporal filters
    are 1-row at widths 32/64/128/165 (same padding). The model consumes
    3-second segments, so segment_frames follows the hop. backend_layers
    defaults to three 1x7 conv layers at 512 channels; pass () to model
    the front-end alone.
    """
    h90, h40 = musicnn_filter_heights(n_mels)
    if filters_per_shape < 1:
        raise ValueError(f"filters_per_shape must be >= 1, got {filters_per_shape}")
    layers = [
        ConvLayerSpec(height, width, filters_per_shape, padding="valid")
        for height in (h40, h90)
        for width in MUSICNN_TIMBRE_WIDTHS
    ]
    layers += [
        ConvLayerSpec(1, width, filters_per_shape, padding="same")
        for width in MUSICNN_TEMPORAL_WIDTHS
    ]
    if backend_layers is None:
        backend_layers = tuple(
            ConvLayerSpec(1, 7, MUSICNN_BACKEND_CHANNELS, padding="same")
            for _ in range(MUSICNN_BACKEND_DEPTH)
        )
    segment_frames = frame_count(
        round(MUSICNN_SEGMENT_SECONDS * sample_rate), 256 * hop_multiplier
    )
    return ArchSpec(
        name="musicnn-frontend",
        layers=tuple(layers),
        backend_layers=tuple(backend_layers),
        segment_frames=segment_frames,
        output_tags=output_tags,
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


def _walk_vgg(arch: ArchSpec, input_freq: int, input_time: int):
    """Shared stack walker: stage shapes plus per-layer conv output dims."""
    freq, time, channels = input_freq, input_time, 1
    stages = [(freq, time, channels)]
    labels = ["input"]
    conv_dims = []
    pools = zip(arch.pooling.freq_pools, arch.pooling.time_pools)
    for i, (layer, (pool_f, pool_t)) in enumerate(zip(arch.layers, pools), start=1):
        out_f, out_t = _conv_output(freq, time, layer, f"conv{i}")
        conv_dims.append((out_f, out_t, channels, layer.out_channels))
        channels = layer.out_channels
        freq, time = out_f // pool_f, out_t // pool_t
        if freq < 1 or time < 1:
            raise ShapeUnderflowError(
                f"block {i}: pooling ({pool_f}, {pool_t}) empties a "
                f"{out_f}x{out_t} feature map"
            )
        stages.append((freq, time, channels))
        labels.append(f"conv{i}")
    return stages, labels, conv_dims, (freq, time, channels)


def _walk_musicnn(arch: ArchSpec, input_freq: int, input_time: int):
    """Parallel front-end, frequency collapse, then the sequential back-end."""
    branch_dims = []
    for layer in arch.layers:
        shape = f"{layer.filter_freq}x{layer.filter_time}"
        out_f, out_t = _conv_output(input_freq, input_time, layer, f"front_{shape}")
        branch_dims.append((out_f, out_t, 1, layer.out_channels))
    channels = sum(layer.out_channels for layer in arch.layers)
    stages = [(input_freq, input_time, 1), (1, input_time, channels)]
    labels = ["input", "frontend-concat"]
    freq, time = 1, input_time
    backend_dims = []
    for i, layer in enumerate(arch.backend_layers, start=1):
        out_f, out_t = _conv_output(freq, time, layer, f"backend{i}")
        backend_dims.append((out_f, out_t, channels, layer.out_channels))
        channels = layer.out_channels
        freq, time = out_f, out_t
        stages.append((freq, time, channels))
        labels.append(f"backend{i}")
    return stages, labels, branch_dims, backend_dims, (freq, time, channels)


def propagate_shapes(arch: ArchSpec, input_freq: int, input_time: int) -> ShapeTrace:
    """Trace (freq, time, channels) from the input through every stage.

    Raises ShapeUnderflowError if any stage reaches a zero dimension. If
    the declared stages end above 1x1, a terminal global pool stage is
    appended and flagged via used_global_pool.
    """
    if input_freq < 1 or input_time < 1:
        raise ValueError(f"input dims must be >= 1, got {input_freq}x{input_time}")
    if arch.name == "vgg-cnn":
        stages, labels, _, (freq, time, channels) = _walk_vgg(arch, input_freq, input_time)
    else:
        stages, labels, _, _, (freq, time, channels) = _walk_musicnn(
            arch, input_freq, input_time
        )
    used_global_pool = freq > 1 or time > 1
    if used_global_pool:
        stages.append((1, 1, channels))
        labels.append("global-pool")
    return ShapeTrace(tuple(stages), tuple(labels), used_global_pool)


def count_macs(
    arch: ArchSpec, input_freq: int, input_time: int, bytes_per_value: int = 4
) -> CostReport:
    """MAC counts per layer for one example of the given input size.

    Conv MACs are filter_freq * filter_time * in_channels * out_channels
    * out_freq * out_time, with out dims taken at the conv output (before
    pooling). The final "output" entry is the tag projection from the
    last channel count. feature_bytes is the stored size of the input
    feature matrix (container header included).
    """
    if input_freq < 1 or input_time < 1:
        raise ValueError(f"input dims must be >= 1, got {input_freq}x{input_time}")
    if bytes_per_value < 1:
        raise ValueError(f"bytes_per_value must be >= 1, got {bytes_per_value}")
    names: list[str] = []
    macs: list[int] = []
    approximate: list[str] = []
    if arch.name == "vgg-cnn":
        _, _, conv_dims, (_, _, last_channels) = _walk_vgg(arch, input_freq, input_time)
        for i, (layer, (out_f, out_t, in_ch, out_ch)) in enumerate(
            zip(arch.layers, conv_dims), start=1
        ):
            names.append(f"conv{i}")
            macs.append(layer.filter_freq * layer.filter_time * in_ch * out_ch * out_f * out_t)
    else:
        _, _, branch_dims, backend_dims, (_, _, last_channels) = _walk_musicnn(
            arch, input_freq, input_time
        )
        for layer, (out_f, out_t, in_ch, out_ch) in zip(arch.layers, branch_dims):
            names.append(f"front_{layer.filter_freq}x{layer.filter_time}")
            macs.append(layer.filter_freq * layer.filter_time * in_ch * out_ch * out_f * out_t)
        for i, (layer, (out_f, out_t, in_ch, out_ch)) in enumerate(
            zip(arch.backend_layers, backend_dims), start=1
        ):
            name = f"backend{i}"
            names.append(name)
            approximate.append(name)
            macs.append(layer.filter_freq * layer.filter_time * in_ch * out_ch * out_f * out_t)
    if arch.output_tags is not None:
        names.append("output")
        macs.append(last_channels * arch.output_tags)
        if arch.name == "musicnn-frontend":
            # rides on the approximate back-end channel count
            approximate.append("output")
    return CostReport(
        layer_names=tuple(names),
        per_layer_macs=tuple(macs),
        total_macs=sum(macs),
        feature_bytes=input_freq * input_time * bytes_per_value + MSPEC_HEADER_SIZE,
        approximate_layers=tuple(approximate),
    )


def filter_extent(filter_freq: int, filter_time: int, config: MelConfig) -> tuple[float, float]:
    """Physical span of a filter: (Hz across rows, seconds across columns).

    Rows are measured on the average linear bandwidth (fmax - fmin) /
    n_mels; columns span filter_time hops.
    """
    if filter_freq < 1 or filter_time < 1:
        raise ValueError(f"filter dims must be >= 1, got {filter_freq}x{filter_time}")
    hz = filter_freq * (config.fmax - config.fmin) / config.n_mels
    seconds = filter_time * config.hop / config.sample_rate
    return hz, seconds


def _entry_for_config(arch_name: str, config: MelConfig) -> CostReport:
    if arch_name == "vgg-cnn":
        plan = vgg_pooling_plan(config.n_mels, config.hop_multiplier, config.sample_rate)
        if config.target_frames is not None:
            frames = config.target_frames
        else:
            frames = benchmark_frames(config.sample_rate, config.hop_multiplier)
        return count_macs(vgg_arch(plan), config.n_mels, frames)
    spec = musicnn_frontend_spec(
        config.n_mels, config.sample_rate, config.hop_multiplier
    )
    return count_macs(spec, config.n_mels, spec.segment_frames)


def grid_cost_sweep(arch_name: str, configs) -> list[SweepEntry]:
    """Cost one architecture across many configs; errors stay inline.

    VGG rows use the benchmark segment width for the config (or its
    target_frames); MUSICNN rows use the 3-second segment width. A config
    that cannot be costed produces an entry with report=None and the
    error message; the sweep never aborts, and output order follows input
    order.
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
