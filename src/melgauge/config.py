"""Front-end configuration layer: the benchmark grid and its sizes, no arrays.

MelConfig, the grid cells, the benchmark segment's frame counts and the
.mspec container size are plain arithmetic, so this module imports no
numpy. Whether a cell is on the grid is a query, is_grid_config;
building a MelConfig off the grid is silent. The cost and report side
(arch, reference, the report commands) builds on it alone; the signal
chain (dsp, mel) imports what it uses.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

# All hops are multiples of this base hop (samples).
REFERENCE_HOP = 256

COMPRESSIONS = ("log", "dB")

# The architectures arch models; here so the CLI parser needs no cost model.
ARCH_NAMES = ("vgg-cnn", "musicnn-frontend")

GRID_SAMPLE_RATES = (12000, 16000)
GRID_FULL_HOP_MELS = (128, 96, 48)  # all hop multipliers allowed
GRID_BASE_HOP_MELS = (32, 24, 16, 8)  # base hop only
GRID_HOP_MULTIPLIERS = (1, 2, 3, 4, 5, 10)
GRID_MELS = GRID_FULL_HOP_MELS + GRID_BASE_HOP_MELS


def positive_int(name: str, value) -> int:
    """value as an int >= 1; numpy integers pass, bools and floats raise ValueError."""
    try:
        number = operator.index(value)
    except TypeError:
        number = 0
    if number < 1 or isinstance(value, bool):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return number


def first_repeat(names) -> str | None:
    """The first name that already occurred earlier in names, if any."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def grid_hops(n_mels: int) -> tuple[int, ...]:
    """Hop multipliers the grid pairs with a mel count: all from 48 mels up, else x1."""
    return GRID_HOP_MULTIPLIERS if n_mels in GRID_FULL_HOP_MELS else (1,)


def is_grid_config(sample_rate: int, n_mels: int, hop_multiplier: int) -> bool:
    """True when the triple is a cell of the benchmark grid."""
    return (
        sample_rate in GRID_SAMPLE_RATES
        and n_mels in GRID_MELS
        and hop_multiplier in grid_hops(n_mels)
    )


@dataclass(frozen=True)
class MelConfig:
    """Front-end configuration: one cell of the benchmark grid, or an off-grid one.

    Every configuration analyses 512-sample frames with filters from 0 Hz
    to Nyquist (frame_size, fmin and fmax are constants, not fields).
    Configurations outside the benchmark grid build the same way;
    is_grid_config tells them apart, and the CLI warns or refuses.
    """

    sample_rate: int
    n_mels: int
    hop_multiplier: int = 1
    compression: str = "dB"

    frame_size = 512
    fmin = 0.0

    def __post_init__(self) -> None:
        for name in ("sample_rate", "n_mels", "hop_multiplier"):
            object.__setattr__(self, name, positive_int(name, getattr(self, name)))
        if self.compression not in COMPRESSIONS:
            raise ValueError(
                f"compression must be one of {COMPRESSIONS}, got {self.compression!r}"
            )

    @property
    def fmax(self) -> float:
        """Upper filter edge: the Nyquist frequency."""
        return self.sample_rate / 2.0

    @property
    def hop(self) -> int:
        """Hop in samples: 256 * hop_multiplier."""
        return REFERENCE_HOP * self.hop_multiplier

    @property
    def config_id(self) -> str:
        return f"{self.sample_rate}Hz-{self.n_mels}mel-x{self.hop_multiplier}-{self.compression}"


def enumerate_grid() -> list[MelConfig]:
    """All 88 benchmark configurations, in the order every CLI report lists.

    Order: sample rate (12 then 16 kHz), mel count descending, hop
    ascending, compression (dB then log), so a cell's two compressions
    share one mel product. Mel counts below 48 exist at the base hop only.
    """
    return [
        MelConfig(sample_rate, n_mels, hop_multiplier, compression)
        for sample_rate in GRID_SAMPLE_RATES
        for n_mels in GRID_MELS
        for hop_multiplier in grid_hops(n_mels)
        for compression in sorted(COMPRESSIONS)
    ]


# Frame counts of the standard 29.1 s benchmark segment for each grid cell.
# The 12 kHz column equals frame_count(349440, hop); the 16 kHz column is
# carried as published reference data (it reflects a slightly different
# edge convention) and is exactly what the pooling plans in arch are
# sized for. Extraction does not crop or pad to these: a clip of n
# samples gives frame_count(n, hop) frames.
BENCHMARK_FRAMES = {
    12000: {1: 1366, 2: 683, 3: 456, 4: 342, 5: 274, 10: 137},
    16000: {1: 1820, 2: 910, 3: 607, 4: 455, 5: 364, 10: 182},
}


def benchmark_frames(sample_rate: int, hop_multiplier: int) -> int:
    """Benchmark-segment frame count for a grid (rate, hop) cell."""
    try:
        return BENCHMARK_FRAMES[sample_rate][hop_multiplier]
    except KeyError:
        raise ValueError(
            f"no benchmark frame count for ({sample_rate} Hz, x{hop_multiplier})"
        ) from None


def frame_count(n_samples: int, hop: int) -> int:
    """Number of centred analysis frames for a signal of n_samples.

    1 + floor(n_samples / hop): one frame for every hop point, both edges
    included, whatever the frame size.
    """
    return 1 + positive_int("n_samples", n_samples) // positive_int("hop", hop)


# Binary container: 40-byte little-endian header, then row-major float32.
# magic(8) version(u16) sample_rate(u32) n_mels(u16) hop_samples(u32)
# frame_size(u32) compression(u8) reserved(u8) n_frames(u32) dtype(u8)
# reserved(9). mel writes and reads it and holds the field values.
_MSPEC_HEADER = struct.Struct("<8sHIHIIBBIB9s")
MSPEC_HEADER_SIZE = _MSPEC_HEADER.size  # 40


def mspec_size(n_mels: int, n_frames: int) -> int:
    """Bytes of the container for an (n_mels, n_frames) spectrogram."""
    values = positive_int("n_mels", n_mels) * positive_int("n_frames", n_frames)
    return values * 4 + MSPEC_HEADER_SIZE
