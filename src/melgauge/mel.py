"""Mel-spectrogram front-end with a fixed benchmark configuration grid.

The front-end is intentionally rigid: 512-sample frames, a base hop of
256 samples scaled by an integer multiplier, Slaney-style mel filters,
and one of two magnitude compressions. The benchmark grid enumerates the
(sample rate, mel count, hop, compression) combinations the cost and
quality tooling in the rest of the package understands.

Spectrograms round-trip through a small binary container (magic
"MSPEC1"), a 40-byte little-endian header followed by row-major float32
values. See write_mspec / read_mspec.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .dsp import PAD_CENTER, AudioBuffer, FrameGrid, stft_power
from .exceptions import DegenerateFilterbankError, GridWarning, MspecFormatError

__all__ = [
    "REFERENCE_HOP",
    "DB_FLOOR_EPS",
    "LOG_COMPRESSION_GAIN",
    "COMPRESSIONS",
    "MSPEC_HEADER_SIZE",
    "MelConfig",
    "MelFilterbank",
    "MelSpectrogram",
    "hz_to_mel_slaney",
    "mel_to_hz_slaney",
    "mel_filterbank",
    "compress_db",
    "compress_log",
    "mel_spectrogram",
    "is_grid_config",
    "enumerate_grid",
    "benchmark_frames",
    "write_mspec",
    "read_mspec",
]

# All hops are multiples of this base hop (samples).
REFERENCE_HOP = 256

# Power floor applied before dB conversion: 10*log10(1e-10) = -100 dB.
DB_FLOOR_EPS = 1e-10

# log compression is ln(1 + LOG_COMPRESSION_GAIN * x).
LOG_COMPRESSION_GAIN = 10000.0

COMPRESSIONS = ("log", "dB")

GRID_SAMPLE_RATES = (12000, 16000)
GRID_FULL_HOP_MELS = (128, 96, 48)  # all hop multipliers allowed
GRID_BASE_HOP_MELS = (32, 24, 16, 8)  # base hop only
GRID_HOP_MULTIPLIERS = (1, 2, 3, 4, 5, 10)

# Slaney mel scale: linear below 1000 Hz (200/3 Hz per mel), logarithmic
# above, with 27 mels spanning each factor of 6.4 in frequency.
_MEL_BREAK_HZ = 1000.0
_MEL_BREAK = 15.0
_HZ_PER_MEL = 200.0 / 3.0
_LOG_STEP = np.log(6.4) / 27.0


def hz_to_mel_slaney(frequency):
    """Map frequency in Hz to Slaney mels (scalar or array)."""
    f = np.asarray(frequency, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("frequency must be non-negative")
    mel = np.where(
        f < _MEL_BREAK_HZ,
        f / _HZ_PER_MEL,
        _MEL_BREAK + np.log(np.maximum(f, _MEL_BREAK_HZ) / _MEL_BREAK_HZ) / _LOG_STEP,
    )
    return float(mel) if np.isscalar(frequency) else mel


def mel_to_hz_slaney(mel):
    """Inverse of hz_to_mel_slaney (scalar or array)."""
    m = np.asarray(mel, dtype=np.float64)
    if np.any(m < 0):
        raise ValueError("mel must be non-negative")
    f = np.where(
        m < _MEL_BREAK,
        m * _HZ_PER_MEL,
        _MEL_BREAK_HZ * np.exp(_LOG_STEP * (np.maximum(m, _MEL_BREAK) - _MEL_BREAK)),
    )
    return float(f) if np.isscalar(mel) else f


def is_grid_config(sample_rate: int, n_mels: int, hop_multiplier: int) -> bool:
    """True when the triple is a cell of the benchmark grid."""
    if sample_rate not in GRID_SAMPLE_RATES:
        return False
    if n_mels in GRID_FULL_HOP_MELS:
        return hop_multiplier in GRID_HOP_MULTIPLIERS
    if n_mels in GRID_BASE_HOP_MELS:
        return hop_multiplier == 1
    return False


@dataclass(frozen=True)
class MelConfig:
    """Front-end configuration.

    fmax defaults to the Nyquist frequency. target_frames, when set,
    right-crops or right-pads the compressed output to a fixed width so
    downstream models see a constant input size. Configurations outside
    the benchmark grid are allowed but emit GridWarning; the CLI can
    escalate that to an error.
    """

    sample_rate: int
    n_mels: int
    hop_multiplier: int = 1
    compression: str = "dB"
    frame_size: int = 512
    fmin: float = 0.0
    fmax: float | None = None
    target_frames: int | None = None

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.n_mels < 1:
            raise ValueError(f"n_mels must be >= 1, got {self.n_mels}")
        if self.hop_multiplier < 1:
            raise ValueError(f"hop_multiplier must be >= 1, got {self.hop_multiplier}")
        if self.compression not in COMPRESSIONS:
            raise ValueError(
                f"compression must be one of {COMPRESSIONS}, got {self.compression!r}"
            )
        if self.frame_size <= 0 or self.frame_size % 2 != 0:
            raise ValueError(f"frame_size must be positive and even, got {self.frame_size}")
        if self.fmax is None:
            object.__setattr__(self, "fmax", self.sample_rate / 2.0)
        if self.fmax > self.sample_rate / 2.0:
            raise ValueError(f"fmax {self.fmax} exceeds Nyquist {self.sample_rate / 2.0}")
        if not 0.0 <= self.fmin < self.fmax:
            raise ValueError(f"need 0 <= fmin < fmax, got fmin={self.fmin} fmax={self.fmax}")
        if self.target_frames is not None and self.target_frames < 1:
            raise ValueError(f"target_frames must be >= 1, got {self.target_frames}")
        # Benchmark cells use the default analysis parameters; any deviation
        # is allowed but flagged. target_frames is an output-shape knob and
        # does not affect grid membership.
        standard_analysis = (
            self.frame_size == 512
            and self.fmin == 0.0
            and self.fmax == self.sample_rate / 2.0
        )
        if not (
            standard_analysis
            and is_grid_config(self.sample_rate, self.n_mels, self.hop_multiplier)
        ):
            warnings.warn(
                f"config ({self.sample_rate} Hz, {self.n_mels} mels, "
                f"x{self.hop_multiplier}, frame {self.frame_size}, "
                f"{self.fmin:g}-{self.fmax:g} Hz) is outside the benchmark grid",
                GridWarning,
                stacklevel=2,
            )

    @property
    def hop(self) -> int:
        """Hop in samples: 256 * hop_multiplier."""
        return REFERENCE_HOP * self.hop_multiplier

    @property
    def config_id(self) -> str:
        return f"{self.sample_rate}Hz-{self.n_mels}mel-x{self.hop_multiplier}-{self.compression}"


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filters: weights is (n_mels, frame_size/2 + 1)."""

    weights: np.ndarray
    center_freqs: np.ndarray

    @property
    def n_mels(self) -> int:
        return int(self.weights.shape[0])


def mel_filterbank(config: MelConfig) -> MelFilterbank:
    """Slaney-style triangular filterbank for the config's bin grid.

    n_mels + 2 points are spaced equally on the mel axis between fmin and
    fmax; filter i rises from point i to i+1 and falls to i+2, evaluated
    at the FFT bin centers b * sample_rate / frame_size. Each filter is
    area-normalized by 2 / (f_right - f_left), so filter peaks shrink as
    bandwidth grows. A filter with no nonzero bin weight (bin grid too
    coarse for the requested resolution) raises DegenerateFilterbankError.
    """
    mel_points = np.linspace(
        hz_to_mel_slaney(config.fmin), hz_to_mel_slaney(config.fmax), config.n_mels + 2
    )
    hz_points = mel_to_hz_slaney(mel_points)
    bin_freqs = np.arange(config.frame_size // 2 + 1) * (config.sample_rate / config.frame_size)

    f_left = hz_points[:-2, np.newaxis]
    f_center = hz_points[1:-1, np.newaxis]
    f_right = hz_points[2:, np.newaxis]
    rising = (bin_freqs - f_left) / (f_center - f_left)
    falling = (f_right - bin_freqs) / (f_right - f_center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights *= 2.0 / (f_right - f_left)

    dead = ~np.any(weights > 0.0, axis=1)
    if np.any(dead):
        first = int(np.flatnonzero(dead)[0])
        raise DegenerateFilterbankError(
            f"filter {first} (center {float(hz_points[first + 1]):.1f} Hz) has no "
            f"support on the {config.frame_size}-point bin grid; reduce n_mels "
            f"or increase frame_size"
        )
    return MelFilterbank(weights=weights, center_freqs=hz_points[1:-1].copy())


def compress_db(power, floor_eps: float = DB_FLOOR_EPS):
    """Power to decibels: 10*log10(max(x, floor_eps)), elementwise."""
    if floor_eps <= 0:
        raise ValueError(f"floor_eps must be positive, got {floor_eps}")
    x = np.asarray(power, dtype=np.float64)
    out = 10.0 * np.log10(np.maximum(x, floor_eps))
    return float(out) if np.isscalar(power) else out


def compress_log(power):
    """Logarithmic compression: ln(1 + 10000 * x), elementwise.

    Zero maps to zero exactly, and the map is strictly increasing.
    """
    x = np.asarray(power, dtype=np.float64)
    out = np.log1p(LOG_COMPRESSION_GAIN * x)
    return float(out) if np.isscalar(power) else out


def _compress(power: np.ndarray, compression: str) -> np.ndarray:
    return compress_db(power) if compression == "dB" else compress_log(power)


@dataclass(frozen=True)
class MelSpectrogram:
    """Compressed mel spectrogram: values is (n_mels, n_frames)."""

    values: np.ndarray
    config: MelConfig

    @property
    def n_mels(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_frames(self) -> int:
        return int(self.values.shape[1])


def mel_spectrogram(audio: AudioBuffer, config: MelConfig) -> MelSpectrogram:
    """Compressed mel spectrogram of audio under the given config.

    The audio must already be at config.sample_rate; resample first if it
    is not. Framing is center-reflect on the 256 * hop_multiplier grid.
    When config.target_frames is set the output is right-cropped or
    right-padded to that width; padding uses the compressed value of
    silence (0 for log, the dB floor for dB).
    """
    if audio.sample_rate != config.sample_rate:
        raise ValueError(
            f"audio rate {audio.sample_rate} != config rate {config.sample_rate}; "
            "resample before extraction"
        )
    grid = FrameGrid(frame_size=config.frame_size, hop=config.hop, padding_mode=PAD_CENTER)
    power = stft_power(audio, grid)
    fb = mel_filterbank(config)
    values = _compress(fb.weights @ power.bins, config.compression)
    if config.target_frames is not None and values.shape[1] != config.target_frames:
        if values.shape[1] > config.target_frames:
            values = values[:, : config.target_frames]
        else:
            pad_value = _compress(np.float64(0.0), config.compression)
            pad = np.full(
                (config.n_mels, config.target_frames - values.shape[1]), pad_value
            )
            values = np.concatenate([values, pad], axis=1)
    return MelSpectrogram(values=values, config=config)


def enumerate_grid() -> list[MelConfig]:
    """All 88 benchmark configurations, deterministically ordered.

    Order: sample rate (12 then 16 kHz), compression (log then dB), mel
    count descending, hop ascending. Mel counts below 48 exist at the
    base hop only.
    """
    configs = []
    for sample_rate in GRID_SAMPLE_RATES:
        for compression in COMPRESSIONS:
            for n_mels in GRID_FULL_HOP_MELS:
                for hop_multiplier in GRID_HOP_MULTIPLIERS:
                    configs.append(
                        MelConfig(sample_rate, n_mels, hop_multiplier, compression)
                    )
            for n_mels in GRID_BASE_HOP_MELS:
                configs.append(MelConfig(sample_rate, n_mels, 1, compression))
    return configs


# Frame counts of the standard 29.1 s benchmark segment for each grid cell.
# The 12 kHz column equals frame_count(349440, hop); the 16 kHz column is
# carried as published reference data (it reflects a slightly different
# edge convention) and is exactly what the pooling plans below are sized
# for. Use MelConfig.target_frames to pin extraction output to these.
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
            f"no benchmark frame count for ({sample_rate} Hz, x{hop_multiplier}); "
            "set target_frames explicitly"
        ) from None


# Binary container: 40-byte little-endian header, then row-major float32.
# magic(8) version(u16) sample_rate(u32) n_mels(u16) hop_samples(u32)
# frame_size(u32) compression(u8) reserved(u8) n_frames(u32) dtype(u8)
# reserved(9).
_MSPEC_MAGIC = b"MSPEC1\x00\x00"
_MSPEC_VERSION = 1
_MSPEC_HEADER = struct.Struct("<8sHIHIIBBIB9s")
MSPEC_HEADER_SIZE = _MSPEC_HEADER.size  # 40
_COMPRESSION_CODES = {"dB": 0, "log": 1}
_COMPRESSION_NAMES = {code: name for name, code in _COMPRESSION_CODES.items()}
_DTYPE_FLOAT32 = 0


def write_mspec(path, mel: MelSpectrogram) -> int:
    """Write a spectrogram container; returns bytes written.

    Values are stored as row-major little-endian float32 regardless of
    the in-memory dtype.
    """
    header = _MSPEC_HEADER.pack(
        _MSPEC_MAGIC,
        _MSPEC_VERSION,
        mel.config.sample_rate,
        mel.n_mels,
        mel.config.hop,
        mel.config.frame_size,
        _COMPRESSION_CODES[mel.config.compression],
        0,
        mel.n_frames,
        _DTYPE_FLOAT32,
        b"\x00" * 9,
    )
    payload = np.ascontiguousarray(mel.values, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return len(header) + len(payload)


def read_mspec(path) -> MelSpectrogram:
    """Read a container written by write_mspec.

    A malformed file, including bad header values and bytes after the
    payload, raises MspecFormatError naming the path.
    """
    with open(path, "rb") as fh:
        header = fh.read(MSPEC_HEADER_SIZE)
        if len(header) != MSPEC_HEADER_SIZE:
            raise MspecFormatError(f"{path}: truncated header")
        (magic, version, sample_rate, n_mels, hop_samples, frame_size,
         compression_code, _, n_frames, dtype_code, _) = _MSPEC_HEADER.unpack(header)
        if magic != _MSPEC_MAGIC:
            raise MspecFormatError(f"{path}: bad magic {magic!r}")
        if version != _MSPEC_VERSION:
            raise MspecFormatError(f"{path}: unsupported version {version}")
        if dtype_code != _DTYPE_FLOAT32:
            raise MspecFormatError(f"{path}: unsupported dtype code {dtype_code}")
        if compression_code not in _COMPRESSION_NAMES:
            raise MspecFormatError(f"{path}: unknown compression code {compression_code}")
        if hop_samples % REFERENCE_HOP != 0:
            raise MspecFormatError(
                f"{path}: hop {hop_samples} is not a multiple of {REFERENCE_HOP}"
            )
        payload = fh.read(4 * n_mels * n_frames)
        trailing = fh.read(1)
    if len(payload) != 4 * n_mels * n_frames:
        raise MspecFormatError(f"{path}: truncated payload")
    if trailing:
        raise MspecFormatError(f"{path}: bytes after the payload")
    values = np.frombuffer(payload, dtype="<f4").reshape(n_mels, n_frames)
    with warnings.catch_warnings():
        # A stored file is data, not a user's config choice.
        warnings.simplefilter("ignore", GridWarning)
        try:
            config = MelConfig(
                sample_rate=sample_rate,
                n_mels=n_mels,
                hop_multiplier=hop_samples // REFERENCE_HOP,
                compression=_COMPRESSION_NAMES[compression_code],
                frame_size=frame_size,
            )
        except ValueError as exc:
            raise MspecFormatError(f"{path}: bad header: {exc}") from None
    return MelSpectrogram(values=values, config=config)
