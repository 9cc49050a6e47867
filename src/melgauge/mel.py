"""Mel-spectrogram front-end with a fixed benchmark configuration grid.

The front-end is intentionally rigid: 512-sample frames, a base hop of
256 samples scaled by an integer multiplier, Slaney-style mel filters
from 0 Hz to Nyquist, and one of two magnitude compressions. A MelConfig
sets only the four things the benchmark varies (sample rate, mel count,
hop multiplier, compression); the grid enumerates the combinations the
cost and quality tooling in the rest of the package understands.
MelConfig, the grid and the container sizes are defined in config,
which imports no numpy; import them from there.

Spectrograms round-trip through a small binary container (magic
"MSPEC1"), a 40-byte little-endian header followed by row-major float32
values. See write_mspec / read_mspec.
"""

from __future__ import annotations

import contextlib
import functools
import os
import struct
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    _MSPEC_HEADER,
    MSPEC_HEADER_SIZE,
    REFERENCE_HOP,
    MelConfig,
    # Not read here: the README promises it from mel, and perfbench's grid
    # worker calls mel.enumerate_grid().
    enumerate_grid,
    mspec_size,
)
from .dsp import AudioBuffer, stft_power
from .exceptions import DegenerateFilterbankError, MspecFormatError

__all__ = [
    "DB_FLOOR_EPS",
    "LOG_COMPRESSION_GAIN",
    "MelConfig",
    "MelFilterbank",
    "MelSpectrogram",
    "hz_to_mel_slaney",
    "mel_to_hz_slaney",
    "mel_filterbank",
    "compress_db",
    "compress_log",
    "mel_spectrogram",
    "enumerate_grid",
    "write_mspec",
    "read_mspec",
]

# Power floor applied before dB conversion: 10*log10(1e-10) = -100 dB.
DB_FLOOR_EPS = 1e-10

# log compression is ln(1 + LOG_COMPRESSION_GAIN * x).
LOG_COMPRESSION_GAIN = 10000.0

# Filters per block; _mel_product sums each block over the bins spanning its weights.
_BLOCK_FILTERS = 16

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


@dataclass(frozen=True, eq=False)
class MelFilterbank:
    """Triangular mel filters: weights is (n_mels, frame_size/2 + 1)."""

    weights: np.ndarray
    center_freqs: np.ndarray


def mel_filterbank(config: MelConfig) -> MelFilterbank:
    """Slaney-style triangular filterbank for the config's bin grid.

    n_mels + 2 points are spaced equally on the mel axis between fmin and
    fmax; filter i rises from point i to i+1 and falls to i+2, evaluated
    at the FFT bin centers b * sample_rate / frame_size. Each filter is
    area-normalized by 2 / (f_right - f_left), so filter peaks shrink as
    bandwidth grows. A filter with no nonzero bin weight (bin grid too
    coarse for the requested resolution) raises DegenerateFilterbankError.

    A bank depends on the sample rate and mel count alone: each is built
    on first use, held for the life of the process and shared by every
    caller, so its arrays are read-only.
    """
    return _filterbank(config.sample_rate, config.n_mels)[0]


@functools.cache  # two threads may both build one bank; either result is the same
def _filterbank(sample_rate: int, n_mels: int) -> tuple[MelFilterbank, tuple]:
    config = MelConfig(sample_rate, n_mels)
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
            f"support on the {config.frame_size}-point bin grid; reduce n_mels"
        )
    rows = [slice(r, min(r + _BLOCK_FILTERS, n_mels)) for r in range(0, n_mels, _BLOCK_FILTERS)]
    support = [np.flatnonzero(weights[r].any(axis=0)) for r in rows]
    blocks = tuple((r, slice(s[0], s[-1] + 1)) for r, s in zip(rows, support))
    center_freqs = hz_points[1:-1].copy()
    weights.flags.writeable = False
    center_freqs.flags.writeable = False
    return MelFilterbank(weights=weights, center_freqs=center_freqs), blocks


def compress_db(power):
    """Power to decibels: 10*log10(max(x, 1e-10)), elementwise, as a new array."""
    x = np.asarray(power, dtype=np.float64)
    out = np.maximum(x, DB_FLOOR_EPS, out=np.empty(x.shape))
    np.log10(out, out=out)
    out *= 10.0
    return float(out) if np.isscalar(power) else out


def compress_log(power):
    """Logarithmic compression: ln(1 + 10000 * x), elementwise, as a new array.

    Zero maps to zero exactly, and the map is strictly increasing.
    """
    x = np.asarray(power, dtype=np.float64)
    out = np.multiply(x, LOG_COMPRESSION_GAIN, out=np.empty(x.shape))
    np.log1p(out, out=out)
    return float(out) if np.isscalar(power) else out


def _mel_product(config: MelConfig, bins: np.ndarray) -> np.ndarray:
    """mel_filterbank(config).weights @ bins as a new array, each block over its own bins."""
    fb, blocks = _filterbank(config.sample_rate, config.n_mels)
    product = np.empty((config.n_mels, bins.shape[1]))
    for rows, cols in blocks:
        np.matmul(fb.weights[rows, cols], bins[cols], out=product[rows])
    return product


# The latest buffer's (spectrum, mel count, product hop, product), swapped as one tuple.
_held: weakref.WeakKeyDictionary[AudioBuffer, tuple] = weakref.WeakKeyDictionary()


def _mel_power(audio: AudioBuffer, config: MelConfig) -> np.ndarray:
    """_mel_product(config, stft_power(audio, config.hop).bins), sliced from what is held.

    Frame t at hop h*k is frame t*k at hop h: a held product serves its mel count, and a held
    spectrum every mel count, at each multiple of its hop. A miss transforms at the asked hop.
    """
    spectrum, n_mels, hop, product = _held.get(audio, (None,) * 4)
    if n_mels == config.n_mels and config.hop % hop == 0:
        return product[:, :: config.hop // hop]
    # Let the held entry go first, so that two products or spectra are never held at once.
    product = None
    _held.clear()
    if spectrum is None or config.hop % spectrum.hop:
        spectrum = None
        spectrum = stft_power(audio, config.hop)
    product = _mel_product(config, spectrum.bins[:, :: config.hop // spectrum.hop])
    _held[audio] = (spectrum, config.n_mels, config.hop, product)
    return product


@dataclass(frozen=True, eq=False)
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
    is not. Framing is center-reflect on the config.hop grid, so n
    samples give frame_count(n, config.hop) frames.

    Repeated calls on one buffer share work: its spectrum and latest mel
    product are held while it lives and sliced for hop multiples, and each
    bank is built once (mel_filterbank) and summed over nonzero bins only.
    Float64 values can differ in the last bits from a fresh weights @ bins
    (the same terms, grouped by block), and also with the cells run earlier on
    the buffer, as BLAS picks its path by the width of the held product that a
    cell is sliced from. Container (float32) bytes depend on neither.
    """
    if audio.sample_rate != config.sample_rate:
        raise ValueError(
            f"audio rate {audio.sample_rate} != config rate {config.sample_rate}; "
            "resample before extraction"
        )
    compress = compress_db if config.compression == "dB" else compress_log
    return MelSpectrogram(values=compress(_mel_power(audio, config)), config=config)


# Field values of the .mspec header (its layout is config._MSPEC_HEADER).
_MSPEC_MAGIC = b"MSPEC1\x00\x00"
_MSPEC_VERSION = 1
_COMPRESSION_CODES = {"dB": 0, "log": 1}
_COMPRESSION_NAMES = {code: name for name, code in _COMPRESSION_CODES.items()}
_DTYPE_FLOAT32 = 0


def write_mspec(path, mel: MelSpectrogram) -> int:
    """Write a spectrogram container; returns bytes written.

    Values are stored as row-major little-endian float32 regardless of
    the in-memory dtype. The bytes go to a sibling temporary file that is
    then renamed onto path, so path holds either its old contents or the
    complete new file, never a partial one. A spectrogram with no frames
    is refused: no reader could tell it from a damaged file. So is one
    whose rate, mel count, hop or frame count overflows its header field,
    or whose values are not 2-D with config.n_mels rows.
    """
    if mel.values.ndim != 2 or mel.n_mels != mel.config.n_mels:
        raise ValueError(
            f"{path}: values of shape {mel.values.shape} do not have "
            f"{mel.config.n_mels} mel rows"
        )
    if mel.n_frames < 1:
        raise ValueError(f"{path}: cannot write a spectrogram with no frames")
    try:
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
    except struct.error as exc:
        raise ValueError(
            f"{path}: the header cannot hold sample rate {mel.config.sample_rate}, "
            f"{mel.n_mels} mels, hop {mel.config.hop} and {mel.n_frames} frames: {exc}"
        ) from None
    payload = np.ascontiguousarray(mel.values, dtype="<f4")
    path = Path(path)
    # One name per process and thread, so concurrent writers never share it,
    # and of a fixed length, so any target name that fits can be written.
    tmp_path = path.with_name(f".mspec.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp_path, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # the write's error is the one to report
            tmp_path.unlink()
        if isinstance(exc, OSError) and exc.strerror:  # name path, not the temporary file
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
    return len(header) + payload.nbytes


def read_mspec(path) -> MelSpectrogram:
    """Read a container written by write_mspec.

    A malformed file, including bad header values, a header with no
    frames, and a payload size other than the header's, raises
    MspecFormatError naming the path. The payload size is checked against
    the file size before any of it is read.
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
        if frame_size != MelConfig.frame_size:
            raise MspecFormatError(
                f"{path}: frame_size {frame_size} is not {MelConfig.frame_size}"
            )
        if n_frames == 0:
            raise MspecFormatError(f"{path}: header has no frames")
        try:
            config = MelConfig(
                sample_rate=sample_rate,
                n_mels=n_mels,
                hop_multiplier=hop_samples // REFERENCE_HOP,
                compression=_COMPRESSION_NAMES[compression_code],
            )
        except ValueError as exc:
            raise MspecFormatError(f"{path}: bad header: {exc}") from None
        expected = mspec_size(n_mels, n_frames)
        actual = os.fstat(fh.fileno()).st_size
        if actual < expected:
            raise MspecFormatError(f"{path}: truncated payload")
        if actual > expected:
            raise MspecFormatError(f"{path}: bytes after the payload")
        payload = fh.read(expected - MSPEC_HEADER_SIZE)
    values = np.frombuffer(payload, dtype="<f4").reshape(n_mels, n_frames)
    return MelSpectrogram(values=values, config=config)
