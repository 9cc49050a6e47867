"""Waveform primitives: windowing, short-time power spectra, resampling.

Everything here works on plain float arrays wrapped in :class:`AudioBuffer`
so that the sample rate travels with the samples. Spectral analysis is
deliberately minimal: one window type (periodic Hann), one transform
(real FFT of frame_size samples, no zero padding), power only.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import upfirdn

from .exceptions import UnsupportedRatioError

__all__ = [
    "PAD_CENTER",
    "PAD_NONE",
    "AudioBuffer",
    "FrameGrid",
    "PowerSpectrogram",
    "hann_window",
    "frame_count",
    "stft_power",
    "resample_rational",
    "read_wav_mono",
    "read_raw_float32",
]

PAD_CENTER = "center-reflect"
PAD_NONE = "none"

# Largest numerator/denominator after reducing in_rate:out_rate. Keeps the
# polyphase filter bank small; anything beyond this is a config error.
MAX_RESAMPLE_FACTOR = 1000

# Polyphase resampler design: taps per output phase, Kaiser shape parameter,
# and anti-alias cutoff as a fraction of the lower Nyquist frequency.
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 8.6
RESAMPLE_CUTOFF = 0.9


@dataclass(frozen=True)
class AudioBuffer:
    """Mono waveform with its sample rate.

    Samples are float64, nominally in [-1, 1]; the range is not enforced
    because resampling may overshoot slightly. Finiteness is enforced.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.n_samples / self.sample_rate


@dataclass(frozen=True)
class FrameGrid:
    """Analysis framing: frame size, hop, and edge padding policy.

    padding_mode "center-reflect" aligns frame t to sample t*hop (frame
    centers sit on the hop grid, edges reflect-padded); "none" starts
    frame t at sample t*hop and never reads past the signal.
    """

    frame_size: int = 512
    hop: int = 256
    padding_mode: str = PAD_CENTER

    def __post_init__(self) -> None:
        if self.frame_size <= 0 or self.frame_size % 2 != 0:
            raise ValueError(f"frame_size must be positive and even, got {self.frame_size}")
        if self.hop <= 0:
            raise ValueError(f"hop must be positive, got {self.hop}")
        if self.padding_mode not in (PAD_CENTER, PAD_NONE):
            raise ValueError(f"unknown padding_mode {self.padding_mode!r}")

    @property
    def n_bins(self) -> int:
        """Number of non-redundant FFT bins (DC through Nyquist)."""
        return self.frame_size // 2 + 1


@dataclass(frozen=True)
class PowerSpectrogram:
    """Squared-magnitude STFT: bins is (n_bins, n_frames), non-negative."""

    bins: np.ndarray
    sample_rate: int
    grid: FrameGrid

    @property
    def n_bins(self) -> int:
        return int(self.bins.shape[0])

    @property
    def n_frames(self) -> int:
        return int(self.bins.shape[1])


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of length n.

    w[k] = 0.5 * (1 - cos(2*pi*k / n)), so w[0] = 0 and the window is the
    first n samples of an (n+1)-point symmetric Hann. n must be >= 2.
    """
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def frame_count(
    n_samples: int,
    hop: int,
    padding_mode: str = PAD_CENTER,
    frame_size: int = 512,
) -> int:
    """Number of analysis frames produced for a signal of n_samples.

    center-reflect: 1 + floor(n_samples / hop); frames exist for every hop
    point including both edges. none: 1 + floor((n_samples - frame_size)
    / hop); requires n_samples >= frame_size.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if hop <= 0:
        raise ValueError(f"hop must be positive, got {hop}")
    if padding_mode == PAD_CENTER:
        return 1 + n_samples // hop
    if padding_mode == PAD_NONE:
        if n_samples < frame_size:
            raise ValueError(
                f"unpadded framing needs at least frame_size={frame_size} samples, got {n_samples}"
            )
        return 1 + (n_samples - frame_size) // hop
    raise ValueError(f"unknown padding_mode {padding_mode!r}")


def stft_power(audio: AudioBuffer, grid: FrameGrid) -> PowerSpectrogram:
    """Short-time power spectrogram on the given frame grid.

    Each frame is multiplied by a periodic Hann window and transformed by
    an unnormalized real FFT of exactly frame_size points (no zero
    padding); columns are |X|^2. Frame t covers samples starting at
    t*hop - frame_size/2 ("center-reflect", edges mirrored) or t*hop
    ("none").
    """
    x = audio.samples
    if x.size == 0:
        raise ValueError("audio is empty")
    n_frames = frame_count(x.size, grid.hop, grid.padding_mode, grid.frame_size)
    if grid.padding_mode == PAD_CENTER:
        half = grid.frame_size // 2
        if x.size > 1:
            x = np.pad(x, (half, half), mode="reflect")
        else:
            x = np.full(2 * half + 1, x[0])
    frames = sliding_window_view(x, grid.frame_size)[:: grid.hop][:n_frames]
    spectrum = np.fft.rfft(frames * hann_window(grid.frame_size), axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    return PowerSpectrogram(bins=power.T, sample_rate=audio.sample_rate, grid=grid)


def _resample_kernel(p: int, in_rate: int, out_rate: int) -> np.ndarray:
    """Kaiser-windowed sinc lowpass for a p-fold upsampled stream."""
    n_taps = RESAMPLE_TAPS_PER_PHASE * p + 1  # odd length, integer group delay
    cutoff_hz = RESAMPLE_CUTOFF * 0.5 * min(in_rate, out_rate)
    fc = cutoff_hz / (in_rate * p)  # cycles per upsampled sample, < 0.5
    m = np.arange(n_taps) - (n_taps - 1) / 2.0
    h = 2.0 * fc * np.sinc(2.0 * fc * m) * np.kaiser(n_taps, RESAMPLE_KAISER_BETA)
    # Unit DC gain per output phase: branch r feeds output samples congruent
    # to r mod p, so normalizing each branch keeps constants exactly constant.
    for r in range(p):
        h[r::p] /= h[r::p].sum()
    return h


def resample_rational(audio: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample to target_rate with a polyphase windowed-sinc filter.

    The rate change must reduce to p/q with p, q <= 1000, otherwise
    UnsupportedRatioError. Output length is round(n * p / q). Identical
    rates return a copy of the input.
    """
    if int(target_rate) <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    target_rate = int(target_rate)
    g = math.gcd(audio.sample_rate, target_rate)
    p = target_rate // g
    q = audio.sample_rate // g
    if p > MAX_RESAMPLE_FACTOR or q > MAX_RESAMPLE_FACTOR:
        raise UnsupportedRatioError(
            f"rate change {audio.sample_rate} -> {target_rate} reduces to "
            f"{p}/{q}; factors above {MAX_RESAMPLE_FACTOR} are not supported"
        )
    if p == 1 and q == 1:
        return AudioBuffer(audio.samples.copy(), target_rate)
    x = audio.samples
    if x.size == 0:
        raise ValueError("audio is empty")
    h = _resample_kernel(p, audio.sample_rate, target_rate)
    upsampled = upfirdn(h, x, up=p, down=1)
    delay = (h.size - 1) // 2
    out_len = int(round(x.size * p / q))
    idx = delay + np.arange(out_len) * q
    if idx.size and idx[-1] >= upsampled.size:
        upsampled = np.pad(upsampled, (0, int(idx[-1]) - upsampled.size + 1))
    return AudioBuffer(upsampled[idx], target_rate)


def read_wav_mono(path) -> AudioBuffer:
    """Read a mono 16-bit PCM WAV file, scaled to [-1, 1] by 1/32768."""
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getnchannels() != 1:
                raise ValueError(
                    f"{path}: expected mono, got {wav.getnchannels()} channels"
                )
            if wav.getsampwidth() != 2:
                raise ValueError(
                    f"{path}: expected 16-bit PCM, got {8 * wav.getsampwidth()}-bit"
                )
            rate = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: not a readable WAV file: {exc}") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioBuffer(samples, rate)


def read_raw_float32(path, sample_rate: int) -> AudioBuffer:
    """Read a headerless stream of little-endian float32 samples.

    The sample rate is not stored in the file and must be supplied.
    """
    samples = np.fromfile(str(path), dtype="<f4").astype(np.float64)
    return AudioBuffer(samples, sample_rate)
