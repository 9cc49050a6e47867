"""Waveform primitives: windowing, short-time power spectra, resampling.

Everything here works on plain float arrays wrapped in :class:`AudioBuffer`
so that the sample rate travels with the samples. Spectral analysis is
deliberately minimal: one window type (periodic Hann), one transform
(real FFT of MelConfig.frame_size samples, no zero padding), power only.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import MelConfig, frame_count, positive_int  # frame_count re-exported
from .exceptions import UnsupportedRatioError

__all__ = [
    "AudioBuffer",
    "PowerSpectrogram",
    "hann_window",
    "frame_count",
    "stft_power",
    "resample_rational",
    "read_wav_mono",
    "read_raw_float32",
]

# Largest numerator/denominator after reducing in_rate:out_rate. Keeps the
# polyphase filter bank small; anything beyond this is a config error.
MAX_RESAMPLE_FACTOR = 1000

# Polyphase resampler design: taps per output phase, Kaiser shape parameter,
# and anti-alias cutoff as a fraction of the lower Nyquist frequency.
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 8.6
RESAMPLE_CUTOFF = 0.9

# stft_power windows, transforms and squares this many frames at a time in
# block buffers it reuses, so it allocates under 1 MB beside its output
# whatever the clip length.
STFT_BLOCK_FRAMES = 64


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Mono waveform with its sample rate.

    Samples are float64, nominally in [-1, 1]; the range is not enforced
    because resampling may overshoot slightly. Finiteness is enforced.
    Bool, integer and float input is converted; any other dtype, complex
    and text included, raises ValueError.
    Samples are read-only: the input is copied unless it is a float64
    array that owns its data and is already read-only, so a buffer never
    changes after it is built and spectra cached for it stay valid.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples)
        if samples.dtype.kind not in "biuf":  # float64 drops imaginary parts, parses text
            raise ValueError(f"samples must be real numbers, got dtype {samples.dtype}")
        samples = samples.astype(np.float64, copy=False)
        if samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        sample_rate = positive_int("sample_rate", self.sample_rate)
        if samples.flags.writeable or not samples.flags.owndata:
            samples = samples.copy()
            samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", sample_rate)

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])


@dataclass(frozen=True, eq=False)
class PowerSpectrogram:
    """Squared-magnitude STFT: bins is (frame_size/2 + 1, n_frames), non-negative.

    stft_power returns read-only bins.
    """

    bins: np.ndarray
    sample_rate: int
    hop: int

    @property
    def n_frames(self) -> int:
        return int(self.bins.shape[1])


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of length n.

    w[k] = 0.5 * (1 - cos(2*pi*k / n)), so w[0] = 0 and the window is the
    first n samples of an (n+1)-point symmetric Hann. n must be >= 2.
    """
    n = positive_int("n", n)
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def stft_power(audio: AudioBuffer, hop: int) -> PowerSpectrogram:
    """Short-time power spectrogram of frame_size-sample frames every hop samples.

    frame_size is MelConfig.frame_size (512). Each frame is multiplied by
    a periodic Hann window and transformed by an unnormalized real FFT of
    exactly frame_size points (no zero padding); columns are |X|^2.
    Frame t covers samples t*hop - frame_size/2 up to t*hop +
    frame_size/2, mirrored at the edges. A hop below 1 raises ValueError.
    Frames inside the clip are read in place; only those within half a
    frame of either end come from a reflect-padded copy of that end.
    """
    x = audio.samples
    if x.size == 0:
        raise ValueError("audio is empty")
    n_frames = frame_count(x.size, hop)
    frame_size = MelConfig.frame_size
    half = frame_size // 2
    # (source, index in source of frame 0's first sample, first frame, end frame)
    if x.size > 2 * frame_size:
        inner = -(-half // hop)  # frames inner..outer-1 lie inside x
        outer = (x.size - half) // hop + 1
        head = np.pad(x[: 3 * half], (half, 0), mode="reflect")
        tail = np.pad(x[-3 * half :], (0, half), mode="reflect")
        parts = [(head, 0, 0, inner), (x, -half, inner, outer),
                 (tail, frame_size - x.size, outer, n_frames)]
    else:  # too short for a separate head and tail
        padded = np.pad(x, half, mode="reflect")
        parts = [(padded, 0, 0, n_frames)]
    window = hann_window(frame_size)
    power = np.empty((n_frames, half + 1))
    windowed = np.empty((STFT_BLOCK_FRAMES, frame_size))
    squares = np.empty((STFT_BLOCK_FRAMES, half + 1))
    for source, origin, first, end in parts:
        frames = sliding_window_view(source, frame_size)[origin + first * hop :: hop]
        for start in range(first, end, STFT_BLOCK_FRAMES):
            n = min(STFT_BLOCK_FRAMES, end - start)
            np.multiply(frames[start - first : start - first + n], window, out=windowed[:n])
            spectrum = np.fft.rfft(windowed[:n], axis=1)
            block = power[start : start + n]
            np.square(spectrum.real, out=block)
            block += np.square(spectrum.imag, out=squares[:n])
    power.flags.writeable = False
    return PowerSpectrogram(bins=power.T, sample_rate=audio.sample_rate, hop=hop)


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
    rates return a new buffer sharing the input's read-only samples.

    Output m is sample J = delay + m*q of x upsampled by p and filtered by
    h, where delay centres the kernel. Only the taps h[r + t*p] with
    r = J mod p meet nonzero samples, so y[m] = sum_t h[r + t*p] *
    x[J div p - t]; the upsampled stream is never formed. Outputs m and
    m + p share r and read x q samples apart, so each of the p phases is
    one matmul of the phase's taps, in descending t, by a (taps x outputs)
    strided view of x. The taps are a reversed view, which numpy cannot
    hand to BLAS, so its own loop adds each output's products in tap
    order from +0.0, the order of a direct convolution.
    """
    target_rate = positive_int("target_rate", target_rate)
    g = math.gcd(audio.sample_rate, target_rate)
    p = target_rate // g
    q = audio.sample_rate // g
    if p > MAX_RESAMPLE_FACTOR or q > MAX_RESAMPLE_FACTOR:
        raise UnsupportedRatioError(
            f"rate change {audio.sample_rate} -> {target_rate} reduces to "
            f"{p}/{q}; factors above {MAX_RESAMPLE_FACTOR} are not supported"
        )
    if p == 1 and q == 1:
        return AudioBuffer(audio.samples, target_rate)
    x = audio.samples
    if x.size == 0:
        raise ValueError("audio is empty")
    h = _resample_kernel(p, audio.sample_rate, target_rate)
    delay = (h.size - 1) // 2
    out_len = int(round(x.size * p / q))
    # Outputs in phase 0, the most of any phase; 1 when there are none, so
    # that the view below is still defined.
    longest = max(1, -(-out_len // p))
    # Zeros around x stand in for the taps that fall off either end; the
    # largest t, (h.size - 1) // p, reads furthest before x. The tail lets
    # every phase read as if it held `longest` outputs, so one view serves all.
    lead = (h.size - 1) // p
    tail = max(0, (delay + (longest * p - 1) * q) // p + 1 - x.size)
    padded = np.concatenate([np.zeros(lead), x, np.zeros(tail)])
    strided = sliding_window_view(padded, (longest - 1) * q + 1)[:, ::q]  # [s, k] = padded[s + k*q]
    out = np.empty(out_len)
    for m0 in range(min(p, out_len)):
        count = -(-(out_len - m0) // p)
        base, r = divmod(delay + m0 * q, p)
        taps = h[r::p][::-1]  # descending t
        rows = strided[lead + base + 1 - taps.size : lead + base + 1, :count]
        np.matmul(taps, rows, out=out[m0::p])
    out.flags.writeable = False
    return AudioBuffer(out, target_rate)


def read_wav_mono(path) -> AudioBuffer:
    """Read a mono 16-bit PCM WAV file, scaled to [-1, 1] by 1/32768.

    A data chunk of an odd number of bytes, or one holding fewer bytes
    than its header declares, raises ValueError naming the counts; any
    other unreadable header raises ValueError naming the file.
    """
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
            declared = wav.getnframes()
            # wave counts frames as the chunk size // 2 and reads no further
            # than the data chunk, so one frame more shows an odd last byte.
            raw = wav.readframes(declared + 1)
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: not a readable WAV file: {exc}") from exc
    except RuntimeError as exc:  # wave seeking past the end of the RIFF chunk
        raise ValueError(f"{path}: not a readable WAV file: a chunk overruns the RIFF chunk") from exc
    if len(raw) > 2 * declared:
        raise ValueError(
            f"{path}: WAV data chunk of {len(raw)} bytes is not a whole number of "
            f"16-bit frames ({declared} frames and 1 byte over)"
        )
    if len(raw) != 2 * declared:
        raise ValueError(
            f"{path}: truncated WAV: header declares {declared} frames "
            f"({2 * declared} bytes), data chunk holds {len(raw)} bytes"
        )
    # One conversion; scaling by a power of two is exact.
    samples = np.multiply(np.frombuffer(raw, dtype="<i2"), 1.0 / 32768.0, dtype=np.float64)
    samples.flags.writeable = False
    return AudioBuffer(samples, rate)


def read_raw_float32(path, sample_rate: int) -> AudioBuffer:
    """Read a headerless stream of little-endian float32 samples.

    The sample rate is not stored in the file and must be supplied.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % 4:
        raise ValueError(
            f"{path}: {len(raw)} bytes is not a whole number of float32 samples "
            f"({len(raw) // 4} samples and {len(raw) % 4} bytes over)"
        )
    # A signalling NaN warns as it converts; AudioBuffer then refuses it.
    with np.errstate(invalid="ignore"):
        samples = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    samples.flags.writeable = False
    return AudioBuffer(samples, sample_rate)
