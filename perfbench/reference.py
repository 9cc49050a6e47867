"""Computations made apart from melgauge, used to check what it outputs.

Everything here follows the conventions the melgauge README states
(periodic Hann, 512-point rFFT power, centre-reflect framing, Slaney mel
filters with 2 / (f_right - f_left) area normalisation, the two
compressions, the polyphase resampler design and the .mspec header
table). Nothing in this module imports melgauge.
"""

from __future__ import annotations

import math
import struct

import numpy as np

FRAME = 512
BASE_HOP = 256
HEADER_SIZE = 40
MAGIC = b"MSPEC1\x00\x00"
COMPRESSION_CODE = {"dB": 0, "log": 1}

# Values read back from float32 containers are compared with float64
# references within |a - b| <= ATOL + RTOL * |b|: float32 keeps about 7
# significant digits, so RTOL is ten times its half-spacing and ATOL covers
# values near zero (silence in log compression).
ATOL = 1e-5
RTOL = 1e-6


# ------------------------------------------------------------ signal chain

def periodic_hann(n: int) -> np.ndarray:
    return np.sin(np.pi * np.arange(n) / n) ** 2


def power_spectrogram(x: np.ndarray, hop: int) -> np.ndarray:
    """(257, 1 + len(x) // hop) power of centre-reflect framed 512-point frames."""
    half = FRAME // 2
    left = x[half:0:-1]
    right = x[-2:-half - 2:-1]
    padded = np.concatenate([left, x, right])
    n_frames = 1 + x.size // hop
    starts = hop * np.arange(n_frames)
    power = np.empty((FRAME // 2 + 1, n_frames))
    window = periodic_hann(FRAME)
    for lo in range(0, n_frames, 512):
        idx = starts[lo:lo + 512, None] + np.arange(FRAME)[None, :]
        spectrum = np.fft.rfft(padded[idx] * window, axis=1)
        power[:, lo:lo + 512] = (np.abs(spectrum) ** 2).T
    return power


def hz_to_mel(f):
    f = np.asarray(f, dtype=np.float64)
    linear = f * 3.0 / 200.0
    logarithmic = 15.0 + 27.0 * np.log(np.maximum(f, 1000.0) / 1000.0) / np.log(6.4)
    return np.where(f < 1000.0, linear, logarithmic)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    linear = m * 200.0 / 3.0
    logarithmic = 1000.0 * np.exp((np.maximum(m, 15.0) - 15.0) * np.log(6.4) / 27.0)
    return np.where(m < 15.0, linear, logarithmic)


def filterbank(sample_rate: int, n_mels: int) -> np.ndarray:
    """(n_mels, 257) triangles on n_mels + 2 mel points from 0 Hz to Nyquist."""
    edges = mel_to_hz(np.linspace(0.0, float(hz_to_mel(sample_rate / 2.0)), n_mels + 2))
    freqs = np.arange(FRAME // 2 + 1) * sample_rate / FRAME
    weights = np.zeros((n_mels, freqs.size))
    for i in range(n_mels):
        left, centre, right = edges[i], edges[i + 1], edges[i + 2]
        up = (freqs - left) / (centre - left)
        down = (right - freqs) / (right - centre)
        weights[i] = np.clip(np.minimum(up, down), 0.0, None) * 2.0 / (right - left)
    return weights


def compress(power: np.ndarray, compression: str) -> np.ndarray:
    if compression == "dB":
        return 10.0 * np.log10(np.maximum(power, 1e-10))
    return np.log(1.0 + 10000.0 * power)


def uncompress(values: np.ndarray, compression: str) -> np.ndarray:
    if compression == "dB":
        return 10.0 ** (values / 10.0)
    return np.expm1(values) / 10000.0


def resample(x: np.ndarray, in_rate: int, out_rate: int) -> np.ndarray:
    """Output-only polyphase resampler from the README's design.

    The prototype lowpass is a Kaiser (beta 8.6) windowed sinc with 64 taps
    per phase, cut off at 0.9 of the lower Nyquist frequency, and each
    phase scaled to unit DC gain. Only the output samples are evaluated:
    y[m] = sum_n x[n] h[32p + m q - n p].
    """
    g = math.gcd(in_rate, out_rate)
    p, q = out_rate // g, in_rate // g
    length = 64 * p + 1
    k = np.arange(length)
    t = (k - 32 * p) / p  # tap position in input samples
    cutoff = 0.9 * 0.5 * min(in_rate, out_rate) / in_rate  # cycles per input sample
    window = np.i0(8.6 * np.sqrt(1.0 - (2.0 * k / (length - 1) - 1.0) ** 2)) / np.i0(8.6)
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * t) * window
    for phase in range(p):
        h[phase::p] /= h[phase::p].sum()
    n_out = round(x.size * p / q)
    y = np.empty(n_out)
    offsets = np.arange(66)
    for lo in range(0, n_out, 8192):
        m = np.arange(lo, min(lo + 8192, n_out))
        first = -((32 * p - m * q) // p)  # ceil((m q - 32 p) / p)
        n = first[:, None] + offsets[None, :]
        j = 32 * p + m[:, None] * q - n * p
        valid = (j >= 0) & (j < length) & (n >= 0) & (n < x.size)
        y[lo:lo + m.size] = np.sum(
            np.where(valid, x[np.clip(n, 0, x.size - 1)] * h[np.clip(j, 0, length - 1)], 0.0),
            axis=1,
        )
    return y


class ClipReference:
    """Reference mel matrices of one clip at one analysis rate.

    Power spectra are kept per hop, filterbanks per mel count and mel
    power per (mel count, hop), so each grid cell is computed once and
    checked every round against the same matrix.
    """

    def __init__(self, samples: np.ndarray, sample_rate: int):
        self.samples = samples
        self.sample_rate = sample_rate
        self._power: dict[int, np.ndarray] = {}
        self._banks: dict[int, np.ndarray] = {}
        self._mel: dict[tuple[int, int], np.ndarray] = {}

    def power(self, hop: int) -> np.ndarray:
        if hop not in self._power:
            self._power[hop] = power_spectrogram(self.samples, hop)
        return self._power[hop]

    def bank(self, n_mels: int) -> np.ndarray:
        if n_mels not in self._banks:
            self._banks[n_mels] = filterbank(self.sample_rate, n_mels)
        return self._banks[n_mels]

    def mel_power(self, n_mels: int, hop: int) -> np.ndarray:
        if (n_mels, hop) not in self._mel:
            self._mel[(n_mels, hop)] = self.bank(n_mels) @ self.power(hop)
        return self._mel[(n_mels, hop)]


# --------------------------------------------------------------- container

def parse_mspec(blob: bytes) -> tuple[dict, np.ndarray]:
    """Header fields and (n_mels, n_frames) float32 values of a .mspec file.

    Field offsets follow the README's container table.
    """
    if len(blob) < HEADER_SIZE:
        raise ValueError(f"{len(blob)} bytes is shorter than the header")
    header = {
        "magic": blob[0:8],
        "version": struct.unpack_from("<H", blob, 8)[0],
        "sample_rate": struct.unpack_from("<I", blob, 10)[0],
        "n_mels": struct.unpack_from("<H", blob, 14)[0],
        "hop": struct.unpack_from("<I", blob, 16)[0],
        "frame_size": struct.unpack_from("<I", blob, 20)[0],
        "compression": blob[24],
        "n_frames": struct.unpack_from("<I", blob, 26)[0],
        "dtype": blob[30],
    }
    expected = HEADER_SIZE + 4 * header["n_mels"] * header["n_frames"]
    if len(blob) != expected:
        raise ValueError(f"{len(blob)} bytes, header implies {expected}")
    values = np.frombuffer(blob, dtype="<f4", offset=HEADER_SIZE)
    return header, values.reshape(header["n_mels"], header["n_frames"])


def check_mspec(blob: bytes, sample_rate: int, n_samples: int, n_mels: int, hop_mult: int,
                compression: str, mel_power: np.ndarray, bank: np.ndarray,
                tones: list[tuple[float, float, float]]) -> list[str]:
    """Problems found in one container; an empty list means it passed.

    mel_power is the reference (n_mels, n_frames) mel power of the n_samples
    of audio at sample_rate, bank the filterbank that made it, and tones
    holds (frequency Hz, start s, end s) of each tone segment.
    """
    try:
        header, values = parse_mspec(blob)
    except ValueError as exc:
        return [str(exc)]
    hop = BASE_HOP * hop_mult
    want = {
        "magic": MAGIC, "version": 1, "sample_rate": sample_rate,
        "n_mels": n_mels, "hop": hop, "frame_size": FRAME,
        "compression": COMPRESSION_CODE[compression],
        "n_frames": 1 + n_samples // hop, "dtype": 0,
    }
    problems = [f"header {k}={header[k]!r}, want {v!r}" for k, v in want.items() if header[k] != v]
    if problems:
        return problems
    expected = compress(mel_power, compression)
    err = np.abs(values - expected) - (ATOL + RTOL * np.abs(expected))
    if np.any(err > 0):
        worst = np.unravel_index(int(np.argmax(err)), err.shape)
        problems.append(
            f"value at {worst} is {values[worst]!r}, reference {expected[worst]!r}"
        )
    return problems + check_tones(values, compression, sample_rate, bank, hop, tones)


def check_tones(values, compression, sample_rate, bank, hop, tones) -> list[str]:
    """Each tone must peak on the row whose filter responds most to it.

    The response is the reference filterbank applied to the power of one
    Hann-windowed frame of the pure tone, which is the filter weight at the
    tone frequency as the analysis window sees it. A tone whose best two
    rows respond within 5% of each other is not decisive and is skipped.
    """
    problems = []
    n = np.arange(FRAME)
    times = hop * np.arange(values.shape[1]) / sample_rate
    power = uncompress(values.astype(np.float64), compression)
    for freq, start, end in tones:
        frame = np.sin(2.0 * np.pi * freq * n / sample_rate) * periodic_hann(FRAME)
        response = bank @ (np.abs(np.fft.rfft(frame)) ** 2)
        top, second = np.sort(response)[-2:][::-1]
        if second > 0.95 * top:
            continue
        inside = (times > start + 0.1) & (times < end - 0.1)
        got = int(np.argmax(power[:, inside].mean(axis=1)))
        want = int(np.argmax(response))
        if got != want:
            problems.append(f"{freq:g} Hz tone peaks on row {got}, want {want}")
    return problems


# ------------------------------------------------------------------ metrics

def pairwise_roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of (positive, negative) pairs ranked right, ties counting half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for lo in range(0, pos.size, 256):
        block = pos[lo:lo + 256, None]
        wins += np.sum(block > neg[None, :]) + 0.5 * np.sum(block == neg[None, :])
    return float(wins / (pos.size * neg.size))


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean over positives of the precision of the list cut at that positive.

    Items rank by descending score; equal scores keep their input order.
    """
    positives = np.flatnonzero(labels == 1)
    order = np.arange(scores.size)
    precisions = []
    for lo in range(0, positives.size, 256):
        i = positives[lo:lo + 256, None]
        ahead = (scores[None, :] > scores[i]) | ((scores[None, :] == scores[i]) & (order[None, :] <= i))
        precisions.append(np.sum(ahead & (labels[None, :] == 1), axis=1) / np.sum(ahead, axis=1))
    return float(np.mean(np.concatenate(precisions)))


# --------------------------------------------------------------------- cost

VGG_CHANNELS = (128, 384, 768, 2048)

# The VGG-CNN pooling plan of every grid cell, kept here so that a change to
# any plan in melgauge fails the cost check. The repository README confirms
# the (12 kHz, x1) time pools (4, 5, 8, 8); the other rows restate melgauge's
# tables at the commit that added this benchmark. Each plan must close the
# cell's input to exactly 1x1 (vgg_macs raises otherwise).
TIME_POOLS = {
    12000: {1: (4, 5, 8, 8), 2: (4, 5, 8, 4), 3: (4, 5, 8, 2), 4: (4, 5, 8, 2),
            5: (4, 5, 8, 1), 10: (4, 5, 4, 1)},
    16000: {1: (4, 5, 9, 10), 2: (4, 5, 9, 5), 3: (4, 5, 9, 3), 4: (4, 5, 9, 2),
            5: (4, 5, 9, 2), 10: (4, 5, 9, 1)},
}
FREQ_POOLS = {128: (2, 4, 4, 4), 96: (2, 4, 3, 4), 48: (2, 4, 3, 2), 32: (2, 2, 3, 2),
              24: (2, 2, 3, 2), 16: (2, 2, 2, 2), 8: (2, 2, 2, 1)}


def vgg_macs(n_mels: int, n_frames: int, freq_pools, time_pools) -> int:
    """Four same-padded 3x3 convs, each followed by its pool, plus 2048 x 50."""
    f, t, c_in, total = n_mels, n_frames, 1, 0
    for c_out, pf, pt in zip(VGG_CHANNELS, freq_pools, time_pools):
        total += 9 * c_in * c_out * f * t
        f, t, c_in = f // pf, t // pt, c_out
    if (f, t) != (1, 1):
        raise ValueError(f"pooling leaves {f}x{t}, not 1x1")
    return total + 2048 * 50
