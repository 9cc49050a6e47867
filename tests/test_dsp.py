import hashlib
import math
import re
import struct
import threading
import tracemalloc
import warnings
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import upfirdn

from melgauge.dsp import (
    RESAMPLE_TAPS_PER_PHASE,
    STFT_BLOCK_FRAMES,
    AudioBuffer,
    _resample_kernel,
    frame_count,
    hann_window,
    read_raw_float32,
    read_wav_mono,
    resample_rational,
    stft_power,
)
from melgauge.exceptions import UnsupportedRatioError

from conftest import sine

# Outputs per phase in the long-phase cases below: the resampler once
# computed each phase in blocks of this many, and those cases still span it.
RESAMPLE_BLOCK = 4096


# ---------------------------------------------------------------- window

def test_hann_quarter_points():
    assert hann_window(4) == pytest.approx([0.0, 0.5, 1.0, 0.5], abs=1e-15)


def test_hann_matches_cosine_formula():
    # independent scalar evaluation of the defining formula
    for n in (2, 3, 8, 512):
        w = hann_window(n)
        for k in range(n):
            assert w[k] == pytest.approx(0.5 * (1.0 - math.cos(2.0 * math.pi * k / n)), abs=1e-15)


def test_hann_periodic_endpoints():
    w = hann_window(512)
    assert w[0] == 0.0
    assert w[256] == 1.0
    assert np.all(w >= 0.0) and np.all(w <= 1.0)


def test_hann_symmetry():
    for n in (4, 7, 512):
        w = hann_window(n)
        for k in range(1, n):
            assert w[k] == pytest.approx(w[n - k], abs=1e-15)


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_hann_rejects_short_lengths(n):
    with pytest.raises(ValueError):
        hann_window(n)


# ---------------------------------------------------------------- framing

def test_frame_count_centered_benchmark_segment():
    # 29.12 s at 12 kHz
    assert frame_count(349440, 256) == 1366
    assert frame_count(349440, 2560) == 137
    assert frame_count(256, 256) == 2
    assert frame_count(12000, 256) == 47


def test_frame_count_rejects_bad_arguments():
    with pytest.raises(ValueError):
        frame_count(0, 256)
    with pytest.raises(ValueError):
        frame_count(1000, 0)


def test_doubling_hop_halves_frame_count_within_rounding(rng):
    for _ in range(200):
        n = int(rng.integers(1, 10**6))
        hop = int(rng.integers(1, 4096))
        assert abs(frame_count(n, 2 * hop) - frame_count(n, hop) / 2) <= 1


# ---------------------------------------------------------------- stft

def _interior(n, hop, frame_size=512):
    """Columns of a centred grid whose frames read no reflected sample.

    Frame t at hop h covers x[t*h - frame_size/2 : t*h + frame_size/2].
    """
    half = frame_size // 2
    return slice(-(-half // hop), (n - half) // hop + 1)


def test_stft_shape_follows_frame_count(rng):
    audio = AudioBuffer(rng.standard_normal(12000), 12000)
    ps = stft_power(audio, 256)
    assert ps.bins.shape == (257, frame_count(12000, 256))


def test_stft_matches_bruteforce_dft(rng):
    # frame 1 at hop 512 is x[256:768], clear of both reflected edges;
    # checked against an O(n^2) DFT evaluated from the definition
    x = rng.standard_normal(768)
    ps = stft_power(AudioBuffer(x, 12000), 512)
    xw = x[256:768] * hann_window(512)
    n = np.arange(512)
    expected = np.empty(257)
    for k in range(257):
        coef = np.exp(-2j * np.pi * k * n / 512.0)
        expected[k] = abs(np.dot(xw, coef)) ** 2
    assert ps.bins[:, 1] == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_stft_sine_localizes_to_expected_bin():
    # 1500 Hz at 12 kHz falls exactly on bin round(1500 * 512 / 12000) = 64;
    # every frame clear of the reflected edges peaks there
    audio = AudioBuffer(sine(1500.0, 12000), 12000)
    ps = stft_power(audio, 256)
    interior = ps.bins[:, _interior(audio.n_samples, 256)]
    assert interior.shape[1] == ps.n_frames - 2
    assert np.all(np.argmax(interior, axis=0) == 64)


def test_stft_zero_audio_is_all_zero():
    ps = stft_power(AudioBuffer(np.zeros(4096), 16000), 256)
    assert np.all(ps.bins == 0.0)


def test_stft_power_is_nonnegative(rng):
    ps = stft_power(AudioBuffer(rng.standard_normal(8000), 16000), 256)
    assert np.all(ps.bins >= 0.0)
    assert np.all(np.isfinite(ps.bins))


def test_stft_parseval_single_frame(rng):
    # sum over all N DFT bins of |X|^2 equals N * sum(xw^2); fold the
    # one-sided spectrum back with the Hermitian double count. Frame 1 at
    # hop 512 is x[256:768].
    x = rng.standard_normal(768)
    ps = stft_power(AudioBuffer(x, 12000), 512)
    col = ps.bins[:, 1]
    folded = 2.0 * col.sum() - col[0] - col[-1]
    xw = x[256:768] * hann_window(512)
    assert folded == pytest.approx(512.0 * np.sum(xw**2), rel=1e-12)


def test_stft_time_shift_moves_columns(rng):
    # frame t of x[256:] reads what frame t + 1 of x reads; compared where
    # neither frame reaches a reflected edge
    x = rng.standard_normal(6000)
    full = stft_power(AudioBuffer(x, 12000), 256)
    shifted = stft_power(AudioBuffer(x[256:], 12000), 256)
    cols = _interior(x.size - 256, 256)
    assert shifted.bins[:, cols] == pytest.approx(
        full.bins[:, cols.start + 1 : cols.stop + 1], rel=1e-9, abs=1e-12
    )


def test_stft_disjoint_tones_add_in_power():
    # on-bin tones at bins 32 and 96: cross terms vanish in frames clear of
    # the reflected edges, so the power of the sum matches the sum of
    # powers well inside a 2% budget
    sr = 12000
    a = sine(32 * sr / 512.0, sr, amp=0.4)
    b = sine(96 * sr / 512.0, sr, amp=0.3)
    cols = _interior(sr, 256)
    pa = stft_power(AudioBuffer(a, sr), 256).bins[:, cols]
    pb = stft_power(AudioBuffer(b, sr), 256).bins[:, cols]
    pab = stft_power(AudioBuffer(a + b, sr), 256).bins[:, cols]
    assert np.sum(pab) == pytest.approx(np.sum(pa) + np.sum(pb), rel=0.02)
    # per-bin check on the carrier bins themselves
    assert pab[32] == pytest.approx(pa[32], rel=0.02)
    assert pab[96] == pytest.approx(pb[96], rel=0.02)


def _stft_one_shot(x, hop):
    """Every centred 512-sample frame windowed and transformed in one call, power as |X|^2."""
    n_frames = frame_count(x.size, hop)
    x = np.pad(x, 256, mode="reflect") if x.size > 1 else np.full(513, x[0])
    frames = sliding_window_view(x, 512)[::hop][:n_frames]
    spectrum = np.fft.rfft(frames * hann_window(512), axis=1)
    return (spectrum.real**2 + spectrum.imag**2).T


@pytest.mark.parametrize("hop", [256, 512, 2560])
@pytest.mark.parametrize(
    "n_frames", [1, 2, STFT_BLOCK_FRAMES - 1, STFT_BLOCK_FRAMES, STFT_BLOCK_FRAMES + 1,
                 2 * STFT_BLOCK_FRAMES, 2 * STFT_BLOCK_FRAMES + 5],
)
def test_stft_blocks_equal_one_shot(rng, hop, n_frames):
    # centred framing gives 1 + n // hop frames, so the shortest and the
    # longest n below both yield exactly n_frames frames
    for n in ((n_frames - 1) * hop + 1, n_frames * hop - 1):
        x = rng.standard_normal(n)
        bins = stft_power(AudioBuffer(x, 16000), hop).bins
        assert bins.shape[1] == n_frames
        assert np.array_equal(bins, _stft_one_shot(x, hop))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stft_tiny_inputs_equal_one_shot(rng, n):
    x = rng.standard_normal(n)
    assert np.array_equal(stft_power(AudioBuffer(x, 12000), 256).bins, _stft_one_shot(x, 256))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 2560), st.integers(0, 2**32 - 1))
@example(1, 1, 0)
@example(1024, 256, 0)  # the longest clip padded whole
@example(1025, 256, 0)  # the shortest with its own head and tail
@example(1025, 2560, 0)  # no frame inside the clip
@example(3000, 1, 0)
def test_stft_equals_one_shot(n, hop, seed):
    # covers one-sample clips, clips shorter than a frame, clips whose
    # reflected head and tail overlap, and hops longer than the frame
    x = np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(stft_power(AudioBuffer(x, 16000), hop).bins, _stft_one_shot(x, hop))


@pytest.mark.parametrize("seconds", [29.1, 116.4])
def test_stft_makes_no_copy_of_the_clip(rng, seconds):
    # beside its output, stft_power allocates a fixed set of block buffers
    # (under 1 MB), not a padded copy of the clip
    audio = AudioBuffer(rng.uniform(-1.0, 1.0, round(seconds * 16000)), 16000)
    tracemalloc.start()
    try:
        spectrum = stft_power(audio, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - spectrum.bins.nbytes < 1.5e6


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5000),
    st.integers(1, 700),
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
)
def test_stft_at_hop_multiple_is_strided_slice(n, hop, k, seed):
    # frame t at hop h*k is centred where frame t*k at hop h is, so every
    # hop multiple is the finer spectrum sliced, bit for bit
    audio = AudioBuffer(np.random.default_rng(seed).standard_normal(n), 16000)
    fine = stft_power(audio, hop)
    coarse = stft_power(audio, hop * k)
    assert np.array_equal(coarse.bins, fine.bins[:, ::k])
    assert coarse.n_frames == frame_count(n, hop * k)
    assert fine.n_frames == frame_count(n, hop)


def test_stft_bins_are_read_only(rng):
    spectrum = stft_power(AudioBuffer(rng.standard_normal(2000), 12000), 256)
    with pytest.raises(ValueError, match="read-only"):
        spectrum.bins[0, 0] = 1.0


def test_stft_rejects_empty_audio():
    with pytest.raises(ValueError):
        stft_power(AudioBuffer(np.zeros(0), 12000), 256)


@pytest.mark.parametrize("hop", [0, -256])
def test_stft_rejects_hop_below_one(rng, hop):
    with pytest.raises(ValueError, match="hop must be a positive integer"):
        stft_power(AudioBuffer(rng.standard_normal(2000), 12000), hop)


# ---------------------------------------------------------------- resampling

def test_resample_preserves_dc():
    dc = AudioBuffer(np.full(16000, 0.5), 16000)
    out = resample_rational(dc, 12000)
    interior = out.samples[100:-100]
    assert np.abs(interior - 0.5).max() <= 1e-6


def test_resample_preserves_tone_frequency():
    audio = AudioBuffer(sine(440.0, 16000, amp=0.9), 16000)
    out = resample_rational(audio, 12000)
    seg = out.samples[600:-600]
    spectrum = np.abs(np.fft.rfft(seg * np.hanning(seg.size)))
    peak_hz = np.argmax(spectrum) * 12000 / seg.size
    assert peak_hz == pytest.approx(440.0, abs=12000 / seg.size)


def test_resample_upsampling_roundtrip_tone():
    audio = AudioBuffer(sine(440.0, 12000, amp=0.9), 12000)
    out = resample_rational(audio, 16000)
    assert out.sample_rate == 16000
    seg = out.samples[800:-800]
    spectrum = np.abs(np.fft.rfft(seg * np.hanning(seg.size)))
    peak_hz = np.argmax(spectrum) * 16000 / seg.size
    assert peak_hz == pytest.approx(440.0, abs=16000 / seg.size)


def test_resample_same_rate_is_identity(rng):
    audio = AudioBuffer(rng.uniform(-1, 1, 5000), 12000)
    out = resample_rational(audio, 12000)
    assert out.n_samples == 5000
    assert np.abs(out.samples - audio.samples).max() <= 1e-9


def test_resample_output_length_rounds():
    assert resample_rational(AudioBuffer(np.zeros(16000), 16000), 12000).n_samples == 12000
    # 1001 * 2 / 3 = 667.33 -> 667
    assert resample_rational(AudioBuffer(np.zeros(1001), 48000), 32000).n_samples == 667


def test_resample_rejects_large_factors():
    audio = AudioBuffer(np.zeros(1000), 44100)
    with pytest.raises(UnsupportedRatioError):
        resample_rational(audio, 44101)


def test_resample_rejects_bad_target():
    audio = AudioBuffer(np.zeros(1000), 44100)
    with pytest.raises(ValueError):
        resample_rational(audio, 0)


def test_resample_rejects_empty_audio():
    with pytest.raises(ValueError, match="^audio is empty$"):
        resample_rational(AudioBuffer(np.zeros(0), 16000), 12000)


# The seven rate changes the resampler is pinned on, as (in, out) rates:
# 80/147, 160/441, 3/4, 4/3, 2/3, 1/6 and 6/1.
PINNED_RATIOS = [
    (22050, 12000), (44100, 16000), (16000, 12000), (12000, 16000),
    (24000, 16000), (48000, 8000), (8000, 48000),
]


def _upsample_filter_reference(x, in_rate, out_rate):
    """The whole p-fold upsampled, filtered stream, sampled every q-th sample
    from the kernel's centre, with zeros past its end."""
    g = math.gcd(in_rate, out_rate)
    p, q = out_rate // g, in_rate // g
    h = _resample_kernel(p, in_rate, out_rate)
    stream = upfirdn(h, x, up=p, down=1)
    idx = (h.size - 1) // 2 + np.arange(int(round(x.size * p / q))) * q
    stream = np.concatenate([stream, np.zeros(max(0, int(idx.max(initial=0)) + 1 - stream.size))])
    return stream[idx]


@pytest.mark.parametrize("rates", PINNED_RATIOS, ids=lambda r: f"{r[0]}-{r[1]}")
@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 65, 130, 1001, 4097])
def test_resample_equals_upsample_filter_reference(rng, rates, n):
    x = rng.uniform(-1.0, 1.0, n)
    out = resample_rational(AudioBuffer(x, rates[0]), rates[1])
    assert np.array_equal(out.samples, _upsample_filter_reference(x, *rates))


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 40),
    q=st.integers(1, 40),
    n=st.integers(1, 3000),
    level=st.floats(-1.0, 1.0),
)
def test_resample_length_and_constant_interior(p, q, n, level):
    out = resample_rational(AudioBuffer(np.full(n, level), 100 * q), 100 * p)
    g = math.gcd(p, q)
    p, q = p // g, q // g
    assert out.n_samples == int(round(n * p / q))
    if p == q:
        return
    # output m reads x[floor(m*q/p) - 32 : floor(m*q/p) + 33]; where all of
    # that lies inside x, the unit-DC-gain phases give back the constant
    centre = np.arange(out.n_samples) * q // p
    interior = out.samples[(centre >= 32) & (centre + 32 <= n - 1)]
    assert np.all(np.abs(interior - level) <= 1e-12)


def _resample_one_pass(x, in_rate, out_rate):
    """resample_rational as it was before blocking: each phase in one pass
    over all its outputs, summed in descending t from a zero accumulator."""
    g = math.gcd(in_rate, out_rate)
    p, q = out_rate // g, in_rate // g
    h = _resample_kernel(p, in_rate, out_rate)
    delay = (h.size - 1) // 2
    out_len = int(round(x.size * p / q))
    out = np.empty(out_len)
    lead = (h.size - 1) // p
    tail = max(0, (delay + (out_len - 1) * q) // p + 1 - x.size)
    padded = np.concatenate([np.zeros(lead), x, np.zeros(tail)])
    for m0 in range(min(p, out_len)):
        count = -(-(out_len - m0) // p)
        base, r = divmod(delay + m0 * q, p)
        acc = np.zeros(count)
        for t in range((h.size - 1 - r) // p, -1, -1):
            start = lead + base - t
            acc += padded[start : start + q * (count - 1) + 1 : q] * h[r + t * p]
        out[m0::p] = acc
    return out


@pytest.mark.parametrize("rates", PINNED_RATIOS, ids=lambda r: f"{r[0]}-{r[1]}")
def test_resample_negative_zero_input_bytes(rates):
    # every sum starts from +0.0, so all -0.0 input gives all +0.0 output
    x = np.full(4097, -0.0)
    out = resample_rational(AudioBuffer(x, rates[0]), rates[1]).samples
    assert out.tobytes() == _resample_one_pass(x, *rates).tobytes()
    assert out.tobytes() == np.zeros(out.size).tobytes()


@pytest.mark.parametrize("rates", PINNED_RATIOS, ids=lambda r: f"{r[0]}-{r[1]}")
def test_resample_negative_zero_products_sum_to_positive_zero(rates):
    # signed zeros that make every product of one output -0.0; a sum that
    # started from its first product instead of +0.0 would give -0.0 there
    g = math.gcd(*rates)
    p, q = rates[1] // g, rates[0] // g
    h = _resample_kernel(p, *rates)
    x = np.zeros(4097)
    m = int(round(x.size * p / q)) // 2
    base, r = divmod((h.size - 1) // 2 + m * q, p)
    t = np.arange((h.size - 1 - r) // p + 1)
    x[base - t] = np.copysign(0.0, -h[r + t * p])
    out = resample_rational(AudioBuffer(x, rates[0]), rates[1]).samples
    assert out.tobytes() == _resample_one_pass(x, *rates).tobytes()
    assert out.tobytes() == np.zeros(out.size).tobytes()


@pytest.mark.parametrize(
    "rates, extra", [((16000, 12000), -1), ((16000, 12000), 0), ((16000, 12000), 1), ((48000, 8000), 2)],
    ids=["3-4-one-short", "3-4-exact", "3-4-one-over", "1-6-two-over"],
)
def test_resample_block_boundary_bytes(rng, rates, extra):
    # input long enough that each phase holds RESAMPLE_BLOCK + extra outputs
    g = math.gcd(*rates)
    p, q = rates[1] // g, rates[0] // g
    n = (RESAMPLE_BLOCK + extra) * q
    x = rng.uniform(-1.0, 1.0, n)
    out = resample_rational(AudioBuffer(x, rates[0]), rates[1]).samples
    assert out.size == (RESAMPLE_BLOCK + extra) * p
    assert out.tobytes() == _resample_one_pass(x, *rates).tobytes()


# sha256 of _resample_kernel's bytes for each of PINNED_RATIOS, taken when
# each phase was still normalised by its own h[r::p].sum() call.
KERNEL_SHA256 = {
    (22050, 12000): "62c2e7d04c7acf3e61f6d57a771a57456690e767f48b860a41f2350200595310",
    (44100, 16000): "eaf6b16478871a5b6d155d7bcf3a27fba5d6a79aaf78d8cbc33e6255a9c59687",
    (16000, 12000): "ce38c5c2675cae124ee7748c42fe945fe5f1433da8e43fa03d67e477c83236ec",
    (12000, 16000): "ac1a00c41661f884fe895d3d3f6fa0171a89ead2b550ca53ee06c372eb4c8a45",
    (24000, 16000): "3c0bb6de1d19a0264d4d28deb282fb13a7bce978707e1835b8c425707723de50",
    (48000, 8000): "42dcaa60039d2cd3d10a3b3ce43cb64fbd1e590150277023eade4ed9ace9e5cc",
    (8000, 48000): "fd136acf23671128b1b3ec847073d9f2340ca16ca5146910849e2a9dc4abc631",
}


@pytest.mark.parametrize("rates", PINNED_RATIOS, ids=lambda r: f"{r[0]}-{r[1]}")
def test_resample_kernel_bytes_pinned(rates):
    p = rates[1] // math.gcd(*rates)
    h = _resample_kernel(p, *rates)
    assert hashlib.sha256(h.tobytes()).hexdigest() == KERNEL_SHA256[rates]


@pytest.mark.parametrize(
    "rates", [(22050, 12000), (44100, 16000), (12000, 16000)], ids=["80-147", "160-441", "4-3"]
)
@pytest.mark.parametrize(
    "per_phase", [1, RESAMPLE_BLOCK - 1, RESAMPLE_BLOCK, RESAMPLE_BLOCK + 1],
    ids=["one", "block-1", "block", "block+1"],
)
def test_resample_phase_block_bytes(rng, rates, per_phase):
    # q * per_phase input samples give per_phase outputs in each of the p phases
    g = math.gcd(*rates)
    p, q = rates[1] // g, rates[0] // g
    x = rng.uniform(-1.0, 1.0, per_phase * q)
    out = resample_rational(AudioBuffer(x, rates[0]), rates[1]).samples
    assert out.size == per_phase * p
    assert out.tobytes() == _resample_one_pass(x, *rates).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(1, 40),
    q=st.integers(1, 40),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)
def test_resample_bytes_equal_one_pass(p, q, n, seed, zeros):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    if zeros:  # runs of -0.0 check that every sum starts from +0.0
        x[rng.integers(0, n, n // 2)] = -0.0
    out = resample_rational(AudioBuffer(x, 100 * q), 100 * p).samples
    if p == q:
        assert out.tobytes() == x.tobytes()
    else:
        assert out.tobytes() == _resample_one_pass(x, 100 * q, 100 * p).tobytes()


def test_resample_threads_match_serial_bytes(rng):
    clips = [
        AudioBuffer(rng.uniform(-1.0, 1.0, 2 * 22050), 22050),
        AudioBuffer(rng.uniform(-1.0, 1.0, 2 * 44100), 44100),
    ]
    targets = [12000, 16000]
    serial = [resample_rational(c, t).samples.tobytes() for c, t in zip(clips, targets)]
    for _ in range(3):
        results = [None, None]
        start = threading.Barrier(2, timeout=30)

        def work(i):
            start.wait()
            results[i] = resample_rational(clips[i], targets[i]).samples.tobytes()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert results == serial


@pytest.mark.parametrize("rates", [(16000, 12000), (44100, 16000)], ids=["3-4", "160-441"])
def test_resample_holds_one_padded_copy(rng, rates):
    # beside its output, the resampler holds one copy of the clip padded with
    # zeros (64 before it, fewer than 32 + 2q after) and under 1 MB more
    q = rates[0] // math.gcd(*rates)
    audio = AudioBuffer(rng.uniform(-1.0, 1.0, round(29.1 * rates[0])), rates[0])
    tracemalloc.start()
    try:
        out = resample_rational(audio, rates[1]).samples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = 8 * (RESAMPLE_TAPS_PER_PHASE + audio.n_samples + RESAMPLE_TAPS_PER_PHASE // 2 + 2 * q)
    assert peak - out.nbytes < padded + 1e6


# ---------------------------------------------------------------- file io

def _write_wav(path, samples_int16, rate, channels=1, width=2):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(width)
        fh.setframerate(rate)
        fh.writeframes(samples_int16.tobytes())


def test_wav_reader_roundtrip(tmp_path):
    values = np.array([0, 16384, -16384, 32767, -32768], dtype="<i2")
    path = tmp_path / "tone.wav"
    _write_wav(path, values, 12000)
    audio = read_wav_mono(path)
    assert audio.sample_rate == 12000
    assert audio.samples == pytest.approx(values / 32768.0, abs=0.0)


def test_wav_reader_scales_every_int16_like_divide(tmp_path):
    values = np.arange(-32768, 32768, dtype="<i2")
    path = tmp_path / "all.wav"
    _write_wav(path, values, 16000)
    expected = values.astype(np.float64) / 32768.0
    assert read_wav_mono(path).samples.tobytes() == expected.tobytes()


def test_wav_reader_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    _write_wav(path, np.zeros(64, dtype="<i2"), 12000, channels=2)
    with pytest.raises(ValueError, match="mono"):
        read_wav_mono(path)


def test_wav_reader_rejects_8bit(tmp_path):
    path = tmp_path / "low.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(12000)
        fh.writeframes(bytes(64))
    with pytest.raises(ValueError, match="16-bit"):
        read_wav_mono(path)


@pytest.mark.parametrize("data_bytes", [31000, 31001], ids=["cut-at-frame", "cut-mid-sample"])
def test_wav_reader_rejects_short_data_chunk(tmp_path, data_bytes):
    # the header declares 16000 frames; the file ends early
    path = tmp_path / "short.wav"
    _write_wav(path, np.arange(16000, dtype="<i2"), 16000)
    path.write_bytes(path.read_bytes()[: 44 + data_bytes])
    with pytest.raises(ValueError) as err:
        read_wav_mono(path)
    assert str(err.value) == (
        f"{path}: truncated WAV: header declares 16000 frames (32000 bytes), "
        f"data chunk holds {data_bytes} bytes"
    )


def test_wav_reader_rejects_odd_sized_data_chunk(tmp_path):
    # 100 frames and one byte more, hand-patched into the header, then the
    # RIFF pad byte that keeps a chunk after it on an even offset
    path = tmp_path / "odd.wav"
    _write_wav(path, np.arange(100, dtype="<i2"), 16000)
    data = bytearray(path.read_bytes())
    assert data[36:40] == b"data"
    data += b"\x07\x00"
    struct.pack_into("<I", data, 40, 201)
    struct.pack_into("<I", data, 4, len(data) - 8)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as err:
        read_wav_mono(path)
    assert str(err.value) == (
        f"{path}: WAV data chunk of 201 bytes is not a whole number of 16-bit frames "
        "(100 frames and 1 byte over)"
    )


def test_wav_reader_reads_no_chunk_after_data(tmp_path):
    # A LIST chunk after the samples, as tag editors append; the reader asks
    # for one frame more than the header declares and must not get it.
    path = tmp_path / "tagged.wav"
    _write_wav(path, np.arange(100, dtype="<i2"), 16000)
    data = bytearray(path.read_bytes())
    data += b"LIST" + struct.pack("<I", 12) + b"INFOISFT" + struct.pack("<I", 0)
    struct.pack_into("<I", data, 4, len(data) - 8)
    path.write_bytes(bytes(data))
    audio = read_wav_mono(path)
    assert audio.samples.size == 100
    assert np.array_equal(audio.samples * 32768.0, np.arange(100))


def test_wav_reader_rejects_a_chunk_past_the_riff_chunk(tmp_path):
    # a fmt chunk size of 2**31 sends wave's chunk seek past the RIFF chunk
    path = tmp_path / "huge_fmt.wav"
    _write_wav(path, np.arange(100, dtype="<i2"), 16000)
    data = bytearray(path.read_bytes())
    assert data[12:16] == b"fmt "
    struct.pack_into("<I", data, 16, 2**31)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as err:
        read_wav_mono(path)
    assert str(err.value) == f"{path}: not a readable WAV file: a chunk overruns the RIFF chunk"


@pytest.mark.parametrize("extra", [1, 2, 3])
def test_raw_float32_reader_rejects_partial_sample(tmp_path, rng, extra):
    path = tmp_path / "stream.f32"
    path.write_bytes(rng.uniform(-1, 1, 777).astype("<f4").tobytes() + bytes(extra))
    with pytest.raises(ValueError) as err:
        read_raw_float32(path, 16000)
    assert str(err.value) == (
        f"{path}: {3108 + extra} bytes is not a whole number of float32 samples "
        f"(777 samples and {extra} bytes over)"
    )


def test_raw_float32_reader(tmp_path, rng):
    values = rng.uniform(-1, 1, 777).astype("<f4")
    path = tmp_path / "stream.f32"
    values.tofile(path)
    audio = read_raw_float32(path, 16000)
    assert audio.sample_rate == 16000
    assert audio.samples == pytest.approx(values.astype(np.float64), abs=0.0)


def test_audio_buffer_samples_are_read_only():
    audio = AudioBuffer(np.zeros(8), 12000)
    with pytest.raises(ValueError, match="read-only"):
        audio.samples[0] = 1.0


def test_audio_buffer_copies_a_writeable_input():
    source = np.linspace(-0.5, 0.5, 8)
    audio = AudioBuffer(source, 12000)
    source[:] = 0.25
    assert np.array_equal(audio.samples, np.linspace(-0.5, 0.5, 8))
    # a read-only view of a writeable array can still change, so it is copied too
    view = np.linspace(-0.5, 0.5, 8)
    frozen_view = view[:]
    frozen_view.flags.writeable = False
    audio = AudioBuffer(frozen_view, 12000)
    view[:] = 0.25
    assert np.array_equal(audio.samples, np.linspace(-0.5, 0.5, 8))


def test_audio_buffer_keeps_an_owned_read_only_array():
    samples = np.arange(8) / 8.0
    samples.flags.writeable = False
    assert AudioBuffer(samples, 12000).samples is samples


def test_readers_and_resampler_hand_over_owned_read_only_samples(tmp_path, rng):
    path = tmp_path / "clip.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(16000)
        wav.writeframes(rng.integers(-3000, 3000, 1600).astype("<i2").tobytes())
    rng.standard_normal(100).astype("<f4").tofile(tmp_path / "clip.f32")
    audio = read_wav_mono(path)
    for buffer in (audio, resample_rational(audio, 12000), read_raw_float32(tmp_path / "clip.f32", 16000)):
        assert buffer.samples.flags.owndata
        assert not buffer.samples.flags.writeable


def test_audio_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer(np.array([[0.0, 1.0]]), 12000)
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.nan]), 12000)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(10), 0)


@pytest.mark.parametrize("samples, dtype", [
    (np.array([0.5 + 0.25j, -0.5 + 0.0j]), "complex128"),
    (np.array([0.5, -0.5], dtype=np.complex64), "complex64"),
    (np.array(["1", "2"]), "<U1"),
    (np.array([b"0.5", b"-0.5"]), "|S4"),
    (["0.5", "-0.5"], "<U4"),
    (np.array([0.5, "1"], dtype=object), "object"),
], ids=["complex128", "complex64", "str", "bytes", "str-list", "object"])
def test_audio_buffer_refuses_samples_that_are_not_real_numbers(samples, dtype):
    # float64 conversion would drop the imaginary part or parse the text
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal comes before any ComplexWarning
        with pytest.raises(ValueError, match=f"got dtype {re.escape(dtype)}$"):
            AudioBuffer(samples, 12000)


@pytest.mark.parametrize("samples", [
    np.array([True, False, True]),
    np.array([-3, 0, 7], dtype=np.int16),
    np.array([0, 1, 255], dtype=np.uint8),
    [1, -2, 3],
    np.array([0.5, -0.25, 0.125], dtype=np.float32),
    [0.5, -0.25, 0.125],
], ids=["bool", "int16", "uint8", "int-list", "float32", "float-list"])
def test_audio_buffer_converts_real_numbers_to_float64(samples):
    audio = AudioBuffer(samples, 12000)
    assert audio.samples.dtype == np.float64
    assert audio.samples.tolist() == [float(value) for value in np.asarray(samples)]
