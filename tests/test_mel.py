import dataclasses
import functools
import gc
import math
import struct
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melgauge import mel
from melgauge.config import (
    MSPEC_HEADER_SIZE,
    MelConfig,
    benchmark_frames,
    enumerate_grid,
    is_grid_config,
    mspec_size,
)
from melgauge.dsp import AudioBuffer, PowerSpectrogram, frame_count, stft_power
from melgauge.exceptions import DegenerateFilterbankError, MspecFormatError
from melgauge.mel import (
    MelFilterbank,
    MelSpectrogram,
    compress_db,
    compress_log,
    hz_to_mel_slaney,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz_slaney,
    read_mspec,
    write_mspec,
)
from melgauge.metrics import TagTable

from conftest import sine


# ------------------------------------------------------------ mel scale

def _mel_of(f: float) -> float:
    # independent scalar evaluation
    if f < 1000.0:
        return f / (200.0 / 3.0)
    return 15.0 + 27.0 * math.log(f / 1000.0) / math.log(6.4)


def test_mel_scale_anchors():
    assert hz_to_mel_slaney(0.0) == 0.0
    assert hz_to_mel_slaney(1000.0) == pytest.approx(15.0, abs=1e-12)
    assert hz_to_mel_slaney(200.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
    assert mel_to_hz_slaney(15.0) == pytest.approx(1000.0, rel=1e-12)


def test_mel_scale_log_region_value():
    expected = 15.0 + 27.0 * math.log(6.0) / math.log(6.4)
    assert hz_to_mel_slaney(6000.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(41.06128, abs=5e-6)


def test_mel_scale_matches_scalar_formula(rng):
    for f in rng.uniform(0.0, 8000.0, 500):
        assert hz_to_mel_slaney(float(f)) == pytest.approx(_mel_of(float(f)), rel=1e-12)


def test_mel_scale_roundtrip(rng):
    freqs = np.exp(rng.uniform(np.log(1.0), np.log(8000.0), 2000))
    roundtrip = mel_to_hz_slaney(hz_to_mel_slaney(freqs))
    assert np.abs(roundtrip / freqs - 1.0).max() <= 1e-9
    mels = rng.uniform(0.0, 45.0, 2000)
    back = hz_to_mel_slaney(mel_to_hz_slaney(mels))
    assert np.abs(back[mels > 0] / mels[mels > 0] - 1.0).max() <= 1e-9


def test_mel_scale_monotone(rng):
    f = np.sort(rng.uniform(0.0, 8000.0, 1000))
    m = hz_to_mel_slaney(f)
    assert np.all(np.diff(m) > 0.0)


def test_mel_scale_rejects_negative():
    with pytest.raises(ValueError):
        hz_to_mel_slaney(-1.0)
    with pytest.raises(ValueError):
        mel_to_hz_slaney(np.array([1.0, -0.5]))


def test_mel_scale_scalar_array_parity():
    f = [250.0, 1000.0, 3333.0]
    array = hz_to_mel_slaney(np.array(f))
    for i, value in enumerate(f):
        assert array[i] == hz_to_mel_slaney(value)


# ------------------------------------------------------------ filterbank

def _reference_filterbank(sample_rate, n_mels, frame_size, fmin, fmax):
    # loop-coded construction straight from the definition
    def to_hz(m):
        if m < 15.0:
            return m * (200.0 / 3.0)
        return 1000.0 * math.exp(math.log(6.4) / 27.0 * (m - 15.0))

    lo, hi = _mel_of(fmin) if fmin > 0 else 0.0, _mel_of(fmax)
    edges = [to_hz(lo + (hi - lo) * i / (n_mels + 1)) for i in range(n_mels + 2)]
    n_bins = frame_size // 2 + 1
    weights = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        f_left, f_center, f_right = edges[i], edges[i + 1], edges[i + 2]
        norm = 2.0 / (f_right - f_left)
        for b in range(n_bins):
            f = b * sample_rate / frame_size
            if f_left <= f <= f_center:
                tri = (f - f_left) / (f_center - f_left)
            elif f_center < f <= f_right:
                tri = (f_right - f) / (f_right - f_center)
            else:
                tri = 0.0
            weights[i, b] = tri * norm
    return weights


@pytest.mark.parametrize("sample_rate,n_mels", [(12000, 48), (16000, 96)])
def test_filterbank_matches_reference_construction(sample_rate, n_mels):
    config = MelConfig(sample_rate, n_mels)
    fb = mel_filterbank(config)
    expected = _reference_filterbank(sample_rate, n_mels, 512, 0.0, sample_rate / 2.0)
    assert fb.weights.shape == (n_mels, 257)
    assert np.abs(fb.weights - expected).max() <= 1e-12


def test_filterbank_shape_and_support():
    fb = mel_filterbank(MelConfig(12000, 48))
    assert fb.weights.shape == (48, 257)
    assert np.all(fb.weights >= 0.0)
    assert np.all(np.isfinite(fb.weights))
    assert np.all(np.any(fb.weights > 0.0, axis=1))


def test_filterbank_centers_increasing_and_in_range():
    config = MelConfig(16000, 96)
    fb = mel_filterbank(config)
    assert fb.center_freqs.shape == (96,)
    assert np.all(np.diff(fb.center_freqs) > 0.0)
    assert fb.center_freqs[0] > 0.0
    assert fb.center_freqs[-1] < 8000.0


def test_filterbank_first_center_frequency():
    # center of filter 0 sits one mel step above fmin
    config = MelConfig(12000, 48)
    fb = mel_filterbank(config)
    step = _mel_of(6000.0) / 49.0
    assert fb.center_freqs[0] == pytest.approx(step * 200.0 / 3.0, rel=1e-12)


def test_filterbank_degenerate_grid_raises():
    # at 12 kHz the 512-point bin grid first leaves a filter empty at 233 mels
    with pytest.raises(DegenerateFilterbankError):
        mel_filterbank(MelConfig(12000, 256))


# ------------------------------------------------------------ compressions

def test_db_compression_anchors():
    assert compress_db(1.0) == 0.0
    assert compress_db(10.0) == pytest.approx(10.0, abs=1e-12)
    assert compress_db(0.0) == pytest.approx(-100.0, abs=1e-9)
    assert compress_db(1e-12) == pytest.approx(-100.0, abs=1e-9)  # clamped


def test_log_compression_anchors():
    assert compress_log(0.0) == 0.0
    assert compress_log(1.0) == pytest.approx(math.log(10001.0), rel=1e-15)
    assert compress_log(1e-4) == pytest.approx(math.log(2.0), rel=1e-12)


def test_compressions_preserve_order(rng):
    x = np.sort(rng.uniform(0.0, 10.0, 1000))
    assert np.all(np.diff(compress_log(x)) > 0.0)
    above_floor = x[x > 1e-9]
    assert np.all(np.diff(compress_db(above_floor)) > 0.0)


# ------------------------------------------------------------ spectrogram

def test_mel_spectrogram_benchmark_shape():
    # the 29.1 s benchmark segment lands on the benchmark frame count
    audio = AudioBuffer(np.zeros(349440), 12000)
    spec = mel_spectrogram(audio, MelConfig(12000, 96, 1, "dB"))
    assert spec.values.shape == (96, 1366)
    assert spec.n_frames == frame_count(349440, 256) == benchmark_frames(12000, 1)


def test_mel_spectrogram_zero_audio():
    audio = AudioBuffer(np.zeros(12000), 12000)
    log_spec = mel_spectrogram(audio, MelConfig(12000, 96, compression="log"))
    assert np.all(log_spec.values == 0.0)
    db_spec = mel_spectrogram(audio, MelConfig(12000, 96, compression="dB"))
    assert db_spec.values == pytest.approx(-100.0, abs=1e-9)


def test_mel_spectrogram_tone_row(rng):
    # at 96 mels the argmax row is the one whose center is nearest the tone
    audio = AudioBuffer(sine(1500.0, 12000), 12000)
    config = MelConfig(12000, 96)
    spec = mel_spectrogram(audio, config)
    fb = mel_filterbank(config)
    expected_row = int(np.argmin(np.abs(fb.center_freqs - 1500.0)))
    assert int(np.argmax(spec.values.mean(axis=1))) == expected_row


def _mel(audio, config, hop):
    """mel_spectrogram's values when its product was computed at hop and sliced to config.hop."""
    product = mel._mel_product(config, stft_power(audio, hop).bins)[:, :: config.hop // hop]
    return compress_db(product) if config.compression == "dB" else compress_log(product)


def _fresh_mel(audio, config):
    """A fresh per-config computation, with nothing held: one STFT and one product at config.hop."""
    return _mel(audio, config, config.hop)


def _container_bytes(values):
    """The float32 payload write_mspec stores for values."""
    return np.ascontiguousarray(values, dtype="<f4").tobytes()


@pytest.mark.parametrize("compression", ["dB", "log"])
def test_mel_spectrogram_bytes_match_public_compression(rng, compression):
    audio = AudioBuffer(rng.uniform(-1.0, 1.0, 12000), 12000)
    config = MelConfig(12000, 48, 2, compression)
    got = mel_spectrogram(audio, config).values
    assert got.tobytes() == _mel(audio, config, 512).tobytes()
    assert _container_bytes(got) == _container_bytes(_fresh_mel(audio, config))


def test_public_compressions_return_new_arrays(rng):
    power = rng.uniform(0.0, 2.0, (4, 9))
    before = power.tobytes()
    for compress in (compress_db, compress_log):
        out = compress(power)
        assert out is not power and not np.shares_memory(out, power)
        assert power.tobytes() == before


@pytest.fixture
def counted_stfts(monkeypatch):
    """Hops of the STFTs mel_spectrogram runs."""
    hops = []

    def counting(audio, hop):
        hops.append(hop)
        return stft_power(audio, hop)

    monkeypatch.setattr(mel, "stft_power", counting)
    return hops


def test_hop_multiples_of_one_buffer_share_one_stft(rng, counted_stfts):
    audio = AudioBuffer(rng.standard_normal(24000), 12000)
    for config in enumerate_grid():
        if config.sample_rate == 12000:
            # each mel count comes at x1 first; its later hops slice that product
            got = mel_spectrogram(audio, config).values
            assert np.array_equal(got, _mel(audio, config, 256))
            assert _container_bytes(got) == _container_bytes(_fresh_mel(audio, config))
    assert counted_stfts == [256]


def test_spectrum_is_never_computed_finer_than_asked(rng, counted_stfts):
    audio = AudioBuffer(rng.standard_normal(24000), 12000)
    # 5 is not a multiple of 10 and 1 not of 5; 2 and 3 slice the hop-256 product
    for hop_multiplier, transformed in ((10, 10), (5, 5), (1, 1), (2, 1), (3, 1)):
        config = MelConfig(12000, 96, hop_multiplier)
        got = mel_spectrogram(audio, config).values
        assert np.array_equal(got, _mel(audio, config, 256 * transformed))
        assert _container_bytes(got) == _container_bytes(_fresh_mel(audio, config))
    assert counted_stfts == [2560, 1280, 256]


def test_other_buffer_misses_the_held_spectrum(rng, counted_stfts):
    first = AudioBuffer(rng.standard_normal(12000), 12000)
    second = AudioBuffer(first.samples * 0.5, 12000)
    config = MelConfig(12000, 48)
    mel_spectrogram(first, config)
    got = mel_spectrogram(second, config).values
    assert np.array_equal(got, _mel(second, config, 256))
    assert _container_bytes(got) == _container_bytes(_fresh_mel(second, config))
    assert counted_stfts == [256, 256]


def test_held_spectrum_is_let_go_before_a_miss_is_computed(rng, monkeypatch):
    held_during_stft = []
    computed = []

    def observing(audio, hop):
        alive = [ref for ref in computed if ref() is not None]
        held_during_stft.append((len(mel._per_thread.held), len(alive)))
        spectrum = stft_power(audio, hop)
        computed.append(weakref.ref(spectrum))
        return spectrum

    monkeypatch.setattr(mel, "stft_power", observing)
    first = AudioBuffer(rng.standard_normal(12000), 12000)
    second = AudioBuffer(rng.standard_normal(12000), 12000)
    # the second call misses on the same buffer, at a finer hop
    for audio, hop_multiplier in ((first, 2), (first, 1), (second, 1)):
        mel_spectrogram(audio, MelConfig(12000, 48, hop_multiplier))
    assert held_during_stft == [(0, 0), (0, 0), (0, 0)]


def test_held_product_is_let_go_when_another_mel_count_is_computed(rng, monkeypatch):
    # one product is held at a time: the 128-mel one is gone before, and
    # after, the 96-mel product of the same buffer is computed
    alive_during_product = []
    computed = []
    product_of = mel._mel_product

    def observing(config, bins):
        alive_during_product.append([ref() is not None for ref in computed])
        product = product_of(config, bins)
        computed.append(weakref.ref(product))
        return product

    monkeypatch.setattr(mel, "_mel_product", observing)
    audio = AudioBuffer(rng.standard_normal(12000), 12000)
    for n_mels, hop_multiplier in ((128, 1), (128, 2), (96, 1), (96, 4)):
        mel_spectrogram(audio, MelConfig(12000, n_mels, hop_multiplier))
    assert alive_during_product == [[], [False]]
    assert [ref() is not None for ref in computed] == [False, True]
    assert len(mel._per_thread.held) == 1


def test_held_spectrum_is_dropped_with_its_buffer(rng, counted_stfts):
    audio = AudioBuffer(rng.standard_normal(12000), 12000)
    samples = audio.samples
    mel_spectrogram(audio, MelConfig(12000, 48))
    assert len(mel._per_thread.held) == 1
    del audio
    gc.collect()
    assert len(mel._per_thread.held) == 0
    # a new buffer of the same samples may reuse the freed id; it is still
    # a different key, so it runs its own transform
    again = AudioBuffer(samples, 12000)
    config = MelConfig(12000, 48)
    got = mel_spectrogram(again, config).values
    assert np.array_equal(got, _mel(again, config, 256))
    assert _container_bytes(got) == _container_bytes(_fresh_mel(again, config))
    assert counted_stfts == [256, 256]


def _switching_often(run, jobs):
    """pool.map(run, jobs) over 8 threads that switch every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            return list(pool.map(run, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)


def test_threads_on_their_own_buffers_get_their_own_spectra(rng):
    # more threads than cores, switching often, each on its own buffer: a
    # spectrum served to the wrong buffer or another thread's product shows here
    buffers = [AudioBuffer(rng.standard_normal(120000 + 997 * i), 12000) for i in range(4)]
    configs = [MelConfig(12000, 96, k) for k in (1, 2, 3, 4, 5, 10)]

    def run(audio):
        return [mel_spectrogram(audio, config).values for config in configs]

    results = _switching_often(run, buffers * 6)
    assert len(results) == 24
    for i, values in enumerate(results):
        audio = buffers[i % len(buffers)]
        for config, got in zip(configs, values):
            # each job starts at x1, so its thread slices every later hop from that product
            assert got.tobytes() == _mel(audio, config, 256).tobytes()
            assert _container_bytes(got) == _container_bytes(_fresh_mel(audio, config))


def test_threads_sharing_one_buffer_never_read_a_torn_entry(rng):
    # eight threads alternate mel counts and hops on one buffer, which is a key
    # in every thread's map while each replaces its own (mel count, product)
    audio = AudioBuffer(rng.standard_normal(12000), 12000)
    configs = [MelConfig(12000, n_mels, k) for k in (1, 2, 4) for n_mels in (128, 48, 96)]

    def run(shift):
        order = configs[shift:] + configs[:shift]
        return [(config, mel_spectrogram(audio, config).values) for config in order * 3]

    results = _switching_often(run, range(8))
    expected = {config: _container_bytes(_fresh_mel(audio, config)) for config in configs}
    for cells in results:
        for config, got in cells:
            assert got.shape[0] == config.n_mels
            assert _container_bytes(got) == expected[config]


def _on_a_fresh_thread(run, *args):
    """run(*args) on a thread that has held nothing yet."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(run, *args).result(timeout=120)


def test_threads_taking_turns_keep_their_own_entries(rng, counted_stfts):
    # two threads alternate cell by cell over the 44 cells of their own clip:
    # neither evicts the other's spectrum or changes its float64 values
    clips = [AudioBuffer(rng.standard_normal(48000 + 997 * i), 16000) for i in range(2)]
    configs = [config for config in enumerate_grid() if config.sample_rate == 16000]

    def cells(audio):
        return [mel_spectrogram(audio, config).values.tobytes() for config in configs]

    alone = [_on_a_fresh_thread(cells, audio) for audio in clips]
    counted_stfts.clear()
    turn = [0]
    turns = threading.Condition()

    def take_turns(i):
        got = []
        for config in configs:
            with turns:
                # a timed-out wait fails the test instead of hanging it
                assert turns.wait_for(lambda: turn[0] == i, timeout=30)
                got.append(mel_spectrogram(clips[i], config).values.tobytes())
                turn[0] = 1 - i
                turns.notify_all()
        return got

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(take_turns, range(2), timeout=120))
    assert len(counted_stfts) == len(clips)
    assert results == alone


def test_held_entry_ends_with_its_thread(rng, monkeypatch):
    spectra = []

    def observing(audio, hop):
        spectrum = stft_power(audio, hop)
        spectra.append(weakref.ref(spectrum))
        return spectrum

    monkeypatch.setattr(mel, "stft_power", observing)
    audio = AudioBuffer(rng.standard_normal(12000), 12000)  # kept alive by this thread
    thread = threading.Thread(target=mel_spectrogram, args=(audio, MelConfig(12000, 48)))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    gc.collect()
    assert len(spectra) == 1
    assert spectra[0]() is None


def test_grid_cells_of_one_clip_run_two_stfts_and_14_products(rng, counted_stfts, monkeypatch):
    products = []
    product_of = mel._mel_product

    def counting(config, bins):
        products.append((config.sample_rate, config.n_mels))
        return product_of(config, bins)

    monkeypatch.setattr(mel, "_mel_product", counting)
    clips = {rate: AudioBuffer(rng.standard_normal(rate), rate) for rate in (12000, 16000)}
    for config in enumerate_grid():
        mel_spectrogram(clips[config.sample_rate], config)
    assert counted_stfts == [256, 256]
    # the grid runs each rate through the mel counts at x1 first, and the
    # compressions of a cell are adjacent: one product per (rate, mels)
    assert len(products) == 14
    assert sorted(products) == sorted(
        {(config.sample_rate, config.n_mels) for config in enumerate_grid()}
    )


FILTER_BANKS = [(rate, n_mels) for rate in (12000, 16000)
                for n_mels in (128, 96, 48, 32, 24, 16, 8)] + [(22050, 64), (8000, 40)]


@pytest.mark.parametrize("sample_rate, n_mels", FILTER_BANKS)
def test_filter_blocks_partition_the_rows_and_cover_every_weight(sample_rate, n_mels):
    fb, blocks = mel._filterbank(sample_rate, n_mels)
    rows = np.arange(n_mels)
    assert np.array_equal(np.concatenate([rows[r] for r, _ in blocks]), rows)
    for r, cols in blocks:
        block = fb.weights[r]
        nonzero = np.flatnonzero(block.any(axis=0))
        # the columns span exactly the block's nonzero weights
        assert (cols.start, cols.stop) == (nonzero[0], nonzero[-1] + 1)


@pytest.mark.parametrize("sample_rate, n_mels", FILTER_BANKS)
def test_banded_product_equals_the_dense_one(rng, sample_rate, n_mels):
    # Both sum the same non-negative terms over at most 257 bins (the banded
    # one leaves out only exact zeros); only BLAS's grouping of the sums
    # differs, which moves each value by a few ulps at most.
    bins = stft_power(AudioBuffer(rng.standard_normal(sample_rate), sample_rate), 256).bins
    config = MelConfig(sample_rate, n_mels)
    dense = mel_filterbank(config).weights @ bins
    np.testing.assert_allclose(mel._mel_product(config, bins), dense, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(
        mel._mel_product(config, bins[:, ::3]), dense[:, ::3], rtol=1e-13, atol=0.0
    )


def test_filterbank_built_once_per_key_and_read_only(monkeypatch, rng):
    # Count builds behind an empty cache of our own: mel_filterbank and
    # mel_spectrogram share it, one bank per (rate, mels) for all 44 cells.
    built = []
    build = mel._filterbank.__wrapped__

    def counting(sample_rate, n_mels):
        built.append(n_mels)
        return build(sample_rate, n_mels)

    monkeypatch.setattr(mel, "_filterbank", functools.cache(counting))
    audio = AudioBuffer(rng.standard_normal(12000), 12000)
    configs = [config for config in enumerate_grid() if config.sample_rate == 12000]
    for config in configs:
        mel_spectrogram(audio, config)
        assert mel_filterbank(config) is mel_filterbank(MelConfig(12000, config.n_mels))
    assert sorted(built) == [8, 16, 24, 32, 48, 96, 128]
    for config in configs:
        fb = mel_filterbank(config)
        with pytest.raises(ValueError, match="read-only"):
            fb.weights[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            fb.center_freqs[0] = 1.0


def test_mel_spectrogram_rejects_rate_mismatch():
    audio = AudioBuffer(np.zeros(16000), 16000)
    with pytest.raises(ValueError, match="resample"):
        mel_spectrogram(audio, MelConfig(12000, 96))


@pytest.mark.parametrize("build", [
    lambda: AudioBuffer(np.zeros(4), 16000),
    lambda: PowerSpectrogram(np.zeros((257, 2)), 16000, 256),
    lambda: MelFilterbank(np.zeros((8, 257)), np.zeros(8)),
    lambda: MelSpectrogram(np.zeros((8, 2)), MelConfig(16000, 8)),
    lambda: TagTable(np.zeros((2, 1)), np.ones((2, 1), dtype=int), ("a",)),
], ids=["AudioBuffer", "PowerSpectrogram", "MelFilterbank", "MelSpectrogram", "TagTable"])
def test_records_holding_arrays_compare_and_hash_by_identity(build):
    # Comparing the arrays field by field would raise (ambiguous truth value).
    a, b = build(), build()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_mel_output_nonincreasing_under_compression_order(rng):
    # both compressions are order-preserving on the same mel powers
    audio = AudioBuffer(rng.uniform(-0.5, 0.5, 24000), 12000)
    db_spec = mel_spectrogram(audio, MelConfig(12000, 48, compression="dB"))
    log_spec = mel_spectrogram(audio, MelConfig(12000, 48, compression="log"))
    flat_db = db_spec.values.ravel()
    flat_log = log_spec.values.ravel()
    order = np.argsort(flat_log)
    assert np.all(np.diff(flat_db[order]) >= -1e-9)


# ------------------------------------------------------------ config grid

def test_config_validation():
    with pytest.raises(ValueError):
        MelConfig(12000, 0)
    with pytest.raises(ValueError):
        MelConfig(12000, 96, 0)
    with pytest.raises(ValueError):
        MelConfig(12000, 96, compression="mu-law")
    with pytest.raises(TypeError):
        MelConfig(12000, 96, frame_size=1024)


def test_config_defaults_and_hop():
    config = MelConfig(16000, 48, 4)
    assert [field.name for field in dataclasses.fields(MelConfig)] == [
        "sample_rate", "n_mels", "hop_multiplier", "compression",
    ]
    assert (config.frame_size, config.fmin, config.fmax) == (512, 0.0, 8000.0)
    assert config.hop == 1024
    assert config.config_id == "16000Hz-48mel-x4-dB"


def test_configs_build_silently_on_and_off_grid():
    # Whether a cell is on the grid is a query (is_grid_config); building
    # one, on the grid or off it, warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((22050, 96), (12000, 8, 2), (12000, 96, 10), (16000, 8, 1)):
            MelConfig(*args)


def test_is_grid_config():
    assert is_grid_config(12000, 128, 10)
    assert is_grid_config(16000, 8, 1)
    assert not is_grid_config(12000, 8, 2)
    assert not is_grid_config(22050, 96, 1)
    assert not is_grid_config(12000, 64, 1)


def test_enumerate_grid_contents():
    grid = enumerate_grid()
    assert len(grid) == 88
    cells = {(c.sample_rate, c.n_mels, c.hop_multiplier, c.compression) for c in grid}
    assert len(cells) == 88
    expected = set()
    for sr in (12000, 16000):
        for comp in ("log", "dB"):
            for mels in (128, 96, 48):
                for hop in (1, 2, 3, 4, 5, 10):
                    expected.add((sr, mels, hop, comp))
            for mels in (32, 24, 16, 8):
                expected.add((sr, mels, 1, comp))
    assert cells == expected


def test_benchmark_frames_12k_follows_frame_count():
    for hop_multiplier in (1, 2, 3, 4, 5, 10):
        assert benchmark_frames(12000, hop_multiplier) == frame_count(
            349440, 256 * hop_multiplier
        )


def test_benchmark_frames_16k_reference_column():
    # carried as-is from the published pooling tables (different edge
    # convention than the 12 kHz column; see module docs)
    assert [benchmark_frames(16000, h) for h in (1, 2, 3, 4, 5, 10)] == [
        1820, 910, 607, 455, 364, 182,
    ]


def test_benchmark_frames_rejects_offgrid():
    with pytest.raises(ValueError):
        benchmark_frames(22050, 1)
    with pytest.raises(ValueError):
        benchmark_frames(12000, 7)


# ------------------------------------------------------------ container io

def test_mspec_roundtrip(tmp_path, rng):
    config = MelConfig(16000, 48, 2, "log")
    values = rng.standard_normal((48, 91)).astype(np.float32)
    spec_in = MelSpectrogram(values=values.astype(np.float64), config=config)
    path = tmp_path / "clip.mspec"
    n_bytes = write_mspec(path, spec_in)
    assert n_bytes == MSPEC_HEADER_SIZE + 48 * 91 * 4
    assert path.stat().st_size == n_bytes
    spec_out = read_mspec(path)
    assert spec_out.values.dtype == np.float32
    assert np.array_equal(spec_out.values, values)
    assert spec_out.config.sample_rate == 16000
    assert spec_out.config.n_mels == 48
    assert spec_out.config.hop_multiplier == 2
    assert spec_out.config.compression == "log"
    assert spec_out.config.frame_size == 512


@pytest.mark.parametrize("layout", ["float32-transposed", "float64-contiguous"])
def test_mspec_payload_is_row_major_float32(tmp_path, rng, layout):
    values = rng.standard_normal((24, 37))
    if layout == "float32-transposed":
        values = np.ascontiguousarray(values.T.astype(np.float32)).T
    config = MelConfig(16000, 24, 1, "dB")
    path = tmp_path / "clip.mspec"
    n_bytes = write_mspec(path, MelSpectrogram(values=values, config=config))
    payload = path.read_bytes()[MSPEC_HEADER_SIZE:]
    assert n_bytes == MSPEC_HEADER_SIZE + len(payload)
    assert payload == values.astype("<f4").tobytes(order="C")


def test_failed_mspec_write_keeps_existing_target(tmp_path, monkeypatch):
    import melgauge.mel as mel_module

    path = tmp_path / "clip.mspec"
    old = MelSpectrogram(values=np.zeros((8, 3)), config=MelConfig(12000, 8))
    write_mspec(path, old)
    before = path.read_bytes()

    class FullDisk:
        """A file that takes the header, then fails as a full disk would."""

        def __init__(self, name, mode):
            self.fh = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.fh.tell():
                raise OSError(28, "No space left on device")
            self.fh.write(data)

    monkeypatch.setattr(mel_module, "open", FullDisk, raising=False)
    new = MelSpectrogram(values=np.ones((8, 50)), config=MelConfig(12000, 8))
    with pytest.raises(OSError, match="No space"):
        write_mspec(path, new)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.mspec"]


def test_mspec_header_layout(tmp_path):
    config = MelConfig(12000, 96, 1, "dB")
    spec = MelSpectrogram(values=np.zeros((96, 3)), config=config)
    path = tmp_path / "h.mspec"
    write_mspec(path, spec)
    raw = path.read_bytes()
    assert MSPEC_HEADER_SIZE == 40
    header, payload = raw[:40], raw[40:]
    assert len(payload) == 96 * 3 * 4
    # parse with an independently written layout
    assert header[:8] == b"MSPEC1\x00\x00"
    version, rate = struct.unpack("<H", header[8:10])[0], struct.unpack("<I", header[10:14])[0]
    assert version == 1
    assert rate == 12000
    n_mels = struct.unpack("<H", header[14:16])[0]
    hop = struct.unpack("<I", header[16:20])[0]
    frame = struct.unpack("<I", header[20:24])[0]
    assert (n_mels, hop, frame) == (96, 256, 512)
    assert header[24] == 0  # dB
    assert struct.unpack("<I", header[26:30])[0] == 3  # frames
    assert header[30] == 0  # float32
    assert header[31:40] == b"\x00" * 9


def test_mspec_compression_codes(tmp_path):
    for compression, code in (("dB", 0), ("log", 1)):
        spec = MelSpectrogram(values=np.zeros((8, 2)), config=MelConfig(16000, 8, 1, compression))
        path = tmp_path / f"{compression}.mspec"
        write_mspec(path, spec)
        assert path.read_bytes()[24] == code


def test_mspec_rejects_malformed(tmp_path):
    config = MelConfig(12000, 48)
    spec = MelSpectrogram(values=np.zeros((48, 4)), config=config)
    good = tmp_path / "good.mspec"
    write_mspec(good, spec)
    raw = bytearray(good.read_bytes())

    bad_magic = tmp_path / "magic.mspec"
    bad_magic.write_bytes(b"XSPEC1\x00\x00" + bytes(raw[8:]))
    with pytest.raises(MspecFormatError, match="magic"):
        read_mspec(bad_magic)

    bad_version = tmp_path / "version.mspec"
    tampered = bytearray(raw)
    tampered[8:10] = struct.pack("<H", 9)
    bad_version.write_bytes(bytes(tampered))
    with pytest.raises(MspecFormatError, match="version"):
        read_mspec(bad_version)

    bad_dtype = tmp_path / "dtype.mspec"
    tampered = bytearray(raw)
    tampered[30] = 7
    bad_dtype.write_bytes(bytes(tampered))
    with pytest.raises(MspecFormatError, match="dtype"):
        read_mspec(bad_dtype)

    truncated = tmp_path / "short.mspec"
    truncated.write_bytes(bytes(raw[:60]))
    with pytest.raises(MspecFormatError, match="truncated"):
        read_mspec(truncated)

    header_only = tmp_path / "tiny.mspec"
    header_only.write_bytes(bytes(raw[:20]))
    with pytest.raises(MspecFormatError, match="truncated"):
        read_mspec(header_only)


def mspec_bytes(rate=12000, n_mels=8, hop=256, frame=512, frames=2, extra=b"", payload=None):
    header = struct.pack(
        "<8sHIHIIBBIB9s", b"MSPEC1\x00\x00", 1, rate, n_mels, hop, frame, 0, 0, frames, 0,
        bytes(9),
    )
    return header + (bytes(4 * n_mels * frames) if payload is None else payload) + extra


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"n_mels": 0}, "n_mels"),
        ({"rate": 0}, "sample_rate"),
        ({"hop": 0}, "hop_multiplier"),
        ({"frame": 0}, "frame_size"),
        ({"frame": 511}, "frame_size"),
        ({"extra": b"\x00"}, "after the payload"),
        ({"frame": 1024}, "frame_size"),
    ],
)
def test_mspec_rejects_bad_values(tmp_path, fields, match):
    path = tmp_path / "bad.mspec"
    path.write_bytes(mspec_bytes(**fields))
    with pytest.raises(MspecFormatError, match=match) as info:
        read_mspec(path)
    assert str(path) in str(info.value)


def test_mspec_bytes_helper_reads_back(tmp_path):
    path = tmp_path / "good.mspec"
    path.write_bytes(mspec_bytes())
    assert read_mspec(path).values.shape == (8, 2)


def test_mspec_rejects_zero_frames(tmp_path):
    path = tmp_path / "empty.mspec"
    path.write_bytes(mspec_bytes(frames=0))
    with pytest.raises(MspecFormatError, match="no frames") as info:
        read_mspec(path)
    assert str(path) in str(info.value)


def test_write_mspec_refuses_zero_frames(tmp_path):
    spec = MelSpectrogram(values=np.zeros((8, 0)), config=MelConfig(12000, 8))
    with pytest.raises(ValueError, match="no frames"):
        write_mspec(tmp_path / "empty.mspec", spec)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(96, 3), (47, 3), (48,), (48, 3, 1)])
def test_write_mspec_refuses_values_without_the_configs_mel_rows(tmp_path, shape):
    # The header's mel count would come from the values, not the config.
    spec = MelSpectrogram(values=np.zeros(shape), config=MelConfig(12000, 48))
    path = tmp_path / "clip.mspec"
    with pytest.raises(ValueError) as info:
        write_mspec(path, spec)
    assert str(info.value) == (
        f"{path}: values of shape {shape} do not have 48 mel rows"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "sample_rate, n_mels, hop_multiplier, value",
    [
        (12000, 96, 20_000_000, 5_120_000_000),  # hop in samples, a u32 field
        (2**32, 8, 1, 2**32),  # sample rate, u32
        (12000, 2**16, 1, 2**16),  # mel count, u16
    ],
)
def test_write_mspec_refuses_header_overflow(tmp_path, sample_rate, n_mels, hop_multiplier, value):
    config = MelConfig(sample_rate, n_mels, hop_multiplier)
    spec = MelSpectrogram(values=np.zeros((n_mels, 1)), config=config)
    path = tmp_path / "big.mspec"
    with pytest.raises(ValueError, match="header cannot hold") as info:
        write_mspec(path, spec)
    assert str(path) in str(info.value) and str(value) in str(info.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "taken, name, error, strerror",
    [
        ("taken.mspec", "taken.mspec", IsADirectoryError, "Is a directory"),  # the rename fails
        ("file", "file/taken.mspec", NotADirectoryError, "Not a directory"),  # the open fails
    ],
    ids=["target-is-a-directory", "parent-is-a-file"],
)
def test_write_mspec_failure_names_the_path_not_the_temporary_file(
    tmp_path, taken, name, error, strerror
):
    spec = MelSpectrogram(values=np.zeros((8, 1)), config=MelConfig(12000, 8))
    if taken == name:
        (tmp_path / taken).mkdir()
    else:
        (tmp_path / taken).write_bytes(b"")
    path = tmp_path / name
    with pytest.raises(error) as info:
        write_mspec(path, spec)
    assert info.value.filename == str(path) and info.value.filename2 is None
    assert str(info.value) == f"[Errno {info.value.errno}] {strerror}: '{path}'"
    assert [p.name for p in tmp_path.iterdir()] == [taken]


def test_write_mspec_writes_any_name_that_fits(tmp_path):
    # the temporary name does not grow with the target's
    spec = MelSpectrogram(values=np.zeros((8, 1)), config=MelConfig(12000, 8))
    path = tmp_path / ("a" * 244 + ".mspec")
    assert len(path.name) == 250
    assert write_mspec(path, spec) == mspec_size(8, 1)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert read_mspec(path).values.tobytes() == spec.values.astype("<f4").tobytes()


@pytest.mark.parametrize(
    "n_mels, frames, payload",
    [
        (65535, 0xFFFFFFFF, b""),  # 1.1 TB claimed
        (4096, 8192, bytes(64)),  # 128 MiB claimed, 64 bytes present
    ],
)
def test_mspec_payload_size_checked_before_reading(tmp_path, n_mels, frames, payload):
    path = tmp_path / "liar.mspec"
    path.write_bytes(mspec_bytes(n_mels=n_mels, frames=frames, payload=payload))
    tracemalloc.start()
    try:
        with pytest.raises(MspecFormatError, match="truncated payload") as info:
            read_mspec(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(info.value)
    assert peak < 1 << 20


def test_concurrent_reads_leave_warning_filters_alone(tmp_path):
    # warnings.filters is one list per process: a read that swapped it for
    # its own, even briefly, would hide another thread's warnings, and two
    # interleaved swaps could leave an "ignore" entry behind for good.
    paths = []
    for config in (MelConfig(12000, 96), MelConfig(22050, 64, 3)):  # on and off the grid
        path = tmp_path / f"{config.config_id}.mspec"
        write_mspec(path, MelSpectrogram(values=np.zeros((config.n_mels, 2)), config=config))
        paths.append(path)
    filters = list(warnings.filters)
    changed = []
    start = threading.Barrier(8)

    def read(path):
        start.wait(timeout=60)
        for _ in range(1000):
            read_mspec(path)
            if warnings.filters != filters:
                changed.append(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(read, paths * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert changed == []
    assert warnings.filters == filters


@settings(max_examples=60, deadline=None)
@given(
    cell=st.integers(0, 87),
    frames=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_mspec_roundtrip_grid_cells(tmp_path_factory, cell, frames, seed):
    config = enumerate_grid()[cell]
    # Any float32 bit pattern, NaNs and infinities included, must survive.
    bits = np.random.default_rng(seed).integers(
        0, 2**32, (config.n_mels, frames), dtype=np.uint32
    )
    values = bits.view(np.float32)
    path = tmp_path_factory.mktemp("roundtrip") / "cell.mspec"
    n_bytes = write_mspec(path, MelSpectrogram(values=values, config=config))
    assert n_bytes == path.stat().st_size == mspec_size(config.n_mels, frames)
    spec = read_mspec(path)
    assert spec.config == config
    assert spec.values.shape == (config.n_mels, frames)
    assert spec.values.tobytes() == values.tobytes()


# One optional override per header field, within the field's struct range.
_HEADER_FIELDS = st.tuples(
    st.none() | st.binary(min_size=8, max_size=8),
    st.none() | st.integers(0, 2**16 - 1),
    st.none() | st.integers(0, 2**32 - 1),
    st.none() | st.integers(0, 2**16 - 1),
    st.none() | st.sampled_from([0, 128, 256, 512, 768]) | st.integers(0, 2**32 - 1),
    st.none() | st.sampled_from([0, 511, 1024]) | st.integers(0, 2**32 - 1),
    st.none() | st.integers(0, 255),
    st.none() | st.integers(0, 255),
    st.none() | st.integers(0, 2**32 - 1),
    st.none() | st.integers(0, 255),
    st.none() | st.binary(min_size=9, max_size=9),
)


@settings(max_examples=300, deadline=None)
@given(
    n_mels=st.sampled_from([8, 16]),
    frames=st.integers(1, 8),
    overrides=_HEADER_FIELDS,
    cut=st.none() | st.integers(0, 40 + 4 * 16 * 8),
    extra=st.binary(max_size=8),
)
def test_mspec_fuzzed_bytes_read_back_or_raise_format_error(
    tmp_path_factory, n_mels, frames, overrides, cut, extra
):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.mspec"
    spec = MelSpectrogram(values=np.ones((n_mels, frames)), config=MelConfig(12000, n_mels))
    write_mspec(path, spec)
    raw = path.read_bytes()
    fields = list(struct.unpack("<8sHIHIIBBIB9s", raw[:40]))
    fields = [old if new is None else new for old, new in zip(fields, overrides)]
    data = struct.pack("<8sHIHIIBBIB9s", *fields) + raw[40:]
    data = (data if cut is None else data[:cut]) + extra
    path.write_bytes(data)
    try:
        spec = read_mspec(path)
    except MspecFormatError as exc:
        assert str(path) in str(exc)
        return
    header = struct.unpack("<8sHIHIIBBIB9s", data[:40])
    assert spec.values.shape == (header[3], header[8])
    assert len(data) == mspec_size(header[3], header[8])
    assert spec.values.tobytes() == data[40:]
