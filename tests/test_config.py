"""One positive-integer rule for every rate, count and hop the library takes.

config.positive_int is the only check; each entry point below calls it,
so each refuses the same values with a ValueError naming its parameter,
and each accepts numpy integers as plain ints.
"""

import re

import numpy as np
import pytest

from melgauge.arch import (
    ArchSpec,
    ConvLayerSpec,
    PoolingPlan,
    count_macs,
    filter_extent,
    propagate_shapes,
)
from melgauge.config import MelConfig, frame_count, mspec_size
from melgauge.dataset import DatasetManifest, top_k_tags
from melgauge.dsp import AudioBuffer, hann_window, resample_rational

MANIFEST = DatasetManifest(("a", "b"), ("0/a.mp3", "c/b.mp3"), ("rock", "pop"), [[1, 0], [1, 1]])
ONE_LAYER = (ConvLayerSpec(1, 1, 4),)
FRONTEND = ArchSpec("musicnn-frontend", ONE_LAYER, segment_frames=10)
QUIET = np.zeros(64)

# "caller.parameter": a call passing the value under test as that parameter.
ENTRY_POINTS = {
    "MelConfig.sample_rate": lambda v: MelConfig(v, 96),
    "MelConfig.n_mels": lambda v: MelConfig(12000, v),
    "MelConfig.hop_multiplier": lambda v: MelConfig(12000, 96, v),
    "frame_count.n_samples": lambda v: frame_count(v, 256),
    "frame_count.hop": lambda v: frame_count(1000, v),
    "mspec_size.n_mels": lambda v: mspec_size(v, 5),
    "mspec_size.n_frames": lambda v: mspec_size(96, v),
    "AudioBuffer.sample_rate": lambda v: AudioBuffer(QUIET, v),
    "hann_window.n": hann_window,
    "resample_rational.target_rate": lambda v: resample_rational(AudioBuffer(QUIET, 1), v),
    "top_k_tags.k": lambda v: top_k_tags(MANIFEST, v),
    "ConvLayerSpec.filter_freq": lambda v: ConvLayerSpec(v, 3, 8),
    "ConvLayerSpec.filter_time": lambda v: ConvLayerSpec(3, v, 8),
    "ConvLayerSpec.out_channels": lambda v: ConvLayerSpec(3, 3, v),
    "PoolingPlan.freq_pools[0]": lambda v: PoolingPlan((v, 2, 2, 2), (1, 1, 1, 1)),
    "PoolingPlan.time_pools[3]": lambda v: PoolingPlan((2, 2, 2, 2), (1, 1, 1, v)),
    "ArchSpec.segment_frames": lambda v: ArchSpec("musicnn-frontend", ONE_LAYER, segment_frames=v),
    "propagate_shapes.input_freq": lambda v: propagate_shapes(FRONTEND, v, 10),
    "count_macs.input_time": lambda v: count_macs(FRONTEND, 8, v),
    "filter_extent.filter_freq": lambda v: filter_extent(v, 3, MelConfig(12000, 96)),
    "filter_extent.filter_time": lambda v: filter_extent(3, v, MelConfig(12000, 96)),
}


@pytest.mark.parametrize("value", [0, -1, True, 2.5, 16000.0, "2"], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_refuse_what_is_not_a_positive_integer(entry, value):
    message = f"{entry.partition('.')[2]} must be a positive integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](value)


@pytest.mark.filterwarnings("ignore::melgauge.exceptions.GridWarning")
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_accept_numpy_integers(entry):
    ENTRY_POINTS[entry](np.int64(2))
    ENTRY_POINTS[entry](np.uint16(2))


def test_numpy_integers_are_stored_as_int():
    config = MelConfig(np.int64(12000), np.int64(96), np.int32(2))
    assert config == MelConfig(12000, 96, 2)
    assert config.config_id == "12000Hz-96mel-x2-dB"
    assert {type(v) for v in (config.sample_rate, config.n_mels, config.hop_multiplier)} == {int}
    assert type(AudioBuffer(QUIET, np.int64(12000)).sample_rate) is int
    assert type(resample_rational(AudioBuffer(QUIET, 16000), np.int64(12000)).sample_rate) is int
    layer = ConvLayerSpec(np.int64(3), np.int64(3), np.int64(8))
    assert layer == ConvLayerSpec(3, 3, 8) and type(layer.out_channels) is int
    plan = PoolingPlan(np.array([2, 4, 3, 4]), np.array([4, 5, 8, 8]))
    assert plan == PoolingPlan((2, 4, 3, 4), (4, 5, 8, 8))
    assert {type(p) for p in plan.freq_pools + plan.time_pools} == {int}
    spec = ArchSpec("musicnn-frontend", ONE_LAYER, segment_frames=np.int64(10))
    assert spec == FRONTEND and type(spec.segment_frames) is int
    assert type(frame_count(np.int64(1000), np.int64(256))) is int
    assert type(mspec_size(np.int64(96), np.int64(5))) is int
