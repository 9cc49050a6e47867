"""Architecture shape propagation, MAC counting, and sweeps."""

import re
import warnings

import numpy as np
import pytest

from melgauge import GridWarning
from melgauge.arch import (
    FREQ_POOLS,
    TIME_POOLS,
    ArchSpec,
    ConvLayerSpec,
    PoolingPlan,
    count_macs,
    filter_extent,
    grid_cost_sweep,
    musicnn_filter_heights,
    musicnn_frontend_spec,
    propagate_shapes,
    vgg_arch,
    vgg_pooling_plan,
)
from melgauge.exceptions import ShapeUnderflowError, UnsupportedConfigError
from melgauge.mel import MelConfig, benchmark_frames, enumerate_grid

GRID_RATES = (12000, 16000)
GRID_HOPS = (1, 2, 3, 4, 5, 10)
GRID_MELS = (128, 96, 48, 32, 24, 16, 8)


def oracle_vgg_macs(n_mels, frames, freq_pools, time_pools, tags=50):
    """Independent MAC count: explicit per-layer recurrence, no shared code."""
    channels = [1, 128, 384, 768, 2048]
    f, t = n_mels, frames
    per_layer = []
    for i in range(4):
        per_layer.append(9 * channels[i] * channels[i + 1] * f * t)
        f = f // freq_pools[i]
        t = t // time_pools[i]
    per_layer.append(channels[4] * tags)
    return per_layer


# ------------------------------------------------------------ building blocks


class TestLayerAndPlanValidation:
    def test_conv_layer_defaults(self):
        layer = ConvLayerSpec(3, 3, 128)
        assert layer.padding == "same"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(filter_freq=0, filter_time=3, out_channels=8),
            dict(filter_freq=3, filter_time=0, out_channels=8),
            dict(filter_freq=3, filter_time=3, out_channels=0),
            dict(filter_freq=3, filter_time=3, out_channels=8, padding="full"),
        ],
    )
    def test_conv_layer_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ConvLayerSpec(**kwargs)

    def test_plan_needs_four_entries(self):
        with pytest.raises(ValueError):
            PoolingPlan((2, 2, 2), (1, 1, 1, 1))

    def test_plan_rejects_zero(self):
        with pytest.raises(ValueError):
            PoolingPlan((2, 2, 2, 0), (1, 1, 1, 1))

    def test_vgg_arch_fixes_stack(self):
        plan = vgg_pooling_plan(96, 1, 12000)
        arch = vgg_arch(plan)
        assert [layer.out_channels for layer in arch.layers] == [128, 384, 768, 2048]
        assert all(l.filter_freq == 3 and l.filter_time == 3 for l in arch.layers)

    def test_vgg_requires_plan(self):
        layers = tuple(ConvLayerSpec(3, 3, c) for c in (128, 384, 768, 2048))
        with pytest.raises(ValueError):
            ArchSpec(name="vgg-cnn", layers=layers, pooling=None)

    @pytest.mark.parametrize(
        "layers",
        [
            tuple(ConvLayerSpec(3, 3, c) for c in (64, 384, 768, 2048)),
            tuple(ConvLayerSpec(3, 3, c) for c in (128, 384, 768)),
            tuple(ConvLayerSpec(5, 5, c) for c in (128, 384, 768, 2048)),
            # a "valid" stack underflows in count_macs: block 4 pools 1x6 by (4, 8)
            tuple(ConvLayerSpec(3, 3, c, padding="valid") for c in (128, 384, 768, 2048)),
        ],
        ids=["channels", "depth", "filter", "padding"],
    )
    def test_vgg_rejects_other_stacks(self, layers):
        with pytest.raises(ValueError, match='^vgg-cnn is fixed to four 3x3 "same"-padded'):
            ArchSpec(name="vgg-cnn", layers=layers, pooling=vgg_pooling_plan(96, 1, 12000))

    def test_vgg_takes_a_list_of_the_fixed_layers(self):
        plan = vgg_pooling_plan(96, 1, 12000)
        arch = ArchSpec(name="vgg-cnn", layers=list(vgg_arch(plan).layers), pooling=plan)
        assert arch == vgg_arch(plan) and isinstance(arch.layers, tuple)

    def test_unknown_arch_name(self):
        with pytest.raises(ValueError):
            ArchSpec(name="resnet", layers=(ConvLayerSpec(3, 3, 8),))

    def test_musicnn_requires_segment_frames(self):
        with pytest.raises(ValueError):
            ArchSpec(name="musicnn-frontend", layers=(ConvLayerSpec(3, 3, 8),))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(name="musicnn-frontend", layers=(), segment_frames=187),
             "layers must not be empty"),
            (dict(name="vgg-cnn", layers=vgg_arch(vgg_pooling_plan(96, 1, 12000)).layers,
                  pooling=vgg_pooling_plan(96, 1, 12000),
                  backend_layers=(ConvLayerSpec(1, 7, 512),)),
             "vgg-cnn takes no backend_layers"),
            (dict(name="vgg-cnn", layers=vgg_arch(vgg_pooling_plan(96, 1, 12000)).layers,
                  pooling=vgg_pooling_plan(96, 1, 12000), segment_frames=7),
             "vgg-cnn takes no segment_frames"),
            (dict(name="musicnn-frontend", layers=(ConvLayerSpec(3, 3, 8),),
                  pooling=vgg_pooling_plan(96, 1, 12000), segment_frames=187),
             "musicnn-frontend has no block pooling plan"),
        ],
        ids=["empty-layers", "vgg-backend", "vgg-segment-frames", "musicnn-pooling"],
    )
    def test_spec_rejects_fields_its_arch_does_not_take(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ArchSpec(**kwargs)


class TestPoolingPlanLookup:
    def test_known_cells(self):
        plan = vgg_pooling_plan(96, 1, 12000)
        assert plan.freq_pools == (2, 4, 3, 4)
        assert plan.time_pools == (4, 5, 8, 8)
        plan = vgg_pooling_plan(8, 10, 16000)
        assert plan.freq_pools == (2, 2, 2, 1)
        assert plan.time_pools == (4, 5, 9, 1)

    def test_off_table_mels(self):
        with pytest.raises(UnsupportedConfigError):
            vgg_pooling_plan(64, 1, 12000)

    def test_off_table_hop(self):
        with pytest.raises(UnsupportedConfigError):
            vgg_pooling_plan(96, 6, 12000)

    def test_off_table_rate(self):
        with pytest.raises(UnsupportedConfigError):
            vgg_pooling_plan(96, 1, 22050)

    def test_every_cell_closes_to_unit(self):
        # The defining property of the tables: every grid input lands on
        # exactly 1x1 out of the last block, no terminal pool needed.
        for sr in GRID_RATES:
            for hop in GRID_HOPS:
                frames = benchmark_frames(sr, hop)
                for mels in GRID_MELS:
                    arch = vgg_arch(vgg_pooling_plan(mels, hop, sr))
                    trace = propagate_shapes(arch, mels, frames)
                    assert trace.stack_output[:2] == (1, 1), (sr, hop, mels)
                    assert not trace.used_global_pool, (sr, hop, mels)
                    assert trace.final_shape == (1, 1, 2048)


# ------------------------------------------------------------ propagation


class TestPropagateShapes:
    def test_benchmark_trace(self):
        arch = vgg_arch(vgg_pooling_plan(96, 1, 12000))
        trace = propagate_shapes(arch, 96, 1366)
        assert trace.labels == ("input", "conv1", "conv2", "conv3", "conv4")
        assert trace.stages == (
            (96, 1366, 1),
            (48, 341, 128),
            (12, 68, 384),
            (4, 8, 768),
            (1, 1, 2048),
        )

    def test_identity_pools_preserve_dims(self):
        arch = vgg_arch(PoolingPlan((1, 1, 1, 1), (1, 1, 1, 1)))
        trace = propagate_shapes(arch, 96, 1366)
        assert trace.stack_output == (96, 1366, 2048)
        assert trace.used_global_pool
        assert trace.final_shape == (1, 1, 2048)
        assert trace.labels[-1] == "global-pool"

    def test_underflow_raises(self):
        arch = vgg_arch(vgg_pooling_plan(96, 1, 12000))
        with pytest.raises(ShapeUnderflowError):
            propagate_shapes(arch, 96, 100)  # 100 -> 25 -> 5 -> 0 in block 3

    def test_valid_padding_underflow(self):
        spec = musicnn_frontend_spec(96)
        with pytest.raises(ShapeUnderflowError):
            propagate_shapes(spec, 96, 3)  # narrower than the width-7 filters

    def test_rejects_empty_input(self):
        arch = vgg_arch(vgg_pooling_plan(96, 1, 12000))
        with pytest.raises(ValueError):
            propagate_shapes(arch, 0, 1366)

    def test_musicnn_trace_collapses_frequency(self):
        spec = musicnn_frontend_spec(96)
        trace = propagate_shapes(spec, 96, 188)
        assert trace.labels[0] == "input"
        assert trace.labels[1] == "frontend-concat"
        assert trace.stages[1] == (1, 188, 10 * 51)
        # same-padded 1x7 back-end keeps the time axis
        assert trace.stages[2:5] == ((1, 188, 512),) * 3
        assert trace.used_global_pool
        assert trace.final_shape == (1, 1, 512)


# ------------------------------------------------------------ MAC counting


class TestCountMacs:
    def test_first_layer_value(self):
        arch = vgg_arch(vgg_pooling_plan(96, 1, 12000))
        report = count_macs(arch, 96, 1366)
        # 3*3*1*128*96*1366
        assert report.per_layer_macs[0] == 151_068_672

    def test_against_recurrence_oracle(self):
        for sr in GRID_RATES:
            for hop in (1, 3, 10):
                frames = benchmark_frames(sr, hop)
                for mels in (128, 48, 8):
                    plan = vgg_pooling_plan(mels, hop, sr)
                    report = count_macs(vgg_arch(plan), mels, frames)
                    expected = oracle_vgg_macs(
                        mels, frames, plan.freq_pools, plan.time_pools
                    )
                    assert list(report.per_layer_macs) == expected, (sr, hop, mels)
                    assert report.total_macs == sum(expected)

    def test_benchmark_totals(self):
        cases = [
            (12000, 1, 96, 10_010_669_056),
            (12000, 1, 48, 5_005_385_728),
            (12000, 2, 96, 4_994_768_896),
            (12000, 10, 96, 984_924_160),
            (16000, 1, 96, 13_327_323_136),
        ]
        for sr, hop, mels, expected in cases:
            arch = vgg_arch(vgg_pooling_plan(mels, hop, sr))
            report = count_macs(arch, mels, benchmark_frames(sr, hop))
            assert report.total_macs == expected, (sr, hop, mels)

    def test_halving_mels_halves_cost(self):
        for sr in GRID_RATES:
            for hop in GRID_HOPS:
                frames = benchmark_frames(sr, hop)
                full = count_macs(vgg_arch(vgg_pooling_plan(96, hop, sr)), 96, frames)
                half = count_macs(vgg_arch(vgg_pooling_plan(48, hop, sr)), 48, frames)
                ratio = half.total_macs / full.total_macs
                assert abs(ratio - 0.5) < 0.005, (sr, hop, ratio)

    def test_hop_scaling_windows(self):
        for sr in GRID_RATES:
            for mels in (128, 96, 48):
                base = count_macs(
                    vgg_arch(vgg_pooling_plan(mels, 1, sr)), mels, benchmark_frames(sr, 1)
                ).total_macs
                double = count_macs(
                    vgg_arch(vgg_pooling_plan(mels, 2, sr)), mels, benchmark_frames(sr, 2)
                ).total_macs
                ten = count_macs(
                    vgg_arch(vgg_pooling_plan(mels, 10, sr)), mels, benchmark_frames(sr, 10)
                ).total_macs
                assert 0.48 <= double / base <= 0.52, (sr, mels)
                assert 0.08 <= ten / base <= 0.12, (sr, mels)

    def test_output_term(self):
        arch = vgg_arch(vgg_pooling_plan(96, 1, 12000))
        report = count_macs(arch, 96, 1366)
        assert report.layer_names[-1] == "output"
        assert report.per_layer_macs[-1] == 2048 * 50

    def test_feature_bytes(self):
        arch = vgg_arch(vgg_pooling_plan(96, 1, 12000))
        report = count_macs(arch, 96, 1366)
        assert report.feature_bytes == 96 * 1366 * 4 + 40

    def test_gmacs_units(self):
        arch = vgg_arch(vgg_pooling_plan(96, 1, 12000))
        report = count_macs(arch, 96, 1366)
        assert report.gmacs == pytest.approx(10.010669056)

    def test_vgg_nothing_approximate(self):
        report = count_macs(vgg_arch(vgg_pooling_plan(96, 1, 12000)), 96, 1366)
        assert report.approximate_layers == ()


# ------------------------------------------------------------ musicnn front-end


class TestMusicnnSpec:
    @pytest.mark.parametrize(
        "n_mels,expected", [(128, (115, 51)), (96, (86, 38)), (48, (43, 19))]
    )
    def test_filter_heights(self, n_mels, expected):
        assert musicnn_filter_heights(n_mels) == expected

    def test_heights_reject_tiny_input(self):
        with pytest.raises(ValueError):
            musicnn_filter_heights(7)

    @pytest.mark.parametrize("value", [0, -1, True, 8.5, 96.0, "96"], ids=repr)
    def test_heights_refuse_what_is_not_a_positive_integer(self, value):
        message = f"n_mels must be a positive integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            musicnn_filter_heights(value)

    def test_heights_accept_numpy_integers(self):
        heights = musicnn_filter_heights(np.int64(96))
        assert heights == (86, 38)
        assert {type(h) for h in heights} == {int}

    def test_layer_ordering_and_padding(self):
        spec = musicnn_frontend_spec(96)
        shapes = [(l.filter_freq, l.filter_time) for l in spec.layers[:6]]
        assert shapes == [(38, 1), (38, 3), (38, 7), (86, 1), (86, 3), (86, 7)]
        assert all(l.padding == "valid" for l in spec.layers[:6])
        assert all(l.out_channels == 51 for l in spec.layers)

    @pytest.mark.parametrize("rate", GRID_RATES)
    @pytest.mark.parametrize("n_mels", GRID_MELS)
    def test_temporal_layers_do_not_depend_on_config(self, n_mels, rate):
        spec = musicnn_frontend_spec(n_mels, rate)
        assert spec.layers[6:] == (
            ConvLayerSpec(1, 32, 51, "same"),
            ConvLayerSpec(1, 64, 51, "same"),
            ConvLayerSpec(1, 128, 51, "same"),
            ConvLayerSpec(1, 165, 51, "same"),
        )

    def test_segment_frames_follow_rate_and_hop(self):
        assert musicnn_frontend_spec(96, 16000).segment_frames == 188
        assert musicnn_frontend_spec(96, 12000).segment_frames == 141
        assert musicnn_frontend_spec(96, 16000, hop_multiplier=2).segment_frames == 94

    @pytest.mark.parametrize("rate", GRID_RATES)
    @pytest.mark.parametrize("n_mels", GRID_MELS)
    def test_default_backend(self, n_mels, rate):
        spec = musicnn_frontend_spec(n_mels, rate)
        assert spec.backend_layers == (ConvLayerSpec(1, 7, 512, "same"),) * 3

    def test_frontend_only(self):
        spec = musicnn_frontend_spec(96)
        report = count_macs(spec, 96, spec.segment_frames)
        front = [name for name in report.layer_names if name.startswith("front_")]
        assert report.layer_names[: len(front)] == tuple(front)
        assert len(front) == len(spec.layers)
        assert not set(front) & set(report.approximate_layers)

    def test_backend_marked_approximate(self):
        spec = musicnn_frontend_spec(96)
        report = count_macs(spec, 96, spec.segment_frames)
        assert report.approximate_layers == ("backend1", "backend2", "backend3", "output")

    def test_timbre_macs_use_valid_dims(self):
        spec = musicnn_frontend_spec(96)
        report = count_macs(spec, 96, 188)
        by_name = dict(zip(report.layer_names, report.per_layer_macs))
        # height-38 width-3 filter slides over (96-38+1) x (188-3+1)
        assert by_name["front_38x3"] == 38 * 3 * 1 * 51 * 59 * 186
        # temporal filters keep full dims under same padding
        assert by_name["front_1x165"] == 1 * 165 * 1 * 51 * 96 * 188


# ------------------------------------------------------------ physical extent


class TestFilterExtent:
    def test_benchmark_cell(self):
        config = MelConfig(12000, 96)
        hz, seconds = filter_extent(3, 3, config)
        assert hz == pytest.approx(187.5)
        assert seconds == pytest.approx(0.064)

    def test_halved_resolution_doubles_extent(self):
        config = MelConfig(12000, 48, hop_multiplier=2)
        hz, seconds = filter_extent(3, 3, config)
        assert hz == pytest.approx(375.0)
        assert seconds == pytest.approx(0.128)

    def test_rejects_bad_filter(self):
        with pytest.raises(ValueError):
            filter_extent(0, 3, MelConfig(12000, 96))


# ------------------------------------------------------------ grid sweep


class TestGridCostSweep:
    def test_full_grid_vgg(self):
        entries = grid_cost_sweep("vgg-cnn", enumerate_grid())
        assert len(entries) == 88
        assert all(e.report is not None and e.error is None for e in entries)

    def test_full_grid_musicnn(self):
        entries = grid_cost_sweep("musicnn-frontend", enumerate_grid())
        assert len(entries) == 88
        assert all(e.report is not None for e in entries)

    def test_inline_error_keeps_order(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridWarning)
            configs = [MelConfig(12000, 96), MelConfig(12000, 64), MelConfig(12000, 48)]
        entries = grid_cost_sweep("vgg-cnn", configs)
        assert [e.config.n_mels for e in entries] == [96, 64, 48]
        assert entries[0].report is not None
        assert entries[1].report is None
        assert "64" in entries[1].error
        assert entries[2].report is not None

    def test_rejects_unknown_arch(self):
        with pytest.raises(ValueError):
            grid_cost_sweep("transformer", enumerate_grid())

    def test_shape_underflow_stays_inline(self):
        # at x100 the 3-second segment is 2 frames wide, too narrow for the
        # width-3 timbre filters; the row must carry the error instead of
        # aborting the sweep
        with pytest.warns(GridWarning):
            config = MelConfig(12000, 96, 100)
        [entry] = grid_cost_sweep("musicnn-frontend", [config])
        assert entry.report is None
        assert entry.error == "front_38x3: valid 38x3 filter does not fit a 96x2 input"
