"""End-to-end CLI behavior through in-process main() calls."""

import errno
import json
import os
import re
import shutil
import struct
import sys
import threading
import warnings
import wave
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from melgauge.cli import main
from melgauge.config import enumerate_grid
from melgauge.mel import read_mspec

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_wav(path, samples, sample_rate):
    quantized = np.clip(np.asarray(samples) * 32767.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(sample_rate)
        handle.writeframes(quantized.tobytes())
    return path


@pytest.fixture(scope="module")
def tone_wav(tmp_path_factory):
    root = tmp_path_factory.mktemp("audio")
    t = np.arange(349440) / 12000.0
    return write_wav(root / "tone.wav", 0.5 * np.sin(2 * np.pi * 440.0 * t), 12000)


def rows_of(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------------- adapt


class TestAdapt:
    def test_text_output(self, capsys):
        code = main(["adapt", "--mels", "96", "--hop-mult", "1", "--sample-rate", "12000"])
        assert code == 0
        assert capsys.readouterr().out == "time: 4,5,8,8 freq: 2,4,3,4\n"

    def test_second_cell(self, capsys):
        code = main(["adapt", "--mels", "48", "--hop-mult", "2", "--sample-rate", "16000"])
        assert code == 0
        assert capsys.readouterr().out == "time: 4,5,9,5 freq: 2,4,3,2\n"

    def test_json_output(self, capsys):
        code = main([
            "adapt", "--mels", "8", "--hop-mult", "10", "--sample-rate", "16000",
            "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["freq_pools"] == [2, 2, 2, 1]
        assert data["time_pools"] == [4, 5, 9, 1]

    def test_off_grid_fails(self, capsys):
        code = main(["adapt", "--mels", "64", "--hop-mult", "1", "--sample-rate", "12000"])
        captured = capsys.readouterr()
        assert code != 0
        assert captured.out == ""
        assert "64" in captured.err


# ------------------------------------------------------------- selection


@pytest.mark.parametrize("command", ["cost", "report", "grid"])
def test_repeated_compression_counts_once(command, capsys):
    main([command, "--mels", "96", "--compression", "dB"])
    once = capsys.readouterr().out
    main([command, "--mels", "96", "--compression", "dB", "--compression", "dB"])
    assert capsys.readouterr().out == once


# ------------------------------------------------------------------ cost


class TestCost:
    def test_twenty_two_rows(self, capsys):
        code = main(["cost", "--sample-rate", "12000", "--compression", "dB"])
        assert code == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert len(rows) == 22

    def test_baseline_ratio_is_one(self, capsys):
        main(["cost", "--sample-rate", "12000", "--compression", "dB"])
        header, rows = rows_of(capsys.readouterr().out)
        ratio_col = header.index("gmacs_ratio")
        baseline = [r for r in rows if r[0] == "12000Hz-96mel-x1-dB"]
        assert baseline[0][ratio_col] == "1"

    def test_half_mels_near_half_cost(self, capsys):
        main(["cost", "--sample-rate", "12000", "--compression", "dB"])
        header, rows = rows_of(capsys.readouterr().out)
        ratio_col = header.index("gmacs_ratio")
        half = [r for r in rows if r[0] == "12000Hz-48mel-x1-dB"]
        assert abs(float(half[0][ratio_col]) - 0.5) < 0.005

    def test_sorted_by_rate_mels_hop(self, capsys):
        main(["cost"])
        header, rows = rows_of(capsys.readouterr().out)
        keys = [
            (int(r[1]), -int(r[2]), int(r[3]), r[4])
            for r in rows
        ]
        assert keys == sorted(keys)

    def test_json_format(self, capsys):
        code = main([
            "cost", "--sample-rate", "16000", "--mels", "96", "--hop-mult", "2",
            "--compression", "dB", "--format", "json",
        ])
        assert code == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["config_id"] == "16000Hz-96mel-x2-dB"
        assert row["total_macs"] == 6_637_170_688
        assert row["gmacs_ratio"] == pytest.approx(0.498, abs=0.002)

    def test_off_grid_vgg_rows_error_inline(self, capsys):
        code = main(["cost", "--mels", "64", "--compression", "dB"])
        captured = capsys.readouterr()
        assert code == 1
        header, rows = rows_of(captured.out)
        error_col = header.index("error")
        assert all(r[error_col] != "" for r in rows)

    def test_musicnn_labels_backend_approximate(self, capsys):
        code = main([
            "cost", "--arch", "musicnn-frontend", "--sample-rate", "16000",
            "--mels", "96", "--hop-mult", "1", "--compression", "dB",
        ])
        assert code == 0
        header, rows = rows_of(capsys.readouterr().out)
        approx_col = header.index("approximate")
        assert rows[0][approx_col] == "backend1;backend2;backend3;output"

    def test_grid_strict_rejects_off_grid(self, capsys):
        code = main(["cost", "--mels", "64", "--grid-strict"])
        captured = capsys.readouterr()
        assert code == 2
        # the strict check comes before the cell's warning, so no warning
        assert captured.err == (
            "error: --grid-strict: 12000Hz-64mel-x1-log is outside the benchmark grid\n"
        )

    def test_deterministic_bytes(self, capsys):
        main(["cost", "--sample-rate", "12000"])
        first = capsys.readouterr().out
        main(["cost", "--sample-rate", "12000"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "cost.csv"
        code = main(["cost", "--sample-rate", "12000", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("config_id,")


# ------------------------------------------------------------------ grid


class TestGrid:
    def test_default_lists_whole_grid(self, capsys):
        code = main(["grid"])
        assert code == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert len(rows) == 88

    def test_small_mels_restricted_to_base_hop(self, capsys):
        main(["grid", "--mels", "16"])
        header, rows = rows_of(capsys.readouterr().out)
        assert len(rows) == 4  # 2 rates x 2 compressions, hop x1 only
        assert all(r[3] == "1" for r in rows)

    def test_frames_column(self, capsys):
        main(["grid", "--sample-rate", "12000", "--mels", "96", "--compression", "dB"])
        header, rows = rows_of(capsys.readouterr().out)
        frames_col = header.index("n_frames")
        by_hop = {int(r[3]): int(r[frames_col]) for r in rows}
        assert by_hop == {1: 1366, 2: 683, 3: 456, 4: 342, 5: 274, 10: 137}

    def test_json_format(self, capsys):
        main(["grid", "--format", "json", "--mels", "8"])
        rows = json.loads(capsys.readouterr().out)
        assert {r["n_mels"] for r in rows} == {8}

    def test_default_order_is_enumerate_grid_order(self, capsys):
        # one cell order for the library and every report
        assert main(["grid", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["config_id"] for r in rows] == [c.config_id for c in enumerate_grid()]


# -------------------------------------------------------------- evaluate


@pytest.fixture()
def eval_fixture(tmp_path):
    pred = tmp_path / "pred.csv"
    labels = tmp_path / "labels.csv"
    pred.write_text("a,b\n0.9,0.9\n0.8,0.8\n0.2,0.7\n0.1,0.6\n")
    labels.write_text("a,b\n1,1\n1,0\n0,1\n0,0\n")
    return pred, labels


class TestEvaluate:
    def test_macro_roc(self, capsys, eval_fixture):
        pred, labels = eval_fixture
        code = main(["evaluate", str(pred), str(labels)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["macro_roc"] == pytest.approx(0.875)
        assert data["per_tag"]["a"]["roc_auc"] == 1.0
        assert data["per_tag"]["b"]["roc_auc"] == 0.75

    def test_csv_format(self, capsys, eval_fixture):
        pred, labels = eval_fixture
        code = main(["evaluate", str(pred), str(labels), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "tag,roc_auc,pr_auc,status"
        assert lines[-1].startswith("macro,0.875,")

    def test_header_mismatch_names_tag(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        labels = tmp_path / "labels.csv"
        pred.write_text("a,b\n0.9,0.1\n0.1,0.9\n")
        labels.write_text("a,c\n1,0\n0,1\n")
        code = main(["evaluate", str(pred), str(labels)])
        captured = capsys.readouterr()
        assert code == 1
        assert "'c'" in captured.err

    def test_repeated_tag_is_an_error_line(self, tmp_path, capsys):
        # both tags would share one per_tag key in the JSON output
        pred = tmp_path / "pred.csv"
        labels = tmp_path / "labels.csv"
        pred.write_text("a,a\n0.9,0.1\n0.1,0.9\n")
        labels.write_text("a,a\n1,0\n0,1\n")
        code = main(["evaluate", str(pred), str(labels)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {pred}: header repeats tag 'a'\n"

    def test_empty_header_column_is_an_error_line(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        labels = tmp_path / "labels.csv"
        pred.write_text("a,,b\n0.9,0.5,0.1\n0.1,0.5,0.9\n")
        labels.write_text("a,,b\n1,1,0\n0,0,1\n")
        code = main(["evaluate", str(pred), str(labels)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {pred}: header column 2 is empty\n"

    @pytest.mark.parametrize(
        "pred_rows, label_rows, which, message",
        [
            (["0.9,0.1", "0.1,nan"], ["1,0", "0,1"], "pred",
             "line 3, tag 'b': 'nan' is not a finite score in [0, 1]"),
            (["0.9,0.1", "1.5,0.9"], ["1,0", "0,1"], "pred",
             "line 3, tag 'a': '1.5' is not a finite score in [0, 1]"),
            (["0.9,0.1", "0.1,0.9"], ["1,2", "0,1"], "labels",
             "line 2, tag 'b': '2' is not a label of 0 or 1"),
        ],
        ids=["non-finite-score", "score-out-of-range", "label-not-binary"],
    )
    def test_bad_cell_error_names_file_line_and_tag(
        self, tmp_path, capsys, pred_rows, label_rows, which, message
    ):
        paths = {"pred": tmp_path / "pred.csv", "labels": tmp_path / "labels.csv"}
        paths["pred"].write_text("\n".join(["a,b", *pred_rows]) + "\n")
        paths["labels"].write_text("\n".join(["a,b", *label_rows]) + "\n")
        code = main(["evaluate", str(paths["pred"]), str(paths["labels"])])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {paths[which]}: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"a" * 131073 + b",b\n0.9,0.1\n", r"field larger than field limit \(131072\)"),
            (b"a,\xffb\n0.9,0.1\n",
             "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
            (b"a,b\n" + b"0.9,0.1\n" * 3000 + b"0.9,\xff\n",
             "'utf-8' codec can't decode byte 0xff in position 24008: invalid start byte"),
            (b"\xef\xbb\xbfa,\xffb\n0.9,0.1\n",
             "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
        ],
        ids=["header-field-over-csv-limit", "not-utf8-in-header", "not-utf8-past-first-read",
             "not-utf8-after-bom"],
    )
    def test_unreadable_csv_is_an_error_line_naming_the_file(self, tmp_path, capsys,
                                                             text, message):
        pred = tmp_path / "pred.csv"
        labels = tmp_path / "labels.csv"
        pred.write_bytes(text)
        labels.write_text("a,b\n1,0\n")
        code = main(["evaluate", str(pred), str(labels)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert re.fullmatch(f"error: {re.escape(str(pred))}: {message}\n", captured.err)

    def test_missing_file(self, tmp_path, capsys):
        code = main(["evaluate", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_deterministic_bytes(self, capsys, eval_fixture):
        pred, labels = eval_fixture
        main(["evaluate", str(pred), str(labels)])
        first = capsys.readouterr().out
        main(["evaluate", str(pred), str(labels)])
        assert capsys.readouterr().out == first


# ------------------------------------------------- rebound module attributes


def test_each_call_goes_through_one_rebound_binding(tone_wav, eval_fixture, tmp_path,
                                                    monkeypatch, capsys):
    # A profiler may wrap the functions at mel first and then the names cli
    # offers. extract must then reach mel_spectrogram and write_mspec through
    # mel only, so no call passes two wrappers, and evaluate must call
    # macro_summary through cli's own attribute.
    import melgauge.cli as cli
    from melgauge import mel

    calls = []

    def wrap(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return fn(*args, **kwargs)

        # Through the namespace, so that undoing it removes a name cli
        # had resolved lazily instead of pinning it.
        monkeypatch.setitem(vars(module), name, counted)

    for module, name in ((mel, "mel_spectrogram"), (mel, "write_mspec"),
                         (cli, "mel_spectrogram"), (cli, "write_mspec"),
                         (cli, "macro_summary")):
        wrap(module, name)
    out_dir = str(tmp_path / "feats")
    assert main(["extract", "--sample-rate", "12000", "--mels", "96",
                 "--out-dir", out_dir, str(tone_wav), str(tone_wav)]) == 0
    assert main(["evaluate", *map(str, eval_fixture)]) == 0
    capsys.readouterr()
    # extract's workers may interleave the two inputs' calls in any order.
    assert Counter(calls[:-1]) == {"melgauge.mel.mel_spectrogram": 2,
                                   "melgauge.mel.write_mspec": 2}
    assert calls[-1] == "melgauge.cli.macro_summary"


# --------------------------------------------------------------- extract


class TestExtract:
    def test_single_wav(self, tone_wav, tmp_path, capsys):
        out_dir = tmp_path / "feats"
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "96",
            "--out-dir", str(out_dir), str(tone_wav),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "tone.mspec" in captured.out
        assert "524584 bytes" in captured.out
        mel = read_mspec(out_dir / "tone.mspec")
        assert mel.values.shape == (96, 1366)
        assert mel.config.sample_rate == 12000
        assert mel.config.compression == "dB"

    def test_empty_inputs_warns(self, tmp_path, capsys):
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "96",
            "--out-dir", str(tmp_path / "none"),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "no input files" in captured.err

    def test_corrupt_input_among_good(self, tone_wav, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav at all")
        out_dir = tmp_path / "feats"
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "48",
            "--out-dir", str(out_dir),
            str(tone_wav), str(bad), str(tone_wav),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad.wav" in captured.err
        assert (out_dir / "tone.mspec").exists()
        assert not (out_dir / "bad.mspec").exists()

    def test_wav_with_a_chunk_past_the_riff_chunk_among_good(self, tmp_path, capsys):
        t = np.arange(12000) / 12000.0
        first = write_wav(tmp_path / "first.wav", 0.5 * np.sin(2 * np.pi * 440.0 * t), 12000)
        last = write_wav(tmp_path / "last.wav", 0.5 * np.sin(2 * np.pi * 880.0 * t), 12000)
        data = bytearray(first.read_bytes())
        struct.pack_into("<I", data, 16, 2**31)  # the fmt chunk's size
        bad = tmp_path / "bad.wav"
        bad.write_bytes(bytes(data))
        out_dir = tmp_path / "feats"
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "48",
            "--out-dir", str(out_dir), str(first), str(bad), str(last),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [
            f"error: {bad}: not a readable WAV file: a chunk overruns the RIFF chunk",
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == ["first.mspec", "last.mspec"]

    def test_truncated_inputs_are_error_lines(self, tone_wav, tmp_path, capsys):
        short = tmp_path / "short.wav"
        short.write_bytes(tone_wav.read_bytes()[:44 + 31001])
        partial = tmp_path / "partial.f32"
        partial.write_bytes(bytes(4 * 12000 + 2))
        out_dir = tmp_path / "feats"
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "48",
            "--out-dir", str(out_dir), str(short), str(partial), str(tone_wav),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [
            f"error: {short}: truncated WAV: header declares 349440 frames "
            "(698880 bytes), data chunk holds 31001 bytes",
            f"error: {partial}: 48002 bytes is not a whole number of "
            "float32 samples (12000 samples and 2 bytes over)",
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == ["tone.mspec"]

        # a hop too large for its header field fails each input in turn
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "48", "--hop-mult", "20000000",
            "--out-dir", str(out_dir), str(tone_wav), str(tone_wav),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines()[1:] == 2 * [
            f"error: {tone_wav}: {out_dir / 'tone.mspec'}: the header cannot hold sample "
            "rate 12000, 48 mels, hop 5120000000 and 1 frames: "
            "'I' format requires 0 <= number <= 4294967295",
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == ["tone.mspec"]

    def test_failed_write_names_the_output_not_the_temporary_file(
        self, tone_wav, tmp_path, capsys
    ):
        first = tmp_path / "a.wav"
        shutil.copy(tone_wav, first)
        out_dir = tmp_path / "feats"
        (out_dir / "a.mspec").mkdir(parents=True)  # the write onto it fails
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "48",
            "--out-dir", str(out_dir), str(first), str(tone_wav),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: {first}: [Errno {errno.EISDIR}] Is a directory: '{out_dir / 'a.mspec'}'\n"
        )
        assert captured.out.splitlines() == [
            f"wrote {out_dir / 'tone.mspec'} ({40 + 48 * 1366 * 4} bytes)"
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == ["a.mspec", "tone.mspec"]
        assert (out_dir / "a.mspec").is_dir()

    def test_resamples_to_analysis_rate(self, tmp_path, capsys):
        t = np.arange(16000) / 16000.0
        source = write_wav(tmp_path / "hi.wav", 0.4 * np.sin(2 * np.pi * 440.0 * t), 16000)
        out_dir = tmp_path / "feats"
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "96",
            "--out-dir", str(out_dir), str(source),
        ])
        assert code == 0
        mel = read_mspec(out_dir / "hi.mspec")
        assert mel.config.sample_rate == 12000
        # one second of audio at the analysis rate
        assert mel.values.shape == (96, 1 + 12000 // 256)

    def test_off_grid_config_warns_once_for_the_batch(self, tmp_path, capsys):
        t = np.arange(16000) / 16000.0
        sources = [str(write_wav(tmp_path / f"{name}.wav",
                                 0.4 * np.sin(2 * np.pi * 440.0 * t), 16000)) for name in "ab"]
        out_dir = tmp_path / "feats"
        code = main([
            "extract", "--sample-rate", "22050", "--mels", "64",
            "--out-dir", str(out_dir), *sources,
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == (
            "warning: config (22050 Hz, 64 mels, x1, frame 512, 0-11025 Hz) "
            "is outside the benchmark grid\n"
        )
        written = [line.split(" ")[1] for line in captured.out.splitlines()]
        assert written == [str(out_dir / "a.mspec"), str(out_dir / "b.mspec")]

    @pytest.mark.parametrize("input_rate", [22050, None])
    def test_raw_input_is_read_at_input_rate(self, input_rate, tmp_path, capsys):
        from melgauge import dsp, mel

        raw = tmp_path / "clip.f32"
        samples = 0.3 * np.random.default_rng(11).standard_normal(22050)
        raw.write_bytes(samples.astype("<f4").tobytes())
        out_dir = tmp_path / "feats"
        rate_flag = [] if input_rate is None else ["--input-rate", str(input_rate)]
        code = main([
            "extract", *rate_flag, "--sample-rate", "12000", "--mels", "96",
            "--out-dir", str(out_dir), str(raw),
        ])
        assert code == 0
        # Without the flag the stream is taken to be at the analysis rate.
        audio = dsp.read_raw_float32(raw, input_rate or 12000)
        if input_rate is not None:
            audio = dsp.resample_rational(audio, 12000)
        expected = tmp_path / "expected.mspec"
        mel.write_mspec(expected, mel.mel_spectrogram(audio, mel.MelConfig(12000, 96)))
        assert (out_dir / "clip.mspec").read_bytes() == expected.read_bytes()
        frames = 1 + (12000 if input_rate else 22050) // 256
        assert read_mspec(out_dir / "clip.mspec").values.shape == (96, frames)

    def test_wav_input_ignores_input_rate(self, tmp_path, capsys):
        t = np.arange(16000) / 16000.0
        source = write_wav(tmp_path / "hi.wav", 0.4 * np.sin(2 * np.pi * 440.0 * t), 16000)
        outputs = []
        for rate_flag in ([], ["--input-rate", "44100"]):
            out_dir = tmp_path / f"feats{len(outputs)}"
            code = main([
                "extract", *rate_flag, "--sample-rate", "12000", "--mels", "96",
                "--out-dir", str(out_dir), str(source),
            ])
            assert code == 0
            outputs.append((out_dir / "hi.mspec").read_bytes())
        assert outputs[0] == outputs[1]

    def test_mixed_batch_reports_in_input_order(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        sources = []
        for i, rate in enumerate((12000, 16000, 22050, 44100)):
            samples = 0.3 * rng.standard_normal(rate * (1 + i % 2))
            sources.append(str(write_wav(tmp_path / f"clip{i}.wav", samples, rate)))
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav at all")
        sources.insert(2, str(bad))
        out_dir = tmp_path / "feats"
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "48", "--hop-mult", "2",
            "--out-dir", str(out_dir), *sources,
        ])
        captured = capsys.readouterr()
        assert code == 1
        written = [line.split(" ")[1] for line in captured.out.splitlines()]
        assert written == [str(out_dir / f"clip{i}.mspec") for i in range(4)]
        [error] = captured.err.splitlines()
        assert error.startswith(f"error: {bad}: ")
        assert sorted(p.name for p in out_dir.iterdir()) == [f"clip{i}.mspec" for i in range(4)]

    def test_signalling_nan_in_raw_input_is_one_error_line(self, tmp_path, capsys):
        # A NaN with the quiet bit clear warns as numpy converts float32 samples.
        raw = tmp_path / "x.raw"
        raw.write_bytes(struct.pack("<4I", 0, 0x7F800001, 0, 0) * 300)
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # shown however often it was seen before
            code = main(["extract", "--sample-rate", "16000", "--mels", "96",
                         "--out-dir", str(tmp_path / "feats"), str(raw)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {raw}: samples must be finite\n"

    def test_missing_input_names_the_path_once(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.wav")
        code = main(["extract", "--sample-rate", "12000", "--mels", "48",
                     "--out-dir", str(tmp_path / "feats"), missing])
        assert code == 1
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("cores", [1, 3, 8])
    def test_parallel_batch_matches_one_call_per_input(self, tmp_path, capsys,
                                                       monkeypatch, cores):
        rng = np.random.default_rng(11)
        clips = [
            str(write_wav(tmp_path / f"clip{i}.wav",
                          0.3 * rng.standard_normal(rate * (2 + i % 3) // 4), rate))
            for i, rate in enumerate((12000, 16000, 22050, 44100, 8000))
        ]
        raw = tmp_path / "stream.f32"
        (0.3 * rng.standard_normal(9000)).astype("<f4").tofile(raw)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFF\x10\x00\x00\x00WAVEjunk")
        inputs = [clips[0], clips[1], clips[2], str(bad), clips[3], clips[1], clips[4], str(raw)]
        out_dir = tmp_path / "feats"
        argv = ["extract", "--sample-rate", "12000", "--mels", "48", "--hop-mult", "2",
                "--compression", "log", "--out-dir", str(out_dir)]

        codes, outs, errs = [], [], []
        for source in inputs:
            codes.append(main(argv + [source]))
            captured = capsys.readouterr()
            outs.append(captured.out)
            errs.append(captured.err)
        one_per_call = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        shutil.rmtree(out_dir)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code = main(argv + inputs)
        finally:
            sys.setswitchinterval(interval)
        captured = capsys.readouterr()
        assert code == max(codes) == 1
        assert captured.out == "".join(outs)
        assert captured.err == "".join(errs)
        assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == one_per_call
        assert len(one_per_call) == 6

    def test_unknown_core_count_runs_one_worker(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        rng = np.random.default_rng(12)
        inputs = [str(write_wav(tmp_path / f"clip{i}.wav",
                                0.3 * rng.standard_normal(6000 + 1000 * i), 12000))
                  for i in range(3)]
        argv = ["extract", "--sample-rate", "12000", "--mels", "48"]
        assert main([*argv, "--out-dir", str(tmp_path / "usual"), *inputs]) == 0
        usual = capsys.readouterr()

        pool_sizes = []
        executor = concurrent.futures.ThreadPoolExecutor

        def recording_executor(max_workers):
            pool_sizes.append(max_workers)
            return executor(max_workers)

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_executor)
        assert main([*argv, "--out-dir", str(tmp_path / "fallback"), *inputs]) == 0
        fallback = capsys.readouterr()
        assert pool_sizes == [1]
        assert fallback.out == usual.out.replace(str(tmp_path / "usual"),
                                                 str(tmp_path / "fallback"))
        assert fallback.err == usual.err == ""
        assert ({p.name: p.read_bytes() for p in (tmp_path / "fallback").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "usual").iterdir()})

    @pytest.mark.parametrize("error, cores", [
        (RuntimeError, 3), (KeyboardInterrupt, 3), (RuntimeError, 1),
    ], ids=["RuntimeError", "KeyboardInterrupt", "RuntimeError-one-core"])
    def test_unexpected_error_propagates_after_earlier_lines(self, tmp_path, capsys,
                                                             monkeypatch, error, cores):
        from melgauge import dsp

        t = np.arange(6000) / 12000.0
        sources = [str(write_wav(tmp_path / f"clip{i}.wav",
                                 0.4 * np.sin(2 * np.pi * 440.0 * (i + 1) * t), 12000))
                   for i in range(8)]
        read = dsp.read_wav_mono
        join = threading.Thread.join
        stopped = threading.Event()
        opened = []

        def read_or_fail(path):
            opened.append(path)
            if path == sources[2]:
                raise error("reader bug")
            if path in sources[3:]:
                stopped.wait(10)  # a worker holds each later input until extract stops
            return read(path)

        def join_once_stopped(thread, timeout=None):
            stopped.set()  # extract joins its workers only after it stops handing out inputs
            join(thread, timeout)

        monkeypatch.setattr(dsp, "read_wav_mono", read_or_fail)
        monkeypatch.setattr(threading.Thread, "join", join_once_stopped)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        before = set(threading.enumerate())
        out_dir = tmp_path / "feats"
        with pytest.raises(error, match="reader bug"):
            main(["extract", "--sample-rate", "12000", "--mels", "48",
                  "--out-dir", str(out_dir), *sources])
        captured = capsys.readouterr()
        assert [line.split(" ")[1] for line in captured.out.splitlines()] == [
            str(out_dir / "clip0.mspec"), str(out_dir / "clip1.mspec")]
        assert captured.err == ""
        assert set(threading.enumerate()) == before
        # Each worker takes at most one input after the failing one; no queued input starts.
        assert not set(opened) & set(sources[3 + cores:])

    def test_colliding_outputs_refused_before_any_work(self, tmp_path, capsys):
        t = np.arange(12000) / 12000.0
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_wav(tmp_path / "a" / "x.wav", 0.4 * np.sin(2 * np.pi * 440.0 * t), 12000)
        second = write_wav(tmp_path / "b" / "x.wav", 0.4 * np.sin(2 * np.pi * 880.0 * t), 12000)
        out_dir = tmp_path / "feats"
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "96",
            "--out-dir", str(out_dir), str(first), str(second),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(first) in captured.err and str(second) in captured.err
        assert not out_dir.exists()

    def test_degenerate_filterbank_refused_once_before_any_work(self, tmp_path, capsys):
        t = np.arange(16000) / 16000.0
        inputs = [str(write_wav(tmp_path / f"{name}.wav", 0.4 * np.sin(2 * np.pi * 440.0 * t),
                                16000)) for name in "abc"]
        out_dir = tmp_path / "feats"
        code = main(["extract", "--sample-rate", "16000", "--mels", "200",
                     "--out-dir", str(out_dir), *inputs])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error: ")] == [
            "error: filter 0 (center 15.0 Hz) has no support on the 512-point bin grid; "
            "reduce n_mels"
        ]
        assert not out_dir.exists()

    @pytest.mark.parametrize("out_dir", ["feats", "./feats"])
    def test_input_that_is_its_own_output_is_refused(self, tmp_path, capsys, monkeypatch,
                                                     out_dir):
        monkeypatch.chdir(tmp_path)
        source = tmp_path / "feats" / "clip.mspec"
        source.parent.mkdir()
        features = np.linspace(-0.5, 0.5, 2304).astype("<f4").tobytes()
        source.write_bytes(features)
        code = main(["extract", "--sample-rate", "16000", "--mels", "96",
                     "--out-dir", out_dir, "feats/clip.mspec"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: feats/clip.mspec would be overwritten by its own features\n"
        )
        assert source.read_bytes() == features
        assert [p.name for p in source.parent.iterdir()] == ["clip.mspec"]

    def test_out_dir_that_is_a_file(self, tone_wav, tmp_path, capsys):
        blocker = tmp_path / "feats"
        blocker.write_text("not a directory")
        code = main([
            "extract", "--sample-rate", "12000", "--mels", "96",
            "--out-dir", str(blocker), str(tone_wav),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and str(blocker) in captured.err


# ------------------------------------------------------------ selectors


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("cost", "--mels", "0"),
        ("grid", "--hop-mult", "-1"),
        ("report", "--sample-rate", "0"),
        ("extract", "--mels", "0"),
        ("extract", "--hop-mult", "0"),
        ("extract", "--sample-rate", "twelve"),
        ("extract", "--input-rate", "0"),
        ("extract", "--mels", "True"),
        ("adapt", "--hop-mult", "-1"),
        ("cost", "--sample-rate", "16000.0"),
    ],
)
def test_non_positive_selector_is_a_usage_error(command, flag, value, tmp_path, capsys, tone_wav):
    out_dir = tmp_path / "feats"
    argv = [command, flag, value]
    required = {
        "extract": {"--sample-rate": "12000", "--mels": "96"},
        "adapt": {"--sample-rate": "12000", "--mels": "96", "--hop-mult": "1"},
    }.get(command, {})
    required.pop(flag, None)
    argv += [item for pair in required.items() for item in pair]
    if command == "extract":
        argv += ["--out-dir", str(out_dir), str(tone_wav)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument {flag}: expected a positive integer, got {value!r}\n"
    )
    assert not out_dir.exists()


# -------------------------------------------------------------- warnings


def test_main_leaves_warning_state_alone(monkeypatch, capsys):
    # The commands print their own `warning: ...` lines, so main neither
    # filters nor formats Python warnings: a command runs under the
    # caller's warning state, and main hands it back unchanged.
    import melgauge.cli as cli

    outside = (list(warnings.filters), warnings.showwarning)
    seen = []

    def cmd_grid(args):
        seen.append((list(warnings.filters), warnings.showwarning))
        return 0

    assert main(["cost", "--mels", "7", "--hop-mult", "2"]) == 1
    monkeypatch.setattr(cli, "cmd_grid", cmd_grid)
    assert main(["grid", "--mels", "7"]) == 0
    assert seen == [outside]
    assert (list(warnings.filters), warnings.showwarning) == outside
    assert capsys.readouterr().err == "".join(
        f"warning: config ({rate} Hz, 7 mels, x2, frame 512, 0-{rate // 2} Hz) "
        "is outside the benchmark grid\n"
        for rate in (12000, 16000)
    )


# ------------------------------------------------------------------ --out


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "--mels", "8"],
        ["cost", "--mels", "96", "--sample-rate", "12000"],
        ["report", "--mels", "96", "--sample-rate", "12000"],
        ["evaluate", str(GOLDEN / "pred.csv"), str(GOLDEN / "labels.csv")],
        ["adapt", "--mels", "96", "--hop-mult", "1", "--sample-rate", "12000"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_into_missing_directory_is_an_error_line(argv, tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "x.csv"
    code = main(argv + ["--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(target) in captured.err
    assert not target.parent.exists()


# ---------------------------------------------------------------- report


class TestReport:
    def test_join_attaches_published_values(self, capsys):
        code = main([
            "report", "--arch", "musicnn-frontend", "--sample-rate", "12000",
            "--mels", "96", "--hop-mult", "1", "--compression", "dB",
        ])
        assert code == 0
        out = capsys.readouterr().out
        header, rows = rows_of(out)
        assert len(rows) == 2  # one per dataset with published numbers
        assert "90.5" in out and "87.16" in out
        assert '"paper-reported, not reproduced"' in out

    def test_unpublished_rows_have_empty_reference_cells(self, capsys):
        code = main([
            "report", "--sample-rate", "12000", "--mels", "8",
            "--compression", "dB",
        ])
        assert code == 0
        text = capsys.readouterr().out
        header, rows = rows_of(text)
        dataset_col = header.index("dataset")
        roc_col = header.index("published_roc")
        assert all(r[dataset_col] == "" and r[roc_col] == "" for r in rows)

    def test_json_format(self, capsys):
        code = main([
            "report", "--sample-rate", "16000", "--mels", "48", "--hop-mult", "2",
            "--compression", "dB", "--format", "json",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        vgg_row = [r for r in rows if r.get("dataset") == "msd"][0]
        assert vgg_row["published_roc"] == 86.41
        assert vgg_row["published_source"] == "paper-reported, not reproduced"

    def test_deterministic_bytes(self, capsys):
        main(["report", "--sample-rate", "12000", "--compression", "dB"])
        first = capsys.readouterr().out
        main(["report", "--sample-rate", "12000", "--compression", "dB"])
        assert capsys.readouterr().out == first
