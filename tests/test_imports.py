"""What `import melgauge` and each CLI command load, and the public surface.

scipy is needed only by `t_test_independent`, which imports it when
called, and numpy only by the signal chain, metrics and dataset: the
package resolves its exports on first use, so `import melgauge` and the
report commands load neither. Each import check runs a fresh interpreter
with `-X importtime`, which lists every module the process imported on
stderr.
"""

import ast
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

import melgauge
import melgauge.cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def imported_modules(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]


def write_tone(path, sample_rate):
    t = np.arange(sample_rate) / sample_rate
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes((8000 * np.sin(2 * np.pi * 440.0 * t)).astype("<i2").tobytes())


@pytest.mark.parametrize(
    "command",
    [
        ["-c", "import melgauge"],
        ["-m", "melgauge", "cost", "--mels", "96"],
        ["-m", "melgauge", "evaluate", str(GOLDEN / "pred.csv"), str(GOLDEN / "labels.csv")],
        ["-m", "melgauge", "extract", "--sample-rate", "12000", "--mels", "96",
         "--out-dir", "feats", "tone.wav"],
    ],
    ids=["import", "cost", "evaluate", "extract"],
)
def test_no_scipy_module_is_loaded(command, tmp_path):
    write_tone(tmp_path / "tone.wav", 16000)  # extract resamples it to 12 kHz
    modules = imported_modules(command, tmp_path)
    assert "melgauge" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


REPORT_COMMANDS = {
    "import": ["-c", "import melgauge"],
    "cost": ["-m", "melgauge", "cost", "--arch", "musicnn-frontend"],
    "report": ["-m", "melgauge", "report"],
    "grid": ["-m", "melgauge", "grid", "--format", "json"],
    "adapt": ["-m", "melgauge", "adapt", "--mels", "96", "--hop-mult", "1",
              "--sample-rate", "12000"],
}


@pytest.mark.parametrize("command", REPORT_COMMANDS.values(), ids=REPORT_COMMANDS.keys())
def test_report_commands_load_no_numpy(command, tmp_path):
    modules = imported_modules(command, tmp_path)
    assert "melgauge" in modules
    assert [m for m in modules if m.split(".")[0] in ("numpy", "concurrent")] == []


@pytest.mark.parametrize(
    "command",
    [
        ["-m", "melgauge", "evaluate", str(GOLDEN / "pred.csv"), str(GOLDEN / "labels.csv")],
        ["-m", "melgauge", "extract", "--sample-rate", "16000", "--mels", "96",
         "--out-dir", "feats", "tone.wav"],
    ],
    ids=["evaluate", "extract"],
)
def test_signal_and_metric_commands_do_load_numpy(command, tmp_path):
    # The no-numpy checks above mean something only if the same listing
    # does show numpy where it is imported.
    write_tone(tmp_path / "tone.wav", 16000)
    assert "numpy" in imported_modules(command, tmp_path)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "prelude, preset, expected",
    [
        ("", None, "1 1 1"),
        ("", "3", "3 1 1"),
        ("import numpy; ", None, "None None None"),
    ],
    ids=["pinned", "user-value-wins", "numpy-already-loaded"],
)
def test_extract_pins_blas_threads_only_before_numpy_loads(prelude, preset, expected, tmp_path):
    write_tone(tmp_path / "tone.wav", 16000)
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(ROOT / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        f"{prelude}import os, melgauge.cli; "
        "code = melgauge.cli.main(['extract', '--sample-rate', '16000', '--mels', '96', "
        "'--out-dir', 'feats', 'tone.wav']); "
        f"print(code, *(os.environ.get(name) for name in {BLAS_THREAD_VARIABLES!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {expected}"


def on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# Stands in for ctypes.CDLL(None).mallopt: each call records its arguments,
# the Python threads alive and whether numpy had loaded.
MALLOPT_RECORDER = """
import ctypes, os, sys, threading, types
calls = []
real_cdll = ctypes.CDLL

def mallopt(param, value):
    calls.append((param, value, threading.active_count(), "numpy" in sys.modules))
    return 1

libc = types.SimpleNamespace(mallopt=mallopt)
ctypes.CDLL = lambda name, *args: libc if name is None else real_cdll(name, *args)
"""
EXTRACT = ("import melgauge.cli; melgauge.cli.main(['extract', '--sample-rate', '16000', "
           "'--mels', '96', '--out-dir', 'feats', 'tone.wav'])")
LIBRARY = ("import melgauge; os.mkdir('feats'); melgauge.write_mspec('feats/tone.mspec', "
           "melgauge.mel_spectrogram(melgauge.read_wav_mono('tone.wav'), "
           "melgauge.MelConfig(16000, 96)))")


@pytest.mark.parametrize(
    "preset, prelude, run, expected",
    [
        pytest.param(None, "", EXTRACT, [(-8, 1, 1, False)], id="glibc",
                     marks=pytest.mark.skipif(not on_glibc(), reason="glibc only")),
        pytest.param("2", "", EXTRACT, [], id="user-value-wins"),
        pytest.param(None, "del os.confstr", EXTRACT, [], id="no-confstr"),
        pytest.param(None, "del libc.mallopt", EXTRACT, [], id="no-mallopt-symbol"),
        pytest.param(None, "", LIBRARY, [], id="library"),
    ],
)
def test_extract_asks_glibc_for_one_malloc_arena(preset, prelude, run, expected, tmp_path):
    from melgauge import MelConfig, mel_spectrogram, read_wav_mono, write_mspec

    write_tone(tmp_path / "tone.wav", 16000)
    write_mspec(tmp_path / "expected.mspec",
                mel_spectrogram(read_wav_mono(tmp_path / "tone.wav"), MelConfig(16000, 96)))
    env = {name: value for name, value in os.environ.items() if name != "MALLOC_ARENA_MAX"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if preset is not None:
        env["MALLOC_ARENA_MAX"] = preset
    code = f"{MALLOPT_RECORDER}{prelude}\n{run}\nprint(calls)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # Called once, from the main thread, before numpy loads; or not at all.
    assert proc.stdout.splitlines()[-1] == repr(expected)
    assert (tmp_path / "feats" / "tone.mspec").read_bytes() == (
        tmp_path / "expected.mspec").read_bytes()


# Every name `melgauge` exports.
EXPORTS = (
    "DegenerateFilterbankError DegenerateVarianceError EmptySummaryError GridWarning "
    "ManifestParseError MelGaugeError MspecFormatError OutputPathError SchemaError "
    "ShapeUnderflowError UndefinedMetricError UnsupportedConfigError "
    "UnsupportedLayoutError UnsupportedRatioError "
    "AudioBuffer PowerSpectrogram frame_count hann_window read_raw_float32 "
    "read_wav_mono resample_rational stft_power "
    "BENCHMARK_FRAMES COMPRESSIONS MSPEC_HEADER_SIZE MelConfig MelFilterbank "
    "MelSpectrogram benchmark_frames compress_db compress_log enumerate_grid "
    "hz_to_mel_slaney is_grid_config mel_filterbank mel_spectrogram mel_to_hz_slaney "
    "mspec_size read_mspec write_mspec "
    "ArchSpec ConvLayerSpec CostReport PoolingPlan ShapeTrace SweepEntry count_macs "
    "filter_extent grid_cost_sweep musicnn_filter_heights musicnn_frontend_spec "
    "propagate_shapes vgg_arch vgg_pooling_plan "
    "MetricSummary TagTable load_tag_table macro_summary pr_auc roc_auc "
    "t_test_independent "
    "MTAT_FOLDERS DatasetManifest ManifestItem SplitAssignment canonical_split "
    "parse_annotations top_k_tags "
    "PUBLISHED_AUC SOURCE_LABEL PublishedResult published_auc published_for_config"
).split()


def test_every_export_resolves_and_star_binds_exactly_them():
    assert len(EXPORTS) == len(set(EXPORTS)) == 73
    for name in EXPORTS:
        assert getattr(melgauge, name) is not None, name
    namespace = {}
    exec("from melgauge import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    assert melgauge.__version__ == "0.1.0"


def test_exports_are_the_defining_modules_objects():
    from melgauge import config, dsp, mel, metrics

    assert melgauge.MelConfig is mel.MelConfig is config.MelConfig
    assert melgauge.frame_count is dsp.frame_count is config.frame_count
    assert melgauge.mspec_size is config.mspec_size
    assert melgauge.stft_power is dsp.stft_power
    assert melgauge.macro_summary is metrics.macro_summary


def test_dir_lists_every_export_and_unknown_names_raise():
    assert set(EXPORTS) <= set(dir(melgauge))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        melgauge.no_such_name
    with pytest.raises(ImportError):
        exec("from melgauge import no_such_name", {})


def test_cli_still_offers_signal_chain_and_metric_names():
    from melgauge import mel, metrics

    cli = melgauge.cli
    assert cli.mel_spectrogram is mel.mel_spectrogram
    assert cli.write_mspec is mel.write_mspec
    assert cli.load_tag_table is metrics.load_tag_table
    assert cli.macro_summary is metrics.macro_summary
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_moved_names_still_import_from_mel_and_dsp():
    # The names the README promises from mel and dsp, not only from config.
    from melgauge.dsp import frame_count
    from melgauge.mel import MelConfig, enumerate_grid

    assert len(enumerate_grid()) == 88
    assert MelConfig(12000, 96).hop == 256
    assert frame_count(349440, 256) == 1366


def test_config_layer_defines_each_moved_name_once():
    # mel and dsp import what config defines; neither redefines it.
    sources = {
        name: (ROOT / "src" / "melgauge" / f"{name}.py").read_text()
        for name in ("config", "mel", "dsp")
    }
    for name in ("MelConfig", "enumerate_grid", "benchmark_frames", "mspec_size",
                 "frame_count", "grid_hops", "is_grid_config"):
        defined = [m for m, text in sources.items()
                   if f"def {name}(" in text or f"class {name}" in text]
        assert defined == ["config"], name


def test_every_import_in_the_package_is_read_or_exported():
    # A name a module imports but neither reads nor lists in __all__ is a
    # dead re-export; `from __future__ import annotations` is the exception.
    for path in sorted((ROOT / "src" / "melgauge").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                exported = set(ast.literal_eval(node.value))
        assert sorted(imported - read - exported) == [], path.name
