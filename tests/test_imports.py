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


# The calls extract makes on glibc: fixed mmap and trim thresholds, each as
# (param, value). It never caps the arenas, whatever the user set.
MMAP_THRESHOLD, TRIM_THRESHOLD = (-3, 32 << 20), (-1, 64 << 20)
MALLOC_CALLS = [MMAP_THRESHOLD, TRIM_THRESHOLD]
# Every way a user sets malloc up before extract runs, kept out of the tests' processes.
MALLOC_ENVIRONMENT = ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                      "GLIBC_TUNABLES")


def malloc_env(preset):
    env = {name: value for name, value in os.environ.items() if name not in MALLOC_ENVIRONMENT}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(preset)
    return env


def glibc_only(*args, **kwargs):
    return pytest.param(*args, **kwargs,
                        marks=pytest.mark.skipif(not on_glibc(), reason="glibc only"))


@pytest.mark.parametrize(
    "preset, prelude, run, expected",
    [
        glibc_only({}, "", EXTRACT, MALLOC_CALLS, id="glibc"),
        glibc_only({"MALLOC_ARENA_MAX": "2"}, "", EXTRACT, MALLOC_CALLS,
                   id="arena-variable-set"),
        glibc_only({"MALLOC_MMAP_THRESHOLD_": "1048576"}, "", EXTRACT, [TRIM_THRESHOLD],
                   id="mmap-threshold-variable-wins"),
        glibc_only({"MALLOC_TRIM_THRESHOLD_": "1048576"}, "", EXTRACT, [MMAP_THRESHOLD],
                   id="trim-threshold-variable-wins"),
        glibc_only({"GLIBC_TUNABLES": "glibc.malloc.arena_max=4"}, "", EXTRACT,
                   MALLOC_CALLS, id="arena-tunable-set"),
        glibc_only({"GLIBC_TUNABLES": "glibc.malloc.check=0:glibc.malloc.mmap_threshold=1048576"},
                   "", EXTRACT, [TRIM_THRESHOLD], id="mmap-threshold-tunable-wins"),
        glibc_only({"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=1048576"}, "", EXTRACT,
                   [MMAP_THRESHOLD], id="trim-threshold-tunable-wins"),
        pytest.param({"MALLOC_ARENA_MAX": "2", "MALLOC_MMAP_THRESHOLD_": "1048576",
                      "MALLOC_TRIM_THRESHOLD_": "1048576"}, "", EXTRACT, [],
                     id="every-variable-set"),
        pytest.param({"GLIBC_TUNABLES": "glibc.malloc.arena_max=4:"
                      "glibc.malloc.mmap_threshold=1048576:glibc.malloc.trim_threshold=1048576"},
                     "", EXTRACT, [], id="every-tunable-set"),
        pytest.param({}, "del os.confstr", EXTRACT, [], id="no-confstr"),
        pytest.param({}, "del libc.mallopt", EXTRACT, [], id="no-mallopt-symbol"),
        pytest.param({}, "", LIBRARY, [], id="library"),
    ],
)
def test_extract_asks_glibc_to_keep_malloc_pages(preset, prelude, run, expected, tmp_path):
    from melgauge import MelConfig, mel_spectrogram, read_wav_mono, write_mspec

    write_tone(tmp_path / "tone.wav", 16000)
    write_mspec(tmp_path / "expected.mspec",
                mel_spectrogram(read_wav_mono(tmp_path / "tone.wav"), MelConfig(16000, 96)))
    code = f"{MALLOPT_RECORDER}{prelude}\n{run}\nprint(calls)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=malloc_env(preset),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # Each call from the main thread, before numpy loads; or none at all.
    assert proc.stdout.splitlines()[-1] == repr([(*call, 1, False) for call in expected])
    assert (tmp_path / "feats" / "tone.mspec").read_bytes() == (
        tmp_path / "expected.mspec").read_bytes()


# Forwards to the real ctypes.CDLL(None).mallopt, whose argument and return
# types are left as ctypes' defaults, and records each call with its result.
REAL_MALLOPT_RECORDER = """
import ctypes, types
calls = []
real_cdll = ctypes.CDLL
real_mallopt = real_cdll(None).mallopt

def mallopt(*args):
    calls.append((*args, real_mallopt(*args)))
    return calls[-1][-1]

libc = types.SimpleNamespace(mallopt=mallopt)
ctypes.CDLL = lambda name, *args: libc if name is None else real_cdll(name, *args)
"""


@pytest.mark.skipif(not on_glibc(), reason="glibc only")
def test_extract_mallopt_calls_succeed_with_ctypes_default_types(tmp_path):
    write_tone(tmp_path / "tone.wav", 16000)
    code = f"{REAL_MALLOPT_RECORDER}\n{EXTRACT}\nprint(calls)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=malloc_env({}),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # glibc's mallopt returns 1 on success, 0 on error.
    assert proc.stdout.splitlines()[-1] == repr([(*call, 1) for call in MALLOC_CALLS])


# Two workers whatever the host, so a batch's faults can grow only with its clips.
TWO_CORE_EXTRACT = ("import os, sys, melgauge.cli; "
                    "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2]); "
                    "sys.exit(melgauge.cli.main(sys.argv[1:]))")


@pytest.mark.skipif(not on_glibc(), reason="glibc only")
def test_extract_faults_do_not_grow_with_the_batch(tmp_path):
    import resource  # Unix only
    # With glibc's dynamic thresholds each 29.1 s clip faults in about 2.4k
    # fresh pages; the fixed thresholds keep the first clip's pages for the rest.
    clip = np.random.default_rng(0).integers(-8000, 8000, 465_600).astype("<i2").tobytes()
    paths = []
    for index in range(12):
        paths.append(tmp_path / f"clip{index:02d}.wav")
        with wave.open(str(paths[-1]), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(clip)
    faults = []
    for batch in (paths[:4], paths):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        proc = subprocess.run(
            [sys.executable, "-c", TWO_CORE_EXTRACT, "extract", "--sample-rate", "16000",
             "--mels", "96", "--out-dir", str(tmp_path / "feats"), *map(str, batch)],
            env=malloc_env({}), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
    assert faults[1] < 1.3 * faults[0], faults


# Records the thread that first imports numpy and how many threads are alive.
NUMPY_IMPORT_AUDIT = """
import sys, threading
first = []

def hook(event, args):
    if event == "import" and args[0] == "numpy" and not first:
        first.append((threading.current_thread() is threading.main_thread(),
                      threading.active_count()))

sys.addaudithook(hook)
"""


def test_extract_loads_numpy_on_the_main_thread_before_any_worker(tmp_path):
    write_tone(tmp_path / "tone.wav", 16000)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"{NUMPY_IMPORT_AUDIT}\n{EXTRACT}\nprint(first)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr([(True, 1)])
    assert (tmp_path / "feats" / "tone.mspec").exists()


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


def test_no_module_reads_a_private_attribute():
    # An underscore attribute, such as a stdlib module's internals, may
    # change in any release; dunders are public protocol.
    private = []
    for path in sorted((ROOT / "src" / "melgauge").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        private += [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr.startswith("_")
                    and not (node.attr.startswith("__") and node.attr.endswith("__"))]
    assert private == []
