"""melgauge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a melgauge source tree. The benchmark makes its
inputs from the seed under perfbench/work/, drives melgauge through its
CLI (and, for grid-features, its public functions in a work process),
checks every output against computations in perfbench/reference.py, and
prints the metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones,
taken from spans recorded around calls into melgauge (see tracer.py).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference  # noqa: E402
from tracer import self_seconds  # noqa: E402

PY = sys.executable
WORKLOADS = ("extract-native", "extract-resample", "grid-features", "cli-reports")
IMPORTTIME_REPEATS = 3
# Every run measures at least this many rounds, so each median is taken
# over several samples even when the host is slow.
MIN_ROUNDS = 3
# A fixed piece of work that uses nothing of melgauge, timed as its own
# fresh interpreter between rounds: interpreter start, numpy import and
# FFTs, and a pure-Python dictionary loop, the kinds of work melgauge's
# processes do. Its wall time tracks the speed of a shared host, which
# drifts by a third over minutes (see README.md), so every timing is
# divided by the mean of the yardsticks timed just before and just after
# its round, and reported in seconds at a host speed where the yardstick
# takes YARDSTICK_REF_S.
YARDSTICK = """\
import numpy as np
x = np.random.default_rng(0).standard_normal(1 << 20)
for _ in range(20):
    np.fft.rfft(x)
d = {}
for i in range(400000):
    d[i % 997] = d.get(i % 997, 0) + i
"""
# About the yardstick's median on the 2-vCPU host the benchmark was built on.
YARDSTICK_REF_S = 1.0

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}
# Figures each workload prints beside the metrics, named as users know them.
FIGURES = {"extract_realtime_x": "x", "grid_cells_per_s": "1/s", "manifest_s": "s",
           "cost_s": "s", "report_s": "s", "evaluate_s": "s"}
PER_LAYER = {
    "import.melgauge.s": "s",
    "import.melgauge.dsp.s": "s",
    "import.melgauge.metrics.s": "s",
    "dsp.read_wav_mono.s": "s",
    "dsp.read_wav_mono.mb": "MB",
    "dsp.resample_rational.s": "s",
    "dsp.resample_rational.calls": "count",
    "dsp.resample_rational.in_msamples_per_s": "Msample/s",
    "dsp.stft_power.s": "s",
    "dsp.stft_power.frames": "count",
    "dsp.stft_power.calls_per_cell": "ratio",
    "mel.mel_filterbank.s": "s",
    "mel.mel_filterbank.calls_per_distinct": "ratio",
    "mel.compress.s": "s",
    "mel.mel_spectrogram.self_s": "s",
    "mel.write_mspec.s": "s",
    "mel.write_mspec.mb": "MB",
    "mel.read_mspec.s": "s",
    "dataset.parse_annotations.s": "s",
    "dataset.top_k_tags.s": "s",
    "dataset.canonical_split.s": "s",
    "arch.grid_cost_sweep.s": "s",
    "arch.grid_cost_sweep.configs": "count",
    "arch.count_macs.calls": "count",
    "reference.published_for_config.s": "s",
    "metrics.read_tag_csv.s": "s",
    "metrics.macro_summary.s": "s",
    "metrics.roc_auc.s": "s",
    "metrics.pr_auc.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MELGAUGE_WORKERS", None)  # extract runs with its default single worker
    return env


@dataclass
class Proc:
    returncode: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_process(argv: list[str], log_dir: Path) -> Proc:
    """Run argv to completion; wall time from spawn to reap, peak RSS of the child."""
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out_path.read_bytes(), err_path.read_bytes())


def melgauge_argv(args: list[str], trace_path: Path | None) -> list[str]:
    if trace_path is None:
        return [PY, "-m", "melgauge", *args]
    return [PY, str(BENCH / "shim.py"), str(trace_path), *args]


def measure_setup(log_dir: Path) -> float:
    """Seconds for a fresh interpreter to run `import melgauge`."""
    code = "import time; t = time.perf_counter(); import melgauge; print(time.perf_counter() - t)"
    proc = run_process([PY, "-c", code], log_dir)
    if proc.returncode != 0:
        raise RuntimeError(f"import melgauge failed: {proc.stderr.decode()[-2000:]}")
    return float(proc.stdout)


def measure_yardstick(log_dir: Path) -> float:
    """Wall seconds of one fresh interpreter running YARDSTICK."""
    proc = run_process([PY, "-c", YARDSTICK], log_dir)
    if proc.returncode != 0:
        raise RuntimeError(f"yardstick failed: {proc.stderr.decode()[-2000:]}")
    return proc.wall_s


def measure_imports(log_dir: Path) -> dict:
    """Cumulative import seconds of melgauge and two submodules, from -X importtime."""
    wanted = {"melgauge": "import.melgauge.s", "melgauge.dsp": "import.melgauge.dsp.s",
              "melgauge.metrics": "import.melgauge.metrics.s"}
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        proc = run_process([PY, "-X", "importtime", "-c", "import melgauge"], log_dir)
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                samples[wanted[parts[2].strip()]].append(int(parts[1]) / 1e6)
    return {name: statistics.median(samples[name]) if samples[name] else 0.0
            for name in wanted.values()}


# -------------------------------------------------------------------- rounds

@dataclass
class Round:
    traced: bool
    attempted: int = 0
    failed: int = 0
    rss_mb: float = 0.0
    setup_s: float | None = None  # fresh-interpreter import timed before an untraced round
    yardsticks: tuple = ()  # wall seconds of the yardsticks timed just before and just after
    parts: dict = field(default_factory=dict)  # wall seconds of each timed part
    spans: list = field(default_factory=list)  # one span list per traced process
    problems: list = field(default_factory=list)


def loop(seconds: float, trace: bool, do_round, work: Path) -> list[Round]:
    """Run whole rounds until `seconds` have passed and MIN_ROUNDS have run.

    With trace on, odd rounds are traced and even rounds are not, so the
    two kinds see the same machine state on average. A yardstick is timed
    before each round and once after the last; each untraced round is also
    preceded by one timed fresh-interpreter import, so setup_s samples are
    spread over the run like the rounds' own times.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    yardstick_s = measure_yardstick(work)
    while True:
        r = len(rounds)
        elapsed = time.perf_counter() - start
        if r >= MIN_ROUNDS and elapsed >= seconds:
            return rounds
        traced = trace and r % 2 == 1
        setup_s = None if traced else measure_setup(work)
        rnd = do_round(r, traced)
        after_s = measure_yardstick(work)
        rnd.setup_s, rnd.yardsticks = setup_s, (yardstick_s, after_s)
        yardstick_s = after_s
        rounds.append(rnd)


def read_trace(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_features(out_dir: Path, stems, expected: dict, n_mels: int, hop_mult: int,
                   compression: str, reported: dict | None, r: Round) -> int:
    """Check one .mspec per stem; returns how many failed.

    expected maps stem -> (sample rate, n samples, mel power, filterbank,
    tones). reported maps stem -> bytes the CLI said it wrote.
    """
    failed = 0
    for stem in stems:
        path = out_dir / f"{stem}.mspec"
        if not path.exists():
            failed += 1
            r.problems.append(f"{path.name}: missing")
            continue
        blob = path.read_bytes()
        rate, n_samples, mel_power, bank, tones = expected[stem]
        problems = reference.check_mspec(blob, rate, n_samples, n_mels, hop_mult,
                                         compression, mel_power, bank, tones)
        frames = 1 + n_samples // (reference.BASE_HOP * hop_mult)
        if len(blob) != n_mels * frames * 4 + reference.HEADER_SIZE:
            problems.append(f"{len(blob)} bytes, want n_mels * n_frames * 4 + 40")
        if reported is not None and reported.get(stem) != len(blob):
            problems.append(f"CLI reported {reported.get(stem)} bytes, file has {len(blob)}")
        if problems:
            failed += 1
            r.problems += [f"{path.name}: {p}" for p in problems]
    return failed


# ------------------------------------------------------------------ workloads

# Native extraction: a batch of benchmark-length clips already at 16 kHz.
NATIVE_CLIPS, NATIVE_SECONDS = 32, 29.1
# Resampling: (input rate, analysis rate, clips, seconds) per batch.
RESAMPLE_BATCHES = ((22050, 12000, 2, 2.0), (44100, 16000, 2, 2.0))
# grid-features: MTAT-sized manifest and the test-split clips turned into
# all 88 grid cells.
# Five clips make the cell part about half of a round while a run of
# three rounds, with its checks, takes about 45 s on a slow 2-vCPU host.
MANIFEST_CLIPS, MANIFEST_TAGS, TOP_TAGS, GRID_CLIPS = 25863, 188, 50, 5
# cli-reports: an evaluation set of MTAT test-split size.
EVAL_ITEMS, EVAL_TAGS = 4332, 50


def extraction_expected(clips, rate: int) -> dict:
    """Reference (96 mels, x1, dB) inputs for each clip at the analysis rate."""
    bank = reference.filterbank(rate, 96)
    expected = {}
    for clip in clips:
        x = clip.samples
        if clip.sample_rate != rate:
            x = reference.resample(x, clip.sample_rate, rate)
        mel_power = bank @ reference.power_spectrogram(x, reference.BASE_HOP)
        expected[clip.stem] = (rate, x.size, mel_power, bank, clip.tones)
    return expected


WROTE = re.compile(r"^wrote (.+) \((\d+) bytes\)$")


def extraction_round(batches, trace_dir: Path | None, r: int, work: Path) -> Round:
    """One `melgauge extract` process per batch of (clips, rate, expected)."""
    rnd = Round(trace_dir is not None)
    for b, (clips, rate, expected) in enumerate(batches):
        out_dir = work / f"out{r}-{b}"
        trace_path = None if trace_dir is None else trace_dir / f"trace{r}-{b}.json"
        args = ["extract", "--sample-rate", str(rate), "--mels", "96", "--hop-mult", "1",
                "--compression", "dB", "--out-dir", str(out_dir),
                *[str(work / "clips" / f"{c.stem}.wav") for c in clips]]
        proc = run_process(melgauge_argv(args, trace_path), work)
        rnd.parts[f"extract-{rate}"] = proc.wall_s
        rnd.rss_mb = max(rnd.rss_mb, proc.rss_mb)
        reported = {}
        for line in proc.stdout.decode().splitlines():
            match = WROTE.match(line)
            if match:
                reported[Path(match.group(1)).stem] = int(match.group(2))
        stems = [c.stem for c in clips]
        rnd.attempted += len(stems)
        if proc.returncode != 0:
            rnd.failed += len(stems)
            rnd.problems.append(f"extract exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        else:
            rnd.failed += check_features(out_dir, stems, expected, 96, 1, "dB", reported, rnd)
        if trace_path is not None and trace_path.exists():
            rnd.spans.append(read_trace(trace_path))
        shutil.rmtree(out_dir, ignore_errors=True)
    return rnd


def workload_extract(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> list[Round]:
    rng = np.random.default_rng(seed)
    (work / "clips").mkdir(parents=True)
    if workload == "extract-native":
        stems = [f"native{seed}-{i:03d}" for i in range(NATIVE_CLIPS)]
        clips = inputs.make_clips(rng, work / "clips", stems, 16000, NATIVE_SECONDS)
        batches = [(clips, 16000, extraction_expected(clips, 16000))]
    else:
        batches = []
        for in_rate, rate, count, secs in RESAMPLE_BATCHES:
            stems = [f"sr{in_rate}-{seed}-{i:03d}" for i in range(count)]
            clips = inputs.make_clips(rng, work / "clips", stems, in_rate, secs)
            batches.append((clips, rate, extraction_expected(clips, rate)))
    return loop(seconds, trace,
                lambda r, traced: extraction_round(batches, work if traced else None, r, work), work)


def workload_grid(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> list[Round]:
    rng = np.random.default_rng(seed)
    manifest = inputs.make_manifest(rng, work / "annotations.tsv", MANIFEST_CLIPS, MANIFEST_TAGS)
    test_rows = [i for i, f in enumerate(manifest.folders) if f in inputs.TEST][:GRID_CLIPS]
    stems = [manifest.stems[i] for i in test_rows]
    (work / "clips").mkdir()
    clips = inputs.make_clips(rng, work / "clips", stems, 16000, NATIVE_SECONDS)
    spec = {"manifest": str(work / "annotations.tsv"), "wav_dir": str(work / "clips"),
            "stems": stems, "out_dir": str(work / "features")}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    grid = grid_cells()
    n_cells = len(stems) * len(grid)

    def do_round(r: int, traced: bool) -> Round:
        worker.stdin.write(f"{r} {int(traced)}\n")
        worker.stdin.flush()
        line = worker.stdout.readline()
        if not line:
            raise RuntimeError(f"grid worker exited: {worker_stderr.read_text()[-2000:]}")
        result = json.loads(line)
        out_dir = work / "features" / f"r{r}"
        rnd = Round(traced, attempted=1 + n_cells, rss_mb=result["rss_mb"])
        if "error" in result:
            rnd.failed = rnd.attempted
            rnd.problems.append(result["error"])
            return rnd
        rnd.parts = {"manifest": result["manifest_s"], "cells": result["cells_s"]}
        if result["manifest"] != want_manifest:
            rnd.failed += 1
            rnd.problems.append(f"manifest results {result['manifest']} != {want_manifest}")
        expected_bytes = cells_failed = 0
        for clip in clips:
            for rate, n_mels, hop_mult, compression in grid:
                ref = refs[(clip.stem, rate)]
                frames = 1 + ref.samples.size // (reference.BASE_HOP * hop_mult)
                expected_bytes += n_mels * frames * 4 + reference.HEADER_SIZE
                cell = (ref.sample_rate, ref.samples.size,
                        ref.mel_power(n_mels, reference.BASE_HOP * hop_mult),
                        ref.bank(n_mels), clip.tones)
                name = f"{clip.stem}.{rate}Hz-{n_mels}mel-x{hop_mult}-{compression}"
                cells_failed += check_features(out_dir, [name], {name: cell}, n_mels, hop_mult,
                                               compression, None, rnd)
        if result["bytes"] != expected_bytes:
            # The total cannot be pinned on one file, so every cell counts as failed.
            rnd.problems.append(f"write_mspec returned {result['bytes']} bytes in total, "
                                f"want {expected_bytes}")
            cells_failed = n_cells
        rnd.failed += cells_failed
        if traced:
            rnd.spans.append(read_trace(out_dir / "trace.json"))
        shutil.rmtree(out_dir)
        return rnd

    worker_stderr = work / "worker.stderr"
    with open(worker_stderr, "wb") as err:
        worker = subprocess.Popen([PY, str(BENCH / "grid_worker.py"), str(work / "spec.json")],
                                  env=child_env(), cwd=ROOT, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            # The worker imports melgauge while the references are computed.
            want_manifest = expected_manifest(manifest)
            refs = {}
            for clip in clips:
                x16 = clip.samples
                refs[(clip.stem, 16000)] = reference.ClipReference(x16, 16000)
                refs[(clip.stem, 12000)] = reference.ClipReference(
                    reference.resample(x16, 16000, 12000), 12000)
            # Wait until the worker has imported melgauge, so its start does
            # not overlap the first timed import.
            if worker.stdout.readline() != "ready\n":
                raise RuntimeError(f"grid worker failed to start: {worker_stderr.read_text()[-2000:]}")
            return loop(seconds, trace, do_round, work)
        finally:
            worker.stdin.close()
            worker.wait()


def grid_cells() -> list[tuple[int, int, int, str]]:
    """The 88 benchmark cells as the README describes the grid."""
    cells = []
    for rate in (12000, 16000):
        for compression in ("log", "dB"):
            cells += [(rate, m, h, compression) for m in (128, 96, 48) for h in (1, 2, 3, 4, 5, 10)]
            cells += [(rate, m, 1, compression) for m in (32, 24, 16, 8)]
    return cells


def expected_manifest(manifest: inputs.Manifest) -> dict:
    """What top_k_tags(50) and canonical_split must give, in the worker's digest form."""
    counts = manifest.flags.sum(axis=0)
    order = sorted(range(len(manifest.tag_names)),
                   key=lambda j: (-int(counts[j]), manifest.tag_names[j]))[:TOP_TAGS]
    flags = np.ascontiguousarray(manifest.flags[:, order])
    parts = {"train": set(inputs.TRAIN), "valid": {inputs.VALID}, "test": set(inputs.TEST)}
    split = {part: sorted(cid for cid, f in zip(manifest.clip_ids, manifest.folders)
                          if f in folders)
             for part, folders in parts.items()}
    sizes = [int(np.isin(manifest.folders, list(parts[p])).sum()) for p in ("train", "valid", "test")]
    return {
        "tag_names": [manifest.tag_names[j] for j in order],
        "clip_ids": hashlib.sha256("\n".join(manifest.clip_ids).encode()).hexdigest(),
        "flags": hashlib.sha256(flags.tobytes()).hexdigest(),
        "split": {p: hashlib.sha256("\n".join(ids).encode()).hexdigest()
                  for p, ids in split.items()},
        "sizes": sizes,
    }


# 16 kHz benchmark-segment widths, published with the cost tables; the
# 12 kHz widths are 1 + 349440 // hop.
SEGMENT_FRAMES_16K = {1: 1820, 2: 910, 3: 607, 4: 455, 5: 364, 10: 182}


def segment_frames(rate: int, hop_mult: int) -> int:
    if rate == 12000:
        return 1 + 349440 // (reference.BASE_HOP * hop_mult)
    return SEGMENT_FRAMES_16K[hop_mult]


def check_cost(text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = [] if len(rows) == 88 else [f"{len(rows)} cost rows, want 88"]
    cells = {(r, m, h) for r, m, h, _ in grid_cells()}
    for row in rows:
        rate, n_mels, hop = int(row["sample_rate"]), int(row["n_mels"]), int(row["hop_multiplier"])
        cells.discard((rate, n_mels, hop))
        if row["error"]:
            problems.append(f"{row['config_id']}: error {row['error']!r}")
            continue
        frames = segment_frames(rate, hop)
        macs = reference.vgg_macs(n_mels, frames, reference.FREQ_POOLS[n_mels],
                                  reference.TIME_POOLS[rate][hop])
        if int(row["total_macs"]) != macs:
            problems.append(f"{row['config_id']}: total_macs {row['total_macs']}, want {macs}")
        if int(row["feature_bytes"]) != n_mels * frames * 4 + 40:
            problems.append(f"{row['config_id']}: feature_bytes {row['feature_bytes']}")
        if (n_mels, hop) == (96, 1) and float(row["gmacs_ratio"]) != 1.0:
            problems.append(f"{row['config_id']}: baseline gmacs_ratio {row['gmacs_ratio']}")
        if (rate, n_mels, hop) == (12000, 96, 1) and round(macs / 1e9, 2) != 10.01:
            problems.append(f"{row['config_id']}: {macs / 1e9} GMAC, README says 10.01")
    if cells:
        problems.append(f"cells missing from cost table: {sorted(cells)}")
    return problems


def check_report(text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = [f"{row['config_id']}: error {row['error']!r}" for row in rows if row["error"]]
    ids = {row["config_id"] for row in rows}
    if len(ids) != 88:
        problems.append(f"{len(ids)} configurations in report, want 88")
    return problems


def check_evaluate(text: str, want: dict) -> list[str]:
    got = json.loads(text)
    problems = []
    if got["skipped_tags"]:
        problems.append(f"skipped tags {got['skipped_tags']}")
    for name, (roc, ap) in want.items():
        tag = got["per_tag"].get(name)
        if tag is None or abs(tag["roc_auc"] - roc) > 1e-9 or abs(tag["pr_auc"] - ap) > 1e-9:
            problems.append(f"{name}: {tag}, brute force gives roc {roc} pr {ap}")
    for key, values in (("macro_roc", [v[0] for v in want.values()]),
                        ("macro_pr", [v[1] for v in want.values()])):
        if abs(got[key] - float(np.mean(values))) > 1e-9:
            problems.append(f"{key} {got[key]}, brute force gives {np.mean(values)}")
    return problems


def workload_cli(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> list[Round]:
    rng = np.random.default_rng(seed)
    pred, labels_csv = work / "predictions.csv", work / "labels.csv"
    ticks, labels = inputs.make_tag_csvs(rng, pred, labels_csv, EVAL_ITEMS, EVAL_TAGS)
    want_eval = {f"tag{j:02d}": (reference.pairwise_roc_auc(ticks[:, j], labels[:, j]),
                                 reference.average_precision(ticks[:, j], labels[:, j]))
                 for j in range(EVAL_TAGS)}
    calls = {
        "cost": (["cost", "--arch", "vgg-cnn"], check_cost),
        "report": (["report", "--arch", "musicnn-frontend"], check_report),
        "evaluate": (["evaluate", str(pred), str(labels_csv)],
                     lambda text: check_evaluate(text, want_eval)),
    }
    first_stdout: dict[str, bytes] = {}

    def do_round(r: int, traced: bool) -> Round:
        rnd = Round(traced)
        for name, (args, check) in calls.items():
            trace_path = work / f"trace{r}-{name}.json" if traced else None
            proc = run_process(melgauge_argv(args, trace_path), work)
            rnd.parts[name] = proc.wall_s
            rnd.rss_mb = max(rnd.rss_mb, proc.rss_mb)
            rnd.attempted += 1
            if proc.returncode != 0:
                problems = [f"exited {proc.returncode}: {proc.stderr.decode()[-500:]}"]
            else:
                problems = check(proc.stdout.decode())
                first = first_stdout.setdefault(name, proc.stdout)
                if name != "evaluate" and proc.stdout != first:
                    problems.append("stdout differs from the first invocation")
            if problems:
                rnd.failed += 1
                rnd.problems += [f"{name}: {p}" for p in problems]
            if trace_path is not None and trace_path.exists():
                rnd.spans.append(read_trace(trace_path))
        return rnd

    return loop(seconds, trace, do_round, work)


# ------------------------------------------------------------------- metrics

def layer_metrics(span_lists: list) -> dict:
    """Per-layer totals for one round, from the spans of all its processes."""
    total, own, calls, amount = Counter(), Counter(), Counter(), Counter()
    keys = set()
    for spans in span_lists:
        for (name, start, end, _, quantities), self_s in zip(spans, self_seconds(spans)):
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1
            for key, value in quantities.items():
                if key == "key":
                    keys.add(value)
                else:
                    amount[(name, key)] += value

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "dsp.read_wav_mono.s": total["dsp.read_wav_mono"],
        "dsp.read_wav_mono.mb": amount[("dsp.read_wav_mono", "bytes")] / 1e6,
        "dsp.resample_rational.s": total["dsp.resample_rational"],
        "dsp.resample_rational.calls": calls["dsp.resample_rational"],
        "dsp.resample_rational.in_msamples_per_s": ratio(
            amount[("dsp.resample_rational", "in_samples")] / 1e6, total["dsp.resample_rational"]),
        "dsp.stft_power.s": total["dsp.stft_power"],
        "dsp.stft_power.frames": amount[("dsp.stft_power", "frames")],
        "dsp.stft_power.calls_per_cell": ratio(calls["dsp.stft_power"],
                                               calls["mel.mel_spectrogram"]),
        "mel.mel_filterbank.s": total["mel.mel_filterbank"],
        "mel.mel_filterbank.calls_per_distinct": ratio(calls["mel.mel_filterbank"], len(keys)),
        "mel.compress.s": total["mel.compress"],
        "mel.mel_spectrogram.self_s": own["mel.mel_spectrogram"],
        "mel.write_mspec.s": total["mel.write_mspec"],
        "mel.write_mspec.mb": amount[("mel.write_mspec", "bytes")] / 1e6,
        "mel.read_mspec.s": total["mel.read_mspec"],
        "dataset.parse_annotations.s": total["dataset.parse_annotations"],
        "dataset.top_k_tags.s": total["dataset.top_k_tags"],
        "dataset.canonical_split.s": total["dataset.canonical_split"],
        "arch.grid_cost_sweep.s": total["arch.grid_cost_sweep"],
        "arch.grid_cost_sweep.configs": amount[("arch.grid_cost_sweep", "configs")],
        "arch.count_macs.calls": calls["arch.count_macs"],
        "reference.published_for_config.s": total["reference.published_for_config"],
        "metrics.read_tag_csv.s": total["metrics.read_tag_csv"],
        "metrics.macro_summary.s": total["metrics.macro_summary"],
        "metrics.roc_auc.s": total["metrics.roc_auc"],
        "metrics.pr_auc.s": total["metrics.pr_auc"],
        "cli.main.self_s": own["cli.main"],
    }


def scaled(seconds: float, rnd: Round) -> float:
    """seconds, timed in rnd, at the host speed where the yardstick takes YARDSTICK_REF_S."""
    return seconds * YARDSTICK_REF_S / statistics.mean(rnd.yardsticks)


def scaled_parts(rounds: list[Round]) -> dict:
    """Each timed part's median over the rounds, each time scaled by its round's yardstick."""
    return {name: statistics.median(scaled(r.parts[name], r) for r in rounds)
            for name in rounds[0].parts}


def figures(workload: str, parts: dict) -> dict:
    """The workload's figures, named as users know them, from scaled part times."""
    if workload == "extract-native":
        return {"extract_realtime_x": NATIVE_CLIPS * NATIVE_SECONDS / sum(parts.values())}
    if workload == "extract-resample":
        audio_s = sum(count * secs for _, _, count, secs in RESAMPLE_BATCHES)
        return {"extract_realtime_x": audio_s / sum(parts.values())}
    if workload == "grid-features":
        return {"grid_cells_per_s": GRID_CLIPS * len(grid_cells()) / parts["cells"],
                "manifest_s": parts["manifest"]}
    return {f"{name}_s": parts[name] for name in ("cost", "report", "evaluate")}


def environment() -> str:
    blas = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"))
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={importlib.metadata.version('numpy')} "
            f"scipy={importlib.metadata.version('scipy')} {blas}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "melgauge" / "__init__.py").is_file():
        print(f"error: no melgauge sources under {SRC}; run from a melgauge checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {environment()}")
    try:
        imports = measure_imports(work) if trace else {}
        runner = {"extract-native": workload_extract, "extract-resample": workload_extract,
                  "grid-features": workload_grid, "cli-reports": workload_cli}[args.workload]
        rounds = runner(args.workload, args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    plain = [r for r in rounds if not r.traced and r.parts]
    traced = [r for r in rounds if r.traced and r.parts]
    if not plain or (trace and not traced):
        print("error: no round ran to its end", file=sys.stderr)
        return 1
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced")
    for r, rnd in enumerate(rounds):
        timed = {"yardstick before": rnd.yardsticks[0], "import": rnd.setup_s, **rnd.parts,
                 "yardstick after": rnd.yardsticks[1]}
        print(f"  round {r}{' traced' if rnd.traced else ''}: " + ", ".join(
            f"{name} {value:.4f} s" for name, value in timed.items() if value is not None))
    parts = scaled_parts(plain)
    for name, value in figures(args.workload, parts).items():
        print(f"  {name:<24} {value:.6g} {FIGURES[name]} from the scaled part times")
    print(f"  yardstick median {statistics.median(y for r in rounds for y in r.yardsticks):.4g} s, "
          f"unscaled round median {statistics.median(sum(r.parts.values()) for r in plain):.4g} s")
    if trace:
        per_round = [layer_metrics(r.spans) for r in traced]
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        values.update(imports)
        values["trace.overhead_s"] = sum(scaled_parts(traced).values()) - sum(parts.values())
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(scaled(r.setup_s, r) for r in plain),
                  "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
                  "round_s": sum(parts.values())}
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:.6g} {unit}")
    print(f"operations: attempted={attempted} failed={failed}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
