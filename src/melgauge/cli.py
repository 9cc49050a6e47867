"""Command-line front door: batch extraction and benchmark-grid reports.

Subcommands:
  extract   audio files -> binary mel feature files (one per input)
  cost      MAC/storage table over selected configurations
  adapt     pooling plan lookup for one configuration
  evaluate  prediction/label CSVs -> macro metric summary
  grid      list the selected configurations
  report    cost table joined with the published-results reference table

All report output is deterministic: rows are sorted by (sample_rate,
n_mels descending, hop ascending, compression). Floats in cost, report,
grid and evaluate's CSV are formatted at 6 significant digits; evaluate's
JSON keeps every float's full repr.
Selectors default to the benchmark grid; off-grid values are honored
with a `warning: ...` line on stderr unless --grid-strict is given.

cost, report, grid and adapt need only the configuration layer, the cost
models and the reference table, none of which imports numpy. extract
and evaluate import the signal chain and the metrics when they run.

extract hands its inputs to a ThreadPoolExecutor of min(inputs, usable
cores) worker threads, one input each at a time, and prints each input's
line in input order once it and every input before it are done. After
an unexpected error no queued input starts. Unless numpy is already
loaded, it first defaults OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1, so BLAS starts no threads of its own beside the
workers. On glibc it also fixes mallopt's mmap and trim thresholds, so
the heap keeps each input's pages for the next; a MALLOC_* or
GLIBC_TUNABLES setting of the user's wins.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

from .arch import ARCH_NAMES, grid_cost_sweep, vgg_pooling_plan
from .config import (
    COMPRESSIONS,
    GRID_MELS,
    GRID_SAMPLE_RATES,
    MelConfig,
    benchmark_frames,
    grid_hops,
    is_grid_config,
    positive_int,
)
from .exceptions import (
    GridWarning,
    MelGaugeError,
    OutputPathError,
    UnsupportedConfigError,
)
from .reference import SOURCE_LABEL, published_for_config

__all__ = ["main"]

# Signal-chain and metrics names this module offers as attributes, and the
# submodule each comes from. They load numpy, so they are imported on first
# use (PEP 562) and the report commands never import them.
_LAZY = {"mel_spectrogram": "mel", "write_mspec": "mel",
         "load_tag_table": "metrics", "macro_summary": "metrics"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputPathError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _emit(rows: list[dict], columns, args) -> None:
    """Write rows as CSV (fixed columns, None as an empty cell) or JSON.

    JSON keeps each row's own keys in order; floats are rounded to the
    same 6 significant digits as the CSV cells.
    """
    if args.format == "json":
        cleaned = []
        for row in rows:
            out = {}
            for key, value in row.items():
                out[key] = float(_fmt(value)) if isinstance(value, float) else value
            cleaned.append(out)
        text = json.dumps(cleaned, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(column)) for column in columns])
        text = buffer.getvalue()
    _write_out(text, args.out)


# ------------------------------------------------------------- selection

def _select_configs(args) -> list[MelConfig]:
    """Expand selector flags into deduplicated configurations in report order.

    Defaults reproduce the benchmark grid (grid_hops per mel count, which
    gives off-grid mel counts the base hop). Explicit flag values are
    honored verbatim, which can leave the grid; each off-grid config warns
    on construction, and with --grid-strict the first off-grid cell is an
    error before any config is built. Repeated values count once. Report
    order is sample rate, mel count descending, hop, compression.
    """
    rates = args.sample_rate or GRID_SAMPLE_RATES
    mels = args.mels or GRID_MELS
    comps = dict.fromkeys(args.compression or COMPRESSIONS)
    configs: list[MelConfig] = []
    for rate in sorted(set(rates)):
        for mel_count in sorted(set(mels), reverse=True):
            hops = sorted(set(args.hop_mult)) if args.hop_mult else grid_hops(mel_count)
            for hop in hops:
                for comp in comps:
                    if args.grid_strict and not is_grid_config(rate, mel_count, hop):
                        raise UnsupportedConfigError(
                            f"--grid-strict: {rate}Hz-{mel_count}mel-x{hop}-{comp} "
                            "is outside the benchmark grid"
                        )
                    configs.append(
                        MelConfig(rate, mel_count, hop_multiplier=hop, compression=comp)
                    )
    # Compressions were taken in flag order, so the strict check names the
    # first offender as the command line gives it; sort only afterwards.
    configs.sort(key=lambda c: (c.sample_rate, -c.n_mels, c.hop_multiplier, c.compression))
    return configs


# The identity columns that lead every configuration table.
_CONFIG_COLUMNS = (
    "config_id",
    "sample_rate",
    "n_mels",
    "hop_multiplier",
    "compression",
)


def _config_row(config: MelConfig) -> dict:
    return {column: getattr(config, column) for column in _CONFIG_COLUMNS}


# ------------------------------------------------------------------ cost

def _cost_rows(arch: str, configs: list[MelConfig]) -> list[dict]:
    """One row per config, in config order; ratios are to (96 mels, x1)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        references = [
            MelConfig(rate, 96, hop_multiplier=1)
            for rate in dict.fromkeys(config.sample_rate for config in configs)
        ]
    baselines = {
        entry.config.sample_rate: entry.report
        for entry in grid_cost_sweep(arch, references)
    }
    rows = []
    for entry in grid_cost_sweep(arch, configs):
        row = _config_row(entry.config)
        if entry.report is None:
            row["error"] = entry.error
        else:
            report = entry.report
            row["total_macs"] = report.total_macs
            row["gmacs"] = report.gmacs
            row["feature_bytes"] = report.feature_bytes
            row["approximate"] = ";".join(report.approximate_layers)
            baseline = baselines[entry.config.sample_rate]
            if baseline is not None:
                row["gmacs_ratio"] = report.total_macs / baseline.total_macs
                row["bytes_ratio"] = report.feature_bytes / baseline.feature_bytes
        rows.append(row)
    return rows


_COST_COLUMNS = _CONFIG_COLUMNS + (
    "total_macs",
    "gmacs",
    "gmacs_ratio",
    "feature_bytes",
    "bytes_ratio",
    "approximate",
    "error",
)


def cmd_cost(args) -> int:
    rows = _cost_rows(args.arch, _select_configs(args))
    _emit(rows, _COST_COLUMNS, args)
    return 0 if all("error" not in row for row in rows) else 1


# ---------------------------------------------------------------- report

_REPORT_COST_KEYS = _CONFIG_COLUMNS + ("gmacs", "feature_bytes", "approximate")
_REPORT_COLUMNS = _REPORT_COST_KEYS + (
    "dataset",
    "published_roc",
    "published_pr",
    "published_source",
    "error",
)


def cmd_report(args) -> int:
    configs = _select_configs(args)
    cost_rows = _cost_rows(args.arch, configs)
    rows = []
    for config, cost in zip(configs, cost_rows):
        # Every report row carries "error", None included, so it sits
        # before the published keys in JSON.
        base = {key: cost.get(key) for key in _REPORT_COST_KEYS + ("error",)}
        published = published_for_config(config, args.arch)
        if not published:
            rows.append(base)
            continue
        for result in published:
            row = dict(base)
            row["dataset"] = result.dataset
            row["published_roc"] = result.roc_auc
            row["published_pr"] = result.pr_auc
            row["published_source"] = SOURCE_LABEL
            rows.append(row)
    _emit(rows, _REPORT_COLUMNS, args)
    return 0 if all("error" not in cost for cost in cost_rows) else 1


# ------------------------------------------------------------------ grid

_GRID_COLUMNS = _CONFIG_COLUMNS + ("n_frames",)


def cmd_grid(args) -> int:
    rows = []
    for config in _select_configs(args):
        row = _config_row(config)
        try:
            row["n_frames"] = benchmark_frames(config.sample_rate, config.hop_multiplier)
        except ValueError:
            pass
        rows.append(row)
    _emit(rows, _GRID_COLUMNS, args)
    return 0


# ----------------------------------------------------------------- adapt

def cmd_adapt(args) -> int:
    try:
        plan = vgg_pooling_plan(args.mels, args.hop_mult, args.sample_rate)
    except UnsupportedConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        data = {
            "sample_rate": args.sample_rate,
            "n_mels": args.mels,
            "hop_multiplier": args.hop_mult,
            "freq_pools": list(plan.freq_pools),
            "time_pools": list(plan.time_pools),
        }
        _write_out(json.dumps(data, indent=2) + "\n", args.out)
    else:
        time_text = ",".join(str(p) for p in plan.time_pools)
        freq_text = ",".join(str(p) for p in plan.freq_pools)
        _write_out(f"time: {time_text} freq: {freq_text}\n", args.out)
    return 0


# -------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    # Looked up as this module's attributes, as a caller may rebind them.
    cli = sys.modules[__name__]
    try:
        table = cli.load_tag_table(args.predictions, args.labels)
        summary = cli.macro_summary(table)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        data = {
            "macro_roc": summary.macro_roc,
            "macro_pr": summary.macro_pr,
            "per_tag": {
                name: {"roc_auc": roc, "pr_auc": pr}
                for name, roc, pr in zip(
                    summary.tag_names, summary.per_tag_roc, summary.per_tag_pr
                )
            },
            "skipped_tags": list(summary.skipped_tags),
        }
        _write_out(json.dumps(data, indent=2) + "\n", args.out)
        return 0
    # One row per tag, skipped tags with empty metric cells, macro last.
    rows = [
        {"tag": name, "roc_auc": roc, "pr_auc": pr, "status": "ok"}
        for name, roc, pr in zip(summary.tag_names, summary.per_tag_roc, summary.per_tag_pr)
    ]
    rows += [{"tag": name, "status": "skipped"} for name in summary.skipped_tags]
    rows.append(
        {"tag": "macro", "roc_auc": summary.macro_roc, "pr_auc": summary.macro_pr, "status": "ok"}
    )
    _emit(rows, ("tag", "roc_auc", "pr_auc", "status"), args)
    return 0


# --------------------------------------------------------------- extract

def _reason(input_path: str, exc: Exception) -> str:
    """exc's message without the input path its error line already names."""
    if isinstance(exc, OSError) and exc.filename == input_path and exc.strerror:
        return exc.strerror
    return str(exc).removeprefix(f"{input_path}: ")


def _output_paths(inputs: list[str], out_dir: Path) -> list[Path]:
    """OUT_DIR/<stem>.mspec for each input.

    Two different files with one stem would overwrite each other's
    features, and an input named as its own output would be overwritten,
    so both raise OutputPathError; a file listed twice is allowed.
    """
    claimed: dict[Path, tuple[str, Path]] = {}
    paths = []
    for input_path in inputs:
        out_path = out_dir / (Path(input_path).stem + ".mspec")
        source = Path(input_path).resolve()
        if out_path.resolve() == source:
            raise OutputPathError(f"{input_path} would be overwritten by its own features")
        first, first_source = claimed.setdefault(out_path, (input_path, source))
        if first_source != source:
            raise OutputPathError(f"{first} and {input_path} would both write {out_path}")
        paths.append(out_path)
    return paths


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# OpenBLAS, OpenMP and MKL run each matrix product on a pool of one thread
# per core; beside one extract worker per core those threads only contend.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# mallopt settings: (parameter from glibc's malloc.h, value, the environment
# variable and the GLIBC_TUNABLES name by which a user sets it first).
_MALLOC_SETTINGS = (
    (-3, 32 << 20, "MALLOC_MMAP_THRESHOLD_", "glibc.malloc.mmap_threshold"),  # M_MMAP_THRESHOLD
    (-1, 64 << 20, "MALLOC_TRIM_THRESHOLD_", "glibc.malloc.trim_threshold"),  # M_TRIM_THRESHOLD
)


def _keep_malloc_pages() -> None:
    """On glibc, keep the pages each input frees for the next input.

    Fixed thresholds keep each clip's 3.7 MB arrays off mmap and the
    freed heap top mapped, where glibc's dynamic ones would hand part of
    them back to the system and fault them in again. A setting the user
    made wins: its call is skipped when its MALLOC_* variable is set or
    GLIBC_TUNABLES names it.
    """
    tunables = {item.partition("=")[0] for item in os.environ.get("GLIBC_TUNABLES", "").split(":")}
    import ctypes

    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # not glibc
        return
    for param, value, variable, tunable in _MALLOC_SETTINGS:
        if variable not in os.environ and tunable not in tunables:
            mallopt(param, value)


def cmd_extract(args) -> int:
    if not args.inputs:
        print("warning: no input files given", file=sys.stderr)
        return 0
    config = MelConfig(
        args.sample_rate,
        args.mels,
        hop_multiplier=args.hop_mult,
        compression=args.compression,
    )
    out_dir = Path(args.out_dir)
    out_paths = _output_paths(args.inputs, out_dir)
    # BLAS reads these once, when numpy loads; a value already set wins.
    if "numpy" not in sys.modules:
        for name in _BLAS_THREAD_VARIABLES:
            os.environ.setdefault(name, "1")
    _keep_malloc_pages()
    from . import dsp, mel  # numpy loads here, not in a worker
    from concurrent.futures import ThreadPoolExecutor  # only extract loads it

    mel.mel_filterbank(config)  # a degenerate filterbank fails once, before any write
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputPathError(f"cannot create {out_dir}: {exc.strerror or exc}") from exc

    def attempt(input_path, out_path):
        try:
            if Path(input_path).suffix.lower() == ".wav":
                audio = dsp.read_wav_mono(input_path)
            else:
                audio = dsp.read_raw_float32(input_path, args.input_rate or config.sample_rate)
            if audio.sample_rate != config.sample_rate:
                audio = dsp.resample_rational(audio, config.sample_rate)
            return mel.write_mspec(out_path, mel.mel_spectrogram(audio, config))
        except (MelGaugeError, OSError, ValueError) as exc:  # reported below
            return exc

    pool = ThreadPoolExecutor(min(len(out_paths), _usable_cores()))
    failures = 0
    try:
        # Each input's bytes written or reported error, in input order; others raise here.
        outcomes = pool.map(attempt, args.inputs, out_paths)
        for input_path, out_path, outcome in zip(args.inputs, out_paths, outcomes):
            if isinstance(outcome, Exception):
                failures += 1
                print(f"error: {input_path}: {_reason(input_path, outcome)}", file=sys.stderr)
            else:
                print(f"wrote {out_path} ({outcome} bytes)")
    finally:
        # After an exception no queued input starts; those already running finish.
        pool.shutdown(cancel_futures=True)
    return 1 if failures else 0


# ----------------------------------------------------------------- parser

def _positive_int(text: str) -> int:
    """argparse type for counts and rates: an integer of at least 1."""
    try:
        return positive_int("value", int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None


def _add_selector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample-rate", type=_positive_int, action="append",
        help="sample rate in Hz; repeatable (default: 12000 and 16000)",
    )
    parser.add_argument(
        "--mels", type=_positive_int, action="append",
        help="mel band count; repeatable (default: the benchmark counts)",
    )
    parser.add_argument(
        "--hop-mult", type=_positive_int, action="append",
        help="hop multiplier over 256 samples; repeatable (default: grid hops)",
    )
    parser.add_argument(
        "--compression", choices=COMPRESSIONS, action="append",
        help="magnitude compression; repeatable (default: both)",
    )
    parser.add_argument(
        "--grid-strict", action="store_true",
        help="fail instead of warning when a selector leaves the benchmark grid",
    )


def _add_output_flags(
    parser: argparse.ArgumentParser, default_format: str = "csv", choices=("csv", "json")
) -> None:
    parser.add_argument(
        "--format", choices=choices, default=default_format,
        help=f"output format (default: {default_format})",
    )
    parser.add_argument("--out", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melgauge",
        description="Mel front-end cost, shape, and evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="extract mel features to .mspec files")
    p_extract.add_argument("inputs", nargs="*", help="input audio files (.wav or raw float32)")
    p_extract.add_argument("--sample-rate", type=_positive_int, required=True,
                           help="analysis sample rate in Hz")
    p_extract.add_argument("--mels", type=_positive_int, required=True, help="mel band count")
    p_extract.add_argument("--hop-mult", type=_positive_int, default=1,
                           help="hop multiplier over 256 samples (default: 1)")
    p_extract.add_argument("--compression", choices=COMPRESSIONS, default="dB",
                           help="magnitude compression (default: dB)")
    p_extract.add_argument("--out-dir", required=True, help="output directory")
    p_extract.add_argument("--input-rate", type=_positive_int,
                           help="sample rate of raw float32 inputs (default: analysis rate)")
    p_extract.set_defaults(func=cmd_extract)

    p_cost = sub.add_parser("cost", help="MAC and storage cost table")
    p_cost.add_argument("--arch", choices=ARCH_NAMES, default="vgg-cnn",
                        help="architecture to cost (default: vgg-cnn)")
    _add_selector_flags(p_cost)
    _add_output_flags(p_cost)
    p_cost.set_defaults(func=cmd_cost)

    p_adapt = sub.add_parser("adapt", help="pooling plan for one configuration")
    p_adapt.add_argument("--mels", type=_positive_int, required=True, help="mel band count")
    p_adapt.add_argument("--hop-mult", type=_positive_int, required=True,
                         help="hop multiplier")
    p_adapt.add_argument("--sample-rate", type=_positive_int, required=True,
                         help="sample rate in Hz")
    _add_output_flags(p_adapt, default_format="text", choices=("text", "json"))
    p_adapt.set_defaults(func=cmd_adapt)

    p_eval = sub.add_parser("evaluate", help="macro metrics from prediction/label CSVs")
    p_eval.add_argument("predictions", help="predictions CSV (tag header + one row per item)")
    p_eval.add_argument("labels", help="labels CSV with the same header")
    _add_output_flags(p_eval, default_format="json")
    p_eval.set_defaults(func=cmd_evaluate)

    p_grid = sub.add_parser("grid", help="list benchmark grid configurations")
    _add_selector_flags(p_grid)
    _add_output_flags(p_grid)
    p_grid.set_defaults(func=cmd_grid)

    p_report = sub.add_parser("report", help="cost table joined with published results")
    p_report.add_argument("--arch", choices=ARCH_NAMES, default="vgg-cnn",
                          help="architecture to cost (default: vgg-cnn)")
    _add_selector_flags(p_report)
    _add_output_flags(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a GridWarning as a `warning: ...` line; others as Python does."""
    if issubclass(category, GridWarning):
        text = f"warning: {message}\n"
    else:
        text = warnings.formatwarning(message, category, filename, lineno, line)
    (file or sys.stderr).write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except MelGaugeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, UnsupportedConfigError) else 1
