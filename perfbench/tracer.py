"""Spans around calls into melgauge, recorded from outside the package.

install() replaces public functions at the module attribute their caller
looks up (cli binds mel_spectrogram and write_mspec by name, mel binds
stft_power by name, and so on) with wrappers that record a span: name,
start, end, parent span and a few quantities. Spans stay in memory and
are written out once, by dump().
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time

# (module, attribute, span name). Each attribute is the binding its caller
# looks up at call time, so every call goes through exactly one wrapper.
WRAPPED = (
    ("melgauge.dsp", "read_wav_mono", "dsp.read_wav_mono"),
    ("melgauge.dsp", "resample_rational", "dsp.resample_rational"),
    ("melgauge.mel", "stft_power", "dsp.stft_power"),
    ("melgauge.mel", "mel_filterbank", "mel.mel_filterbank"),
    ("melgauge.mel", "compress_db", "mel.compress"),
    ("melgauge.mel", "compress_log", "mel.compress"),
    ("melgauge.mel", "mel_spectrogram", "mel.mel_spectrogram"),
    ("melgauge.mel", "write_mspec", "mel.write_mspec"),
    ("melgauge.mel", "read_mspec", "mel.read_mspec"),
    ("melgauge.cli", "mel_spectrogram", "mel.mel_spectrogram"),
    ("melgauge.cli", "write_mspec", "mel.write_mspec"),
    ("melgauge.dataset", "parse_annotations", "dataset.parse_annotations"),
    ("melgauge.dataset", "top_k_tags", "dataset.top_k_tags"),
    ("melgauge.dataset", "canonical_split", "dataset.canonical_split"),
    ("melgauge.cli", "grid_cost_sweep", "arch.grid_cost_sweep"),
    ("melgauge.arch", "count_macs", "arch.count_macs"),
    ("melgauge.cli", "published_for_config", "reference.published_for_config"),
    ("melgauge.cli", "macro_summary", "metrics.macro_summary"),
    ("melgauge.metrics", "read_tag_csv", "metrics.read_tag_csv"),
    ("melgauge.metrics", "roc_auc", "metrics.roc_auc"),
    ("melgauge.metrics", "pr_auc", "metrics.pr_auc"),
)


def _quantities(name: str, args, result) -> dict:
    """Work counts recorded with a span, measured where the work happens."""
    if name == "dsp.read_wav_mono":
        return {"bytes": os.path.getsize(args[0])}
    if name == "dsp.resample_rational":
        return {"in_samples": int(args[0].samples.size)}
    if name == "dsp.stft_power":
        return {"frames": int(result.bins.shape[1])}
    if name == "mel.mel_filterbank":
        c = args[0]
        return {"key": f"{c.sample_rate}/{c.n_mels}/{c.frame_size}/{c.fmin}/{c.fmax}"}
    if name == "mel.write_mspec":
        return {"bytes": int(result)}
    if name == "arch.grid_cost_sweep":
        return {"configs": len(args[1])}
    return {}


class Tracer:
    """In-memory span recorder; spans opened by other threads hang off the root."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, quantities]
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root: int | None = None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self.root
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent, {}])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index][2] = time.perf_counter()
            self.spans[index][4] = _quantities(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every WRAPPED binding; returns a function that restores them."""
        originals = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

        def restore():
            for module, attr, fn in originals:
                setattr(module, attr, fn)

        return restore

    def run_root(self, name: str, fn, *args):
        """Call fn under a root span that parents spans from every thread."""
        self.root = len(self.spans)
        span = [name, time.perf_counter(), None, None, {}]
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self.root = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_seconds(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
