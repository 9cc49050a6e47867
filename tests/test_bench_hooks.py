"""The benchmark tracer's hooks still find what they wrap in melgauge.

perfbench/tracer.py replaces module attributes by name and reads
PowerSpectrogram.bins and AudioBuffer.samples for its counts, so a
refactor that drops a wrapped binding or renames what it reads would
break every traced bench run. This test installs the tracer, runs two
hops on one buffer, one container write, one resample and the manifest
chain (parse, top-k tags, split), and checks the spans and the restore.
"""

import importlib
from pathlib import Path

from melgauge import dataset, dsp, mel
from melgauge.dsp import AudioBuffer, frame_count
from melgauge.mel import MelConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_the_signal_chain_and_restores_it(rng, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    bindings = [
        (importlib.import_module(module), attr) for module, attr, _ in tracer.WRAPPED
    ]
    # cli offers some names lazily (its module __getattr__), so they are in
    # no namespace until the tracer reads them.
    held = [(module, attr, vars(module)[attr]) for module, attr in bindings
            if attr in vars(module)]
    lazy = [(module, attr) for module, attr in bindings if attr not in vars(module)]
    assert {attr for _, attr in lazy} <= {"mel_spectrogram", "write_mspec", "macro_summary"}
    audio = AudioBuffer(rng.standard_normal(12000), 12000)
    annotations = tmp_path / "annotations.tsv"
    annotations.write_text(
        "clip_id\trock\tpop\tmp3_path\n"
        "1\t1\t0\t0/a.mp3\n2\t1\t1\tc/b.mp3\n3\t0\t1\tf/c.mp3\n"
    )

    recorder = tracer.Tracer()
    restore = recorder.install()
    try:
        fine = mel.mel_spectrogram(audio, MelConfig(12000, 48, 1))
        mel.mel_spectrogram(audio, MelConfig(12000, 48, 2))
        mel.write_mspec(tmp_path / "clip.mspec", fine)
        dsp.resample_rational(audio, 16000)
        manifest = dataset.top_k_tags(dataset.parse_annotations(annotations), 1)
        split = dataset.canonical_split(manifest)
    finally:
        restore()
        # restore() sets the lazy names as attributes, and the two that mel
        # also wraps to mel's wrapper; take them out so later tests see cli
        # as it was.
        for module, attr in lazy:
            vars(module).pop(attr, None)

    spans = {}
    for name, _, _, _, quantities in recorder.spans:
        spans.setdefault(name, []).append(quantities)
    assert spans["dsp.stft_power"] == [{"frames": frame_count(12000, 256)}]
    assert len(spans["mel.mel_spectrogram"]) == 2
    assert len(spans["mel.write_mspec"]) == 1
    assert spans["dsp.resample_rational"] == [{"in_samples": 12000}]
    assert len(spans["dataset.parse_annotations"]) == len(spans["dataset.top_k_tags"]) == 1
    assert len(spans["dataset.canonical_split"]) == 1
    assert split.sizes == (1, 1, 1)
    for module, attr, fn in held:
        assert getattr(module, attr) is fn, (module.__name__, attr)
