"""The benchmark tracer's hooks still find what they wrap in melgauge.

perfbench/tracer.py replaces module attributes by name and reads
PowerSpectrogram.bins and AudioBuffer.samples for its counts, so a
refactor that drops a wrapped binding or renames what it reads would
break every traced bench run. This test installs the tracer, runs two
hops on one buffer, one container write, one resample and the manifest
chain (parse, top-k tags, split), and checks the spans and the restore.
"""

import functools
import importlib
from pathlib import Path

from melgauge import cli, dataset, dsp, mel
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
    # no namespace until the tracer reads them. The seam holds exactly the
    # names the tracer rebinds on cli, so it cannot outgrow its one user.
    held = [(module, attr, vars(module)[attr]) for module, attr in bindings
            if attr in vars(module)]
    lazy = [(module, attr) for module, attr in bindings if attr not in vars(module)]
    assert set(cli._LAZY) == {attr for name, attr, _ in tracer.WRAPPED if name == "melgauge.cli"}
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


def test_traced_extract_asks_for_its_filterbank_once(rng, monkeypatch, tmp_path):
    # perfbench's mel.mel_filterbank.calls_per_distinct counts these spans:
    # extract asks for its bank once, to refuse a degenerate one before any
    # write, and mel_spectrogram reads the same cache without that call.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    from melgauge import cli

    lazy = [attr for module, attr, _ in tracer.WRAPPED
            if module == "melgauge.cli" and attr not in vars(cli)]
    # an empty cache, as in a fresh extract process
    monkeypatch.setattr(mel, "_filterbank", functools.cache(mel._filterbank.__wrapped__))
    clips = []
    for name in ("a", "b"):
        clips.append(str(tmp_path / f"{name}.f32"))
        (0.3 * rng.standard_normal(16000)).astype("<f4").tofile(clips[-1])

    recorder = tracer.Tracer()
    restore = recorder.install()
    try:
        code = cli.main(["extract", "--sample-rate", "16000", "--mels", "96",
                         "--out-dir", str(tmp_path / "feats"), *clips])
    finally:
        restore()
        for attr in lazy:
            vars(cli).pop(attr, None)
    assert code == 0
    names = [span[0] for span in recorder.spans]
    assert names.count("mel.mel_spectrogram") == 2
    assert [span[4] for span in recorder.spans if span[0] == "mel.mel_filterbank"] == [
        {"key": "16000/96/512/0.0/8000.0"}
    ]
