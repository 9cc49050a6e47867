"""Seeded input generators: WAV clips, an annotation manifest, tag CSVs.

The same seed always gives the same files. melgauge sees only the files;
the generators also return the values they wrote so the checks can use
them without reading the files back through melgauge.
"""

from __future__ import annotations

import string
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FOLDERS = "0123456789abcdef"
TRAIN, VALID, TEST = FOLDERS[:12], FOLDERS[12], FOLDERS[13:]

# Tones sit on multiples of 93.75 Hz, which are FFT bin centres at both
# 12 kHz (4 bins) and 16 kHz (3 bins), and stay below 5 kHz, inside the
# resampler passband at 12 kHz (0.9 * 6 kHz).
TONE_STEP_HZ = 93.75
TONE_STEPS = range(3, 54)
N_TONES = 3
TONE_AMPLITUDE = 0.5
NOISE_RMS = 0.01


@dataclass
class Clip:
    stem: str
    sample_rate: int
    pcm: np.ndarray  # int16 as written
    tones: list[tuple[float, float, float]]  # (Hz, start s, end s)

    @property
    def samples(self) -> np.ndarray:
        return self.pcm.astype(np.float64) / 32768.0


def make_clip(rng: np.random.Generator, stem: str, sample_rate: int, seconds: float) -> Clip:
    """White noise plus N_TONES tones, each alone in its own third of the clip."""
    n = round(seconds * sample_rate)
    x = NOISE_RMS * rng.standard_normal(n)
    steps = rng.choice(TONE_STEPS, size=N_TONES, replace=False)
    bounds = np.linspace(0, n, N_TONES + 1).astype(int)
    tones = []
    for step, lo, hi in zip(steps, bounds[:-1], bounds[1:]):
        freq = float(step) * TONE_STEP_HZ
        t = np.arange(lo, hi) / sample_rate
        x[lo:hi] += TONE_AMPLITUDE * np.sin(2.0 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        tones.append((freq, lo / sample_rate, hi / sample_rate))
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    return Clip(stem, sample_rate, pcm, tones)


def write_wav(path: Path, clip: Clip) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(clip.sample_rate)
        fh.writeframes(clip.pcm.tobytes())


def make_clips(rng, out_dir: Path, stems, sample_rate: int, seconds: float) -> list[Clip]:
    clips = []
    for stem in stems:
        clip = make_clip(rng, stem, sample_rate, seconds)
        write_wav(out_dir / f"{stem}.wav", clip)
        clips.append(clip)
    return clips


@dataclass
class Manifest:
    clip_ids: list[str]
    stems: list[str]
    folders: np.ndarray  # one folder letter per clip
    tag_names: list[str]
    flags: np.ndarray  # (n_clips, n_tags) uint8


def _tag_names(rng, n_tags: int) -> list[str]:
    """Distinct random names in generation order, so column order is not name order."""
    names: dict[str, None] = {}
    letters = list(string.ascii_lowercase)
    while len(names) < n_tags:
        names["".join(rng.choice(letters, size=int(rng.integers(3, 9))))] = None
    return list(names)


def make_manifest(rng, path: Path, n_clips: int, n_tags: int) -> Manifest:
    """MTAT-shaped annotation file: clip id, one 0/1 column per tag, mp3 path.

    Tag frequencies fall off like a power law, as real tag counts do. The
    tags ranked 5th and 6th, 21st and 22nd, and 50th and 51st are given equal
    counts, so the top-50 ranking must break ties by name, once across
    the cut.
    """
    names = _tag_names(rng, n_tags)
    rates = 0.25 * np.arange(1, n_tags + 1, dtype=float) ** -0.9
    flags = (rng.random((n_clips, n_tags)) < rng.permutation(rates)).astype(np.uint8)
    order = np.argsort(-flags.sum(axis=0), kind="stable")
    for rank in (4, 20, 49):
        flags[:, order[rank + 1]] = rng.permutation(flags[:, order[rank]])
    folders = np.array(list(FOLDERS))[rng.integers(0, len(FOLDERS), n_clips)]
    clip_ids = [str(2 + 3 * i) for i in range(n_clips)]
    stems = [f"track{i:05d}-{int(rng.integers(0, 30))}-{int(rng.integers(30, 60))}"
             for i in range(n_clips)]
    cells = np.full((n_clips, 2 * n_tags), ord("\t"), dtype=np.uint8)
    cells[:, 0::2] = flags + ord("0")
    body = cells[:, :-1].tobytes().decode("ascii")
    width = 2 * n_tags - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("clip_id\t" + "\t".join(names) + "\tmp3_path\n")
        for i in range(n_clips):
            row = body[i * width:(i + 1) * width]
            fh.write(f"{clip_ids[i]}\t{row}\t{folders[i]}/{stems[i]}.mp3\n")
    return Manifest(clip_ids, stems, folders, names, flags)


def make_tag_csvs(rng, pred_path: Path, label_path: Path, n_items: int, n_tags: int):
    """Prediction and label CSVs; scores are multiples of 1e-4, so ties occur.

    Returns (scores as integers 0..10000, labels). Every tag has both
    classes, so no tag is skipped by the evaluator.
    """
    names = [f"tag{j:02d}" for j in range(n_tags)]
    rates = rng.uniform(0.02, 0.3, n_tags)
    labels = (rng.random((n_items, n_tags)) < rates).astype(np.int64)
    labels[0] = 1
    labels[1] = 0
    logits = rng.standard_normal((n_items, n_tags)) + 1.5 * labels - 1.5
    ticks = np.round(10000.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    header = ",".join(names) + "\n"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in ticks:
            fh.write(",".join(f"{v / 10000:.4f}" for v in row) + "\n")
    with open(label_path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in labels:
            fh.write(",".join(str(v) for v in row) + "\n")
    return ticks, labels
