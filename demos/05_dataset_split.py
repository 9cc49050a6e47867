"""Annotation parsing, the 16-folder split, tag selection, storage math.

Fabricates a small annotation file in the 16-folder layout, splits it
the standard way, keeps the most frequent tags, and prices the feature
storage for the whole set at two configurations.
"""

import tempfile
from pathlib import Path

import numpy as np

from melgauge import (
    MTAT_FOLDERS,
    MelConfig,
    benchmark_frames,
    canonical_split,
    mspec_size,
    parse_annotations,
    top_k_tags,
)

rng = np.random.default_rng(3)
tags = ["rock", "classical", "piano", "guitar", "vocal", "ambient"]
weights = [0.4, 0.25, 0.3, 0.35, 0.2, 0.05]

lines = ["\t".join(["clip_id"] + tags + ["mp3_path"])]
clip = 0
for folder in MTAT_FOLDERS:
    for _ in range(4):
        flags = [str(int(rng.random() < w)) for w in weights]
        lines.append("\t".join([str(clip)] + flags + [f"{folder}/clip{clip}.mp3"]))
        clip += 1

with tempfile.TemporaryDirectory() as workdir:
    annot = Path(workdir) / "annotations.tsv"
    annot.write_text("\n".join(lines) + "\n")
    manifest = parse_annotations(annot)

print(f"parsed {len(manifest)} clips, {len(manifest.tag_names)} tags, "
      f"{len(set(manifest.folders))} folders")

split = canonical_split(manifest)
train, valid, test = split.sizes
print(f"split sizes: train {train}, valid {valid}, test {test}  "
      f"(12/1/3 of 16 folders)")

top = top_k_tags(manifest, 3)
counts = manifest.tag_counts()
print("\ntop-3 tags by frequency:")
for name in top.tag_names:
    print(f"  {name:>10}: {counts[name]}")

# price storage for every training clip at two front-end settings
full = MelConfig(12000, 96)
lean = MelConfig(12000, 48, hop_multiplier=2)
frames_full = benchmark_frames(12000, 1)
frames_lean = benchmark_frames(12000, 2)
bytes_full = len(split.train) * mspec_size(full.n_mels, frames_full)
bytes_lean = len(split.train) * mspec_size(lean.n_mels, frames_lean)
print(f"\ntraining-set features at {full.config_id}: {bytes_full / 1e6:.1f} MB")
print(f"training-set features at {lean.config_id}: {bytes_lean / 1e6:.1f} MB")
print(f"reduction: {bytes_full / bytes_lean:.2f}x")
