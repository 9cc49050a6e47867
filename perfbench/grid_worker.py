"""grid-features work process: python3 perfbench/grid_worker.py SPEC_JSON

Prints "ready" once melgauge is imported, then runs one round for each
line "R TRACED" read from stdin and answers each with one JSON line on
stdout; it exits when stdin closes. The parent
decides how many rounds run and which are traced (run.loop). One round
parses the annotation file, keeps its top 50 tags and splits it (timed
as the manifest part), then for each listed clip reads the 16 kHz WAV,
resamples it once to 12 kHz and, for every cell of enumerate_grid(),
computes the mel spectrogram, writes it and reads it back (timed as the
cell part). Features of round R go to OUT_DIR/rR/ for the parent to
check, with the spans of a traced round in OUT_DIR/rR/trace.json. The
answer holds the part times, the bytes written, digests of the manifest
results and the process's peak resident set so far; a round that raises
is answered with its traceback instead.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from melgauge import dataset, dsp, mel

from tracer import Tracer


def digest_manifest(top, split) -> dict:
    flags = np.array([item.tag_flags for item in top.items], dtype=np.uint8)
    return {
        "tag_names": list(top.tag_names),
        "clip_ids": hashlib.sha256("\n".join(i.clip_id for i in top.items).encode()).hexdigest(),
        "flags": hashlib.sha256(flags.tobytes()).hexdigest(),
        "split": {
            part: hashlib.sha256("\n".join(sorted(ids)).encode()).hexdigest()
            for part, ids in (("train", split.train), ("valid", split.valid), ("test", split.test))
        },
        "sizes": list(split.sizes),
    }


def one_round(spec, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    manifest = dataset.parse_annotations(spec["manifest"])
    top = dataset.top_k_tags(manifest, 50)
    split = dataset.canonical_split(top)
    t1 = time.perf_counter()
    written = 0
    for stem in spec["stems"]:
        audio = {16000: dsp.read_wav_mono(Path(spec["wav_dir"]) / f"{stem}.wav")}
        audio[12000] = dsp.resample_rational(audio[16000], 12000)
        for config in mel.enumerate_grid():
            path = out_dir / f"{stem}.{config.config_id}.mspec"
            written += mel.write_mspec(path, mel.mel_spectrogram(audio[config.sample_rate], config))
            mel.read_mspec(path)
    t2 = time.perf_counter()
    return {"manifest_s": t1 - t0, "cells_s": t2 - t1, "bytes": written,
            "manifest": digest_manifest(top, split)}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    print("ready", flush=True)
    for line in sys.stdin:
        r, traced = (int(v) for v in line.split())
        out_dir = Path(spec["out_dir"]) / f"r{r}"
        out_dir.mkdir(parents=True)
        tracer = Tracer()
        restore = tracer.install() if traced else (lambda: None)
        try:
            result = one_round(spec, out_dir)
        except Exception:  # the round's operations count as failed; keep serving
            result = {"error": traceback.format_exc()}
        finally:
            restore()
        if traced:
            tracer.dump(out_dir / "trace.json")
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
