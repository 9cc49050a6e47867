"""Damaged input files give a value or an error the CLI reports, never a crash.

Each reader below gets a small valid file, mutated the ways a damaged or
hostile file differs from a good one: bytes overwritten, a 16- or 32-bit
field set to an extreme value, the file truncated, or bytes appended.
Whatever the bytes, the reader returns or raises a MelGaugeError,
ValueError or OSError, which extract and evaluate turn into an `error:`
line. (read_mspec and read_raw_float32 have their own properties, in
test_mel and test_dsp.)
"""

import io
import warnings
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melgauge.dataset import parse_annotations
from melgauge.dsp import read_wav_mono
from melgauge.exceptions import MelGaugeError
from melgauge.metrics import load_tag_table

# Little-endian field values at the edges of the 16- and 32-bit ranges.
EXTREMES = {2: (0, 1, 0x7FFF, 0x8000, 0xFFFF),
            4: (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)}


def _wav_bytes() -> bytes:
    buffer = io.BytesIO()
    with wave.open(buffer, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(16000)
        handle.writeframes(np.arange(-16, 16, dtype="<i2").tobytes() * 64)
    return buffer.getvalue()


PREDICTIONS = b"rock,pop\n0.1,0.9\n0.8,0.2\n0.4,0.6\n"
LABELS = b"rock,pop\n0,1\n1,0\n0,1\n"
ANNOTATIONS = b"clip_id\trock\tpop\tmp3_path\n1\t1\t0\t0/a.mp3\n2\t0\t1\tc/b.mp3\n"


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data after one to three overwrites, extreme fields, cuts or appends."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("overwrite", "field", "truncate", "append")))
        if kind == "overwrite" and data:
            at = draw(st.integers(0, len(data) - 1))
            patch = draw(st.binary(min_size=1, max_size=4))
            data[at:at + len(patch)] = patch
        elif kind == "field" and len(data) >= 2:
            width = draw(st.sampled_from([w for w in EXTREMES if w <= len(data)]))
            # aligned, as a header's fields are, and in the first 64 bytes half the time
            last = (len(data) - width) // width
            at = width * draw(st.integers(0, min(last, 64 // width)) | st.integers(0, last))
            data[at:at + width] = draw(st.sampled_from(EXTREMES[width])).to_bytes(width, "little")
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        else:
            data += draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


def _one_file(name, reader):
    def read(tmp, raw):
        (tmp / name).write_bytes(raw)
        return reader(tmp / name)

    return read


def _tag_tables(mutated_name):
    """load_tag_table over the valid pair with mutated_name's bytes replaced."""
    def read(tmp, raw):
        files = {"pred.csv": PREDICTIONS, "labels.csv": LABELS, mutated_name: raw}
        for name, content in files.items():
            (tmp / name).write_bytes(content)
        return load_tag_table(tmp / "pred.csv", tmp / "labels.csv")

    return read


# name -> (a valid file's bytes, a reader of given bytes in a directory)
READERS = {
    "wav": (_wav_bytes(), _one_file("clip.wav", read_wav_mono)),
    "predictions": (PREDICTIONS, _tag_tables("pred.csv")),
    "labels": (LABELS, _tag_tables("labels.csv")),
    "annotations": (ANNOTATIONS, _one_file("annotations.tsv", parse_annotations)),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("reader", sorted(READERS))
def test_mutated_file_reads_or_raises_a_reported_error(tmp_path_factory, reader, data):
    valid, read = READERS[reader]
    tmp = tmp_path_factory.mktemp(reader)
    read(tmp, valid)  # the file before mutation reads
    raw = data.draw(mutated(valid), label="bytes")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is neither a value nor a refusal
        try:
            read(tmp, raw)
        except (MelGaugeError, ValueError, OSError):
            pass
