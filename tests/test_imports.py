"""`import melgauge` and the everyday CLI commands load no scipy module.

scipy is needed only by `t_test_independent`, which imports it when
called; each check runs a fresh interpreter with `-X importtime`, which
lists every module the process imported on stderr.
"""

import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

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
