"""Golden files: exact stdout, stderr and exit code of report commands.

Each case in CASES has a file tests/golden/<case>.txt holding the command,
its exit code, its stderr and its stdout, byte for byte. All cases run in
one child interpreter, one main() call each.

Rewrite the files (after a deliberate output change) with:

    python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

SELECTIONS = {
    "default": [],
    "mels48": ["--mels", "48"],
    "sr22050-mels64": ["--sample-rate", "22050", "--mels", "64"],
    "dB-hop2-hop3": ["--compression", "dB", "--hop-mult", "2", "--hop-mult", "3"],
}
COMMANDS = {
    "cost-vgg": ["cost", "--arch", "vgg-cnn"],
    "cost-musicnn": ["cost", "--arch", "musicnn-frontend"],
    "report-vgg": ["report", "--arch", "vgg-cnn"],
    "report-musicnn": ["report", "--arch", "musicnn-frontend"],
    "grid": ["grid"],
}
CASES = {
    f"{command}-{selection}-{fmt}": [*cmd_args, *sel_args, "--format", fmt]
    for command, cmd_args in COMMANDS.items()
    for selection, sel_args in SELECTIONS.items()
    for fmt in ("csv", "json")
}
CASES.update({
    f"{command}-repeated-compression-csv":
        [*cmd_args, "--mels", "96", "--compression", "dB", "--compression", "dB"]
    for command, cmd_args in COMMANDS.items()
    if command in ("cost-vgg", "report-vgg", "grid")
})
CASES.update({
    f"evaluate-{fmt}": ["evaluate", "pred.csv", "labels.csv", "--format", fmt]
    for fmt in ("csv", "json")
})
CASES.update({
    f"adapt-{cell}-{fmt}": [
        "adapt", "--mels", mels, "--hop-mult", "1", "--sample-rate", "12000",
        "--format", fmt,
    ]
    for cell, mels in (("96mel", "96"), ("64mel-unsupported", "64"))
    for fmt in ("text", "json")
})


def render(argv, code, stderr, stdout) -> str:
    return f"$ melgauge {' '.join(argv)}\nexit {code}\n--- stderr\n{stderr}--- stdout\n{stdout}"


def run_cases() -> dict:
    """Run every case in this interpreter; must be called with cwd=GOLDEN."""
    from melgauge.cli import main

    results = {}
    for name, argv in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results[name] = render(argv, code, err.getvalue(), out.getvalue())
    return results


def run_child() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, __file__, "--json"],
        cwd=GOLDEN, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def results():
    return run_child()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, results):
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")
    assert results[name] == expected


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        json.dump(run_cases(), sys.stdout)
    elif sys.argv[1:] == ["--write"]:
        for name, text in run_child().items():
            (GOLDEN / f"{name}.txt").write_bytes(text.encode("utf-8"))
    else:
        sys.exit(__doc__)
