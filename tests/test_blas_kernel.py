"""The pinned bytes do not depend on the BLAS kernel.

The goldens and the grid digests pin float32 containers. The float64
values under them change with the kernel numpy's OpenBLAS picks for the
CPU, and the float32 cast is what absorbs that. This reruns the byte
checks of tests/test_golden.py and tests/test_grid_bytes.py in a child
interpreter under OPENBLAS_CORETYPE=Prescott, and checks in that child
that the kernel really changed and that one cell's float64 mel product,
computed by the banded product the containers come from, differs from
this process's, so the rerun cannot pass vacuously.

Unverified: MKL, Accelerate and non-x86 BLAS builds.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
SECOND_KERNEL = "Prescott"


def openblas_corename() -> str | None:
    """Kernel of numpy's DYNAMIC_ARCH OpenBLAS, or None for any other BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
            config = handle.scipy_openblas_get_config64_
            corename = handle.scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        config.restype = corename.restype = ctypes.c_char_p
        if b"DYNAMIC_ARCH" in config():
            return corename().decode()
    return None


def cell_product_sha256() -> str:
    """sha256 of the float64 banded mel product of the 16 kHz, 96-mel, hop-256 cell."""
    from melgauge import mel
    from melgauge.config import MelConfig
    from melgauge.dsp import stft_power
    from test_grid_bytes import grid_clip

    product = mel._mel_product(MelConfig(16000, 96), stft_power(grid_clip(16000), 256).bins)
    return hashlib.sha256(product.tobytes()).hexdigest()


def test_pinned_bytes_hold_under_a_second_kernel(tmp_path):
    corename = openblas_corename()
    if corename is None:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so its kernel cannot be chosen")
    report = tmp_path / "child.json"
    env = dict(os.environ, OPENBLAS_CORETYPE=SECOND_KERNEL,
               PYTHONPATH=str(TESTS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, str(report)],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    child = json.loads(report.read_text())
    assert child["corename"] not in (None, corename)
    assert child["product"] != cell_product_sha256()


if __name__ == "__main__":
    code = pytest.main([
        "-q", "-p", "no:cacheprovider",
        str(TESTS / "test_golden.py"), str(TESTS / "test_grid_bytes.py"),
    ])
    Path(sys.argv[1]).write_text(json.dumps({
        "corename": openblas_corename(), "product": cell_product_sha256(),
    }))
    sys.exit(code)
