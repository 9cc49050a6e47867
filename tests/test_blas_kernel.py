"""The pinned bytes do not depend on the BLAS kernel or numpy's CPU dispatch.

The goldens and the grid digests pin float32 containers. The float64
values under them change with the kernel numpy's OpenBLAS picks for the
CPU, and with the SIMD paths numpy's own ufuncs (log10, log1p) dispatch
to; the float32 cast is what absorbs both. The metrics rank with numpy's
default argsort, whose order of ties also changes with the dispatch, and
a tie key makes the result equal the stable sort's. This reruns the byte
checks of tests/test_golden.py and tests/test_grid_bytes.py, and the
ranking's bit-for-bit test in tests/test_metrics.py, in one child
interpreter under OPENBLAS_CORETYPE=Prescott and, with
NPY_DISABLE_CPU_FEATURES, with every dispatch group above X86_V3 that
this CPU enables switched off, so the child runs the paths of a CPU
without AVX-512. So that the rerun cannot pass vacuously, the child
reports its kernel, the float64 hashes of one cell's banded mel product
and of compress_db over a fixed array, and the hash of the default
argsort of a fixed tie-heavy array, and each axis that was changed must
have changed its values. An axis this host cannot change is left as it
is; with neither, the test skips.

Unverified: MKL, Accelerate and non-x86 builds, and numpy builds that do
not dispatch float64 log10 or log1p at all.
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


def dispatch_groups_above_v3() -> list[str]:
    """numpy's dispatch groups above X86_V3 that this CPU enables, in dispatch order."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    groups = list(umath.__cpu_dispatch__)
    if "X86_V3" not in groups:
        return []
    return [g for g in groups[groups.index("X86_V3") + 1:] if umath.__cpu_features__.get(g)]


def compress_sha256() -> str:
    """sha256 of the float64 compress_db of a fixed array."""
    from melgauge.mel import compress_db

    power = np.random.default_rng(0).uniform(0.0, 2.0, 100_000)
    return hashlib.sha256(compress_db(power)).hexdigest()


def tie_argsort_sha256() -> str:
    """sha256 of numpy's default argsort of a fixed tie-heavy 50 x 4,332 array."""
    scores = np.random.default_rng(0).integers(0, 8, (50, 4332)) / 7.0
    return hashlib.sha256(np.argsort(scores, axis=1)).hexdigest()


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
    disabled = dispatch_groups_above_v3()
    if corename is None and not disabled:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so its kernel cannot be "
                    "chosen, and this CPU enables no numpy dispatch group above X86_V3")
    report = tmp_path / "child.json"
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    if corename is not None:
        env["OPENBLAS_CORETYPE"] = SECOND_KERNEL
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run(
        [sys.executable, __file__, str(report)],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    child = json.loads(report.read_text())
    if corename is not None:
        assert child["corename"] not in (None, corename)
        assert child["product"] != cell_product_sha256()
    if disabled:
        assert child["compress"] != compress_sha256()
        assert child["argsort"] != tie_argsort_sha256()


if __name__ == "__main__":
    code = pytest.main([
        "-q", "-p", "no:cacheprovider",
        str(TESTS / "test_golden.py"), str(TESTS / "test_grid_bytes.py"),
        str(TESTS / "test_metrics.py") + "::test_ranking_equals_the_stable_sort_bit_for_bit",
    ])
    Path(sys.argv[1]).write_text(json.dumps({
        "corename": openblas_corename(), "product": cell_product_sha256(),
        "compress": compress_sha256(), "argsort": tie_argsort_sha256(),
    }))
    sys.exit(code)
