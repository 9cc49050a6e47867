"""Pinned .mspec bytes for every cell of the benchmark grid.

One fixed synthetic 29.1 s clip per grid rate goes through all 88 cells
of enumerate_grid() in order, in one process, the way a dataset
extraction runs them; the sha256 of each written container must match
the digest below. The digests come from computing every cell with its
own STFT and filterbank, so this pins that mel_spectrogram's spectrum
reuse across hops and its filterbank cache leave the bytes unchanged.

Every cell is also checked against perfbench/reference.py, which
computes the chain from the README's conventions and imports nothing
from melgauge: the digests say "same as before", that check says
"within float32 of an independent oracle".

A second, smaller table pins six cells as a fresh `python -m melgauge
extract` process writes them from float32 copies of the same clips.

Reprint the tables (after a deliberate output change) with:

    PYTHONPATH=src python tests/test_grid_bytes.py
"""

import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from melgauge.config import COMPRESSIONS
from melgauge.dsp import AudioBuffer, resample_rational
from melgauge.mel import enumerate_grid, mel_spectrogram, write_mspec

SEGMENT_SECONDS = 29.1
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def grid_clip(sample_rate: int) -> AudioBuffer:
    """Silence, then a steady tone, a chirp to Nyquist and hashed noise.

    The noise is the splitmix64 finaliser of the sample index, so the clip
    does not depend on any random generator's stream.
    """
    n = round(SEGMENT_SECONDS * sample_rate)
    t = np.arange(n) / sample_rate
    k = np.arange(n, dtype=np.uint64)
    k = (k ^ (k >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    k = (k ^ (k >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    k ^= k >> np.uint64(31)
    noise = (k >> np.uint64(11)).astype(np.float64) / 2.0**53 - 0.5
    sweep = np.pi * (sample_rate / 2.0) / SEGMENT_SECONDS * t**2
    x = 0.3 * np.sin(2.0 * np.pi * 440.0 * t) + 0.2 * np.sin(sweep) + 0.1 * noise
    x[: sample_rate // 2] = 0.0
    return AudioBuffer(x, sample_rate)


def grid_digests(tmp_dir) -> dict[str, str]:
    clips = {}
    digests = {}
    for config in enumerate_grid():
        if config.sample_rate not in clips:
            clips[config.sample_rate] = grid_clip(config.sample_rate)
        path = tmp_dir / f"{config.config_id}.mspec"
        write_mspec(path, mel_spectrogram(clips[config.sample_rate], config))
        digests[config.config_id] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


DIGESTS = {
    "12000Hz-128mel-x1-log": "d5e67e5315b70054b7388eb0611dc388b5253d3929adfe216120c4bc7aa8b824",
    "12000Hz-128mel-x2-log": "1d4f1eb1a99fdf7bdeaf852ed6eb7c8b25bd3b5ae29f1e87db863f97113a14e3",
    "12000Hz-128mel-x3-log": "53d2eb2cce96e26f2132300f90eb1770b4c71730e56b164a49949fb2d56ea195",
    "12000Hz-128mel-x4-log": "7f6a3d18da0db9bf39445af380632e92c96a1c169a14e91b72890bad6aa45c02",
    "12000Hz-128mel-x5-log": "59c7f7a1dd747f235fee676008de68000281d3a42d3378c30c252f1268405994",
    "12000Hz-128mel-x10-log": "551f9d672d2b85a5243d6f2a59fc917d892461a1fcf73fde23e21508749b96ed",
    "12000Hz-96mel-x1-log": "899c5691987f57cd94277005cccff10e240036d53f552d294090cda8d24adc6c",
    "12000Hz-96mel-x2-log": "b66ede93e9edc7f4e72ec89fefa293e4d6443add28369196054332a279ce5d5f",
    "12000Hz-96mel-x3-log": "83d22a848a34a74084803a3df910e79f155398d5a7cf1c9abfc0726969486bd6",
    "12000Hz-96mel-x4-log": "cb9a3530be2fc0c4e2d2d9b84f722f733994d4337ad6bcb3d958a2013441221a",
    "12000Hz-96mel-x5-log": "cc1440e5e64f91cde1661a496994a388a03944e1d95a0915e5c7b389f94784d2",
    "12000Hz-96mel-x10-log": "ca822ad17ece6019c975af7f8db12c857c0a9ce5eaf4f44341355d5de01bef50",
    "12000Hz-48mel-x1-log": "c37aa1ede443812ee4e18120286791702616baa1560c042576b28a876bcadf3f",
    "12000Hz-48mel-x2-log": "83624a0139dab65279c03e594714c5f19a667734ef503743a2c0a80cc7da40d1",
    "12000Hz-48mel-x3-log": "91f19afd354201d4d60f226b7df14ddc2f148bf678f57489b2bbdd10d6320c18",
    "12000Hz-48mel-x4-log": "849c138ebaa1ed58081b35d688bf4e720cae38a737562f210d82254605db0f05",
    "12000Hz-48mel-x5-log": "e96a6dfac4d0aa41313d74174484123e2a128e65ae2dbecf80a367289f31a9b5",
    "12000Hz-48mel-x10-log": "8b9af0550e70597eb7f5934387ad9a445fe7ffc436d053b0ff7e6879da02dc99",
    "12000Hz-32mel-x1-log": "cdd2fb68925390fc0894233eb16165dfa244d50b7d88425792e468d90a862dac",
    "12000Hz-24mel-x1-log": "6ff0c2f7c7f4faa461869f7283f816b8e425652c2a60a576a068b7b5d91da1e0",
    "12000Hz-16mel-x1-log": "614dcba8850dc45ab740b51ec99068e9fda9a7cd0b27eb233899422b739163ba",
    "12000Hz-8mel-x1-log": "f7046eba613b451ab564d6b1da116fb6841ebbe0341bcfc82913fbd8512af82c",
    "12000Hz-128mel-x1-dB": "20b81103c321e4314c1357e84edfc188c022435d785cf66b0925c53ec21878da",
    "12000Hz-128mel-x2-dB": "61ca09b79c7458eac0350c6aa83845d26fb7b69093b50236d9116721c51b5097",
    "12000Hz-128mel-x3-dB": "25dc6e578c6b4f2b6a60caf880915ace100c8743e97a13f629808504a809fad0",
    "12000Hz-128mel-x4-dB": "7954eee5fc93866f0fccb910f9eeefa68c75f9fca09bc87a65701289f4bce4bf",
    "12000Hz-128mel-x5-dB": "65450e7932bcbc9a77cd9cbf1ac0756ce1648b18a7b079fe3d09bceb1dc30c5b",
    "12000Hz-128mel-x10-dB": "b8c1ec164b81c8163ab0e9f0e99fe02dbe6a3141f264ad0aa91007faa26eebd9",
    "12000Hz-96mel-x1-dB": "1872bc08ff2bb408431c0f030d9b3c47c05c73c1a8e02eb792106ac95af4fc78",
    "12000Hz-96mel-x2-dB": "9b5b85944bd2c134c7cbd8687a6ab8245c72ca932eb6c8ba80230bd4a37adb92",
    "12000Hz-96mel-x3-dB": "d9d48b5f5a5d3094b8d8766fae36488a2576af3d2b609ced20798d7b04416ade",
    "12000Hz-96mel-x4-dB": "51e1e6c3d353b9d621ab21a76bc00e1a619c286d0ec04a8a6ee53ea5aabf9b0f",
    "12000Hz-96mel-x5-dB": "a54210d15ecce584e70396e330c9a75067c947a96f2e394c1b8d0f8a787b70ee",
    "12000Hz-96mel-x10-dB": "d68721d589e06927b2f08416910175cf95e699f9c87729d4d1f248a3dd0404ec",
    "12000Hz-48mel-x1-dB": "19cf4e97d913117aa2812b56e86b05b3f42d26e9a9fc69ef94910aab6ff5c24c",
    "12000Hz-48mel-x2-dB": "d5c31881aa4294819833ecb65ce9168770781495570596e68c0556a0fee8197f",
    "12000Hz-48mel-x3-dB": "604b675d6bd0f13f7080b23602d01799c637a3690b1dba83f226ea0cfd6580de",
    "12000Hz-48mel-x4-dB": "fb6a7c55237af27ecc7761eaf45c5c324d6b2073e0cadf0886c028025cd3a0ac",
    "12000Hz-48mel-x5-dB": "cc7ba742cf56258e3c173bf2bfa4b696c0659c9011fe08b6e9a135515fb63489",
    "12000Hz-48mel-x10-dB": "009611ccfd87369cd8abe7bcc68a10d26218d793d607e8b3cd8ff9507076d6c9",
    "12000Hz-32mel-x1-dB": "041b1616357797cce580d6163718f0c682c37cc5df00ec047176762beb6f869f",
    "12000Hz-24mel-x1-dB": "74f5009aaeaceb7bb4ac114c032bf10b1842f744b45a46a1fd997f1b819a57b4",
    "12000Hz-16mel-x1-dB": "16758f747a2b5fcaa1f80270105a99c108a7790f862d325081acb75f0f88dc04",
    "12000Hz-8mel-x1-dB": "814cb7154eb72cc94510e8920aadc32101f32e6fc24b76a9082f1f8dfb2d7f8f",
    "16000Hz-128mel-x1-log": "faae08e37672be86f39759be0e1a58101181586461f30e6c97ad5f6e514fcaa0",
    "16000Hz-128mel-x2-log": "df664e601b02188b30c1159ccd06c2c4738a2d53bc0197fb40b4b3e2bd74645c",
    "16000Hz-128mel-x3-log": "76aeb4897458ec25d7710dd599dc680bde7117ab3f9639484509645f708004b0",
    "16000Hz-128mel-x4-log": "60ef112c91ee91f3b308440dce8630379d7c3c1871d796308e7b5bac1a3ee90c",
    "16000Hz-128mel-x5-log": "2b69dceee57e04c76569477603f01e734619602064057665d7d92c3b3e838ae9",
    "16000Hz-128mel-x10-log": "54fd4f743e4222cb14c999cd0eb70900a009cc82cd8760e5100150e3dbf68042",
    "16000Hz-96mel-x1-log": "db47833bd5ed2b5e6eabcc987b84e2c0259b4eb167436f767ae844776388f7a2",
    "16000Hz-96mel-x2-log": "1f99f13f17b7e200f03e90f0b5b2debaa2c864cf39c973109ebf7fa78fbf45f1",
    "16000Hz-96mel-x3-log": "c61ae4d7b68a3d61d6e0a8cfe858869df2bd11daa0c64a61874de570324a4230",
    "16000Hz-96mel-x4-log": "670775ecaea31a9c8ae382e748c98bdece9a5940b6563556b6271dd8d9007a12",
    "16000Hz-96mel-x5-log": "43b7a68ff31e51878932e90483618934799cfb85c3cd997e4007f71abf3d5afa",
    "16000Hz-96mel-x10-log": "9b79fc06fa72b79fcf4c80fbe8d76e41d669b81fb3ff313c35cbe6e3362b60a6",
    "16000Hz-48mel-x1-log": "4eed2e276918b8d188aff2c03de29fc0d7817c6099a91676e757d8f4720cfa82",
    "16000Hz-48mel-x2-log": "b01dbb095142fe2569178b1ae596cc486609326b51d2c1dea58ee5fb524cc47a",
    "16000Hz-48mel-x3-log": "01eceb502ef18a4d3e76eba2a817640daafe98f58862673f8ad4d6e4ddb414ac",
    "16000Hz-48mel-x4-log": "33d25a31ef1387a1a7ddf79a2fdb19c62d11e78d148aa9c1c6c6d6d061418e7f",
    "16000Hz-48mel-x5-log": "27c07c2f650df2157bc225eade3a8a3ce90786215a161aae96940fd5a4b9c8c2",
    "16000Hz-48mel-x10-log": "4e2008c2a4346e439f27b753b52d5962911411f454c3447baccfa8b03173e76a",
    "16000Hz-32mel-x1-log": "4477beff50bd917f902182d49ba59441a58d1e5273bc61ea927a5ba8f6dd12db",
    "16000Hz-24mel-x1-log": "1730bcacb04eae4e53456d2d3c6354cf78e75492d11cc85ceca6646470d0b615",
    "16000Hz-16mel-x1-log": "7418f81e3615862890407a1c0d593054d2ee67f25150add644957cb7170c1769",
    "16000Hz-8mel-x1-log": "cac405aa447942ab72fce6a3552527959ae8aef50cc676c5b566ac808ede75ea",
    "16000Hz-128mel-x1-dB": "911d64f7a6ff3b43fea9559cffe7818542437c6770bd805ac73acba9621550a8",
    "16000Hz-128mel-x2-dB": "65adb186724d7a8abf8f8d676cc9ad4644347feda38f2c328e700a4c1c3d3a83",
    "16000Hz-128mel-x3-dB": "212d39d28bc479ee41e612b6c3fb6fe7c3152a0bd9fdb2aefeab90f125ea4808",
    "16000Hz-128mel-x4-dB": "a39baffac3eddfe5f7d8b93fde5743f50e6344a43b4ce0ef2facb65c55487f3b",
    "16000Hz-128mel-x5-dB": "1529f438efbe88f717ac7a93281bdd4c33c6985e43aa4ef3f47283e549fbc439",
    "16000Hz-128mel-x10-dB": "18bec8a87ccca847927cff7f0e24c6a0a3a0dac21ef91fcdcc44dabf4a76a4fc",
    "16000Hz-96mel-x1-dB": "dd6dffe98f9407273bee1e744a3bd89dfa046c36d5465bd2a421985f5f33d629",
    "16000Hz-96mel-x2-dB": "16c649049c87c777d69af630598bf4680979c9a728e1d7ad553e16d80a124ca4",
    "16000Hz-96mel-x3-dB": "6d70b2c184ef571a16473529d9b18eec1d917e0d4fcc46bd03d901b815494af7",
    "16000Hz-96mel-x4-dB": "00676ba33e18289543a3105a75174072698d5376b7458676e398c228f7915e01",
    "16000Hz-96mel-x5-dB": "62a2d55ec0d509281f16bc0cd975ca4ae855a9b220ed163b0b2ecffd4e87d15a",
    "16000Hz-96mel-x10-dB": "dfb0f1da973ba4c891ee40c07dcc63663b282e235249e8480e2e38aecfb07ade",
    "16000Hz-48mel-x1-dB": "27ffba56c445a31c8d688967a66fd08f4608b1d78d2882764b155f49ccc3e48e",
    "16000Hz-48mel-x2-dB": "7a51a630aa9ac725f83362459eee0ab0488c6b7a568d2e1ad7f338eb0e5eaa12",
    "16000Hz-48mel-x3-dB": "1d6c041fac24fd8a5118ec0d67fd552e32cfc07d7e6bb841decb3e2adef8ba6d",
    "16000Hz-48mel-x4-dB": "350a0ec61e00d6ef3d46b97b1176d7a17f88e7222eb49a24e688ee2e4b0b7630",
    "16000Hz-48mel-x5-dB": "7cd70b05fcfaf9bb0cda85c3b043634bc79f095e842fc53ed795156d7281b9d5",
    "16000Hz-48mel-x10-dB": "2f03b8491e61cad2933ffc97b78ac1e560c54701514b33d287793306391a2e44",
    "16000Hz-32mel-x1-dB": "0dba83c6d108bfd3c4fe490bd89f45b1574880449ea1b79f27eb3c544b55619e",
    "16000Hz-24mel-x1-dB": "8733013652e043620613d223043dd30697c6c889e2c2521c0a3114074c779591",
    "16000Hz-16mel-x1-dB": "bb6ac1b6520e34873dc42605cb413ea0bb319ba2a6257a574684e1ed46e5f128",
    "16000Hz-8mel-x1-dB": "0cc0c961c1f3670de928182db76731574268c4898721a2aa33825a95efa0814f",
}


def test_every_grid_cell_keeps_its_bytes(tmp_path):
    assert grid_digests(tmp_path) == DIGESTS


def test_every_grid_cell_gives_its_fresh_buffer_bytes_in_grid_order():
    # In grid order most cells are sliced from a product held at a finer hop,
    # whose float64 values can differ in the last bits from the product at
    # the cell's own hop; a fresh buffer holds nothing. The float32 payload
    # must not tell the two apart.
    clips = {rate: grid_clip(rate) for rate in (12000, 16000)}

    def payload_digest(audio, config):
        values = mel_spectrogram(audio, config).values
        return hashlib.sha256(np.ascontiguousarray(values, dtype="<f4")).hexdigest()

    grid = enumerate_grid()
    in_order = [payload_digest(clips[config.sample_rate], config) for config in grid]
    fresh = [
        payload_digest(AudioBuffer(clips[config.sample_rate].samples, config.sample_rate), config)
        for config in grid
    ]
    mismatched = [config.config_id for config, a, b in zip(grid, in_order, fresh) if a != b]
    assert len(grid) == 88
    assert mismatched == []


def test_grid_order_leaves_every_float64_value_as_the_compression_outer_order():
    # Grid order shares each mel product between a cell's two compressions,
    # a compression-outer order computes it once per compression; the order
    # must not move a single float64 bit of any cell.
    grid = enumerate_grid()
    compression_outer = sorted(
        grid, key=lambda config: (config.sample_rate, COMPRESSIONS.index(config.compression))
    )
    assert compression_outer != grid

    def float64_digests(order):
        clips = {rate: grid_clip(rate) for rate in (12000, 16000)}
        return {
            config: hashlib.sha256(
                mel_spectrogram(clips[config.sample_rate], config).values.tobytes()
            ).hexdigest()
            for config in order
        }

    assert float64_digests(grid) == float64_digests(compression_outer)


def test_every_grid_cell_agrees_with_the_independent_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    reference = importlib.import_module("reference")
    clips = {rate: grid_clip(rate) for rate in (12000, 16000)}
    refs = {rate: reference.ClipReference(clip.samples, rate) for rate, clip in clips.items()}
    problems = {}
    for config in enumerate_grid():
        ref = refs[config.sample_rate]
        hop = reference.BASE_HOP * config.hop_multiplier
        path = tmp_path / f"{config.config_id}.mspec"
        write_mspec(path, mel_spectrogram(clips[config.sample_rate], config))
        found = reference.check_mspec(
            path.read_bytes(), config.sample_rate, ref.samples.size, config.n_mels,
            config.hop_multiplier, config.compression,
            ref.mel_power(config.n_mels, hop), ref.bank(config.n_mels), tones=[],
        )
        if found:
            problems[config.config_id] = found
    assert len(enumerate_grid()) == 88
    assert problems == {}

    resampled = resample_rational(clips[16000], 12000).samples
    expected = reference.resample(clips[16000].samples, 16000, 12000)
    assert resampled.shape == expected.shape
    excess = np.abs(resampled - expected) - (reference.ATOL + reference.RTOL * np.abs(expected))
    assert excess.max() <= 0


def float32_clip(sample_rate: int) -> np.ndarray:
    """grid_clip as the raw float32 stream `extract` reads."""
    return grid_clip(sample_rate).samples.astype("<f4")


def extract_digests(tmp_dir) -> dict[str, str]:
    configs = {config.config_id: config for config in enumerate_grid()}
    digests = {}
    for config_id in EXTRACT_DIGESTS:
        config = configs[config_id]
        audio = AudioBuffer(float32_clip(config.sample_rate).astype(np.float64),
                            config.sample_rate)
        path = tmp_dir / f"{config_id}.mspec"
        write_mspec(path, mel_spectrogram(audio, config))
        digests[config_id] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# From extract_digests, one process with numpy's default BLAS threads.
EXTRACT_DIGESTS = {
    "12000Hz-96mel-x1-dB": "f66085a11b456ccdaabf6db150adf4dd1ce5ae4535d02fbecf1679a56f3e6044",
    "12000Hz-48mel-x4-log": "f17e18a81c7a93263bb954381489b27bdbf264f8f89bd7d6c1f21d0650b47da6",
    "12000Hz-8mel-x1-dB": "998738a86b03ed7f762ff3fa4212b96f8620944ffb92a7cac927e293d32f8c8e",
    "16000Hz-128mel-x1-log": "d8e097e46ced129f09ab014cec471486820c50bcb50f6400f66740890825c1e8",
    "16000Hz-96mel-x10-dB": "2b4d4bbf674f5b9294fc993b10bd9d946db6f5be85145a7a5f880e31d0f402eb",
    "16000Hz-24mel-x1-log": "8a519e2111ffd20985b39fcc29e4cabb2c0245d4aa3906446cf3d62ac1540daf",
}


def test_extract_process_keeps_the_bytes(tmp_path):
    # With no BLAS thread variable set, extract pins one BLAS thread before
    # numpy loads, and two inputs run on two workers; no byte may change.
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    configs = {config.config_id: config for config in enumerate_grid()}
    for rate in (12000, 16000):
        clip = float32_clip(rate)
        for stem in ("a", "b"):
            clip.tofile(tmp_path / f"{rate}-{stem}.f32")
    for config_id, digest in EXTRACT_DIGESTS.items():
        config = configs[config_id]
        out_dir = tmp_path / config_id
        subprocess.run(
            [sys.executable, "-m", "melgauge", "extract",
             "--sample-rate", str(config.sample_rate), "--mels", str(config.n_mels),
             "--hop-mult", str(config.hop_multiplier), "--compression", config.compression,
             "--out-dir", str(out_dir),
             *(str(tmp_path / f"{config.sample_rate}-{stem}.f32") for stem in ("a", "b"))],
            env=env, check=True, capture_output=True, timeout=120,
        )
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out_dir.iterdir()}
        stems = (f"{config.sample_rate}-a.mspec", f"{config.sample_rate}-b.mspec")
        assert written == dict.fromkeys(stems, digest), config_id


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for table in (grid_digests, extract_digests):
            for config_id, digest in table(Path(tmp)).items():
                print(f'    "{config_id}": "{digest}",')
            print()
