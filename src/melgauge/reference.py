"""Published tagging scores carried as read-only reference data.

These ROC/PR AUC values (percent scale) come from a published evaluation
of full tagging models trained on MagnaTagATune and a Million Song
Dataset subset. Reproducing them needs GPU training on the audio
corpora, which is far outside this library's scope, so they ship purely
as annotation data for cost/quality trade-off reports and every consumer
must carry the SOURCE_LABEL string next to them.

Keys: dataset ("mtat" | "msd"), model family ("vgg" | "musicnn"), then
the front-end configuration triple. All published rows used dB
compression; MUSICNN rows exist only at hop multiplier 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import MelConfig

__all__ = [
    "SOURCE_LABEL",
    "DATASETS",
    "PublishedResult",
    "PUBLISHED_AUC",
    "published_auc",
    "published_for_config",
    "model_family",
]

SOURCE_LABEL = "paper-reported, not reproduced"

DATASETS = ("mtat", "msd")

# cost-model architecture name -> published model family
_FAMILY_OF_ARCH = {
    "vgg-cnn": "vgg",
    "musicnn-frontend": "musicnn",
    "vgg": "vgg",
    "musicnn": "musicnn",
}


@dataclass(frozen=True)
class PublishedResult:
    """One published evaluation row; AUC values on the percent scale."""

    dataset: str
    family: str
    sample_rate: int
    n_mels: int
    hop_multiplier: int
    compression: str
    roc_auc: float
    pr_auc: float

    @property
    def source(self) -> str:
        return SOURCE_LABEL


def _rows() -> tuple[PublishedResult, ...]:
    entries = [
        # dataset, family, sample_rate, n_mels, hop, roc, pr
        ("mtat", "musicnn", 12000, 128, 1, 90.40, 38.54),
        ("mtat", "musicnn", 12000, 96, 1, 90.50, 37.70),
        ("mtat", "musicnn", 12000, 48, 1, 90.33, 37.80),
        ("mtat", "musicnn", 16000, 128, 1, 90.83, 38.92),
        ("mtat", "musicnn", 16000, 96, 1, 90.60, 38.09),
        ("mtat", "musicnn", 16000, 48, 1, 90.50, 37.70),
        ("msd", "vgg", 12000, 128, 1, 86.48, 27.56),
        ("msd", "vgg", 12000, 96, 1, 86.67, 27.70),
        ("msd", "vgg", 12000, 48, 1, 86.53, 27.27),
        ("msd", "vgg", 12000, 128, 2, 86.28, 27.24),
        ("msd", "vgg", 12000, 96, 2, 86.18, 26.93),
        ("msd", "vgg", 12000, 48, 2, 85.86, 26.42),
        ("msd", "vgg", 16000, 128, 1, 86.84, 28.10),
        ("msd", "vgg", 16000, 96, 1, 86.71, 28.06),
        ("msd", "vgg", 16000, 48, 1, 86.73, 27.78),
        ("msd", "vgg", 16000, 128, 2, 86.34, 27.06),
        ("msd", "vgg", 16000, 96, 2, 86.63, 27.70),
        ("msd", "vgg", 16000, 48, 2, 86.41, 26.83),
        ("msd", "musicnn", 12000, 128, 1, 87.10, 26.97),
        ("msd", "musicnn", 12000, 96, 1, 87.16, 27.10),
        ("msd", "musicnn", 12000, 48, 1, 86.99, 26.66),
        ("msd", "musicnn", 16000, 128, 1, 87.21, 26.91),
        ("msd", "musicnn", 16000, 96, 1, 87.21, 26.96),
        ("msd", "musicnn", 16000, 48, 1, 87.10, 26.64),
    ]
    return tuple(
        PublishedResult(dataset, family, sr, mels, hop, "dB", roc, pr)
        for dataset, family, sr, mels, hop, roc, pr in entries
    )


PUBLISHED_AUC: tuple[PublishedResult, ...] = _rows()

_BY_KEY = {
    (r.dataset, r.family, r.sample_rate, r.n_mels, r.hop_multiplier, r.compression): r
    for r in PUBLISHED_AUC
}


def model_family(arch_name: str) -> str:
    """Map a cost-model architecture name to its published model family."""
    try:
        return _FAMILY_OF_ARCH[arch_name]
    except KeyError:
        raise ValueError(
            f"no published family for architecture {arch_name!r}"
        ) from None


def published_auc(
    dataset: str,
    arch_name: str,
    sample_rate: int,
    n_mels: int,
    hop_multiplier: int = 1,
    compression: str = "dB",
) -> PublishedResult | None:
    """Exact-key lookup; None when nothing was published for the key."""
    if dataset not in DATASETS:
        raise ValueError(f"dataset must be one of {DATASETS}, got {dataset!r}")
    family = model_family(arch_name)
    return _BY_KEY.get(
        (dataset, family, sample_rate, n_mels, hop_multiplier, compression)
    )


def published_for_config(config: MelConfig, arch_name: str) -> tuple[PublishedResult, ...]:
    """All published rows matching a config for one architecture.

    Returns at most one row per dataset, mtat first; empty when the
    configuration was never evaluated.
    """
    key = (config.sample_rate, config.n_mels, config.hop_multiplier, config.compression)
    rows = (published_auc(dataset, arch_name, *key) for dataset in DATASETS)
    return tuple(row for row in rows if row is not None)
