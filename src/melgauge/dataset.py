"""Annotation manifests, the 16-folder split rule, and storage accounting.

Annotation files are tab-separated with a header: clip id first, audio
path last, one binary tag column per name in between. The folder of an
item is the first component of its audio path. The canonical split
sorts the 16 convention folders lexicographically and sends the first
12 to train, the 13th ("d") to valid, and the last 3 to test.

Storage accounting mirrors the binary feature container: payload bytes
scale linearly in rows and columns, plus a 40-byte header per file.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .exceptions import ManifestParseError, UnsupportedLayoutError
from .mel import MSPEC_HEADER_SIZE, MelConfig

__all__ = [
    "MTAT_FOLDERS",
    "SPLIT_SCHEMES",
    "ManifestItem",
    "DatasetManifest",
    "SplitAssignment",
    "parse_annotations",
    "canonical_split",
    "top_k_tags",
    "storage_size",
]

MTAT_FOLDERS = tuple("0123456789abcdef")
SPLIT_SCHEMES = ("mtat-12-1-3",)
_TRAIN_FOLDERS = frozenset(MTAT_FOLDERS[:12])
_VALID_FOLDERS = frozenset(MTAT_FOLDERS[12:13])
_TEST_FOLDERS = frozenset(MTAT_FOLDERS[13:])
_FLAG_VALUES = frozenset({0, 1})
_FLAG_CELLS = frozenset({"0", "1"})


def _repeated(names: tuple[str, ...]) -> str | None:
    """The first name that already occurred earlier in names, if any."""
    return next((name for i, name in enumerate(names) if name in names[:i]), None)


@dataclass(frozen=True)
class ManifestItem:
    """One annotated clip: identity, location, and its binary tag vector."""

    clip_id: str
    audio_path: str
    folder: str
    tag_flags: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag_flags", tuple(map(int, self.tag_flags)))
        if not _FLAG_VALUES.issuperset(self.tag_flags):
            raise ValueError(f"{self.clip_id}: tag flags must be 0/1")


@dataclass(frozen=True)
class DatasetManifest:
    """Immutable collection of annotated items with a shared list of distinct tags."""

    items: tuple[ManifestItem, ...]
    tag_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "tag_names", tuple(str(n) for n in self.tag_names))
        repeated = _repeated(self.tag_names)
        if repeated is not None:
            raise ValueError(f"duplicate tag name {repeated!r}")
        seen: set[str] = set()
        for item in self.items:
            if item.clip_id in seen:
                raise ValueError(f"duplicate clip_id {item.clip_id!r}")
            seen.add(item.clip_id)
            if len(item.tag_flags) != len(self.tag_names):
                raise ValueError(
                    f"{item.clip_id}: {len(item.tag_flags)} flags for "
                    f"{len(self.tag_names)} tags"
                )

    def __len__(self) -> int:
        return len(self.items)

    def tag_counts(self) -> dict[str, int]:
        """Positive count per tag over the whole manifest."""
        if not self.items:
            return dict.fromkeys(self.tag_names, 0)
        columns = zip(*(item.tag_flags for item in self.items))
        return dict(zip(self.tag_names, map(sum, columns)))


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/valid/test clip id sets."""

    train: frozenset[str]
    valid: frozenset[str]
    test: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "train", frozenset(self.train))
        object.__setattr__(self, "valid", frozenset(self.valid))
        object.__setattr__(self, "test", frozenset(self.test))
        if (
            self.train & self.valid
            or self.train & self.test
            or self.valid & self.test
        ):
            raise ValueError("split sets must be pairwise disjoint")

    @property
    def sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.valid), len(self.test)


def parse_annotations(path) -> DatasetManifest:
    """Parse a tab-separated annotation file into a manifest.

    Header: clip id column first, audio path column last, distinct tag
    names in between. Tag cells must be "0" or "1"; errors carry the 1-based line
    number. The item folder is the first component of the audio path.
    Lines are read one at a time, so the file is never held whole.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = ((i, line.rstrip("\n")) for i, line in enumerate(fh, start=1) if line.strip())
        first = next(rows, None)
        if first is None:
            raise ManifestParseError(f"{path}: empty annotation file")
        header = first[1].split("\t")
        if len(header) < 3:
            raise ManifestParseError(
                f"{path}: header needs clip id, at least one tag, and a path; "
                f"got {len(header)} columns"
            )
        tag_names = tuple(header[1:-1])
        repeated = _repeated(tag_names)
        if repeated is not None:
            raise ManifestParseError(f"{path}: line {first[0]}: duplicate tag {repeated!r}")
        items = []
        seen: set[str] = set()
        for lineno, line in rows:
            cells = line.split("\t")
            if len(cells) != len(header):
                raise ManifestParseError(
                    f"{path}: line {lineno}: {len(cells)} cells, header has "
                    f"{len(header)}"
                )
            clip_id = cells[0]
            if clip_id in seen:
                raise ManifestParseError(
                    f"{path}: line {lineno}: duplicate clip_id {clip_id!r}"
                )
            seen.add(clip_id)
            flags = cells[1:-1]
            if not _FLAG_CELLS.issuperset(flags):
                name, cell = next(
                    (name, cell) for name, cell in zip(tag_names, flags) if cell not in _FLAG_CELLS
                )
                raise ManifestParseError(
                    f"{path}: line {lineno}: tag {name!r} has non-binary value "
                    f"{cell!r}"
                )
            audio_path = cells[-1]
            folder = audio_path.split("/")[0]
            items.append(ManifestItem(clip_id, audio_path, folder, flags))
    return DatasetManifest(items=tuple(items), tag_names=tag_names)


def canonical_split(manifest: DatasetManifest, scheme: str = "mtat-12-1-3") -> SplitAssignment:
    """Assign items to train/valid/test by the 16-folder convention.

    The convention names folders "0".."9","a".."f"; in lexicographic
    order the first 12 are train, the 13th ("d") valid, the last 3 test.
    The rule is purely folder-based, so a convention folder with no items
    just contributes nothing. A folder outside the convention means the
    layout is not the expected one and raises UnsupportedLayoutError.
    """
    if scheme not in SPLIT_SCHEMES:
        raise ValueError(f"unknown split scheme {scheme!r}, supported: {SPLIT_SCHEMES}")
    train: set[str] = set()
    valid: set[str] = set()
    test: set[str] = set()
    for item in manifest.items:
        if item.folder in _TRAIN_FOLDERS:
            train.add(item.clip_id)
        elif item.folder in _VALID_FOLDERS:
            valid.add(item.clip_id)
        elif item.folder in _TEST_FOLDERS:
            test.add(item.clip_id)
        else:
            raise UnsupportedLayoutError(
                f"folder {item.folder!r} (clip {item.clip_id!r}) is not one of "
                f"the 16 convention folders 0-9, a-f"
            )
    return SplitAssignment(frozenset(train), frozenset(valid), frozenset(test))


def _tuple_getter(indices: list[int]):
    """Function returning row[j] for each j in indices, always as a tuple."""
    if len(indices) == 1:
        (j,) = indices
        return lambda row: (row[j],)
    return operator.itemgetter(*indices)


def top_k_tags(manifest: DatasetManifest, k: int) -> DatasetManifest:
    """Reduce the manifest to its k most frequent tags.

    Frequency is the positive count over the whole manifest; ties break
    lexicographically by tag name. Output columns are in ranking order
    (most frequent first), so the operation is idempotent for fixed k.
    Items stay even when all their remaining flags are zero.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(manifest.tag_names):
        raise ValueError(f"k={k} exceeds tag count {len(manifest.tag_names)}")
    counts = manifest.tag_counts()
    ranked = sorted(
        range(len(manifest.tag_names)),
        key=lambda j: (-counts[manifest.tag_names[j]], manifest.tag_names[j]),
    )[:k]
    pick = _tuple_getter(ranked)
    new_names = pick(manifest.tag_names)
    new_items = tuple(
        ManifestItem(item.clip_id, item.audio_path, item.folder, pick(item.tag_flags))
        for item in manifest.items
    )
    return DatasetManifest(items=new_items, tag_names=new_names)


def storage_size(config: MelConfig, n_frames: int, bytes_per_value: int = 4) -> int:
    """Stored size in bytes of one feature file: payload plus header."""
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    if bytes_per_value < 1:
        raise ValueError(f"bytes_per_value must be >= 1, got {bytes_per_value}")
    return config.n_mels * n_frames * bytes_per_value + MSPEC_HEADER_SIZE
