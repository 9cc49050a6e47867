"""Annotation manifests and the 16-folder split rule.

Annotation files are tab-separated with a header: clip id first, audio
path last, one binary tag column per name in between. The folder of an
item is the first component of its audio path. The canonical split
sorts the 16 convention folders lexicographically and sends the first
12 to train, the 13th ("c") to valid, and the last 3 to test.

A manifest is stored as columns, not as one object per clip: tuples of
clip ids, audio paths and folders, and one read-only uint8 matrix of
tag flags with a row per clip and a column per tag. Per-clip records
(ManifestItem) are built only when DatasetManifest.items is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import first_repeat, positive_int
from .exceptions import ManifestParseError, UnsupportedLayoutError

__all__ = [
    "MTAT_FOLDERS",
    "ManifestItem",
    "DatasetManifest",
    "SplitAssignment",
    "parse_annotations",
    "canonical_split",
    "top_k_tags",
]

MTAT_FOLDERS = tuple("0123456789abcdef")
# Split part of each convention folder: 0 train, 1 valid, 2 test.
_FOLDER_PART = {folder: (0 if i < 12 else 1 if i == 12 else 2)
                for i, folder in enumerate(MTAT_FOLDERS)}
_FLAG_CELLS = frozenset({"0", "1"})
_BLOCK_ROWS = 2048


@dataclass(frozen=True, slots=True)
class ManifestItem:
    """One annotated clip: identity, location, and its binary tag vector."""

    clip_id: str
    audio_path: str
    folder: str
    tag_flags: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    """Immutable annotated clips as columns, with a shared list of distinct tags.

    clip_ids and audio_paths hold one entry per clip; flags is a
    read-only C-contiguous uint8 matrix of shape (clips, tags) holding
    0/1, copied from whatever array-like is passed. folders is derived
    from the paths: the first path component. items is a view, not a
    field: it builds one ManifestItem per clip on each access.
    """

    clip_ids: tuple[str, ...]
    audio_paths: tuple[str, ...]
    tag_names: tuple[str, ...]
    flags: np.ndarray
    folders: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        clip_ids = tuple(self.clip_ids)
        audio_paths = tuple(self.audio_paths)
        tag_names = tuple(str(n) for n in self.tag_names)
        repeated = first_repeat(tag_names)
        if repeated is not None:
            raise ValueError(f"duplicate tag name {repeated!r}")
        if len(set(clip_ids)) != len(clip_ids):
            raise ValueError(f"duplicate clip_id {first_repeat(clip_ids)!r}")
        if len(audio_paths) != len(clip_ids):
            raise ValueError(f"{len(audio_paths)} audio paths for {len(clip_ids)} clips")
        flags = np.asarray(self.flags)
        if flags.shape != (len(clip_ids), len(tag_names)):
            raise ValueError(
                f"flags of shape {flags.shape} for {len(clip_ids)} clips and "
                f"{len(tag_names)} tags"
            )
        if np.count_nonzero(flags == 0) + np.count_nonzero(flags == 1) != flags.size:
            raise ValueError("tag flags must be 0/1")
        flags = np.array(flags, dtype=np.uint8, order="C")
        flags.setflags(write=False)
        object.__setattr__(self, "clip_ids", clip_ids)
        object.__setattr__(self, "audio_paths", audio_paths)
        object.__setattr__(self, "tag_names", tag_names)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(
            self, "folders", tuple(path.partition("/")[0] for path in audio_paths)
        )

    def __len__(self) -> int:
        return len(self.clip_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DatasetManifest):
            return NotImplemented
        return (
            (self.clip_ids, self.audio_paths, self.tag_names)
            == (other.clip_ids, other.audio_paths, other.tag_names)
            and np.array_equal(self.flags, other.flags)
        )

    @property
    def items(self) -> tuple[ManifestItem, ...]:
        """One record per clip, built from the columns on each access."""
        rows = map(tuple, map(np.ndarray.tolist, self.flags))
        return tuple(map(ManifestItem, self.clip_ids, self.audio_paths, self.folders, rows))

    def tag_counts(self) -> dict[str, int]:
        """Positive count per tag over the whole manifest."""
        return dict(zip(self.tag_names, self.flags.sum(axis=0).tolist()))


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


def _raise_first_row_error(path, lines, n_cells: int, tag_names: tuple[str, ...]) -> None:
    """Walk numbered data lines in file order and raise for the first bad one."""
    seen: set[str] = set()
    for lineno, line in lines:
        cells = line.split("\t")
        if len(cells) != n_cells:
            raise ManifestParseError(
                f"{path}: line {lineno}: {len(cells)} cells, header has {n_cells}"
            )
        if cells[0] in seen:
            raise ManifestParseError(f"{path}: line {lineno}: duplicate clip_id {cells[0]!r}")
        seen.add(cells[0])
        for name, cell in zip(tag_names, cells[1:-1]):
            if cell not in _FLAG_CELLS:
                raise ManifestParseError(
                    f"{path}: line {lineno}: tag {name!r} has non-binary value {cell!r}"
                )


def _fill_flags(out: np.ndarray, bodies: list[str]) -> bool:
    """Write the 0/1 cells of the row bodies into out; False if a body is malformed.

    A body is what lies between a row's first and last tab. In a good row
    it is the flag cells "0"/"1" joined by single tabs: 2 * n_tags - 1
    ASCII characters, with the cells at even offsets and tabs at odd ones.
    """
    width = 2 * out.shape[1] - 1
    if not set(map(len, bodies)) <= {width}:
        return False
    joined = "".join(bodies)
    if not joined.isascii():
        return False
    cells = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(len(bodies), width)
    np.subtract(cells[:, 0::2], ord("0"), out=out)
    return bool((cells[:, 1::2] == ord("\t")).all() and (out <= 1).all())


def parse_annotations(path) -> DatasetManifest:
    """Parse a tab-separated annotation file into a manifest.

    Header: clip id column first, audio path column last, distinct tag
    names in between. Tag cells must be "0" or "1"; errors carry the 1-based line
    number, and blank or whitespace-only lines are skipped but counted.
    The file is read once, whole; bytes that are not UTF-8 raise
    ManifestParseError. The flag cells are checked and converted
    as byte matrices of up to 2048 rows, not cell by cell; only a file that
    fails that check is walked line by line, to name its first error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ManifestParseError(f"{path}: {exc}") from exc
    rows = [i for i, line in enumerate(lines) if line and not line.isspace()]
    if not rows:
        raise ManifestParseError(f"{path}: empty annotation file")
    header = lines[rows[0]].split("\t")
    if len(header) < 3:
        raise ManifestParseError(
            f"{path}: header needs clip id, at least one tag, and a path; "
            f"got {len(header)} columns"
        )
    tag_names = tuple(header[1:-1])
    repeated = first_repeat(tag_names)
    if repeated is not None:
        raise ManifestParseError(f"{path}: line {rows[0] + 1}: duplicate tag {repeated!r}")
    del rows[0]

    # Rows are checked in blocks, so the transient copies of their flag
    # cells stay a small fraction of the file.
    flags = np.empty((len(rows), len(tag_names)), dtype=np.uint8)
    clip_ids, audio_paths = [], []
    good = True
    for lo in range(0, len(rows), _BLOCK_ROWS):
        bodies = []
        for i in rows[lo:lo + _BLOCK_ROWS]:
            line = lines[i]
            start = line.find("\t")
            end = line.rfind("\t")
            clip_ids.append(line[:start])
            audio_paths.append(line[end + 1:])
            bodies.append(line[start + 1:end] if start < end else "")
        good = _fill_flags(flags[lo:lo + len(bodies)], bodies) and good
    if not good or len(set(clip_ids)) != len(clip_ids):
        numbered = ((i + 1, lines[i]) for i in rows)
        _raise_first_row_error(path, numbered, len(header), tag_names)
    del lines  # before the manifest makes its own copy of the flags
    return DatasetManifest(clip_ids, audio_paths, tag_names, flags)


def canonical_split(manifest: DatasetManifest) -> SplitAssignment:
    """Assign items to train/valid/test by the 16-folder convention.

    The convention names folders "0".."9","a".."f"; in lexicographic
    order the first 12 are train, the 13th ("c") valid, the last 3 test.
    The rule is purely folder-based, so a convention folder with no items
    just contributes nothing. A folder outside the convention means the
    layout is not the expected one and raises UnsupportedLayoutError,
    naming the first such clip in manifest order.
    """
    parts = ([], [], [])
    for clip_id, folder in zip(manifest.clip_ids, manifest.folders):
        part = _FOLDER_PART.get(folder)
        if part is None:
            raise UnsupportedLayoutError(
                f"folder {folder!r} (clip {clip_id!r}) is not "
                f"one of the 16 convention folders 0-9, a-f"
            )
        parts[part].append(clip_id)
    return SplitAssignment(*parts)


def top_k_tags(manifest: DatasetManifest, k: int) -> DatasetManifest:
    """Reduce the manifest to its k most frequent tags.

    Frequency is the positive count over the whole manifest; ties break
    lexicographically by tag name. Output columns are in ranking order
    (most frequent first), so the operation is idempotent for fixed k.
    Items stay even when all their remaining flags are zero.
    """
    k = positive_int("k", k)
    if k > len(manifest.tag_names):
        raise ValueError(f"k={k} exceeds tag count {len(manifest.tag_names)}")
    counts = manifest.flags.sum(axis=0).tolist()
    names = manifest.tag_names
    ranked = sorted(range(len(names)), key=lambda j: (-counts[j], names[j]))[:k]
    return DatasetManifest(
        manifest.clip_ids,
        manifest.audio_paths,
        tuple(names[j] for j in ranked),
        manifest.flags[:, ranked],
    )

