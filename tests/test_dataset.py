"""Manifest parsing, the folder split rule, tag selection, storage math."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melgauge.dataset import (
    MTAT_FOLDERS,
    DatasetManifest,
    SplitAssignment,
    canonical_split,
    parse_annotations,
    top_k_tags,
)
from melgauge.exceptions import ManifestParseError, UnsupportedLayoutError
from melgauge.config import mspec_size


def write_tsv(path, header, rows):
    text = "\n".join(["\t".join(header)] + ["\t".join(r) for r in rows]) + "\n"
    path.write_text(text)
    return path


def small_fixture(tmp_path):
    header = ["clip_id", "rock", "piano", "loud", "quiet", "mp3_path"]
    rows = [
        ["2", "1", "0", "1", "0", "0/track_a.mp3"],
        ["7", "0", "1", "0", "0", "3/track_b.mp3"],
        ["9", "1", "1", "0", "1", "d/track_c.mp3"],
    ]
    return write_tsv(tmp_path / "annot.tsv", header, rows)


def sixteen_folder_fixture(tmp_path, per_folder=2):
    header = ["clip_id", "tag_x", "tag_y", "path"]
    rows = []
    clip = 0
    for folder in MTAT_FOLDERS:
        for _ in range(per_folder):
            rows.append([str(clip), str(clip % 2), "1", f"{folder}/c{clip}.mp3"])
            clip += 1
    return write_tsv(tmp_path / "mtat.tsv", header, rows)


class TestParseAnnotations:
    def test_small_fixture(self, tmp_path):
        manifest = parse_annotations(small_fixture(tmp_path))
        assert len(manifest) == 3
        assert manifest.tag_names == ("rock", "piano", "loud", "quiet")
        assert manifest.items[0].clip_id == "2"
        assert manifest.items[0].tag_flags == (1, 0, 1, 0)
        assert manifest.items[0].audio_path == "0/track_a.mp3"

    def test_folder_is_first_path_component(self, tmp_path):
        manifest = parse_annotations(small_fixture(tmp_path))
        assert [item.folder for item in manifest.items] == ["0", "3", "d"]

    def test_sixteen_folders_observed(self, tmp_path):
        manifest = parse_annotations(sixteen_folder_fixture(tmp_path))
        assert {item.folder for item in manifest.items} == set(MTAT_FOLDERS)

    def test_non_binary_cell_names_line(self, tmp_path):
        path = write_tsv(
            tmp_path / "bad.tsv",
            ["clip_id", "rock", "path"],
            [["1", "0", "0/a.mp3"], ["2", "2", "0/b.mp3"]],
        )
        with pytest.raises(ManifestParseError, match="line 3"):
            parse_annotations(path)

    def test_duplicate_clip_id(self, tmp_path):
        path = write_tsv(
            tmp_path / "dup.tsv",
            ["clip_id", "rock", "path"],
            [["1", "0", "0/a.mp3"], ["1", "1", "0/b.mp3"]],
        )
        with pytest.raises(ManifestParseError, match="duplicate"):
            parse_annotations(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.tsv"
        path.write_text("clip_id\trock\tpath\n1\t0\n")
        with pytest.raises(ManifestParseError, match="line 2"):
            parse_annotations(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ManifestParseError):
            parse_annotations(path)

    def test_header_too_narrow(self, tmp_path):
        path = tmp_path / "narrow.tsv"
        path.write_text("clip_id\tpath\n1\t0/a.mp3\n")
        with pytest.raises(ManifestParseError):
            parse_annotations(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty annotation file"),
            ("\n  \n\n", "empty annotation file"),
            ("id\tpath\n", "header needs clip id, at least one tag, and a path; got 2 columns"),
            ("id\ta\tb\tpath\n\n1\t0\t1\t0/x\n2\t0\t0/y\n", "line 4: 3 cells, header has 4"),
            ("id\ta\tpath\n1\t0\t0/x\n\n1\t1\t0/y\n", "line 4: duplicate clip_id '1'"),
            # the first bad cell is named, with blank lines still counted
            ("\nid\ta\tb\tc\tpath\n1\t0\t1\t0\t0/x\n\n2\t1\t2\tx\t0/y\n",
             "line 5: tag 'b' has non-binary value '2'"),
            ("id\ta\tb\tpath\n1\t \t1\t0/x\n", "line 2: tag 'a' has non-binary value ' '"),
            # a repeated tag would merge two columns in tag_counts
            ("clip_id\trock\trock\tmp3_path\n1\t1\t0\t0/x\n2\t1\t0\t0/y\n",
             "line 1: duplicate tag 'rock'"),
        ],
    )
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "annot.tsv"
        path.write_text(text)
        with pytest.raises(ManifestParseError) as info:
            parse_annotations(path)
        assert str(info.value) == f"{path}: {message}"

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "annot.tsv"
        path.write_bytes(b"id\ta\tpath\n1\t0\t0/\xffx\n")
        with pytest.raises(ManifestParseError) as info:
            parse_annotations(path)
        assert str(info.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte"
        )

    def test_row_without_tabs(self, tmp_path):
        # with one tag, "0x" is as long as a good row's flag cells
        path = tmp_path / "annot.tsv"
        path.write_text("id\ta\tpath\n1\t0\t0/x\n0x\n")
        with pytest.raises(ManifestParseError) as info:
            parse_annotations(path)
        assert str(info.value) == f"{path}: line 3: 1 cells, header has 3"

    def test_tag_counts_and_top_k_on_parsed_file(self, tmp_path):
        manifest = parse_annotations(small_fixture(tmp_path))
        assert manifest.tag_counts() == {"rock": 2, "piano": 2, "loud": 1, "quiet": 1}
        empty = DatasetManifest((), (), ("a", "b"), np.zeros((0, 2), np.uint8))
        assert empty.tag_counts() == {"a": 0, "b": 0}
        top = top_k_tags(manifest, 1)
        assert top.tag_names == ("piano",)
        assert [item.tag_flags for item in top.items] == [(0,), (1,), (1,)]


class TestCanonicalSplit:
    def test_sixteen_by_two(self, tmp_path):
        manifest = parse_annotations(sixteen_folder_fixture(tmp_path, per_folder=2))
        split = canonical_split(manifest)
        assert split.sizes == (24, 2, 6)

    def test_thirteenth_folder_is_valid(self, tmp_path):
        # sorted folder order is 0-9 then a-f, so position 12 (the 13th
        # folder) is "c"; "d" opens the test block
        path = write_tsv(
            tmp_path / "edges.tsv",
            ["clip_id", "t", "path"],
            [
                ["10", "0", "b/a.mp3"],
                ["11", "1", "c/b.mp3"],
                ["12", "0", "d/c.mp3"],
            ],
        )
        split = canonical_split(parse_annotations(path))
        assert split.train == {"10"}
        assert split.valid == {"11"}
        assert split.test == {"12"}

    def test_folder_d_goes_to_test(self, tmp_path):
        manifest = parse_annotations(small_fixture(tmp_path))
        split = canonical_split(manifest)
        assert "9" in split.test  # clip 9 lives in folder d
        assert split.sizes == (2, 0, 1)

    def test_empty_folder_is_fine(self, tmp_path):
        # only folders 0 and f present; the rule is folder-based so the
        # other 14 simply contribute nothing
        path = write_tsv(
            tmp_path / "sparse.tsv",
            ["clip_id", "t", "path"],
            [["1", "0", "0/a.mp3"], ["2", "1", "f/b.mp3"]],
        )
        split = canonical_split(parse_annotations(path))
        assert split.sizes == (1, 0, 1)

    def test_unknown_folder_rejected(self, tmp_path):
        path = write_tsv(
            tmp_path / "weird.tsv",
            ["clip_id", "t", "path"],
            [["1", "0", "g/a.mp3"]],
        )
        with pytest.raises(UnsupportedLayoutError, match="'g'"):
            canonical_split(parse_annotations(path))

    def test_every_item_assigned_once(self, tmp_path):
        manifest = parse_annotations(sixteen_folder_fixture(tmp_path, per_folder=3))
        split = canonical_split(manifest)
        all_ids = {item.clip_id for item in manifest.items}
        assert split.train | split.valid | split.test == all_ids
        assert sum(split.sizes) == len(all_ids)

    def test_split_type_rejects_overlap(self):
        with pytest.raises(ValueError):
            SplitAssignment(frozenset({"1"}), frozenset({"1"}), frozenset())


class TestTopKTags:
    def counts_fixture(self):
        # counts: a=3, b=2, c=1
        return DatasetManifest(
            ("1", "2", "3"),
            ("0/x.mp3", "0/y.mp3", "0/z.mp3"),
            ("a", "b", "c"),
            [(1, 1, 1), (1, 1, 0), (1, 0, 0)],
        )

    def test_keeps_most_frequent(self):
        reduced = top_k_tags(self.counts_fixture(), 2)
        assert reduced.tag_names == ("a", "b")
        assert reduced.items[2].tag_flags == (1, 0)

    def test_tie_breaks_lexicographic(self):
        manifest = DatasetManifest(  # x and y tie at 2
            ("1", "2"), ("0/x.mp3", "0/y.mp3"), ("y", "x", "z"), [(1, 1, 1), (1, 1, 0)]
        )
        reduced = top_k_tags(manifest, 1)
        assert reduced.tag_names == ("x",)

    def test_full_k_is_identity_up_to_order(self):
        manifest = self.counts_fixture()
        reduced = top_k_tags(manifest, 3)
        assert set(reduced.tag_names) == set(manifest.tag_names)
        assert len(reduced.items) == len(manifest.items)

    def test_idempotent(self):
        manifest = self.counts_fixture()
        once = top_k_tags(manifest, 2)
        twice = top_k_tags(once, 2)
        assert once == twice

    def test_items_survive_all_zero_flags(self):
        manifest = DatasetManifest(
            ("1", "2"), ("0/x.mp3", "0/y.mp3"), ("big", "small"), [(1, 0), (0, 1)]
        )
        # both tags count 1; lexicographic tie-break keeps "big"
        reduced = top_k_tags(manifest, 1)
        assert reduced.tag_names == ("big",)
        assert len(reduced.items) == 2
        assert reduced.items[1].tag_flags == (0,)

    def test_k_bounds(self):
        manifest = self.counts_fixture()
        with pytest.raises(ValueError):
            top_k_tags(manifest, 0)
        with pytest.raises(ValueError):
            top_k_tags(manifest, 4)


class TestStorageSize:
    def test_benchmark_cell(self):
        assert mspec_size(96, 1366) == 524_584

    def test_savings_cell(self):
        assert mspec_size(48, 683) == 131_176  # 12 kHz, 48 mels, hop x2

    def test_payload_reduction_is_exact(self):
        full = mspec_size(96, 1366) - 40
        lean = mspec_size(48, 683) - 40
        assert full / lean == 4.0

    def test_unit_case(self):
        assert mspec_size(8, 1) == 8 * 4 + 40  # 8 rows, not 1

    def test_payload_linear_in_frames(self):
        one = mspec_size(128, 100) - 40
        two = mspec_size(128, 200) - 40
        assert two == 2 * one

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mspec_size(96, 0)


class TestManifestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DatasetManifest(("1", "1"), ("0/x.mp3", "0/y.mp3"), ("t",), [(1,), (0,)])

    def test_duplicate_tag_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate tag name 'rock'"):
            DatasetManifest(("1",), ("0/x.mp3",), ("rock", "rock"), [(1, 0)])

    def test_flag_length_mismatch(self):
        with pytest.raises(ValueError):
            DatasetManifest(("1",), ("0/x.mp3",), ("t",), [(1, 0)])

    def test_non_binary_flag(self):
        with pytest.raises(ValueError):
            DatasetManifest(("1",), ("0/x.mp3",), ("t",), [(2,)])

    def test_path_count_mismatch(self):
        with pytest.raises(ValueError, match="1 audio paths for 2 clips"):
            DatasetManifest(("1", "2"), ("0/x.mp3",), ("t",), [(1,), (0,)])

    def test_tag_counts(self, tmp_path):
        manifest = parse_annotations(small_fixture(tmp_path))
        counts = manifest.tag_counts()
        assert counts == {"rock": 2, "piano": 2, "loud": 1, "quiet": 1}
        assert all(type(count) is int for count in counts.values())
        assert json.loads(json.dumps(counts)) == counts


class TestColumns:
    def test_columns_of_parsed_file(self, tmp_path):
        manifest = parse_annotations(small_fixture(tmp_path))
        assert manifest.clip_ids == ("2", "7", "9")
        assert manifest.audio_paths == ("0/track_a.mp3", "3/track_b.mp3", "d/track_c.mp3")
        assert manifest.folders == ("0", "3", "d")
        assert manifest.flags.tolist() == [[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 0, 1]]

    def test_flags_are_read_only_contiguous_uint8(self, tmp_path):
        manifest = parse_annotations(small_fixture(tmp_path))
        for flags in (manifest.flags, top_k_tags(manifest, 2).flags):
            assert flags.dtype == np.uint8
            assert flags.flags.c_contiguous
            assert not flags.flags.writeable

    def test_constructor_copies_the_flags(self):
        flags = np.array([[1, 0]], dtype=np.uint8)
        manifest = DatasetManifest(("1",), ("0/x.mp3",), ("a", "b"), flags)
        flags[0, 0] = 0
        assert manifest.flags.tolist() == [[1, 0]]
        assert flags.flags.writeable

    def test_items_view_rows(self, tmp_path):
        items = top_k_tags(parse_annotations(small_fixture(tmp_path)), 2).items
        assert [(i.clip_id, i.audio_path, i.folder) for i in items] == [
            ("2", "0/track_a.mp3", "0"), ("7", "3/track_b.mp3", "3"), ("9", "d/track_c.mp3", "d"),
        ]
        assert [i.tag_flags for i in items] == [(0, 1), (1, 0), (1, 1)]
        assert all(type(flag) is int for item in items for flag in item.tag_flags)

    def test_equality_compares_flags(self):
        one = DatasetManifest(("1",), ("0/x.mp3",), ("a",), [(1,)])
        assert one == DatasetManifest(("1",), ("0/x.mp3",), ("a",), np.ones((1, 1), np.uint8))
        assert one != DatasetManifest(("1",), ("0/x.mp3",), ("a",), [(0,)])
        assert one != DatasetManifest(("1",), ("0/y.mp3",), ("a",), [(1,)])
        assert one != "x"
        assert (one == object()) is False

    def test_crlf_and_non_ascii_ids_parse(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes("id\ta\tb\tpath\r\n\r\nété\t1\t0\tc/ü.mp3\r\n".encode())
        manifest = parse_annotations(path)
        assert manifest.clip_ids == ("été",)
        assert manifest.audio_paths == ("c/ü.mp3",)
        assert manifest.flags.tolist() == [[1, 0]]

    def test_split_names_first_outside_folder_in_file_order(self, tmp_path):
        path = write_tsv(
            tmp_path / "weird.tsv",
            ["clip_id", "t", "path"],
            [["1", "0", "0/a.mp3"], ["2", "0", "zz/b.mp3"], ["3", "1", "g/c.mp3"]],
        )
        with pytest.raises(UnsupportedLayoutError) as info:
            canonical_split(parse_annotations(path))
        assert str(info.value) == (
            "folder 'zz' (clip '2') is not one of the 16 convention folders 0-9, a-f"
        )


# ------------------------------------------------ line-walk reference parser

_REF_FLAG_CELLS = frozenset({"0", "1"})


def reference_parse(path):
    """The line-at-a-time parser that came before the columnar one, frozen.

    Returns (tag_names, clip_ids, audio_paths, folders, flag rows) or
    raises ManifestParseError with the message the parser must keep.
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
        repeated = next(
            (name for i, name in enumerate(tag_names) if name in tag_names[:i]), None
        )
        if repeated is not None:
            raise ManifestParseError(f"{path}: line {first[0]}: duplicate tag {repeated!r}")
        ids, paths, folders, flag_rows = [], [], [], []
        seen = set()
        for lineno, line in rows:
            cells = line.split("\t")
            if len(cells) != len(header):
                raise ManifestParseError(
                    f"{path}: line {lineno}: {len(cells)} cells, header has {len(header)}"
                )
            clip_id = cells[0]
            if clip_id in seen:
                raise ManifestParseError(f"{path}: line {lineno}: duplicate clip_id {clip_id!r}")
            seen.add(clip_id)
            flags = cells[1:-1]
            if not _REF_FLAG_CELLS.issuperset(flags):
                name, cell = next(
                    (name, cell) for name, cell in zip(tag_names, flags)
                    if cell not in _REF_FLAG_CELLS
                )
                raise ManifestParseError(
                    f"{path}: line {lineno}: tag {name!r} has non-binary value {cell!r}"
                )
            ids.append(clip_id)
            paths.append(cells[-1])
            folders.append(cells[-1].split("/")[0])
            flag_rows.append([int(cell) for cell in flags])
    return tag_names, tuple(ids), tuple(paths), tuple(folders), flag_rows


# Cell text: any character but the separators and line breaks, including
# non-ASCII letters and whitespace.
_CELL_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    max_size=4,
)
_BLANK_LINES = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\x85", "\u2028", "\u3000"])
_CORRUPTIONS = st.sampled_from([
    None, "bad cell", "spaced one", "non-ascii cell", "short row", "long row",
    "merged cells", "no tabs", "repeated id",
])


@st.composite
def annotation_texts(draw):
    """A small annotation file, at most one thing wrong with it."""
    tags = draw(st.lists(_CELL_TEXT, min_size=1, max_size=4, unique=True))
    header = [draw(_CELL_TEXT), *tags, draw(_CELL_TEXT)]
    n_rows = draw(st.integers(0, 6))
    ids = draw(st.lists(_CELL_TEXT, min_size=n_rows, max_size=n_rows, unique=True))
    rows = []
    for clip_id in ids:
        folder = draw(st.sampled_from(MTAT_FOLDERS) | _CELL_TEXT)
        audio_path = folder + draw(st.sampled_from(["/", ""])) + draw(_CELL_TEXT)
        flags = draw(st.lists(st.sampled_from("01"), min_size=len(tags), max_size=len(tags)))
        rows.append([clip_id, *flags, audio_path])
    corruption = draw(_CORRUPTIONS)
    if rows and corruption is not None:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        cell = draw(st.integers(1, len(tags)))
        if corruption == "bad cell":
            row[cell] = draw(st.sampled_from(["2", "", "01", "x", "\x00"]))
        elif corruption == "spaced one":
            row[cell] = " 1"
        elif corruption == "non-ascii cell":
            row[cell] = draw(st.sampled_from(["é", "１", "١"]))
        elif corruption == "short row":
            del row[cell]
        elif corruption == "long row":
            row.insert(cell, draw(st.sampled_from("01")))
        elif corruption == "merged cells":
            # a flag character in place of a tab, so two flag cells keep the width
            row[cell - 1:cell + 1] = [row[cell - 1] + draw(st.sampled_from("01")) + row[cell]]
        elif corruption == "no tabs":
            row[:] = ["".join(row)]
        elif len(rows) > 1:
            row[0] = rows[0][0] if row is not rows[0] else rows[1][0]
    lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BLANK_LINES))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    return text


@settings(max_examples=300, deadline=None)
@given(text=annotation_texts())
def test_parse_matches_line_walk_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("oracle") / "annot.tsv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = reference_parse(path)
    except ManifestParseError as exc:
        with pytest.raises(ManifestParseError) as info:
            parse_annotations(path)
        assert str(info.value) == str(exc)
        return
    manifest = parse_annotations(path)
    tag_names, ids, paths, folders, flag_rows = want
    assert manifest.tag_names == tag_names
    assert manifest.clip_ids == ids
    assert manifest.audio_paths == paths
    assert manifest.folders == folders
    assert manifest.flags.shape == (len(ids), len(tag_names))
    assert manifest.flags.tolist() == flag_rows
