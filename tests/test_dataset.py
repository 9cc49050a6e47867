"""Manifest parsing, the folder split rule, tag selection, storage math."""

import pytest

from melgauge.dataset import (
    MTAT_FOLDERS,
    DatasetManifest,
    ManifestItem,
    SplitAssignment,
    canonical_split,
    parse_annotations,
    storage_size,
    top_k_tags,
)
from melgauge.exceptions import ManifestParseError, UnsupportedLayoutError
from melgauge.mel import MelConfig


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

    def test_tag_counts_and_top_k_on_parsed_file(self, tmp_path):
        manifest = parse_annotations(small_fixture(tmp_path))
        assert manifest.tag_counts() == {"rock": 2, "piano": 2, "loud": 1, "quiet": 1}
        assert DatasetManifest((), ("a", "b")).tag_counts() == {"a": 0, "b": 0}
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
        items = [
            ManifestItem("1", "0/x.mp3", "0", (1, 1, 1)),
            ManifestItem("2", "0/y.mp3", "0", (1, 1, 0)),
            ManifestItem("3", "0/z.mp3", "0", (1, 0, 0)),
        ]
        return DatasetManifest(tuple(items), ("a", "b", "c"))

    def test_keeps_most_frequent(self):
        reduced = top_k_tags(self.counts_fixture(), 2)
        assert reduced.tag_names == ("a", "b")
        assert reduced.items[2].tag_flags == (1, 0)

    def test_tie_breaks_lexicographic(self):
        items = [
            ManifestItem("1", "0/x.mp3", "0", (1, 1, 1)),
            ManifestItem("2", "0/y.mp3", "0", (1, 1, 0)),
        ]
        manifest = DatasetManifest(tuple(items), ("y", "x", "z"))  # x and y tie at 2
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
        items = [
            ManifestItem("1", "0/x.mp3", "0", (1, 0)),
            ManifestItem("2", "0/y.mp3", "0", (0, 1)),
        ]
        manifest = DatasetManifest(tuple(items), ("big", "small"))
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
        assert storage_size(MelConfig(12000, 96), 1366) == 524_584

    def test_savings_cell(self):
        assert storage_size(MelConfig(12000, 48, hop_multiplier=2), 683) == 131_176

    def test_payload_reduction_is_exact(self):
        full = storage_size(MelConfig(12000, 96), 1366) - 40
        lean = storage_size(MelConfig(12000, 48, hop_multiplier=2), 683) - 40
        assert full / lean == 4.0

    def test_unit_case(self):
        assert storage_size(MelConfig(12000, 8), 1) == 8 * 4 + 40  # 8 rows, not 1

    def test_payload_linear_in_frames(self):
        config = MelConfig(16000, 128)
        one = storage_size(config, 100) - 40
        two = storage_size(config, 200) - 40
        assert two == 2 * one

    def test_rejects_bad_args(self):
        config = MelConfig(12000, 96)
        with pytest.raises(ValueError):
            storage_size(config, 0)


class TestManifestValidation:
    def test_duplicate_ids_rejected(self):
        items = (
            ManifestItem("1", "0/x.mp3", "0", (1,)),
            ManifestItem("1", "0/y.mp3", "0", (0,)),
        )
        with pytest.raises(ValueError, match="duplicate"):
            DatasetManifest(items, ("t",))

    def test_duplicate_tag_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate tag name 'rock'"):
            DatasetManifest((ManifestItem("1", "0/x.mp3", "0", (1, 0)),), ("rock", "rock"))

    def test_flag_length_mismatch(self):
        items = (ManifestItem("1", "0/x.mp3", "0", (1, 0)),)
        with pytest.raises(ValueError):
            DatasetManifest(items, ("t",))

    def test_non_binary_flag(self):
        with pytest.raises(ValueError):
            ManifestItem("1", "0/x.mp3", "0", (2,))

    def test_tag_counts(self, tmp_path):
        manifest = parse_annotations(small_fixture(tmp_path))
        assert manifest.tag_counts() == {"rock": 2, "piano": 2, "loud": 1, "quiet": 1}
