import numpy as np
import pytest

from centerhash import binfmt, config, data_io, synthetic
from centerhash.errors import DimensionError, FormatError, InvalidLabelError


class TestAtomicWrite:
    def test_failed_writer_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            with binfmt.atomic_write(tmp_path / "out.bin") as f:
                f.write(b"half")
                raise RuntimeError("writer failed midway")
        assert list(tmp_path.iterdir()) == []

    def test_failed_writer_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with binfmt.atomic_write(path, text=True) as f:
                f.write("new\n")
                raise RuntimeError("writer failed midway")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_bytes() == b"old"

    def test_success_replaces_the_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old")
        with binfmt.atomic_write(path, text=True) as f:
            f.write("a\nb\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_bytes() == b"a\nb\n"

    @pytest.mark.parametrize("target", ["missing/out.txt", "."])
    def test_errors_name_the_target(self, tmp_path, target):
        path = tmp_path / target
        with pytest.raises(OSError) as failed:
            with binfmt.atomic_write(path, text=True) as f:
                f.write("a\n")
        assert failed.value.filename == str(path) and failed.value.filename2 is None
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_permissions_follow_the_umask_as_open_does(self, tmp_path):
        with binfmt.atomic_write(tmp_path / "atomic") as f:
            f.write(b"x")
        with open(tmp_path / "plain", "wb") as f:
            f.write(b"x")
        assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


def csqf_header(n, d):
    return binfmt.header(data_io.MAGIC_FEATURES) + binfmt.u64(n) + binfmt.u32(d)


def read_blocks(path, rows=2):
    """All rows of a feature file through the block reader."""
    return np.concatenate(list(data_io.open_features(path).blocks(rows)))


def three_by_four():
    x = np.ones((3, 4), dtype=np.float32)
    return csqf_header(3, 4) + x.tobytes()


# (file bytes, FormatError message without its offset, offset); the messages are
# those load_features gave when it read the whole file into memory first
BAD_FEATURE_FILES = {
    "wrong_magic": (b"JUNK" + bytes(32), "bad magic b'JUNK', expected b'CSQF'", 0),
    "wrong_version": (b"CSQF" + binfmt.u32(2) + bytes(12), "unsupported version 2", 4),
    "two_bytes": (b"CS", "truncated file: wanted 4 bytes, 2 left", 0),
    "header_cut": (csqf_header(3, 4)[:16], "truncated file: wanted 4 bytes, 0 left", 16),
    "truncated": (three_by_four()[:-2], "truncated file: wanted 48 bytes, 46 left", 20),
    "trailing": (three_by_four() + b"xyz", "3 trailing bytes", 68),
    "zero_rows": (csqf_header(0, 4), "empty feature file (n=0, d=4)", 8),
    "zero_columns": (csqf_header(3, 0), "empty feature file (n=3, d=0)", 8),
    "hostile_n": (csqf_header(1 << 40, 4) + bytes(64),
                  "truncated file: wanted 17592186044416 bytes, 64 left", 20),
}


class TestFeatures:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 16)).astype(np.float32)
        path = tmp_path / "x.csqf"
        data_io.save_features(path, x)
        loaded = data_io.load_features(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, x.astype(np.float64))
        again = tmp_path / "y.csqf"
        data_io.save_features(again, loaded)
        assert path.read_bytes() == again.read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.csqf"
        path.write_bytes(b"JUNK" + bytes(32))
        with pytest.raises(FormatError) as err:
            data_io.load_features(path)
        assert err.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.csqf"
        data_io.save_features(path, np.ones((3, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            data_io.load_features(path)

    def test_zero_rows_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            data_io.save_features(tmp_path / "x.csqf", np.zeros((0, 4)))

    def test_zero_rows_rejected_on_load(self, tmp_path):
        from centerhash import binfmt

        path = tmp_path / "x.csqf"
        path.write_bytes(binfmt.header(data_io.MAGIC_FEATURES) + binfmt.u64(0) + binfmt.u32(4))
        with pytest.raises(FormatError):
            data_io.load_features(path)


    def test_roundtrip_across_read_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_io, "READ_BLOCK_VALUES", 7)  # two rows of three per block
        x = np.arange(15, dtype=np.float32).reshape(5, 3) / 7
        path = tmp_path / "x.csqf"
        data_io.save_features(path, x)
        assert np.array_equal(data_io.load_features(path), x.astype(np.float64))
        for rows in (1, 2, 4, 5, 9):
            blocks = list(data_io.open_features(path).blocks(rows))
            assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
            assert all(b.dtype == np.float64 for b in blocks)
            assert np.array_equal(np.concatenate(blocks), x.astype(np.float64))

    @pytest.mark.parametrize("read", [data_io.load_features, read_blocks],
                             ids=["load_features", "blocks"])
    @pytest.mark.parametrize("case", sorted(BAD_FEATURE_FILES))
    def test_bad_file_error_is_the_same_through_both_readers(self, tmp_path, case, read):
        data, message, offset = BAD_FEATURE_FILES[case]
        path = tmp_path / "x.csqf"
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            read(path)
        assert str(err.value) == f"{message} (byte offset {offset})"
        assert err.value.offset == offset

    def test_file_cut_after_open_is_truncated(self, tmp_path):
        path = tmp_path / "x.csqf"
        data_io.save_features(path, np.ones((6, 2), dtype=np.float32))
        src = data_io.open_features(path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="wanted 16 bytes, 12 left") as err:
            list(src.blocks(4))
        assert err.value.offset == 20 + 4 * 4 * 2

    @pytest.mark.parametrize("read", [data_io.load_features, read_blocks],
                             ids=["load_features", "blocks"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_its_row(self, tmp_path, read, value):
        x = np.ones((8, 3), dtype=np.float32)
        x[5, 2] = value
        x[7, 0] = value
        path = tmp_path / "x.csqf"
        data_io.save_features(path, x)
        with pytest.raises(FormatError) as err:
            read(path)
        assert "feature row 5 is not finite" in str(err.value)
        assert err.value.offset == 20 + 4 * 5 * 3


class TestLabels:
    def test_single_label_roundtrip(self, tmp_path):
        labels = np.eye(5, dtype=np.uint8)[[0, 3, 3, 1, 4, 2]]
        path = tmp_path / "y.csql"
        data_io.save_labels(path, labels)
        assert np.array_equal(data_io.load_labels(path), labels)

    def test_multi_hot_popcount(self, tmp_path):
        row = np.zeros((1, 80), dtype=np.uint8)
        row[0, [3, 17, 79]] = 1
        path = tmp_path / "y.csql"
        data_io.save_labels(path, row)
        loaded = data_io.load_labels(path)
        assert loaded.sum() == 3
        assert np.array_equal(loaded, row)

    def test_empty_row_rejected_on_save(self, tmp_path):
        labels = np.zeros((2, 4), dtype=np.uint8)
        labels[0, 1] = 1
        with pytest.raises(InvalidLabelError):
            data_io.save_labels(tmp_path / "y.csql", labels)

    def test_empty_row_rejected_on_load(self, tmp_path):
        from centerhash import binfmt

        path = tmp_path / "y.csql"
        payload = bytes([0b0001, 0b0000])  # second row has no bits
        path.write_bytes(
            binfmt.header(data_io.MAGIC_LABELS) + binfmt.u64(2) + binfmt.u32(4) + payload
        )
        with pytest.raises(InvalidLabelError):
            data_io.load_labels(path)

    def test_dataset_alignment_checked(self, tmp_path):
        fpath, lpath = tmp_path / "x.csqf", tmp_path / "y.csql"
        data_io.save_features(fpath, np.ones((3, 2), dtype=np.float32))
        data_io.save_labels(lpath, np.ones((2, 2), dtype=np.uint8))
        with pytest.raises(DimensionError):
            data_io.load_dataset(fpath, lpath)


class TestSyntheticBlobs:
    def test_deterministic(self):
        a = synthetic.make_synthetic_blobs(4, 10, 8, 0.2, seed=7)
        b = synthetic.make_synthetic_blobs(4, 10, 8, 0.2, seed=7)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_zero_spread_collapses_classes(self):
        ds = synthetic.make_synthetic_blobs(3, 5, 6, 0.0, seed=1)
        for c in range(3):
            block = ds.features[c * 5 : (c + 1) * 5]
            assert np.array_equal(block, np.tile(block[0], (5, 1)))

    def test_sample_count(self):
        ds = synthetic.make_synthetic_blobs(8, 100, 4, 0.1, seed=0)
        assert ds.n == 800 and ds.q == 8

    def test_means_on_unit_sphere(self):
        ds = synthetic.make_synthetic_blobs(5, 2, 16, 0.0, seed=3)
        norms = np.linalg.norm(ds.features[::2], axis=1)
        assert np.allclose(norms, 1.0)

    def test_splits_share_means_but_not_noise(self):
        train = synthetic.make_synthetic_blobs(3, 4, 8, 0.0, seed=5, split="train")
        query = synthetic.make_synthetic_blobs(3, 4, 8, 0.0, seed=5, split="query")
        assert np.array_equal(train.features, query.features)  # spread 0: means only
        train2 = synthetic.make_synthetic_blobs(3, 4, 8, 0.5, seed=5, split="train")
        query2 = synthetic.make_synthetic_blobs(3, 4, 8, 0.5, seed=5, split="query")
        assert not np.array_equal(train2.features, query2.features)


class TestConfig:
    def test_parse_key_values_and_comments(self):
        text = "# header\nk = 32\nmethod = bernoulli  # inline\n\nseed=9\n"
        assert config.parse_config_text(text) == {"k": "32", "method": "bernoulli", "seed": "9"}

    def test_flag_overrides_file(self):
        cfg = config.build_run_config({"k": "32", "epochs": "5"}, {"k": 64})
        assert cfg.k == 64 and cfg.epochs == 5

    def test_defaults_fill_the_rest(self):
        cfg = config.build_run_config({"k": "16"}, None)
        assert cfg.momentum == 0.9 and cfg.method == "hadamard"

    def test_db_paths_default_to_train(self):
        cfg = config.build_run_config({"train_features": "a.csqf", "train_labels": "a.csql"})
        assert cfg.db_features == "a.csqf" and cfg.db_labels == "a.csql"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config.build_run_config({"learning_rate_typo": "1"})

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError):
            config.build_run_config({"use_lc": "maybe"})

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            config.build_run_config({"method": "magic"})

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            config.parse_config_text("k 32\n")
