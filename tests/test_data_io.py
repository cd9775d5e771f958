import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with binfmt.atomic_write(path) as f:
                f.write(b"new\n")
                raise RuntimeError("writer failed midway")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert path.read_bytes() == b"old"

    def test_success_replaces_the_target(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with binfmt.atomic_write(path) as f:
            f.write(b"a\nb\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert path.read_bytes() == b"a\nb\n"

    @pytest.mark.parametrize("target", ["missing/out.bin", "."])
    def test_errors_name_the_target(self, tmp_path, target):
        path = tmp_path / target
        with pytest.raises(OSError) as failed:
            with binfmt.atomic_write(path) as f:
                f.write(b"a\n")
        assert failed.value.filename == str(path) and failed.value.filename2 is None
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_permissions_follow_the_umask_as_open_does(self, tmp_path):
        with binfmt.atomic_write(tmp_path / "atomic") as f:
            f.write(b"x")
        with open(tmp_path / "plain", "wb") as f:
            f.write(b"x")
        assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_temp_file_is_named_after_the_target(self, tmp_path):
        path = tmp_path / "out.bin"
        with binfmt.atomic_write(path):
            names = [p.name for p in tmp_path.iterdir()]
        assert len(names) == 1 and re.fullmatch(r"out\.bin\.[0-9a-f]{8}\.tmp", names[0])


def csqf_header(n, d):
    return binfmt.header(data_io.MAGIC_FEATURES) + binfmt.u64(n) + binfmt.u32(d)


def write_features_unchecked(path, x):
    """A feature file holding x as float32, written without save_features' checks."""
    x = np.asarray(x, dtype="<f4")
    with open(path, "wb") as f:
        f.write(csqf_header(*x.shape) + x.tobytes())


def read_slices(path, rows=2):
    """All rows of a feature file, read as consecutive slices of `rows` rows."""
    src = data_io.open_features(path)
    return np.concatenate([src[s : s + rows] for s in range(0, src.n, rows)])


def read_gather(path):
    """All rows of a feature file, read as one index gather in file order."""
    src = data_io.open_features(path)
    return src[np.arange(src.n)]


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
        assert loaded.dtype == np.float32
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


    def test_load_holds_only_the_matrix(self, tmp_path):
        # the rows are read straight into the result and checked with a max and a
        # min, so no copy of the bytes and no finiteness mask is held beside it
        n, d = 3000, 512
        data_io.save_features(tmp_path / "x.csqf", np.ones((n, d), dtype=np.float32))
        tracemalloc.start()
        try:
            loaded = data_io.load_features(tmp_path / "x.csqf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.dtype == np.float32 and loaded.shape == (n, d)
        assert peak <= loaded.nbytes + 64 * 1024

    def test_save_holds_no_copy_of_a_float32_matrix(self, tmp_path):
        x = np.ones((3000, 512), dtype=np.float32)
        tracemalloc.start()
        try:
            data_io.save_features(tmp_path / "x.csqf", x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024  # the input was allocated before tracing began
        assert np.array_equal(data_io.load_features(tmp_path / "x.csqf"), x)

    def test_roundtrip_across_read_blocks(self, tmp_path):
        x = np.arange(15, dtype=np.float32).reshape(5, 3) / 7
        path = tmp_path / "x.csqf"
        data_io.save_features(path, x)
        assert np.array_equal(data_io.load_features(path), x.astype(np.float64))
        src = data_io.open_features(path)
        for rows in (1, 2, 4, 5, 9):
            blocks = [src[s : s + rows] for s in range(0, src.n, rows)]
            assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
            assert all(b.dtype == np.float32 for b in blocks)
            assert np.array_equal(np.concatenate(blocks), x.astype(np.float64))

    @given(start=st.integers(-8, 8) | st.none(), stop=st.integers(-8, 8) | st.none())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_slice_equals_the_loaded_rows(self, tmp_path, start, stop):
        x = np.arange(15, dtype=np.float32).reshape(5, 3) / 7
        path = tmp_path / "x.csqf"
        data_io.save_features(path, x)
        got = data_io.open_features(path)[start:stop]  # empty and out-of-range bounds too
        assert got.dtype == np.float32 and got.shape[1] == 3
        assert np.array_equal(got, data_io.load_features(path)[start:stop])

    @pytest.mark.parametrize("step", [2, -1])
    def test_slice_with_a_step_raises(self, tmp_path, step):
        data_io.save_features(tmp_path / "x.csqf", np.ones((4, 2)))
        with pytest.raises(ValueError, match=f"got step {step}"):
            data_io.open_features(tmp_path / "x.csqf")[::step]

    @given(idx=st.lists(st.integers(0, 4), max_size=12),
           dtype=st.sampled_from([np.intp, np.int32, np.uint8, np.uint64]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_gather_equals_the_loaded_rows(self, tmp_path, idx, dtype):
        # repeated, unordered and empty index arrays, of signed and unsigned types
        x = np.arange(15, dtype=np.float32).reshape(5, 3) / 7
        path = tmp_path / "x.csqf"
        data_io.save_features(path, x)
        idx = np.array(idx, dtype=dtype)
        got, loaded = data_io.open_features(path)[idx], data_io.load_features(path)[idx]
        assert got.dtype == loaded.dtype == np.float32 and got.shape == (len(idx), 3)
        assert got.tobytes() == loaded.tobytes()

    @pytest.mark.parametrize("idx, message", [
        (np.array([0, 6]), r"out of range \[0, 6\)"),
        (np.array([-1]), r"out of range \[0, 6\)"),
        (np.ones(6, dtype=bool), "got bool of shape"),
        (np.array([[0, 1]]), r"got int64 of shape \(1, 2\)"),
        (np.array([0.0]), "got float64 of shape"),
    ], ids=["past-the-end", "negative", "boolean", "2-d", "float"])
    def test_bad_gather_index_raises_before_any_read(self, tmp_path, idx, message):
        path = tmp_path / "x.csqf"
        data_io.save_features(path, np.ones((6, 2), dtype=np.float32))
        src = data_io.open_features(path)
        path.unlink()  # a read would now raise FileNotFoundError
        with pytest.raises(IndexError, match=message):
            src[idx]

    def test_gather_names_the_first_non_finite_row_it_reads(self, tmp_path):
        x = np.ones((8, 3), dtype=np.float32)
        x[[5, 7], [2, 0]] = np.nan
        path = tmp_path / "x.csqf"
        write_features_unchecked(path, x)
        src = data_io.open_features(path)
        for idx, row in (([0, 5, 2, 7], 5), ([7, 1, 5], 7), ([5, 5], 5)):
            with pytest.raises(FormatError, match=f"feature row {row} is not finite") as err:
                src[np.array(idx)]
            assert err.value.offset == 20 + 4 * row * 3
        assert np.array_equal(src[np.array([6, 0])], np.ones((2, 3)))

    # 6x2 rows cut after open_features: by 4 bytes, row 5 keeps 4 of its 8; by 12,
    # row 5 keeps none and row 4 keeps 4
    @pytest.mark.parametrize("cut, idx, row, left", [(4, [0, 5], 5, 4), (12, [1, 5, 4], 5, 0),
                                                     (12, [4, 5], 4, 4)],
                             ids=["part-of-a-row", "none-of-a-row", "first-cut-row-read"])
    def test_file_cut_after_open_fails_the_gather_at_the_row(self, tmp_path, cut, idx, row,
                                                            left):
        path = tmp_path / "x.csqf"
        data_io.save_features(path, np.ones((6, 2), dtype=np.float32))
        src = data_io.open_features(path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError, match=f"truncated file: wanted 8 bytes, {left} left") \
                as err:
            src[np.array(idx)]
        assert err.value.offset == 20 + 4 * row * 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])  # 1e39: inf as float32
    def test_save_rejects_a_non_finite_value_before_writing(self, tmp_path, value):
        x = np.ones((4, 3))
        x[2, 1] = value
        with pytest.raises(ValueError, match="feature row 2 is not finite"):
            data_io.save_features(tmp_path / "x.csqf", x)
        assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file

    @pytest.mark.parametrize("read", [data_io.load_features, read_slices, read_gather],
                             ids=["load_features", "slices", "gather"])
    @pytest.mark.parametrize("case", sorted(BAD_FEATURE_FILES))
    def test_bad_file_error_is_the_same_through_both_readers(self, tmp_path, case, read):
        data, message, offset = BAD_FEATURE_FILES[case]
        path = tmp_path / "x.csqf"
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            read(path)
        assert str(err.value) == f"{message} (byte offset {offset})"
        assert err.value.offset == offset

    # rows 4-5 read from the middle of the file, or rows 0-5, the whole file
    @pytest.mark.parametrize("rows, wanted, offset", [(slice(4, None), 16, 20 + 4 * 4 * 2),
                                                      (slice(None), 48, 20)],
                             ids=["mid-file", "whole-file"])
    def test_file_cut_after_open_is_truncated(self, tmp_path, rows, wanted, offset):
        path = tmp_path / "x.csqf"
        data_io.save_features(path, np.ones((6, 2), dtype=np.float32))
        src = data_io.open_features(path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match=f"wanted {wanted} bytes, {wanted - 4} left") as err:
            src[rows]
        assert err.value.offset == offset

    @pytest.mark.parametrize("read", [data_io.load_features, read_slices, read_gather],
                             ids=["load_features", "slices", "gather"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_its_row(self, tmp_path, read, value):
        x = np.ones((8, 3), dtype=np.float32)
        x[5, 2] = value
        x[7, 0] = value
        path = tmp_path / "x.csqf"
        write_features_unchecked(path, x)
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
        with pytest.raises(DimensionError, match="3 feature rows, 2 label rows"):
            data_io.Dataset(data_io.load_features(fpath), data_io.load_labels(lpath))

    def test_non_binary_entry_rejected_on_save(self, tmp_path):
        labels = np.eye(3, dtype=np.uint8)
        labels[1, 2] = 2
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            data_io.save_labels(tmp_path / "y.csql", labels)
        assert not (tmp_path / "y.csql").exists()

    @pytest.mark.parametrize("value", [0.5, 256, np.nan, -1])
    def test_entry_other_than_0_or_1_rejected_before_the_cast(self, tmp_path, value):
        # cast to uint8 first, 0.5 and 256 would be written as 0
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            data_io.save_labels(tmp_path / "y.csql", np.array([[1, value], [0, 1]]))
        assert not (tmp_path / "y.csql").exists()

    def test_save_memory_is_bounded_by_the_matrix(self, tmp_path):
        # the 0/1 check must not build a temporary per entry: 50k x 21 labels
        # (1.05 MB) peaked at 12.6 MB with an np.isin check
        rng = np.random.default_rng(0)
        labels = (rng.random((50_000, 21)) < 0.1).astype(np.uint8)
        labels[np.arange(50_000), rng.integers(0, 21, 50_000)] = 1
        tracemalloc.start()
        try:
            data_io.save_labels(tmp_path / "y.csql", labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < labels.nbytes
        assert np.array_equal(data_io.load_labels(tmp_path / "y.csql"), labels)


class TestLabelBitsets:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(1, 70), q=st.integers(1, 40))
    def test_equals_the_packed_transpose_of_load_labels(self, tmp_path, data, n, q):
        # q up to 40 puts categories in up to five bytes of each packed row
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n * q, max_size=n * q))
        path = tmp_path / "y.csql"
        labels = np.array(bits, dtype=np.uint8).reshape(n, q)
        labels[np.arange(n), np.arange(n) % q] = 1  # every row needs a category
        data_io.save_labels(path, labels)
        bitsets, rows = data_io.load_label_bitsets(path)
        assert rows == n
        assert bitsets.dtype == np.uint8
        assert np.array_equal(bitsets, np.packbits(data_io.load_labels(path).T, axis=1,
                                                   bitorder="little"))

    @pytest.mark.parametrize("payload, q, message", [
        (bytes([1] * 19 + [0] + [2] * 5), 4, "label row 19 has no category set"),
        (bytes([1, 0x21]), 5, "nonzero padding bits (byte offset 20)"),  # bit 5 of row 1
    ], ids=["empty_row", "padding_bits"])
    def test_errors_equal_load_labels(self, tmp_path, payload, q, message):
        path = tmp_path / "y.csql"
        path.write_bytes(binfmt.header(data_io.MAGIC_LABELS) + binfmt.u64(len(payload))
                         + binfmt.u32(q) + payload)
        errors = []
        for read in (data_io.load_labels, data_io.load_label_bitsets):
            with pytest.raises((InvalidLabelError, FormatError), match=re.escape(message)) as err:
                read(path)
            errors.append((type(err.value), str(err.value), getattr(err.value, "offset", None)))
        assert errors[0] == errors[1]

    def test_memory_is_the_file_and_the_bitsets(self, tmp_path):
        # beyond the file's bytes and the bitsets, one (n,) buffer: no unpacked
        # (rows, q) block and no transposed copy of one
        n, q = 100_000, 80
        rng = np.random.default_rng(0)
        labels = (rng.random((n, q)) < 0.1).astype(np.uint8)
        labels[np.arange(n), np.arange(n) % q] = 1
        path = tmp_path / "y.csql"
        data_io.save_labels(path, labels)
        tracemalloc.start()
        try:
            bitsets, _ = data_io.load_label_bitsets(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + bitsets.nbytes + n + 64 * 1024


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
        assert ds.features.shape[0] == 800 and ds.labels.shape[1] == 8

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

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ValueError, match="config line 3: key 'epochs' already set on line 1"):
            config.parse_config_text("epochs = 5\nk = 32\n epochs=7  # again\n")
