import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from centerhash import hamming
from centerhash.errors import DimensionError, FormatError, NumericError


def code(bits):
    """One code as a (W,) row of packed words."""
    return hamming.pack_matrix(np.array([bits], dtype=np.uint8))[0]


def distance(a, b):
    return int(hamming.distances_to(code(a), code(b)[None, :])[0])


def bits_of(h):
    """binarize_matrix on one relaxed code, unpacked to its k bits."""
    return hamming.unpack_matrix(hamming.binarize_matrix([h]), len(h))[0]


def test_distance_example():
    assert distance([1, 0, 1, 0], [0, 1, 1, 0]) == 2


def test_distance_identity():
    a = [1, 0, 1, 1, 0, 1]
    assert distance(a, a) == 0


def test_distance_complement_k64():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=64, dtype=np.uint8)
    assert distance(bits, 1 - bits) == 64
    pair = hamming.pairwise_distances(code(bits)[None, :], code(1 - bits)[None, :])
    assert pair.tolist() == [[64]]


def test_distance_k_mismatch():
    # k=64 packs into one word and k=65 into two
    one, two = code([0] * 64), code([0] * 65)
    with pytest.raises(DimensionError):
        hamming.distances_to(one, two[None, :])
    with pytest.raises(DimensionError):
        hamming.pairwise_distances(one[None, :], two[None, :])


def test_binarize_examples():
    assert np.array_equal(bits_of([0.9, 0.1]), [1, 0])
    assert np.array_equal(bits_of([0.5]), [1])  # tie goes to 1
    assert np.array_equal(bits_of([0.49999, 0.50001]), [0, 1])


def test_binarize_rejects_nan():
    with pytest.raises(NumericError):
        hamming.binarize_matrix([[0.2, float("nan")]])


def test_unpack_zero_vector():
    zeros = np.zeros(13, dtype=np.uint8)
    assert np.array_equal(hamming.unpack_matrix(code(zeros)[None, :], 13)[0], zeros)


def test_k65_uses_two_words():
    c = code([1] * 65)
    assert c.shape == (2,)
    assert np.array_equal(hamming.unpack_matrix(c[None, :], 65)[0], np.ones(65, dtype=np.uint8))


def test_pack_unpack_roundtrip_many():
    rng = np.random.default_rng(42)
    for k in (1, 3, 8, 16, 63, 64, 65, 128, 130):
        bits = rng.integers(0, 2, size=(1000 // 8, k), dtype=np.uint8)
        words = hamming.pack_matrix(bits)
        assert words.shape == (bits.shape[0], hamming.words_per_code(k))
        assert np.array_equal(hamming.unpack_matrix(words, k), bits)


@pytest.mark.parametrize("k", [12, 64, 70])
def test_packed_rows_unpack_only_the_rows_they_select(k):
    bits = np.random.default_rng(k).integers(0, 2, size=(32, k), dtype=np.uint8)
    rows = hamming.PackedRows(hamming.pack_matrix(bits), k)
    assert rows.shape == (32, k)
    sel = np.array([5, 0, 31, 5, 17])
    got = rows[sel]
    assert got.dtype == np.uint8 and np.array_equal(got, bits[sel])
    assert np.array_equal(rows[3:10], bits[3:10])


@pytest.mark.parametrize(
    "bits",
    [
        np.array([[0, 2]], dtype=np.uint8),
        np.array([[1, 255]], dtype=np.uint16),
        np.array([[0, -1]], dtype=np.int8),
        np.array([[1.0, 0.5]]),
        np.array([[0.0, np.nan]]),
    ],
    ids=["uint8", "uint16", "int8", "half", "nan"],
)
def test_pack_matrix_rejects_non_bits(bits):
    with pytest.raises(ValueError, match="bit matrix entries must be 0 or 1"):
        hamming.pack_matrix(bits)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32, bool])
def test_pack_matrix_accepts_bits_of_any_real_dtype(dtype):
    bits = np.array([[1, 0, 1], [0, 0, 1]])
    assert np.array_equal(hamming.unpack_matrix(hamming.pack_matrix(bits.astype(dtype)), 3), bits)
    assert hamming.pack_matrix(np.zeros((0, 3), dtype=dtype)).shape == (0, 1)


def test_pack_matrix_makes_no_temporary_as_large_as_its_input():
    # an assignment matrix of multilabel-run's size: 50k rows of k=48
    bits = np.random.default_rng(0).integers(0, 2, size=(50_000, 48), dtype=np.uint8)
    tracemalloc.start()
    try:
        hamming.pack_matrix(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bits.nbytes


bit_lists = st.integers(2, 100).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(0, 1), min_size=k, max_size=k),
        st.lists(st.integers(0, 1), min_size=k, max_size=k),
        st.lists(st.integers(0, 1), min_size=k, max_size=k),
    )
)


@given(bit_lists)
def test_distance_is_a_metric(triple):
    a, b, c = triple
    assert distance(a, b) == distance(b, a)
    assert (distance(a, b) == 0) == (a == b)
    assert distance(a, c) <= distance(a, b) + distance(b, c)
    # the batch path gives the same distances
    words = hamming.pack_matrix(np.array(triple, dtype=np.uint8))
    assert hamming.pairwise_distances(words, words)[0].tolist() == [distance(a, x) for x in triple]


@given(bit_lists)
def test_distance_matches_pm1_dot_product(triple):
    a, b, _ = triple
    k = len(a)
    pa = 2 * np.array(a) - 1
    pb = 2 * np.array(b) - 1
    assert distance(a, b) == (k - pa @ pb) / 2


@settings(max_examples=25)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80))
def test_binarize_threshold_rule(h):
    bits = bits_of(h)
    for value, bit in zip(h, bits):
        assert bit == (1 if value >= 0.5 else 0)


def test_codes_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=(17, 19), dtype=np.uint8)
    words = hamming.pack_matrix(bits)
    path = tmp_path / "codes.csqc"
    hamming.save_codes(path, words, 19)
    loaded, k = hamming.load_codes(path)
    assert k == 19
    assert np.array_equal(loaded, words)


def test_codes_file_bad_magic(tmp_path):
    path = tmp_path / "codes.csqc"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError) as err:
        hamming.load_codes(path)
    assert err.value.offset == 0


def test_codes_file_truncated(tmp_path):
    bits = np.ones((4, 16), dtype=np.uint8)
    path = tmp_path / "codes.csqc"
    hamming.save_codes(path, hamming.pack_matrix(bits), 16)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(FormatError) as err:
        hamming.load_codes(path)
    assert err.value.offset is not None


def test_codes_file_trailing_bytes(tmp_path):
    bits = np.ones((4, 16), dtype=np.uint8)
    path = tmp_path / "codes.csqc"
    hamming.save_codes(path, hamming.pack_matrix(bits), 16)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError):
        hamming.load_codes(path)


def test_codes_file_nonzero_padding(tmp_path):
    path = tmp_path / "codes.csqc"
    hamming.save_codes(path, hamming.pack_matrix(np.ones((1, 5), dtype=np.uint8)), 5)
    data = bytearray(path.read_bytes())
    data[-1] |= 0x80  # set a bit past k=5 in the final byte
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        hamming.load_codes(path)


@pytest.mark.parametrize(
    "words, k",
    [
        ([[0xFF]], 5),  # bits set past k
        ([[1 << 8]], 5),  # a bit set in a byte past ceil(k/8)
        ([[1]], 100),  # one word where k needs two
        ([[1, 2, 3]], 64),  # three words where k needs one
    ],
)
def test_save_codes_rejects_what_load_codes_would(tmp_path, words, k):
    with pytest.raises(ValueError):
        hamming.save_codes(tmp_path / "codes.csqc", np.array(words, dtype=np.uint64), k)
    assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file


@pytest.mark.parametrize("k", [13, 64, 70, 128, 130])  # 1, 1 full, 2, 2 full and 3 words
@pytest.mark.parametrize("m", [4, 0])  # m=0: no centers, no columns
def test_pairwise_distances_matches_oracle(k, m):
    rng = np.random.default_rng(11)
    a = rng.integers(0, 2, size=(9, k), dtype=np.uint8)
    b = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
    got = hamming.pairwise_distances(hamming.pack_matrix(a), hamming.pack_matrix(b))
    assert got.dtype == np.int64 and got.shape == (9, m)
    assert got.tolist() == [[oracle.dist(x, y) for y in b] for x in a]


@pytest.mark.parametrize(
    "k, dtype", [(1, np.uint8), (64, np.uint8), (65, np.uint8), (200, np.uint16), (300, np.uint16)]
)
def test_distances_to_sums_in_the_smallest_key_dtype(k, dtype):
    rng = np.random.default_rng(k)
    db = rng.integers(0, 2, size=(7, k), dtype=np.uint8)
    db[0] = 1  # the complement of the query: distance k
    query = np.zeros(k, dtype=np.uint8)
    got = hamming.distances_to(hamming.pack_matrix(query[None])[0], hamming.pack_matrix(db))
    assert got.dtype == dtype  # holds 64 * W, W words per code
    assert got.tolist() == [oracle.dist(row, query) for row in db]
