import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from centerhash import hamming
from centerhash.errors import DimensionError, FormatError, NumericError
from centerhash.hamming import PackedCode, binarize, hamming_distance, unpack


def code(bits):
    return PackedCode.from_bits(np.array(bits, dtype=np.uint8))


def test_distance_example():
    assert hamming_distance(code([1, 0, 1, 0]), code([0, 1, 1, 0])) == 2


def test_distance_identity():
    a = code([1, 0, 1, 1, 0, 1])
    assert hamming_distance(a, a) == 0


def test_distance_complement_k64():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=64, dtype=np.uint8)
    assert hamming_distance(code(bits), code(1 - bits)) == 64


def test_distance_k_mismatch():
    with pytest.raises(DimensionError):
        hamming_distance(code([0, 1]), code([0, 1, 1]))


def test_binarize_examples():
    assert np.array_equal(binarize([0.9, 0.1]).bits(), [1, 0])
    assert np.array_equal(binarize([0.5]).bits(), [1])  # tie goes to 1
    assert np.array_equal(binarize([0.49999, 0.50001]).bits(), [0, 1])


def test_binarize_rejects_nan():
    with pytest.raises(NumericError):
        binarize([0.2, float("nan")])


def test_unpack_zero_vector():
    assert np.array_equal(unpack(code([0] * 13)), np.zeros(13, dtype=np.uint8))


def test_k65_uses_two_words():
    c = code([1] * 65)
    assert c.words.shape == (2,)
    assert np.array_equal(c.bits(), np.ones(65, dtype=np.uint8))


def test_pack_unpack_roundtrip_many():
    rng = np.random.default_rng(42)
    for k in (1, 3, 8, 16, 63, 64, 65, 128, 130):
        bits = rng.integers(0, 2, size=(1000 // 8, k), dtype=np.uint8)
        words = hamming.pack_matrix(bits)
        assert words.shape == (bits.shape[0], hamming.words_per_code(k))
        assert np.array_equal(hamming.unpack_matrix(words, k), bits)


bit_lists = st.integers(2, 100).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(0, 1), min_size=k, max_size=k),
        st.lists(st.integers(0, 1), min_size=k, max_size=k),
        st.lists(st.integers(0, 1), min_size=k, max_size=k),
    )
)


@given(bit_lists)
def test_distance_is_a_metric(triple):
    a, b, c = (code(t) for t in triple)
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert (hamming_distance(a, b) == 0) == (a == b)
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


@given(bit_lists)
def test_distance_matches_pm1_dot_product(triple):
    a, b, _ = triple
    k = len(a)
    pa = 2 * np.array(a) - 1
    pb = 2 * np.array(b) - 1
    assert hamming_distance(code(a), code(b)) == (k - pa @ pb) / 2


@settings(max_examples=25)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80))
def test_binarize_threshold_rule(h):
    bits = binarize(h).bits()
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


def test_pairwise_distances_blocked_matches_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    k = 70
    a = rng.integers(0, 2, size=(9, k), dtype=np.uint8)
    b = rng.integers(0, 2, size=(4, k), dtype=np.uint8)
    # b is 4 rows of 2 words: 8 words per block is one row of a, 20 is two
    for block_words in (8, 20, hamming.PAIRWISE_BLOCK_WORDS):
        monkeypatch.setattr(hamming, "PAIRWISE_BLOCK_WORDS", block_words)
        got = hamming.pairwise_distances(hamming.pack_matrix(a), hamming.pack_matrix(b))
        assert got.dtype == np.int64
        assert got.tolist() == [[oracle.dist(x, y) for y in b] for x in a]
