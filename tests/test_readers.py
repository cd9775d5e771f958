"""Every file reader against malformed and hostile input.

A reader may return, or raise FormatError with a byte offset, or (for a
label row without a category) InvalidLabelError. Anything else, such as
an IndexError, a MemoryError or an allocation sized by a hostile header,
is a bug.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from centerhash import binfmt, centers, data_io, hamming, model
from centerhash.errors import FormatError, InvalidLabelError


def slices(path):
    """The rows from row 1 on, two at a time: reads that start mid-file."""
    src = data_io.open_features(path)
    return [src[s : s + 2] for s in range(1, src.n, 2)]


# reader name -> (read function, the magic its files start with)
READERS = {
    "load_codes": (hamming.load_codes, hamming.MAGIC_CODES),
    "load_centers": (centers.load_centers, centers.MAGIC_CENTERS),
    "load_labels": (data_io.load_labels, data_io.MAGIC_LABELS),
    "load_label_bitsets": (data_io.load_label_bitsets, data_io.MAGIC_LABELS),
    "load_model": (model.load_model, model.MAGIC_MODEL),
    "load_features": (data_io.load_features, data_io.MAGIC_FEATURES),
    "slices": (slices, data_io.MAGIC_FEATURES),
}


def write_valid(name, path):
    """Write a small valid file for reader `name`; k=13 leaves three padding bits."""
    rng = np.random.default_rng(0)
    if name == "load_codes":
        hamming.save_codes(path, hamming.pack_matrix(rng.integers(0, 2, (3, 13))), 13)
    elif name == "load_centers":
        centers.save_centers(path, centers.generate_centers(3, 13, seed=0))
    elif name in ("load_labels", "load_label_bitsets"):
        data_io.save_labels(path, np.eye(13, dtype=np.uint8)[[0, 5, 12]])
    elif name == "load_model":
        model.save_model(path, model.init_model(3, 5, hidden=(2, 2), seed=0))
    else:
        data_io.save_features(path, rng.normal(size=(3, 2)))
    return path.read_bytes()


def check(read, path, data):
    """Read `data` from `path`; only the allowed outcomes pass."""
    path.write_bytes(data)
    try:
        read(path)
    except FormatError as exc:
        assert exc.offset is not None, exc
    except InvalidLabelError:
        pass


fuzz = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name", sorted(READERS))
@fuzz
@given(prefix=st.sampled_from(["", "magic", "header"]), tail=st.binary(max_size=80))
def test_arbitrary_bytes(tmp_path, name, prefix, tail):
    read, magic = READERS[name]
    head = {"": b"", "magic": magic, "header": binfmt.header(magic)}[prefix]
    check(read, tmp_path / "f", head + tail)


@pytest.mark.parametrize("name", ["load_codes", "load_centers", "load_labels",
                                  "load_label_bitsets"])
@fuzz
@given(n=st.integers(0, 4), k=st.integers(0, 20), extra=st.integers(-1, 1), data=st.data())
def test_bit_rows_with_a_plausible_header(tmp_path, name, n, k, extra, data):
    # sizes near the right length reach the padding and empty-row checks
    size = max(0, n * ((k + 7) // 8) + extra)
    payload = data.draw(st.binary(min_size=size, max_size=size))
    read, magic = READERS[name]
    check(read, tmp_path / "f", binfmt.header(magic) + binfmt.u64(n) + binfmt.u32(k) + payload)


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_truncation_is_a_format_error(tmp_path, name):
    read = READERS[name][0]
    valid = write_valid(name, tmp_path / "valid")
    read(tmp_path / "valid")
    for cut in range(len(valid)):
        (tmp_path / "f").write_bytes(valid[:cut])
        with pytest.raises(FormatError) as err:
            read(tmp_path / "f")
        assert err.value.offset is not None


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_single_bit_flip(tmp_path, name):
    valid = write_valid(name, tmp_path / "valid")
    for bit in range(8 * len(valid)):
        flipped = bytearray(valid)
        flipped[bit // 8] ^= 1 << (bit % 8)
        check(READERS[name][0], tmp_path / "f", bytes(flipped))


def hostile(name):
    """A header claiming 2**40 rows (or layers of 2**20 x 2**20) over a tiny payload."""
    head = binfmt.header(READERS[name][1])
    if name == "load_model":
        return head + binfmt.u32(4) + b"".join(binfmt.u32(1 << 20) for _ in range(4)) + bytes(64)
    width = 2 if name in ("load_features", "slices") else 13
    return head + binfmt.u64(1 << 40) + binfmt.u32(width) + bytes(64)


@pytest.mark.parametrize("name", sorted(READERS))
def test_hostile_count_fails_the_length_check_without_allocating(tmp_path, name):
    path = tmp_path / "f"
    path.write_bytes(hostile(name))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated file") as err:
            READERS[name][0](path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.offset is not None
    assert peak < 1 << 20


# (reader, file bytes, message without its offset, offset) for the bit-row files
def bit_rows(magic, n, k, payload=b""):
    return binfmt.header(magic) + binfmt.u64(n) + binfmt.u32(k) + payload


BAD_BIT_ROW_FILES = [
    (reader, data, message, offset)
    for reader, magic, noun, count, width in [
        (hamming.load_codes, hamming.MAGIC_CODES, "code", "n", "k"),
        (centers.load_centers, centers.MAGIC_CENTERS, "center", "m", "k"),
        (data_io.load_labels, data_io.MAGIC_LABELS, "label", "n", "q"),
        (data_io.load_label_bitsets, data_io.MAGIC_LABELS, "label", "n", "q"),
    ]
    for data, message, offset in [
        (b"JUNK" + bytes(20), f"bad magic b'JUNK', expected {magic!r}", 0),
        (magic + binfmt.u32(2) + bytes(12), "unsupported version 2", 4),
        (magic[:2], "truncated file: wanted 4 bytes, 2 left", 0),
        (bit_rows(magic, 2, 5)[:14], "truncated file: wanted 8 bytes, 6 left", 8),
        (bit_rows(magic, 0, 5), f"empty {noun} file ({count}=0, {width}=5)", 8),
        (bit_rows(magic, 2, 0), f"empty {noun} file ({count}=2, {width}=0)", 8),
        (bit_rows(magic, 3, 9, bytes(5)), "truncated file: wanted 6 bytes, 5 left", 20),
        (bit_rows(magic, 1, 5, b"\x01zz"), "2 trailing bytes", 21),
        (bit_rows(magic, 2, 5, b"\x01\x21"), "nonzero padding bits", 20),
        (bit_rows(magic, 1 << 40, 13, bytes(64)),
         "truncated file: wanted 2199023255552 bytes, 64 left", 20),
    ]
]


@pytest.mark.parametrize(
    "read, data, message, offset",
    BAD_BIT_ROW_FILES,
    ids=[f"{r.__name__}-{m.split(' (')[0]}" for r, _, m, _ in BAD_BIT_ROW_FILES],
)
def test_bit_row_errors_keep_their_message_and_offset(tmp_path, read, data, message, offset):
    path = tmp_path / "f"
    path.write_bytes(data)
    with pytest.raises(FormatError) as err:
        read(path)
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "rows, k",
    [
        ([[0xFF]], 5),  # bits set past k
        ([[1, 0]], 5),  # two bytes where k needs one
        ([[1]], 9),  # one byte where k needs two
        (np.zeros((0, 1)), 5),  # no rows
        ([[0]], 0),  # no bits
    ],
)
def test_save_bit_rows_rejects_what_load_bit_rows_would(tmp_path, rows, k):
    with pytest.raises(ValueError):
        binfmt.save_bit_rows(tmp_path / "f", hamming.MAGIC_CODES, rows, k)
    assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file
