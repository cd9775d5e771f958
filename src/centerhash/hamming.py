"""Bit-packed binary codes and Hamming-distance primitives.

Bit order is LSB-first everywhere: bit ``i`` of a code lives at bit
``i % 8`` of byte ``i // 8``, and bytes group little-endian into 64-bit
words. The in-memory word layout therefore matches the serialized byte
layout, and padding bits past ``k`` are always zero so popcounts over
whole words are exact distances.
"""

import numpy as np

from . import binfmt
from .errors import DimensionError, NumericError

MAGIC_CODES = b"CSQC"


def words_per_code(k: int) -> int:
    return (k + 63) // 64


def bytes_per_code(k: int) -> int:
    return (k + 7) // 8


def pack_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack an (n, k) array of {0,1} into (n, ceil(k/64)) uint64 words."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise DimensionError(f"expected a 2-d bit matrix, got shape {bits.shape}")
    n, k = bits.shape
    if k == 0:
        raise DimensionError("codes must have at least one bit")
    check_bits(bits, "bit matrix entries")
    packed = np.packbits(bits.astype(np.uint8, copy=False), axis=1, bitorder="little")
    return bytes_to_words(packed, k)


def check_bits(bits: np.ndarray, what: str) -> None:
    """Raise ValueError unless every entry of `bits` is 0 or 1. A bool array (a
    thresholded batch) is 0/1 by construction, and an unsigned one iff its max is at
    most 1, a check with no temporary array."""
    if bits.dtype.kind == "u":
        valid = bits.size == 0 or bits.max() <= 1
    else:
        valid = bits.dtype == np.bool_ or ((bits == 0) | (bits == 1)).all()
    if not valid:
        raise ValueError(f"{what} must be 0 or 1")


def unpack_matrix(words: np.ndarray, k: int) -> np.ndarray:
    """Inverse of pack_matrix; returns an (n, k) uint8 array."""
    data = _words_to_bytes(words)[:, : bytes_per_code(k)]
    return np.unpackbits(data, axis=1, count=k, bitorder="little")


class PackedRows:
    """(n, W) packed words read as the (n, k) 0/1 matrix they hold: indexing
    unpacks only the rows it selects, so the whole matrix is never built."""

    def __init__(self, words: np.ndarray, k: int):
        self.words = words
        self.shape = (words.shape[0], k)

    def __getitem__(self, rows) -> np.ndarray:
        return unpack_matrix(self.words[rows], self.shape[1])


def bytes_to_words(rows: np.ndarray, k: int) -> np.ndarray:
    # a little-endian view, so the byte order never depends on the platform
    padded = np.zeros((rows.shape[0], 8 * words_per_code(k)), dtype=np.uint8)
    padded[:, : rows.shape[1]] = rows
    return padded.view("<u8")


def _words_to_bytes(words: np.ndarray) -> np.ndarray:
    """All 8 * W bytes of each row of (n, W) words, little-endian."""
    return np.ascontiguousarray(words, dtype="<u8").view(np.uint8)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All Hamming distances between rows of two packed word matrices: column j
    of the (len(a), len(b)) int64 result is distances_to(b[j], a). Every caller's
    b is a center set, so the loop over its rows is short."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"word counts differ: {a.shape[1]} vs {b.shape[1]}")
    columns = [distances_to(row, a) for row in b]
    if not columns:
        return np.empty((a.shape[0], 0), dtype=np.int64)
    # one cast after the stack: stacking straight into int64 is twice as slow
    return np.stack(columns, axis=1).astype(np.int64)


def distances_to(query_words: np.ndarray, db_words: np.ndarray) -> np.ndarray:
    """Hamming distance from one packed code to every row of a database.

    The sum is in the smallest unsigned dtype that holds 64 * W for W words
    per code, so the result serves as a sort key as it is.
    """
    query_words = np.asarray(query_words, dtype=np.uint64)
    db_words = np.asarray(db_words, dtype=np.uint64)
    if query_words.shape != (db_words.shape[1],):
        raise DimensionError(
            f"query has {query_words.shape} words, database rows have {db_words.shape[1]}"
        )
    counts = np.bitwise_count(db_words ^ query_words[None, :])
    # adding the word columns is about twice as fast as .sum(axis=1) from two words on
    out = counts[:, 0].astype(np.min_scalar_type(64 * db_words.shape[1]))
    for column in counts.T[1:]:
        out += column
    return out


def binarize_matrix(h: np.ndarray) -> np.ndarray:
    """Threshold an (n, k) batch of relaxed codes into packed words."""
    h = np.asarray(h, dtype=np.float64)
    if not np.isfinite(h).all():
        raise NumericError("relaxed codes contain NaN or infinity")
    return pack_matrix(h >= 0.5)


def save_codes(path, words: np.ndarray, k: int) -> None:
    """Write (n, words_per_code(k)) packed codes to a code file (magic CSQC).

    Codes of the wrong width or with a bit set past k raise ValueError
    before any file is created.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2 or words.shape[1] != words_per_code(k):
        raise ValueError(f"k={k} needs {words_per_code(k)} words per code, got shape {words.shape}")
    data = _words_to_bytes(words)
    if data[:, bytes_per_code(k) :].any():
        raise ValueError(f"nonzero padding bits past k={k}")
    binfmt.save_bit_rows(path, MAGIC_CODES, data[:, : bytes_per_code(k)], k)


def load_codes(path) -> tuple[np.ndarray, int]:
    """Read a code file; returns ((n, W) uint64 words, k)."""
    rows, k = binfmt.load_bit_rows(path, MAGIC_CODES, "empty code file (n={n}, k={k})")
    return bytes_to_words(rows, k), k
