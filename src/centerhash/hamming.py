"""Bit-packed binary codes and Hamming-distance primitives.

Bit order is LSB-first everywhere: bit ``i`` of a code lives at bit
``i % 8`` of byte ``i // 8``, and bytes group little-endian into 64-bit
words. The in-memory word layout therefore matches the serialized byte
layout, and padding bits past ``k`` are always zero so popcounts over
whole words are exact distances.
"""

from dataclasses import dataclass

import numpy as np

from . import binfmt
from .errors import DimensionError, FormatError, NumericError

MAGIC_CODES = b"CSQC"

_BYTE_SHIFTS = (np.arange(8, dtype=np.uint64) * 8).astype(np.uint64)

# XOR words per block of pairwise_distances (8 MiB of uint64)
PAIRWISE_BLOCK_WORDS = 1 << 20


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
    # a bool matrix (a thresholded batch) is 0/1 by construction
    if bits.dtype != np.bool_ and not np.isin(bits, (0, 1)).all():
        raise ValueError("bit matrix entries must be 0 or 1")
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return _bytes_to_words(packed, k)


def unpack_matrix(words: np.ndarray, k: int) -> np.ndarray:
    """Inverse of pack_matrix; returns an (n, k) uint8 array."""
    data = _words_to_bytes(words, k)
    return np.unpackbits(data, axis=1, count=k, bitorder="little")


def _bytes_to_words(rows: np.ndarray, k: int) -> np.ndarray:
    # explicit shifts instead of a .view() so byte order never depends on platform
    n = rows.shape[0]
    nwords = words_per_code(k)
    padded = np.zeros((n, nwords * 8), dtype=np.uint8)
    padded[:, : rows.shape[1]] = rows
    grouped = padded.reshape(n, nwords, 8).astype(np.uint64)
    return (grouped << _BYTE_SHIFTS).sum(axis=2, dtype=np.uint64)


def _words_to_bytes(words: np.ndarray, k: int) -> np.ndarray:
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim == 1:
        words = words[None, :]
    n = words.shape[0]
    spread = (words[:, :, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)
    return spread.reshape(n, -1)[:, : bytes_per_code(k)].astype(np.uint8)


def popcount_words(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All Hamming distances between rows of two packed word matrices.

    Rows of ``a`` are taken in blocks so the XOR intermediate holds at
    most about ``PAIRWISE_BLOCK_WORDS`` words, whatever the input sizes.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"word counts differ: {a.shape[1]} vs {b.shape[1]}")
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.int64)
    rows = max(1, PAIRWISE_BLOCK_WORDS // max(1, b.size))
    for start in range(0, a.shape[0], rows):
        xor = a[start : start + rows, None, :] ^ b[None, :, :]
        out[start : start + rows] = popcount_words(xor).sum(axis=2, dtype=np.int64)
    return out


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
    key = np.min_scalar_type(64 * db_words.shape[1])
    return popcount_words(db_words ^ query_words[None, :]).sum(axis=1, dtype=key)


@dataclass(frozen=True, eq=False)
class PackedCode:
    """One k-bit binary code stored as little-endian uint64 words."""

    k: int
    words: np.ndarray

    @classmethod
    def from_bits(cls, bits) -> "PackedCode":
        bits = np.atleast_2d(np.asarray(bits))
        code = cls(k=bits.shape[1], words=pack_matrix(bits)[0])
        code.words.flags.writeable = False
        return code

    def bits(self) -> np.ndarray:
        return unpack_matrix(self.words[None, :], self.k)[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedCode):
            return NotImplemented
        return self.k == other.k and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.k, self.words.tobytes()))


def hamming_distance(a: PackedCode, b: PackedCode) -> int:
    """Number of differing bit positions between two equal-length codes."""
    if a.k != b.k:
        raise DimensionError(f"code lengths differ: {a.k} vs {b.k}")
    return int(popcount_words(a.words ^ b.words).sum())


def binarize(h) -> PackedCode:
    """Threshold a relaxed code in [0,1]^k at 0.5 (ties go to 1)."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise DimensionError(f"expected a 1-d relaxed code, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise NumericError("relaxed code contains NaN or infinity")
    return PackedCode.from_bits((h >= 0.5).astype(np.uint8))


def binarize_matrix(h: np.ndarray) -> np.ndarray:
    """Threshold an (n, k) batch of relaxed codes into packed words."""
    h = np.asarray(h, dtype=np.float64)
    if not np.isfinite(h).all():
        raise NumericError("relaxed codes contain NaN or infinity")
    return pack_matrix(h >= 0.5)


def unpack(code: PackedCode) -> np.ndarray:
    """Expand a packed code back to a length-k {0,1} vector."""
    return code.bits()


def save_codes(path, words: np.ndarray, k: int) -> None:
    """Write packed codes to a code file (magic CSQC)."""
    words = np.asarray(words, dtype=np.uint64)
    n = words.shape[0]
    if n < 1 or k < 1:
        raise ValueError("need at least one code of at least one bit")
    payload = _words_to_bytes(words, k).tobytes()
    with binfmt.atomic_write(path) as f:
        f.write(binfmt.header(MAGIC_CODES))
        f.write(binfmt.u64(n))
        f.write(binfmt.u32(k))
        f.write(payload)


def load_codes(path) -> tuple[np.ndarray, int]:
    """Read a code file; returns ((n, W) uint64 words, k)."""
    r = binfmt.read_file(path)
    r.expect_magic(MAGIC_CODES)
    n = r.u64()
    k = r.u32()
    if n == 0 or k == 0:
        raise FormatError(f"empty code file (n={n}, k={k})", offset=8)
    row_bytes = bytes_per_code(k)
    rows_at = r.offset
    raw = r.take(n * row_bytes)
    r.expect_end()
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, row_bytes)
    if k % 8 and (rows[:, -1] >> (k % 8)).any():
        raise FormatError("nonzero padding bits", offset=rows_at)
    return _bytes_to_words(rows, k), k
