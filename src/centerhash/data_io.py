"""Feature and label file ingestion.

Features arrive pre-extracted as an (n, d) float32 matrix, and what is read
of them stays float32 as stored: load_features returns the whole matrix,
while a FeatureFile reads the rows of a slice or an index array on demand,
so training (a batch at a time) and encode (a block at a time) never hold
it all. The model widens each batch or block to float64 when it computes
on it. Labels are multi-hot bitmap rows over q categories. Both formats
are flat, seekable, and language-neutral.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import binfmt, hamming
from .errors import DimensionError, FormatError, InvalidLabelError

MAGIC_FEATURES = b"CSQF"
MAGIC_LABELS = b"CSQL"
EMPTY_LABELS = "empty label file (n={n}, q={k})"


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float32 as stored (load_features), or any real dtype
    labels: np.ndarray  # (n, q) uint8 multi-hot

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise DimensionError(
                f"{self.features.shape[0]} feature rows, {self.labels.shape[0]} label rows"
            )


def save_features(path, features) -> None:
    """Write an (n, d) feature matrix (magic CSQF, f32 row-major). An empty one, or
    one with a value not finite as float32, raises ValueError before any file is made."""
    x = np.asarray(features)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"need a nonempty 2-d feature matrix, got shape {x.shape}")
    with np.errstate(over="ignore"):  # past float32's range is inf, rejected below
        x = np.ascontiguousarray(x, dtype="<f4")
    if not (math.isfinite(x.max()) and math.isfinite(x.min())):
        bad = np.flatnonzero(~np.isfinite(x))[0]
        raise ValueError(f"feature row {bad // x.shape[1]} is not finite")
    with binfmt.atomic_write(path) as f:
        f.write(binfmt.rows_header(MAGIC_FEATURES, *x.shape))
        f.write(x)


@dataclass(frozen=True)
class FeatureFile:
    """A feature file whose header and length are checked; rows are read on demand."""

    path: str
    n: int
    d: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.d)

    def __getitem__(self, rows) -> np.ndarray:
        """Rows as stored float32, read straight into a fresh result: those of a step-1
        slice with one readinto, or those a 1-d integer array names, in its order, with
        one os.preadv each. A file cut after open_features raises FormatError at the
        first offset it cannot fill, a NaN or infinite value at the offset of the first
        row read that holds one: it reaches the max or the min, so the check needs no
        mask. A step raises ValueError, and an index array that is not 1-d integers in
        [0, n) raises IndexError, before any read."""
        if isinstance(rows, slice):
            read = range(*rows.indices(self.n))
            if read.step != 1:
                raise ValueError(f"feature rows are read in order, got step {read.step}")
        else:
            read = np.asarray(rows)
            if read.ndim != 1 or read.dtype.kind not in "iu":
                raise IndexError(f"feature rows are a slice or a 1-d integer array, "
                                 f"got {read.dtype} of shape {read.shape}")
            if read.size and not (0 <= read.min() and read.max() < self.n):
                raise IndexError(f"feature row index out of range [0, {self.n})")
        return self._read_into(read, np.empty((len(read), self.d), dtype="<f4"))

    def _read_into(self, read, out: np.ndarray) -> np.ndarray:
        """Rows `read` (a range or indices) into out, read and checked as __getitem__ says."""
        with open(self.path, "rb") as f:
            if isinstance(read, range):
                f.seek(at := binfmt.ROWS_AT + 4 * read.start * self.d)
                if (got := f.readinto(out)) != out.nbytes:
                    raise FormatError(f"truncated file: wanted {out.nbytes} bytes, {got} left",
                                      offset=at)
            else:
                fd = f.fileno()
                for row, buf in zip(read.tolist(), out):
                    at = binfmt.ROWS_AT + 4 * row * self.d
                    if (got := os.preadv(fd, [buf], at)) != buf.nbytes:
                        raise FormatError(f"truncated file: wanted {buf.nbytes} bytes, "
                                          f"{got} left", offset=at)
        if out.size and not (math.isfinite(out.max()) and math.isfinite(out.min())):
            row = int(read[int(np.flatnonzero(~np.isfinite(out))[0]) // self.d])
            raise FormatError(f"feature row {row} is not finite",
                              offset=binfmt.ROWS_AT + 4 * row * self.d)
        return out


def open_features(path) -> FeatureFile:
    """Check a feature file's header and length (magic CSQF) without reading its rows."""
    n, d = binfmt.check_rows(binfmt.read_head(path), MAGIC_FEATURES, 32,
                             "empty feature file (n={n}, d={k})")
    return FeatureFile(str(path), n, d)


def load_features(path) -> np.ndarray:
    """Read a feature file into an (n, d) float32 matrix, the values as stored."""
    return open_features(path)[:]


def save_labels(path, labels) -> None:
    """Write (n, q) multi-hot labels (magic CSQL, bitmap rows LSB-first)."""
    y = np.asarray(labels)
    if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
        raise ValueError(f"need a nonempty 2-d label matrix, got shape {y.shape}")
    hamming.check_bits(y, "labels")  # before the cast, which would wrap 256 to 0
    y = y.astype(np.uint8, copy=False)
    if (y.sum(axis=1) == 0).any():
        raise InvalidLabelError("every sample needs at least one label")
    binfmt.save_bit_rows(path, MAGIC_LABELS, np.packbits(y, axis=1, bitorder="little"), y.shape[1])


def label_shape(path) -> tuple[int, int]:
    """(n, q) of a label file whose header and length are checked, its rows not read."""
    return binfmt.check_rows(binfmt.read_head(path), MAGIC_LABELS, 1, EMPTY_LABELS)


def _label_rows(path) -> tuple[np.ndarray, int]:
    """A label file's (n, ceil(q/8)) bit rows and q, checked by load_bit_rows and for a
    row without a category."""
    rows, q = binfmt.load_bit_rows(path, MAGIC_LABELS, EMPTY_LABELS)
    empty = np.flatnonzero(~rows.any(axis=1))
    if empty.size:
        raise InvalidLabelError(f"label row {int(empty[0])} has no category set")
    return rows, q


def load_labels(path) -> hamming.PackedRows:
    """Read a label file as its packed rows, a hamming.PackedRows: [:] is the (n, q)
    uint8 multi-hot matrix, and indexing unpacks only the rows it selects."""
    rows, q = _label_rows(path)
    return hamming.PackedRows(hamming.bytes_to_words(rows, q), q)


def load_label_bitsets(path) -> tuple[np.ndarray, int]:
    """Read a label file as per-category bitsets; returns ((q, ceil(n/8)) uint8, n), bit i
    of row c (LSB-first) set iff row i has category c. The checks are load_labels'. The
    (n, q) matrix is never held: category c's bit is masked out of byte column c // 8 of
    the packed rows into one reused (n,) buffer, which is packed into row c."""
    rows, q = _label_rows(path)
    n = rows.shape[0]
    bitsets = np.empty((q, (n + 7) // 8), dtype=np.uint8)
    column = np.empty(n, dtype=np.uint8)
    for c in range(q):
        np.bitwise_and(rows[:, c >> 3], 1 << (c & 7), out=column)
        bitsets[c] = np.packbits(column, bitorder="little")
    return bitsets, n
