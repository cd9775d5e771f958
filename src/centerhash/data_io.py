"""Feature and label file ingestion.

Features arrive pre-extracted as an (n, d) float32 matrix; labels are
multi-hot bitmap rows over q categories. Both formats are flat,
seekable, and language-neutral.
"""

import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import binfmt, hamming
from .errors import DimensionError, FormatError, InvalidLabelError

MAGIC_FEATURES = b"CSQF"
MAGIC_LABELS = b"CSQL"

FEATURES_AT = 20  # byte offset of the first feature row: magic, version, u64 n, u32 d
# float32 values per block that load_features reads (4 MiB)
READ_BLOCK_VALUES = 1 << 20


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64 working precision
    labels: np.ndarray  # (n, q) uint8 multi-hot
    split: str = "train"

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise DimensionError(
                f"{self.features.shape[0]} feature rows, {self.labels.shape[0]} label rows"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def q(self) -> int:
        return self.labels.shape[1]


def save_features(path, features) -> None:
    """Write an (n, d) feature matrix (magic CSQF, f32 row-major)."""
    x = np.asarray(features)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"need a nonempty 2-d feature matrix, got shape {x.shape}")
    with binfmt.atomic_write(path) as f:
        f.write(binfmt.header(MAGIC_FEATURES))
        f.write(binfmt.u64(x.shape[0]))
        f.write(binfmt.u32(x.shape[1]))
        f.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


@dataclass(frozen=True)
class FeatureFile:
    """A feature file whose header and length are checked; rows are read on demand."""

    path: str
    n: int
    d: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.d)

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """Yield the rows in order as float64 blocks of at most `rows` rows.

        Each block is checked before it is yielded: a NaN or infinite
        value raises FormatError at the offset of the first row holding one.
        """
        raw = np.empty((min(rows, self.n), self.d), dtype="<f4")
        with open(self.path, "rb") as f:
            f.seek(FEATURES_AT)
            for start in range(0, self.n, rows):
                block = raw[: min(rows, self.n - start)]
                got = f.readinto(block)
                if got != block.nbytes:  # the file shrank after open_features
                    raise FormatError(
                        f"truncated file: wanted {block.nbytes} bytes, {got} left",
                        offset=FEATURES_AT + 4 * start * self.d,
                    )
                finite = np.isfinite(block)
                if not finite.all():
                    row = start + int(np.flatnonzero(~finite.all(axis=1))[0])
                    raise FormatError(
                        f"feature row {row} is not finite", offset=FEATURES_AT + 4 * row * self.d
                    )
                yield block.astype(np.float64)


def open_features(path) -> FeatureFile:
    """Check a feature file's header and length (magic CSQF) without reading its rows."""
    with open(path, "rb") as f:
        r = binfmt.Reader(f.read(FEATURES_AT), size=os.fstat(f.fileno()).st_size)
    r.expect_magic(MAGIC_FEATURES)
    n = r.u64()
    d = r.u32()
    if n == 0 or d == 0:
        raise FormatError(f"empty feature file (n={n}, d={d})", offset=8)
    r.skip(4 * n * d)
    r.expect_end()
    return FeatureFile(str(path), n, d)


def load_features(path) -> np.ndarray:
    """Read features into float64 working precision."""
    src = open_features(path)
    out = np.empty(src.shape, dtype=np.float64)
    rows = max(1, READ_BLOCK_VALUES // src.d)
    for start, block in zip(range(0, src.n, rows), src.blocks(rows)):
        out[start : start + len(block)] = block
    return out


def save_labels(path, labels) -> None:
    """Write (n, q) multi-hot labels (magic CSQL, bitmap rows LSB-first)."""
    y = np.asarray(labels, dtype=np.uint8)
    if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
        raise ValueError(f"need a nonempty 2-d label matrix, got shape {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if (y.sum(axis=1) == 0).any():
        raise InvalidLabelError("every sample needs at least one label")
    with binfmt.atomic_write(path) as f:
        f.write(binfmt.header(MAGIC_LABELS))
        f.write(binfmt.u64(y.shape[0]))
        f.write(binfmt.u32(y.shape[1]))
        f.write(np.packbits(y, axis=1, bitorder="little").tobytes())


def load_labels(path) -> np.ndarray:
    r = binfmt.read_file(path)
    r.expect_magic(MAGIC_LABELS)
    n = r.u64()
    q = r.u32()
    if n == 0 or q == 0:
        raise FormatError(f"empty label file (n={n}, q={q})", offset=8)
    row_bytes = hamming.bytes_per_code(q)
    rows_at = r.offset
    raw = r.take(n * row_bytes)
    r.expect_end()
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, row_bytes)
    if q % 8 and (rows[:, -1] >> (q % 8)).any():
        raise FormatError("nonzero padding bits", offset=rows_at)
    labels = np.unpackbits(rows, axis=1, count=q, bitorder="little")
    empty = np.flatnonzero(labels.sum(axis=1) == 0)
    if empty.size:
        raise InvalidLabelError(f"label row {int(empty[0])} has no category set")
    return labels


def load_dataset(features_path, labels_path, split: str = "train") -> Dataset:
    return Dataset(
        features=load_features(features_path),
        labels=load_labels(labels_path),
        split=split,
    )
