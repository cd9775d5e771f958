"""Helpers for the binary file formats.

Every format is: 4 magic bytes, u32 little-endian version, fixed-width
counts, then a payload. All integers are little-endian. Readers reject
wrong magic, unknown versions, truncation, and trailing garbage, and
report the byte offset of the problem. Writers go through atomic_write,
so a crashed writer never leaves a half-written file behind.

Features (CSQF), centers, codes and labels (CSQH, CSQC, CSQL) are row files:
a u64 count n, a u32 width, then n rows from ROWS_AT (rows_header, check_rows).
A feature row is width float32s; a bit row (save_bit_rows, load_bit_rows) is
ceil(k/8) bytes, bit i at bit i % 8 of byte i // 8, the padding past k zero.
"""

import contextlib
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

VERSION = 1
ROWS_AT = 20  # byte offset of a row file's first row: magic, version, u64 n, u32 width


class Reader:
    """A byte buffer with offset tracking for format errors.

    `size` is the length of the whole file when `data` holds only its
    head: `skip` and `expect_end` then check lengths against the file
    without its payload being read. `take` reads only from `data`.
    """

    def __init__(self, data: bytes, size: int | None = None):
        self._data = data
        self.size = len(data) if size is None else size
        self.offset = 0

    def skip(self, n: int) -> None:
        if self.offset + n > self.size:
            raise FormatError(
                f"truncated file: wanted {n} bytes, {self.size - self.offset} left",
                offset=self.offset,
            )
        self.offset += n

    def take(self, n: int) -> bytes:
        start = self.offset
        self.skip(n)
        return self._data[start : self.offset]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def expect_magic(self, magic: bytes) -> None:
        start = self.offset
        got = self.take(len(magic))
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}", offset=start)
        version_at = self.offset
        version = self.u32()
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", offset=version_at)

    def expect_end(self) -> None:
        if self.offset != self.size:
            raise FormatError(f"{self.size - self.offset} trailing bytes", offset=self.offset)


def read_head(path) -> Reader:
    """A row file's first ROWS_AT bytes, checked against the length of the whole file."""
    with open(path, "rb") as f:
        return Reader(f.read(ROWS_AT), size=os.fstat(f.fileno()).st_size)


@contextlib.contextmanager
def atomic_write(path):
    """A new binary file that replaces `path` only if the with-block finishes.

    The block writes a temp file beside `path`, opened with "xb" so its
    permissions follow the umask as open's do. On success os.replace puts
    it in place; on any error it is removed, so `path` keeps its old bytes
    (or stays absent).
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"  # not secrets, which loads OpenSSL
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the file the caller asked for, and only it: an error's
            # filename2 cannot be unset once set, and would print as "-> None"
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def header(magic: bytes) -> bytes:
    return magic + struct.pack("<I", VERSION)


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def rows_header(magic: bytes, n: int, width: int) -> bytes:
    return header(magic) + u64(n) + u32(width)


def check_rows(r: Reader, magic: bytes, unit_bits: int, empty: str) -> tuple[int, int]:
    """(n, width) of a row file whose header and length, n rows of width units of unit_bits
    bits padded to whole bytes, are checked; `empty` (with n and k) names a zero n or width."""
    r.expect_magic(magic)
    n = r.u64()
    width = r.u32()
    if n == 0 or width == 0:
        raise FormatError(empty.format(n=n, k=width), offset=8)
    r.skip(n * ((width * unit_bits + 7) // 8))
    r.expect_end()
    return n, width


def save_bit_rows(path, magic: bytes, rows, k: int) -> None:
    """Write (count, ceil(k/8)) uint8 rows of k bits each under `magic`.

    Rows of the wrong width, or with a padding bit past k set, raise
    ValueError before any file is created.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2 or rows.shape[0] < 1 or k < 1 or rows.shape[1] != (k + 7) // 8:
        raise ValueError(f"need at least one row of ceil({k}/8) bytes, got shape {rows.shape}")
    if k % 8 and (rows[:, -1] >> k % 8).any():
        raise ValueError(f"nonzero padding bits past k={k}")
    with atomic_write(path) as f:
        f.write(rows_header(magic, rows.shape[0], k))
        f.write(np.ascontiguousarray(rows))


def load_bit_rows(path, magic: bytes, empty: str) -> tuple[np.ndarray, int]:
    """Read a bit-row file; returns its read-only (count, ceil(k/8)) uint8 rows and k.

    `empty` is the message for a zero count or width, formatted with n and k.
    """
    data = Path(path).read_bytes()
    n, k = check_rows(Reader(data), magic, 1, empty)
    rows = np.frombuffer(data, dtype=np.uint8, offset=ROWS_AT).reshape(n, (k + 7) // 8)
    if k % 8 and (rows[:, -1] >> k % 8).any():
        raise FormatError("nonzero padding bits", offset=ROWS_AT)
    return rows, k
