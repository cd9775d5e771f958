"""Helpers for the binary file formats.

Every format is: 4 magic bytes, u32 little-endian version, fixed-width
counts, then a payload. All integers are little-endian. Readers reject
wrong magic, unknown versions, truncation, and trailing garbage, and
report the byte offset of the problem.
"""

import struct
from pathlib import Path

from .errors import FormatError

VERSION = 1


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


def read_file(path) -> Reader:
    return Reader(Path(path).read_bytes())


def header(magic: bytes) -> bytes:
    return magic + struct.pack("<I", VERSION)


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def u64(value: int) -> bytes:
    return struct.pack("<Q", value)
