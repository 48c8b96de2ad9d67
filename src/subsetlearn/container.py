"""Little-endian binary container for named float64 tensors plus a UTF-8
metadata block, CRC32-protected and written atomically.

Layout:

    magic "SFL1"
    u32 format version
    u32 metadata byte length, then the metadata bytes
    u32 tensor count
    per tensor: u16 name length, name bytes, u8 rank, u64 extent per axis,
                row-major float64 payload
    u32 CRC32 of everything above

Writes go to a temp file in the target directory followed by an atomic
rename, so failed runs never leave partial files behind.  Reads and writes
stream: each payload moves between the file and its array's own memory, and
the CRC32 is accumulated piece by piece, so no copy of the whole file is
ever held.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumError,
    ContractError,
    InvariantError,
    VersionMismatchError,
)

MAGIC = b"SFL1"
VERSION = 1

_MIN_LEN = len(MAGIC) + 4 + 4 + 4 + 4  # header fields plus trailing crc


def write_container(path, tensors: dict[str, np.ndarray], metadata: str = "") -> None:
    """Serialize tensors (in dict order) and metadata to path, atomically.

    Every tensor is checked before the temp file is opened.  The file is
    written piece by piece, each payload straight from its array's memory.
    """
    meta = metadata.encode("utf-8")
    pieces = [MAGIC + struct.pack("<II", VERSION, len(meta)) + meta + struct.pack("<I", len(tensors))]
    for name, array in tensors.items():
        arr = np.require(array, dtype="<f8", requirements="C")  # 0-d arrays stay 0-d
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"tensor {name!r} contains non-finite values")
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise ContractError(f"tensor name too long: {name!r}")
        pieces.append(struct.pack(f"<H{len(name_b)}sB{arr.ndim}Q", len(name_b), name_b, arr.ndim, *arr.shape))
        pieces.append(memoryview(arr.reshape(-1)).cast("B"))
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    pieces.append(struct.pack("<I", crc))
    _atomic_write(path, pieces)


class _Body:
    """Sequential reads of a container body (the bytes between the version
    word and the trailing CRC) that extend the CRC32 of the bytes read."""

    def __init__(self, handle, path, length: int, crc: int):
        self.handle, self.path, self.left, self.crc = handle, path, length, crc

    def read_into(self, view: memoryview, what: str = "malformed container body") -> None:
        if view.nbytes > self.left:
            raise InvariantError(f"{self.path}: {what}")
        self.left -= view.nbytes
        while view.nbytes:
            got = self.handle.readinto(view)
            if not got:  # the file shrank while being read
                raise ChecksumError(f"{self.path}: file is truncated")
            self.crc = zlib.crc32(view[:got], self.crc)
            view = view[got:]

    def read(self, size: int, what: str = "malformed container body") -> bytearray:
        if size > self.left:  # before the buffer is allocated and zeroed
            raise InvariantError(f"{self.path}: {what}")
        buf = bytearray(size)
        self.read_into(memoryview(buf), what)
        return buf

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def finish(self) -> None:
        """Read the rest of the body and check it against the stored CRC."""
        while self.left:
            self.read(min(self.left, 1 << 20))
        if self.handle.read(4) != struct.pack("<I", self.crc):
            raise ChecksumError(f"{self.path}: checksum mismatch") from None


def read_container(path) -> tuple[dict[str, np.ndarray], str]:
    """Parse a container, validating magic, version and checksum in that order.

    Raises BadMagicError / VersionMismatchError / ChecksumError for corrupt
    files and InvariantError when a structurally intact file violates the
    format's invariants (for example non-finite payloads).  The file is read
    once: each payload goes straight into its array, and a body that fails
    to parse is still read to the end, so a bad checksum wins over it.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < _MIN_LEN:
            raise ChecksumError(f"{path}: file is truncated")
        head = handle.read(8)
        if head[:4] != MAGIC:
            raise BadMagicError(f"{path}: not a container file")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != VERSION:
            raise VersionMismatchError(f"{path}: unsupported format version {version}")
        body = _Body(handle, path, size - len(head) - 4, zlib.crc32(head))
        try:
            parsed = _read_tensors(body, path)
        except InvariantError:
            body.finish()
            raise
        body.finish()
    return parsed


def _read_tensors(body: _Body, path) -> tuple[dict[str, np.ndarray], str]:
    (meta_len,) = body.unpack("<I")
    try:
        metadata = body.read(meta_len, "malformed metadata block").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvariantError(f"{path}: metadata is not valid UTF-8") from exc
    (count,) = body.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = body.unpack("<H")
        try:
            name = body.read(name_len, "malformed tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvariantError(f"{path}: tensor name is not valid UTF-8") from exc
        (rank,) = body.unpack("<B")
        shape = body.unpack(f"<{rank}Q")
        n_values = 1
        for extent in shape:
            n_values *= extent
        if 8 * n_values > body.left:  # before the array is allocated
            raise InvariantError(f"{path}: tensor payload overruns the file")
        try:  # numpy rejects over 64 axes, and an empty shape with extents past intp
            arr = np.empty(shape, dtype="<f8")
        except ValueError as exc:
            raise InvariantError(f"{path}: tensor {name!r} cannot have shape {shape}") from exc
        body.read_into(memoryview(arr.reshape(-1)).cast("B"))
        if not np.all(np.isfinite(arr)):
            raise InvariantError(f"{path}: tensor {name!r} contains non-finite values")
        if name in tensors:
            raise InvariantError(f"{path}: duplicate tensor name {name!r}")
        tensors[name] = arr
    if body.left:
        raise InvariantError(f"{path}: trailing bytes after the tensor table")
    return tensors, metadata


def container_checksum(path) -> int:
    """The stored CRC32 of a container's contents (the trailing word).

    Identifies the content: two containers match byte for byte exactly when
    their stored checksums and lengths do.  Hashing the whole file instead
    would be useless here, because a file that embeds its own CRC32 always
    hashes to the same residue constant.
    """
    with open(path, "rb") as handle:
        if handle.seek(0, os.SEEK_END) < _MIN_LEN:
            raise ChecksumError(f"{path}: file is truncated")
        handle.seek(-4, os.SEEK_END)
        (stored,) = struct.unpack("<I", handle.read(4))
    return stored


def _atomic_write(path, pieces) -> None:
    """Write the pieces to a temp file beside path, then rename it over path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for piece in pieces:
                handle.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_write(path, (text.encode("utf-8"),))
