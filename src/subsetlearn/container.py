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
rename, so failed runs never leave partial files behind.
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
    """Serialize tensors (in dict order) and metadata to path, atomically."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    meta = metadata.encode("utf-8")
    blob += struct.pack("<I", len(meta))
    blob += meta
    blob += struct.pack("<I", len(tensors))
    for name, array in tensors.items():
        arr = np.asarray(array, dtype=np.float64)  # 0-d arrays stay 0-d
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"tensor {name!r} contains non-finite values")
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise ContractError(f"tensor name too long: {name!r}")
        blob += struct.pack("<H", len(name_b))
        blob += name_b
        blob += struct.pack("<B", arr.ndim)
        for extent in arr.shape:
            blob += struct.pack("<Q", extent)
        blob += arr.tobytes(order="C")
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    atomic_write_bytes(path, bytes(blob))


def read_container(path) -> tuple[dict[str, np.ndarray], str]:
    """Parse a container, validating magic, version and checksum in that order.

    Raises BadMagicError / VersionMismatchError / ChecksumError for corrupt
    files and InvariantError when a structurally intact file violates the
    format's invariants (for example non-finite payloads).
    """
    data = Path(path).read_bytes()
    if len(data) < _MIN_LEN:
        raise ChecksumError(f"{path}: file is truncated")
    if data[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a container file")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise VersionMismatchError(f"{path}: unsupported format version {version}")
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ChecksumError(f"{path}: checksum mismatch")

    body_end = len(data) - 4
    cursor = 8

    def take(fmt: str):
        nonlocal cursor
        size = struct.calcsize(fmt)
        if cursor + size > body_end:
            raise InvariantError(f"{path}: malformed container body")
        values = struct.unpack_from(fmt, data, cursor)
        cursor += size
        return values

    (meta_len,) = take("<I")
    if cursor + meta_len > body_end:
        raise InvariantError(f"{path}: malformed metadata block")
    try:
        metadata = data[cursor : cursor + meta_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvariantError(f"{path}: metadata is not valid UTF-8") from exc
    cursor += meta_len
    (count,) = take("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<H")
        if cursor + name_len > body_end:
            raise InvariantError(f"{path}: malformed tensor name")
        try:
            name = data[cursor : cursor + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvariantError(f"{path}: tensor name is not valid UTF-8") from exc
        cursor += name_len
        (rank,) = take("<B")
        shape = tuple(take("<Q")[0] for _ in range(rank))
        n_values = 1
        for extent in shape:
            n_values *= extent
        size = 8 * n_values
        if cursor + size > body_end:
            raise InvariantError(f"{path}: tensor payload overruns the file")
        try:  # reshape rejects over 64 axes, and an empty shape with extents past intp
            arr = np.frombuffer(data, dtype="<f8", count=n_values, offset=cursor).reshape(shape).copy()
        except ValueError as exc:
            raise InvariantError(f"{path}: tensor {name!r} cannot have shape {shape}") from exc
        cursor += size
        if not np.all(np.isfinite(arr)):
            raise InvariantError(f"{path}: tensor {name!r} contains non-finite values")
        if name in tensors:
            raise InvariantError(f"{path}: duplicate tensor name {name!r}")
        tensors[name] = arr
    if cursor != body_end:
        raise InvariantError(f"{path}: trailing bytes after the tensor table")
    return tensors, metadata


def container_checksum(path) -> int:
    """The stored CRC32 of a container's contents (the trailing word).

    Identifies the content: two containers match byte for byte exactly when
    their stored checksums and lengths do.  Hashing the whole file instead
    would be useless here, because a file that embeds its own CRC32 always
    hashes to the same residue constant.
    """
    data = Path(path).read_bytes()
    if len(data) < _MIN_LEN:
        raise ChecksumError(f"{path}: file is truncated")
    (stored,) = struct.unpack_from("<I", data, len(data) - 4)
    return stored


def atomic_write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
