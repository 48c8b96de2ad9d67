import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from subsetlearn import container
from subsetlearn.errors import (
    BadMagicError,
    ChecksumError,
    ContractError,
    InvariantError,
    VersionMismatchError,
)


@pytest.fixture
def sample(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "alpha": rng.normal(size=(3, 4)),
        "beta/0/weight": rng.normal(size=(2, 2, 2)),
        "scalar": np.float64(3.5),
        "empty": np.zeros((0, 5)),
    }
    path = tmp_path / "sample.sfl"
    container.write_container(path, tensors, '{"kind":"test"}')
    return path, tensors


class TestRoundTrip:
    def test_bit_exact(self, sample):
        path, tensors = sample
        loaded, meta = container.read_container(path)
        assert meta == '{"kind":"test"}'
        assert list(loaded) == list(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], np.asarray(tensors[name], dtype=np.float64))
        assert loaded["scalar"].shape == ()

    def test_save_load_save_is_byte_identical(self, sample, tmp_path):
        path, _ = sample
        loaded, meta = container.read_container(path)
        second = tmp_path / "second.sfl"
        container.write_container(second, loaded, meta)
        assert path.read_bytes() == second.read_bytes()

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.sfl"
        container.write_container(path, {}, "")
        tensors, meta = container.read_container(path)
        assert tensors == {} and meta == ""

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "order.sfl"
        container.write_container(path, {"z": np.ones(1), "a": np.ones(2)}, "")
        tensors, _ = container.read_container(path)
        assert list(tensors) == ["z", "a"]


class TestCorruption:
    def test_truncated_file(self, sample):
        path, _ = sample
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ChecksumError):
            container.read_container(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.sfl"
        path.write_bytes(b"SF")
        with pytest.raises(ChecksumError):
            container.read_container(path)

    def test_bad_magic(self, sample):
        path, _ = sample
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            container.read_container(path)

    def test_bumped_version_is_version_error(self, sample):
        path, _ = sample
        data = bytearray(path.read_bytes())
        data[4] += 1  # little-endian low byte of the version word
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            container.read_container(path)

    def test_flipped_payload_byte(self, sample):
        path, _ = sample
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            container.read_container(path)

    def test_trailing_garbage(self, sample):
        path, _ = sample
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ChecksumError):
            container.read_container(path)


class TestWriteValidation:
    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            container.write_container(tmp_path / "bad.sfl", {"x": np.array([np.nan])}, "")

    def test_failed_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "bad.sfl"
        with pytest.raises(ContractError):
            container.write_container(target, {"x": np.array([np.inf])}, "")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_payload_on_load_is_invariant_error(self, tmp_path):
        # hand-assemble a structurally valid container holding a NaN
        path = tmp_path / "nan.sfl"
        body = bytearray()
        body += container.MAGIC
        body += struct.pack("<I", container.VERSION)
        body += struct.pack("<I", 0)
        body += struct.pack("<I", 1)
        name = b"x"
        body += struct.pack("<H", len(name)) + name
        body += struct.pack("<B", 1) + struct.pack("<Q", 1)
        body += struct.pack("<d", float("nan"))
        body += struct.pack("<I", zlib.crc32(bytes(body)))
        path.write_bytes(bytes(body))
        with pytest.raises(InvariantError):
            container.read_container(path)


def payload_offset(data: bytes, name: str) -> int:
    """Offset of the first payload byte of a rank-2 tensor called name."""
    return data.index(name.encode()) + len(name) + 1 + 2 * 8


class TestStreamedPayloads:
    def test_nan_edit_is_checksum_error_unless_the_crc_is_fixed(self, sample):
        path, _ = sample
        data = bytearray(path.read_bytes())
        at = payload_offset(data, "alpha")
        data[at : at + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            container.read_container(path)
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        with pytest.raises(InvariantError, match="non-finite"):
            container.read_container(path)

    def test_huge_metadata_length_is_rejected_before_allocation(self, sample):
        path, _ = sample
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        assert traced_peak(lambda: pytest.raises(ChecksumError, container.read_container, path)) < 2 * MIB
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        assert traced_peak(lambda: pytest.raises(InvariantError, container.read_container, path)) < 2 * MIB
        with pytest.raises(InvariantError, match="metadata"):
            container.read_container(path)

    def test_truncated_inside_a_payload(self, sample):
        path, _ = sample
        data = path.read_bytes()
        path.write_bytes(data[: payload_offset(data, "alpha") + 12])
        with pytest.raises(ChecksumError):
            container.read_container(path)

    def test_checksum_is_the_trailing_word(self, sample, tmp_path):
        path, _ = sample
        assert container.container_checksum(path) == struct.unpack("<I", path.read_bytes()[-4:])[0]
        tiny = tmp_path / "tiny.sfl"
        tiny.write_bytes(path.read_bytes()[: container._MIN_LEN - 1])
        with pytest.raises(ChecksumError):
            container.container_checksum(tiny)


N_BYTES = 8 << 20
MIB = 1 << 20


def traced_peak(fn) -> int:
    """Peak bytes that fn allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Reads and writes stream, so neither holds a second copy of the file."""

    def test_read_holds_the_payload_once(self, tmp_path):
        path = tmp_path / "big.sfl"
        container.write_container(path, {"x": np.ones(N_BYTES // 8)}, "")
        assert traced_peak(lambda: container.read_container(path)) < 1.25 * N_BYTES + MIB

    def test_write_copies_no_payload(self, tmp_path):
        tensors = {"x": np.ones(N_BYTES // 8)}
        peak = traced_peak(lambda: container.write_container(tmp_path / "big.sfl", tensors, ""))
        assert peak < 0.25 * N_BYTES + MIB
