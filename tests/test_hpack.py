from __future__ import annotations

import numpy as np
import pytest

from hdr2l.errors import CorruptStreamError, IntegrityError, ParseError
from hdr2l.hpack import PackTable, build_table, pack, read_table, serialize_table, unpack


def test_build_table_examples():
    t = build_table(np.array([0, 5, 5, 1000], dtype=np.uint16))
    assert t.symbols.tolist() == [0, 5, 1000]
    assert t.count == 3
    assert build_table(np.array([7, 7, 7], dtype=np.uint16)).symbols.tolist() == [7]


def test_build_table_full_alphabet_is_identity():
    full = np.arange(65536, dtype=np.uint16)
    t = build_table(full)
    assert t.count == 65536
    assert np.array_equal(pack(full, t), full)


def test_pack_example():
    t = build_table(np.array([0, 5, 5, 1000], dtype=np.uint16))
    assert pack(np.array([0, 5, 5, 1000], dtype=np.uint16), t).tolist() == [0, 1, 1, 2]


def test_pack_rejects_missing_symbol():
    t = build_table(np.array([0, 5], dtype=np.uint16))
    with pytest.raises(IntegrityError):
        pack(np.array([0, 6], dtype=np.uint16), t)
    with pytest.raises(IntegrityError):
        pack(np.array([0, 7000], dtype=np.uint16), t)


def _unique_oracle(component: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table and the packed indices by sorting: ``np.unique`` and
    ``searchsorted``."""
    symbols = np.unique(component)
    return symbols, np.searchsorted(symbols, component).astype(np.uint16)


@pytest.mark.parametrize("kind", ["single", "full", "sparse", "dense"])
def test_build_table_and_pack_match_sorting_oracle(kind, rng):
    component = {
        "single": np.full((5, 7), 40000, dtype=np.uint16),
        "full": rng.permutation(65536).astype(np.uint16).reshape(256, 256),
        "sparse": rng.choice(rng.integers(0, 65536, size=40), size=(30, 50)).astype(np.uint16),
        "dense": rng.integers(0, 65536, size=(200, 300)).astype(np.uint16),
    }[kind]
    symbols, indices = _unique_oracle(component)
    table = build_table(component)
    assert table.symbols.dtype == np.uint16
    assert np.array_equal(table.symbols, symbols)
    packed = pack(component, table)
    assert packed.dtype == np.uint16
    assert np.array_equal(packed, indices)
    absent = np.setdiff1d(np.arange(65536), symbols)
    for value in absent[[0, -1]] if absent.size else ():
        bad = component.copy()
        bad[-1, -1] = value
        with pytest.raises(IntegrityError, match="absent"):
            pack(bad, table)


def test_unpack_examples():
    t = PackTable(np.array([0, 5, 1000], dtype=np.uint16))
    assert unpack(np.array([0, 1, 1, 2], dtype=np.uint16), t).tolist() == [0, 5, 5, 1000]
    single = PackTable(np.array([42], dtype=np.uint16))
    assert unpack(np.zeros(4, dtype=np.uint16), single).tolist() == [42] * 4


def test_unpack_rejects_out_of_range_index():
    t = PackTable(np.array([0, 5], dtype=np.uint16))
    with pytest.raises(CorruptStreamError):
        unpack(np.array([0, 2], dtype=np.uint16), t)


def test_pack_round_trip_random_sparse(rng):
    for _ in range(20):
        symbols = np.unique(rng.integers(0, 65536, size=50)).astype(np.uint16)
        data = rng.choice(symbols, size=(16, 16)).astype(np.uint16)
        t = build_table(data)
        assert np.array_equal(unpack(pack(data, t), t), data)


def test_pack_preserves_order_and_histogram(rng):
    data = rng.choice([3, 99, 1007, 60000], size=256).astype(np.uint16)
    t = build_table(data)
    packed = pack(data, t)
    # strict monotonicity of the remap
    order = np.argsort(data, kind="stable")
    assert (np.diff(packed[order]) >= 0).all()
    # histogram counts carry over unchanged
    _, counts_raw = np.unique(data, return_counts=True)
    _, counts_packed = np.unique(packed, return_counts=True)
    assert np.array_equal(counts_raw, counts_packed)
    # packed alphabet is exactly [0, K-1]
    assert set(np.unique(packed).tolist()) == set(range(t.count))


def test_serialize_table_golden():
    t = PackTable(np.array([0, 5, 1000], dtype=np.uint16))
    data = serialize_table(t)
    # K=3 little-endian, then gap-1 varints 0, 4, 994 (994 = 0xE2 0x07)
    assert data == bytes([3, 0, 0, 0, 0x00, 0x04, 0xE2, 0x07])
    assert read_table(data, 0) == (t, len(data))


def test_serialize_identity_table():
    t = PackTable(np.arange(65536, dtype=np.uint16))
    data = serialize_table(t)
    assert len(data) == 4 + 65536  # every gap-1 is a single zero byte
    assert read_table(data, 0) == (t, len(data))


def test_table_round_trip_random(rng):
    for _ in range(25):
        k = int(rng.integers(1, 400))
        symbols = np.sort(rng.choice(65536, size=k, replace=False)).astype(np.uint16)
        t = PackTable(symbols)
        data = serialize_table(t)
        # a table read from inside a larger block ends where its bytes end
        assert read_table(b"\xAA" + data + b"\x00", 1) == (t, 1 + len(data))


def test_read_table_errors():
    with pytest.raises(ParseError):
        read_table(bytes([0, 0, 0, 0]), 0)  # K == 0
    with pytest.raises(ParseError):
        read_table(bytes([2, 0, 0, 0, 0x01]), 0)  # truncated varints
    with pytest.raises(ParseError):
        read_table(bytes([1, 0, 0]), 0)  # truncated count
    good = serialize_table(PackTable(np.array([1, 2], dtype=np.uint16)))
    assert read_table(good + b"\x00", 0)[1] == len(good)  # trailing bytes are not read
    overflow = bytes([2, 0, 0, 0]) + bytes([0xFF, 0xFF, 0x03]) + bytes([0x00])
    with pytest.raises(ParseError):
        read_table(overflow, 0)  # second symbol lands beyond 16 bits
