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
    # gap-1 varints 0, 4, 994 (994 = 0xE2 0x07); the count K is not written
    assert data == bytes([0x00, 0x04, 0xE2, 0x07])
    assert read_table(data, 0, 3) == (t, len(data))


def test_serialize_identity_table():
    t = PackTable(np.arange(65536, dtype=np.uint16))
    data = serialize_table(t)
    assert len(data) == 65536  # every gap-1 is a single zero byte
    assert read_table(data, 0, 65536) == (t, len(data))


def test_table_round_trip_random(rng):
    for _ in range(25):
        k = int(rng.integers(1, 400))
        symbols = np.sort(rng.choice(65536, size=k, replace=False)).astype(np.uint16)
        t = PackTable(symbols)
        data = serialize_table(t)
        # a table read from inside a larger block ends where its bytes end
        assert read_table(b"\xAA" + data + b"\x00", 1, k) == (t, 1 + len(data))


def test_read_table_errors():
    for count in (0, 65537):
        with pytest.raises(ParseError, match=f"count {count} out of range"):
            read_table(bytes(4), 0, count)
    with pytest.raises(ParseError):
        read_table(bytes([0x01]), 0, 2)  # truncated varints
    good = serialize_table(PackTable(np.array([1, 2], dtype=np.uint16)))
    assert read_table(good + b"\x00", 0, 2)[1] == len(good)  # trailing bytes are not read
    overflow = bytes([0xFF, 0xFF, 0x03]) + bytes([0x00])
    with pytest.raises(ParseError):
        read_table(overflow, 0, 2)  # second symbol lands beyond 16 bits
    # The table [0] in any form but the one byte serialize_table writes.
    with pytest.raises(ParseError, match="non-minimal pack table varint") as info:
        read_table(b"\x80\x00", 0, 1)
    assert info.value.offset == 2
    with pytest.raises(ParseError, match="oversized pack table varint") as info:
        read_table(b"\x80\x80\x80\x00", 0, 1)
    assert info.value.offset == 3


# The byte-at-a-time table writer and reader that the numpy ones replaced:
# the oracle of their bytes, their tables and their error offsets.
def _serialize_table_loop(table: PackTable) -> bytes:
    gaps = np.diff(table.symbols.astype(np.int64), prepend=-1) - 1
    out = bytearray()
    for g in gaps.tolist():
        while g >= 0x80:
            out.append((g & 0x7F) | 0x80)
            g >>= 7
        out.append(g)
    return bytes(out)


def _read_table_loop(data: bytes, pos: int, count: int) -> tuple[PackTable, int]:
    if count == 0 or count > 65536:
        raise ParseError(f"pack table symbol count {count} out of range", offset=pos)
    gaps = np.empty(count, dtype=np.int64)
    for i in range(count):
        value = 0
        shift = 0
        while True:
            if pos >= len(data):
                raise ParseError("truncated pack table varint", offset=pos)
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift > 14:
                raise ParseError("oversized pack table varint", offset=pos)
        if shift and byte == 0:
            raise ParseError("non-minimal pack table varint", offset=pos)
        gaps[i] = value
    symbols = np.cumsum(gaps + 1) - 1
    if symbols[-1] > 0xFFFF:
        raise ParseError("pack table symbol exceeds 16-bit range", offset=pos)
    return PackTable(symbols.astype(np.uint16)), pos


def _outcome(read, data: bytes, pos: int, count: int):
    """(symbols, end) of a table read, or the message and offset of its error."""
    try:
        table, end = read(data, pos, count)
    except ParseError as exc:
        return str(exc), exc.offset
    return table.symbols.tolist(), end


def _oracle_tables(rng) -> list[PackTable]:
    """Gaps of one, two and three varint bytes, the extremes, and random."""
    return [
        PackTable(np.array([0], dtype=np.uint16)),
        PackTable(np.array([65535], dtype=np.uint16)),
        PackTable(np.array([0, 127, 128, 255, 16383, 16511, 32767, 65535], dtype=np.uint16)),
        PackTable(np.arange(0, 65536, 129, dtype=np.uint16)),
        PackTable(np.sort(rng.choice(65536, size=300, replace=False)).astype(np.uint16)),
        PackTable(np.sort(rng.choice(65536, size=3000, replace=False)).astype(np.uint16)),
    ]


def test_serialize_table_matches_loop_oracle(rng):
    for table in _oracle_tables(rng) + [PackTable(np.arange(65536, dtype=np.uint16))]:
        data = serialize_table(table)
        assert data == _serialize_table_loop(table)
        assert read_table(data, 0, table.count) == (table, len(data))


def test_read_table_matches_loop_oracle_on_every_truncation(rng):
    for table in _oracle_tables(rng)[:5]:
        data = b"\x07\x80" + serialize_table(table)
        for cut in range(2, len(data) + 1):
            read, loop = (_outcome(fn, data[:cut], 2, table.count) for fn in (read_table, _read_table_loop))
            assert read == loop, cut


def test_read_table_matches_loop_oracle_on_malformed_tables(rng):
    cases = [
        (3, b""),
        (0, b""),
        (65537, b"\x00"),
        (65536, b""),
        (3, b"\x80\x80\x80\x00\x00\x00"),  # four bytes, ends in the fourth
        (3, b"\x80\x80\x80\x80\x00\x00"),  # no end in four bytes
        (3, b"\x00\x80\x80\x80\x80"),
        (3, b"\x00\x00\xff\xff\xff\x7f"),  # 28 bits
        (3, b"\x00\x00\xff\xff\x7f"),  # 21 bits, past 0xFFFF
        (1, b"\x80\x00"),  # 0 in two bytes: non-minimal
        (1, b"\x80\x80\x80\x00"),  # 0 in four bytes: oversized
        (2, b"\x00\xff\x80\x00"),  # 127 in three bytes: non-minimal
        (3, b"\x00\xff\xff\x03\x00"),  # past 0xFFFF
        (3, b"\xff\xff\x03\x00"),  # the last gap runs past 0xFFFF
        (3, b"\x00\x80\x80"),
        (2, b"\xff\xff\x03\x00"),
    ]
    for _ in range(300):  # random bytes for a random small count
        body = rng.choice([0x00, 0x01, 0x7F, 0x80, 0x81, 0xFF], size=int(rng.integers(0, 12)))
        cases.append((int(rng.integers(1, 5)), body.astype(np.uint8).tobytes()))
    for count, data in cases:
        read, loop = (_outcome(fn, data, 0, count) for fn in (read_table, _read_table_loop))
        assert read == loop, (count, data)
