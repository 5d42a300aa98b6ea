"""Histogram packing: invertible dense remap of a sparse symbol alphabet.

A component that uses only K of the 65536 possible 16-bit values is remapped
onto the contiguous range [0, K-1] by indexing into the sorted list of
occurring values.  The remap is strictly order preserving and leaves the
histogram counts untouched; the coding gain appears downstream, where the
predictor sees small dense indices instead of widely spaced raw values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptStreamError, IntegrityError, ParseError


@dataclass(frozen=True, eq=False)
class PackTable:
    """Sorted list of the distinct 16-bit values occurring in a component."""

    symbols: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.symbols, dtype=np.uint16)
        if arr.ndim != 1 or arr.size < 1 or arr.size > 65536:
            raise IntegrityError(f"pack table must hold 1..65536 symbols, got {arr.size}")
        if arr.size > 1 and not (arr[1:] > arr[:-1]).all():
            raise IntegrityError("pack table symbols must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)

    @property
    def count(self) -> int:
        return self.symbols.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackTable):
            return NotImplemented
        return bool(np.array_equal(self.symbols, other.symbols))


def build_table(component: np.ndarray) -> PackTable:
    """Table of the distinct values of ``component``, sorted ascending."""
    arr = np.asarray(component, dtype=np.uint16)
    if arr.size == 0:
        raise IntegrityError("cannot build a pack table from an empty component")
    present = np.zeros(65536, dtype=bool)
    present[arr] = True
    return PackTable(np.flatnonzero(present))


def pack(component: np.ndarray, table: PackTable) -> np.ndarray:
    """Replace each sample by its index in the table (uint16, in [0, K-1])."""
    arr = np.asarray(component, dtype=np.uint16)
    # An absent value gathers 0xFFFF, an index no table of fewer than 65536
    # symbols has, and a table of 65536 symbols has no absent value.
    index_of = np.full(65536, 0xFFFF, dtype=np.uint16)
    index_of[table.symbols] = np.arange(table.count)
    idx = index_of[arr]
    if arr.size and int(idx.max()) >= table.count:
        raise IntegrityError("component contains values absent from the pack table")
    return idx


def unpack(packed: np.ndarray, table: PackTable) -> np.ndarray:
    """Inverse of :func:`pack`: replace each index by its table symbol."""
    arr = np.asarray(packed, dtype=np.uint16)
    if arr.size and int(arr.max()) >= table.count:
        raise CorruptStreamError(
            f"packed index {int(arr.max())} outside table of {table.count} symbols"
        )
    return table.symbols[arr]


# A varint of a table holds at most three bytes (a gap is below 2^16); its
# first two may carry the continuation bit, a third may not.
_VARINT_BYTES = 3


def serialize_table(table: PackTable) -> bytes:
    """Per symbol, the gap to its predecessor minus one as a LEB128 varint
    (the first symbol's predecessor is taken to be -1).  A gap is below 2^16,
    so its varint has one to three bytes.  The symbol count K is not written:
    the residual plane header carries it."""
    gaps = np.diff(table.symbols.astype(np.int64), prepend=-1) - 1
    sizes = 1 + (gaps >= 1 << 7) + (gaps >= 1 << 14)
    starts = np.cumsum(sizes) - sizes
    out = np.empty(int(sizes.sum()), dtype=np.uint8)
    for j in range(3):  # byte j of every varint that has one
        has = sizes > j
        out[starts[has] + j] = ((gaps[has] >> 7 * j) & 0x7F) | np.where(sizes[has] > j + 1, 0x80, 0)
    return out.tobytes()


def read_table(data: bytes, pos: int, count: int) -> tuple[PackTable, int]:
    """Parse the ``count`` varints of one serialized table starting at
    ``pos``, in :func:`serialize_table`'s form only; returns (table, end).

    Errors carry the offset a byte-at-a-time reader stops at: ``pos`` for a
    count outside 1..65536, the end of the data for a truncated varint, the
    byte after the third for a varint that does not end there, the byte after
    a multi-byte varint that ends in 0 (not minimal), and the end of the table
    for a symbol past 0xFFFF."""
    if not 1 <= count <= 65536:
        raise ParseError(f"pack table symbol count {count} out of range", offset=pos)
    # Only the first count * 3 bytes can hold the table.
    window = np.frombuffer(data, np.uint8, min(len(data) - pos, _VARINT_BYTES * count), pos)
    ends = np.flatnonzero(window < 0x80)[:count]  # the last byte of each varint
    starts = np.zeros(ends.size, dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    sizes = ends - starts + 1
    bad = np.flatnonzero((sizes > _VARINT_BYTES) | ((sizes > 1) & (window[ends] == 0)))
    if bad.size and sizes[bad[0]] > _VARINT_BYTES:
        raise ParseError("oversized pack table varint", offset=pos + int(starts[bad[0]]) + _VARINT_BYTES)
    if bad.size:
        raise ParseError("non-minimal pack table varint", offset=pos + int(ends[bad[0]]) + 1)
    if ends.size < count:  # varint ends.size has no last byte in the window
        start = int(ends[-1]) + 1 if ends.size else 0
        if window.size - start >= _VARINT_BYTES:
            raise ParseError("oversized pack table varint", offset=pos + start + _VARINT_BYTES)
        raise ParseError("truncated pack table varint", offset=len(data))
    gaps = np.zeros(count, dtype=np.int64)
    for j in range(_VARINT_BYTES):  # byte j of every varint that has one
        has = sizes > j
        gaps[has] |= (window[starts[has] + j].astype(np.int64) & 0x7F) << 7 * j
    pos += int(ends[-1]) + 1
    symbols = np.cumsum(gaps + 1) - 1
    if symbols[-1] > 0xFFFF:
        raise ParseError("pack table symbol exceeds 16-bit range", offset=pos)
    return PackTable(symbols.astype(np.uint16)), pos
