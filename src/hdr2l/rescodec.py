"""Residual layer: modular residual arithmetic, reversible color transform,
and the lossless predictive plane coder.

All arithmetic is on 16-bit sample codes mod 2^16, which makes every step
exactly invertible no matter how poor the prediction is.  The plane coder is
a raster-order MED predictor followed by an adaptive Golomb-Rice code; it is
the in-repo stand-in for an arbitrary lossless image encoder.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptStreamError, ParameterError
from .hpack import PackTable, build_table, pack, read_table, serialize_table, unpack
from .imagio import HdrImage

MASK = 0xFFFF
RICE_ESCAPE_QUOTIENT = 24
RICE_RESET_COUNT = 64
PLANE_HEADER = struct.Struct("<II")  # pack-table K (0 = unpacked), payload length


def compute_residual(hdr: HdrImage, prediction: HdrImage) -> np.ndarray:
    """Per-sample (hdr - prediction) mod 2^16 on the half codes, (3, h, w) uint16."""
    if hdr.samples.shape != prediction.samples.shape:
        raise ParameterError(
            f"dimension mismatch: {hdr.samples.shape} vs {prediction.samples.shape}"
        )
    diff = hdr.samples.astype(np.int32) - prediction.samples.astype(np.int32)
    return (diff & MASK).astype(np.uint16)


def apply_residual(prediction: HdrImage, residual: np.ndarray) -> HdrImage:
    """Exact inverse of :func:`compute_residual`."""
    res = np.asarray(residual, dtype=np.uint16)
    if res.shape != prediction.samples.shape:
        raise ParameterError(
            f"dimension mismatch: {res.shape} vs {prediction.samples.shape}"
        )
    total = prediction.samples.astype(np.int32) + res.astype(np.int32)
    return HdrImage((total & MASK).astype(np.uint16))


def color_transform_fwd(planes: np.ndarray) -> np.ndarray:
    """Reversible integer transform mod 2^16 (lifting form).

    Cr = (R - G) mod 2^16, Cb = (B - G) mod 2^16,
    Y = (G + floor(((Cb + Cr) mod 2^16) / 4)) mod 2^16.

    On wrap-free inputs Y equals floor((R + 2G + B) / 4); computing the floor
    term from the stored chroma values is what makes the inverse exact for
    wrap-heavy inputs as well.
    """
    p = np.asarray(planes, dtype=np.int64)
    r, g, b = p[0], p[1], p[2]
    cr = (r - g) & MASK
    cb = (b - g) & MASK
    y = (g + (((cb + cr) & MASK) >> 2)) & MASK
    return np.stack([y, cb, cr]).astype(np.uint16)


def color_transform_inv(planes: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`color_transform_fwd`."""
    p = np.asarray(planes, dtype=np.int64)
    y, cb, cr = p[0], p[1], p[2]
    g = (y - (((cb + cr) & MASK) >> 2)) & MASK
    r = (cr + g) & MASK
    b = (cb + g) & MASK
    return np.stack([r, g, b]).astype(np.uint16)


# ---------------------------------------------------------------------------
# MED + adaptive Golomb-Rice plane coder


class _BitWriter:
    def __init__(self):
        self._chunks = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits == 0:
            return
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._chunks.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        if self._nbits:
            self._chunks.append((self._acc << (8 - self._nbits)) & 0xFF)
            self._acc = 0
            self._nbits = 0
        return bytes(self._chunks)


class _BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position

    def read1(self) -> int:
        byte_index = self._pos >> 3
        if byte_index >= len(self._data):
            raise CorruptStreamError("bitstream exhausted")
        bit = (self._data[byte_index] >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read1()
        return value


def med_predict(plane: np.ndarray) -> np.ndarray:
    """Vectorized MED prediction; out-of-image neighbors read 0."""
    x = np.asarray(plane, dtype=np.int64)
    a = np.zeros_like(x)  # left
    b = np.zeros_like(x)  # above
    c = np.zeros_like(x)  # above-left
    a[:, 1:] = x[:, :-1]
    b[1:, :] = x[:-1, :]
    c[1:, 1:] = x[:-1, :-1]
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    return np.where(c >= hi, lo, np.where(c <= lo, hi, a + b - c))


def _fold(errors: np.ndarray) -> np.ndarray:
    """Zig-zag fold a mod-2^16 prediction error to an unsigned code."""
    e = np.asarray(errors, dtype=np.int64)
    return np.where(e < 32768, 2 * e, 2 * (65536 - e) - 1)


def _unfold(u: int) -> int:
    return (u >> 1) if (u & 1) == 0 else (65536 - ((u + 1) >> 1))


def code_plane(plane: np.ndarray) -> bytes:
    """Losslessly encode one 2D plane of 16-bit samples.

    Raster order; MED prediction; error folded to unsigned; adaptive Rice
    code with per-plane running state (A, N) = (4, 1), halved when N reaches
    64; quotients of 24 or more escape to 16 raw bits.
    """
    x = np.asarray(plane, dtype=np.uint16)
    if x.ndim != 2 or x.size == 0:
        raise ParameterError(f"plane must be a non-empty 2D array, got shape {x.shape}")
    pred = med_predict(x)
    err = (x.astype(np.int64) - pred) & MASK
    folded = _fold(err).ravel().tolist()

    writer = _BitWriter()
    write = writer.write
    a_sum = 4
    n = 1
    for u in folded:
        k = 0
        while (n << k) < a_sum:
            k += 1
        q = u >> k
        if q >= RICE_ESCAPE_QUOTIENT:
            write(0, RICE_ESCAPE_QUOTIENT)
            write(u, 16)
        else:
            write(1, q + 1)  # q zeros then a terminating one
            if k:
                write(u & ((1 << k) - 1), k)
        a_sum += u
        n += 1
        if n == RICE_RESET_COUNT:
            a_sum >>= 1
            n >>= 1
    return writer.getvalue()


def decode_plane(data: bytes, width: int, height: int) -> np.ndarray:
    """Exact inverse of :func:`code_plane`."""
    if width < 1 or height < 1:
        raise ParameterError(f"bad plane dimensions {width}x{height}")
    reader = _BitReader(data)
    read1 = reader.read1
    read = reader.read

    a_sum = 4
    n = 1
    errors = []
    for _ in range(width * height):
        k = 0
        while (n << k) < a_sum:
            k += 1
        q = 0
        while q < RICE_ESCAPE_QUOTIENT and read1() == 0:
            q += 1
        if q == RICE_ESCAPE_QUOTIENT:
            u = read(16)
        else:
            u = (q << k) | (read(k) if k else 0)
            if u > MASK:
                raise CorruptStreamError(f"decoded symbol {u} exceeds 16-bit range")
        errors.append(_unfold(u))
        a_sum += u
        n += 1
        if n == RICE_RESET_COUNT:
            a_sum >>= 1
            n >>= 1

    # Reconstruction is sequential: the left neighbor of each pixel must be
    # decoded before MED can run.
    out = [[0] * width for _ in range(height)]
    idx = 0
    zeros = [0] * width
    for yrow in range(height):
        row = out[yrow]
        above = out[yrow - 1] if yrow else zeros
        left = 0
        for xcol in range(width):
            b = above[xcol]
            c = above[xcol - 1] if xcol else 0
            if left > b:
                hi, lo = left, b
            else:
                hi, lo = b, left
            if c >= hi:
                p = lo
            elif c <= lo:
                p = hi
            else:
                p = left + b - c
            left = (p + errors[idx]) & MASK
            row[xcol] = left
            idx += 1
    return np.array(out, dtype=np.uint16)


# ---------------------------------------------------------------------------
# Residual bitstream (three planes, optional packing)


@dataclass(frozen=True)
class PlaneSection:
    """One coded plane of a residual block."""

    table: PackTable | None  # None when the plane is not histogram-packed
    table_bytes: int  # serialized size of the pack table
    payload: bytes


def encode_residual(raw_planes: np.ndarray, use_packing: bool) -> bytes:
    """Color transform, optional packing, and plane coding of a raw residual."""
    raw = np.asarray(raw_planes, dtype=np.uint16)
    if raw.ndim != 3 or raw.shape[0] != 3:
        raise ParameterError(f"residual must have shape (3, h, w), got {raw.shape}")
    transformed = color_transform_fwd(raw)
    out = bytearray()
    for plane in transformed:
        if use_packing:
            table = build_table(plane)
            payload = code_plane(pack(plane, table))
            table_bytes = serialize_table(table)
            out += PLANE_HEADER.pack(table.count, len(payload))
            out += table_bytes
        else:
            payload = code_plane(plane)
            out += PLANE_HEADER.pack(0, len(payload))
        out += payload
    return bytes(out)


def split_residual_sections(data: bytes) -> tuple[PlaneSection, ...]:
    """Walk a residual block: each plane's header, pack table and payload.

    This is the only reader of the block layout, so every bounds and count
    check on it lives here.
    """
    sections = []
    pos = 0
    for _ in range(3):
        if len(data) - pos < PLANE_HEADER.size:
            raise CorruptStreamError("truncated residual plane header")
        count, payload_len = PLANE_HEADER.unpack_from(data, pos)
        pos += PLANE_HEADER.size
        table_start = pos
        table = None
        if count:
            table, pos = read_table(data, pos)
            if table.count != count:
                raise CorruptStreamError(
                    f"pack table count {table.count} disagrees with header {count}"
                )
        if len(data) - pos < payload_len:
            raise CorruptStreamError("truncated residual plane payload")
        sections.append(PlaneSection(table, pos - table_start, data[pos : pos + payload_len]))
        pos += payload_len
    if pos != len(data):
        raise CorruptStreamError(f"{len(data) - pos} trailing bytes in residual block")
    return tuple(sections)


def decode_residual(data: bytes, width: int, height: int) -> np.ndarray:
    """Exact inverse of :func:`encode_residual`; returns (3, h, w) uint16."""
    planes = []
    for section in split_residual_sections(data):
        plane = decode_plane(section.payload, width, height)
        if section.table is not None:
            plane = unpack(plane, section.table)
        planes.append(plane)
    return color_transform_inv(np.stack(planes))
