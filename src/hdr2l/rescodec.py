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


def _rice_parameters(u: np.ndarray) -> np.ndarray:
    """The Rice parameter k of every symbol of a plane, given all its symbols.

    N follows a fixed schedule (1, 2, ..., 63, then 32, ..., 63 again and
    again), so the only data-dependent step is halving A at the end of each
    period; it runs in Python once per period, and A within a period is a
    prefix sum.
    """
    half = RICE_RESET_COUNT // 2
    n = np.arange(1, u.size + 1)
    period = np.maximum(n - half, 0) // half
    n -= half * period
    starts = np.r_[0, np.arange(RICE_RESET_COUNT - 1, u.size, RICE_RESET_COUNT - half)]
    a_start = []
    a_sum = 4
    for total in np.add.reduceat(u, starts).tolist():
        a_start.append(a_sum)
        a_sum = (a_sum + total) >> 1
    a = np.cumsum(u)
    a -= u
    a += (np.array(a_start) - a[starts])[period]
    # k = bit_length(ceil(A / N) - 1), which is 0 when A <= N; frexp is
    # exact on these integers.
    a -= 1
    np.maximum(a, 0, out=a)
    a //= n
    return np.frexp(a)[1]


def code_plane(plane: np.ndarray) -> bytes:
    """Losslessly encode one 2D plane of 16-bit samples.

    Symbols are taken in raster order.  Each is the MED prediction error mod
    2^16 (out-of-image neighbours read 0), folded to u in [0, 65535]: e < 32768
    gives 2e, otherwise 2(65536 - e) - 1.

    Each u is written MSB-first with the adaptive Rice parameter
    k = bit_length(ceil(A / N) - 1) when A > N, and k = 0 when A <= N; that is
    the least k with N * 2^k >= A.  The state starts at (A, N) = (4, 1); after
    each symbol A += u and N += 1, and when N reaches 64 both halve (A floors).
    With q = u >> k, a symbol is q zeros, a one, then the low k bits of u; when
    q >= 24 it is instead 24 zeros and the 16 bits of u.  Since A <= 65535 N
    holds throughout, k <= 16 and no code is longer than 40 bits.  The last
    byte is padded with zeros, and a decoder ignores whatever bits follow the
    last symbol.
    """
    x = np.asarray(plane, dtype=np.uint16)
    if x.ndim != 2 or x.size == 0:
        raise ParameterError(f"plane must be a non-empty 2D array, got shape {x.shape}")
    u = _fold((x.astype(np.int64) - med_predict(x)) & MASK).ravel()
    k = _rice_parameters(u)
    q = u >> k
    escape = q >= RICE_ESCAPE_QUOTIENT
    lengths = np.where(escape, RICE_ESCAPE_QUOTIENT + 16, q + 1 + k)
    # The bits that may be ones: the stop bit and remainder (at most 17), or
    # the 16 escaped bits.  The zeros before them need no writing.
    values = np.where(escape, u, (1 << k) | (u & ((1 << k) - 1)))
    del u, k, q, escape
    ends = np.cumsum(lengths)
    size = (int(ends[-1]) + 7) >> 3
    # Align each code's last bit with its byte, then add its (at most three)
    # bytes into place; codes share no bits, so adding is or-ing.
    values <<= -ends & 7
    last_byte = (ends - 1) >> 3
    out = np.zeros(size)
    for lane in range(3):
        out += np.bincount(
            np.maximum(last_byte - lane, 0), weights=(values >> 8 * lane) & 0xFF, minlength=size
        )
    return out.astype(np.uint8).tobytes()


_WORD_MASK = (1 << 64) - 1
# Payload bytes whose windows are held at a time: one Python int per byte
# would otherwise cost about 44 bytes per payload byte.
_WINDOW_CHUNK = 4096


def _windows(data: bytes, start: int, count: int) -> list[int]:
    """The 64 bits that start at each of ``count`` bytes of ``data`` from
    ``start``, MSB-first, zero-filled past its end: the word of a byte holds
    any code whose first bit lies in that byte."""
    chunk = data[start : start + count + 7].ljust(count + 7, b"\0")
    windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(chunk, np.uint8), 8)
    return windows.copy().view(">u8").ravel().tolist()


def _read_symbols(data: bytes, count: int) -> list[int]:
    """The first ``count`` folded symbols of a plane payload."""
    nbits = 8 * len(data)
    symbols = [0] * count
    a_sum = 4
    n = 1
    pos = 0
    i = 0
    first = limit = 0  # words[j] starts at byte first + j; limit is where they end
    while i < count:
        if pos >= limit:
            if pos >= nbits:
                raise CorruptStreamError("bitstream exhausted")
            first = pos >> 3
            words = _windows(data, first, _WINDOW_CHUNK)
            limit = min(nbits, 8 * (first + _WINDOW_CHUNK))
        word = (words[(pos >> 3) - first] << (pos & 7)) & _WORD_MASK
        if a_sum > n:
            k = ((a_sum - 1) // n).bit_length()
        else:
            # k == 0 makes a zero symbol one stop bit, and zero symbols keep
            # A <= N (halving too), so a run of ones is a run of zero symbols:
            # consume it at once (the list holds zeros already).
            ones = 64 - (word ^ _WORD_MASK).bit_length()
            if ones:
                i += ones
                pos += ones
                n += ones
                while n >= RICE_RESET_COUNT:
                    a_sum >>= 1
                    n -= RICE_RESET_COUNT // 2
                continue
            k = 0
        q = 64 - word.bit_length()
        if q < RICE_ESCAPE_QUOTIENT:
            # The stop bit is bit 63 - q; u = (q << k) | the k bits after it.
            u = (word >> (63 - q - k)) + ((q - 1) << k)
            if u > MASK:
                raise CorruptStreamError(f"decoded symbol {u} exceeds 16-bit range")
            pos += q + 1 + k
        else:
            u = (word >> (64 - RICE_ESCAPE_QUOTIENT - 16)) & MASK
            pos += RICE_ESCAPE_QUOTIENT + 16
        symbols[i] = u
        i += 1
        a_sum += u
        n += 1
        if n == RICE_RESET_COUNT:
            a_sum >>= 1
            n >>= 1
    if pos > nbits:
        raise CorruptStreamError("bitstream exhausted")
    return symbols


def _med_reconstruct(errors: np.ndarray) -> np.ndarray:
    """Invert MED prediction: x = (MED(left, above, above-left) + e) mod 2^16.

    A pixel depends on the previous anti-diagonal (left, above) and the one
    before (above-left), so each anti-diagonal is reconstructed at once.  The
    planes are stored skewed, ``skew[d + 2, i + 1] = x[i, d - i]``, which makes
    every anti-diagonal a contiguous slice and leaves the out-of-image
    neighbours at 0.  MED is symmetric in left and above, so a tall plane is
    reconstructed transposed, which keeps the skewed array near 2x the plane.
    """
    height, width = errors.shape
    if height > width:
        return np.ascontiguousarray(_med_reconstruct(errors.T).T)
    stride = height + 1
    skew = np.zeros((height + width + 1, stride), dtype=np.int32)
    plane = np.lib.stride_tricks.as_strided(
        skew.reshape(-1)[2 * stride + 1 :],
        shape=(height, width),
        strides=((stride + 1) * skew.itemsize, stride * skew.itemsize),
    )
    plane[...] = errors  # each pixel holds its error until it is reconstructed
    for d in range(height + width - 1):
        lo = max(0, d - width + 1)
        hi = min(d, height - 1) + 1
        left = skew[d + 1, lo + 1 : hi + 1]
        above = skew[d + 1, lo:hi]
        # MED(a, b, c) = median(a, b, a + b - c)
        guess = left + above
        guess -= skew[d, lo:hi]
        np.minimum(guess, np.maximum(left, above), out=guess)
        np.maximum(guess, np.minimum(left, above), out=guess)
        current = skew[d + 2, lo + 1 : hi + 1]
        current += guess
        current &= MASK
    return plane.astype(np.uint16)


def decode_plane(data: bytes, width: int, height: int) -> np.ndarray:
    """Exact inverse of :func:`code_plane`."""
    if width < 1 or height < 1:
        raise ParameterError(f"bad plane dimensions {width}x{height}")
    if width * height > 8 * len(data):
        # Every symbol takes at least one bit; checked before sizing anything.
        raise CorruptStreamError(f"{len(data)}-byte payload cannot hold {width}x{height} symbols")
    u = np.array(_read_symbols(data, width * height), dtype=np.int32)
    errors = u >> 1
    errors ^= -(u & 1)  # unfolds to the error mod 2^16, which is all MED needs
    return _med_reconstruct(errors.reshape(height, width))


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


def split_residual_sections(data: bytes, packed: bool) -> tuple[PlaneSection, ...]:
    """Walk a residual block: each plane's header, pack table and payload.

    ``packed`` is the ``use_packing`` the block was encoded with: a packed
    plane always has a table (K >= 1), an unpacked one never.  This is the
    only reader of the block layout, so every bounds and count check on it
    lives here.
    """
    sections = []
    pos = 0
    for index in range(3):
        if len(data) - pos < PLANE_HEADER.size:
            raise CorruptStreamError("truncated residual plane header")
        count, payload_len = PLANE_HEADER.unpack_from(data, pos)
        if bool(count) != packed:
            raise CorruptStreamError(
                f"residual plane {index} has pack-table count {count}, but the block is "
                f"{'packed' if packed else 'unpacked'}"
            )
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


def decode_residual(data: bytes, width: int, height: int, packed: bool) -> np.ndarray:
    """Exact inverse of :func:`encode_residual`; returns (3, h, w) uint16."""
    planes = []
    for section in split_residual_sections(data, packed):
        plane = decode_plane(section.payload, width, height)
        if section.table is not None:
            plane = unpack(plane, section.table)
        planes.append(plane)
    return color_transform_inv(np.stack(planes))
