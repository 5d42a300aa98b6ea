"""Baseline sequential JPEG for the base layer, plus the refinement LSB plane.

The encoder emits a plain JFIF stream that third-party baseline decoders can
read: BT.601 full-range YCbCr, 4:4:4 sampling, orthonormal 8x8 DCT, quality
scaled quantization tables, the standard Huffman tables, and edge-replicated
padding.  Every stream starts with the same header apart from its two
quantization tables and its frame size, so the decoder parses no markers: it
accepts exactly the header :func:`encode_base` writes for the tables and size
the stream holds, refuses a table entry of 0, decodes the scan with the
standard Huffman tables, and reports the byte offset of any corruption.

The decoder stores the levels of a stream coefficient-major, as one int16
(3, 64, blocks) array in natural order, so that each coefficient of every
block of a component is one contiguous row.  The inverse DCT then runs in
int32 over whole rows, one component at a time into a uint8 YCbCr image, and
the colour conversion writes one RGB plane at a time.  That is exact because the
decoder rejects any dequantized coefficient |level * q| above 1151: a DCT
coefficient of samples in [-128, 127] is at most 1024 in magnitude, and
rounding it to a multiple of q <= 255 adds at most 127, so every stream of
:func:`encode_base` passes (its largest is 1135).  At 1151 no intermediate of
either inverse DCT pass reaches 2**31.

The scan is a sequence of units, one per component of each block (ITU-T T.81
F.1.2).  Before each unit the decoder peeks at the next 16 bits of the
unstuffed scan, read from the native uint32 byte windows of
:func:`rescodec._byte_windows` that the Rice decoder reads too, and looks
them up in the unit table of its component class, luma or chroma.  A window
that starts with a complete DC-only unit (the DC size code, its magnitude
bits, then EOB, which fit 16 bits for a DC size of at most 7) gives the
unit's bit length and DC difference, and the decoder steps over the unit at
once.  Any other unit, a DC level past the limit, and any unit that starts
within the last 16 bits of the scan are read by the per-bit reader from the
same position, so every corruption is reported by the same code at the same
offset.  A block whose AC levels are all 0 needs no inverse DCT either: both
passes give a lone DC the flat value
clip(((level * q0 + 4) >> 3) + 128, 0, 255).  On the benchmark's exposure
ladders about 93 % of units are DC-only, on its noisy textures none.

A flat MCU, three DC-only units of difference 0, is one fixed 14-bit pattern
(the DC size-0 code and EOB of luma, then twice those of chroma), derived from
the standard tables at import.  When the luma unit's table entry is that of
difference 0, the decoder steps over the whole run of flat MCUs that starts
there: it peeks the pattern at each MCU while all 14 bits lie inside the scan
and blocks remain, then writes the unchanged DC predictors into the run's
blocks with one slice per component.  A flat MCU cannot raise, so every error
keeps its offset.  On the exposure ladders about 74 % of MCUs are flat, in
runs of about 9; on the photos 0.1 %, on the textures none.

``_JpegBitReader`` is the one bit reader left beside the windows: whole
DC-only units and runs of flat MCUs are stepped over from the windows, and
every other unit is read from it bit by bit.

The refinement plane carries the low bits of a deeper tone-mapped image when
the extra-precision mode is on: the top 8 bits travel as the JPEG, the R
least significant bits travel as a losslessly coded plane per channel, and
merging uses the decoded base so the pair behaves exactly like the plain
8-bit path followed by a correction.
"""

from __future__ import annotations

import re
import struct
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError
from .imagio import MAX_DIMENSION, LdrImage
from .rescodec import _LOW_BITS, _byte_windows, _pack_fields, code_planes, decode_planes

# Zig-zag scan: natural (row-major) index of each scan position.
ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)

BASE_LUMA_QUANT = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64)

BASE_CHROMA_QUANT = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64)

# Standard Huffman tables: (codes per length 1..16, symbol values).
DC_LUMA_BITS = (0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
DC_LUMA_VALUES = tuple(range(12))
DC_CHROMA_BITS = (0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
DC_CHROMA_VALUES = tuple(range(12))

AC_LUMA_BITS = (0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D)
AC_LUMA_VALUES = (
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
)

AC_CHROMA_BITS = (0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77)
AC_CHROMA_VALUES = (
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
)


def _dct_matrix() -> np.ndarray:
    k = np.arange(8).reshape(8, 1)
    n = np.arange(8).reshape(1, 8)
    mat = np.cos((2 * n + 1) * k * np.pi / 16.0)
    mat[0] *= 1.0 / np.sqrt(2.0)
    return mat * 0.5


_DCT = _dct_matrix()


def forward_dct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT of a stack of 8x8 blocks, float64."""
    return np.einsum("ij,bjk,lk->bil", _DCT, blocks, _DCT, optimize=True)


# Scaled-integer inverse DCT, the classic accurate baseline-decoder algorithm
# (13-bit constants, two passes).  Using it keeps decoded samples within one
# step of widespread JPEG decoders.
_CONST_BITS = 13
_PASS1_BITS = 2
_F_0_298631336 = 2446
_F_0_390180644 = 3196
_F_0_541196100 = 4433
_F_0_765366865 = 6270
_F_0_899976223 = 7373
_F_1_175875602 = 9633
_F_1_501321110 = 12299
_F_1_847759065 = 15137
_F_1_961570560 = 16069
_F_2_053119869 = 16819
_F_2_562915447 = 20995
_F_3_072711026 = 25172


def _descale(x: np.ndarray, n: int) -> np.ndarray:
    return (x + (1 << (n - 1))) >> n


def _islow_1d(c0, c1, c2, c3, c4, c5, c6, c7, shift: int):
    z1 = (c2 + c6) * _F_0_541196100
    even2 = z1 - c6 * _F_1_847759065
    even3 = z1 + c2 * _F_0_765366865
    even0 = (c0 + c4) << _CONST_BITS
    even1 = (c0 - c4) << _CONST_BITS
    t10, t13 = even0 + even3, even0 - even3
    t11, t12 = even1 + even2, even1 - even2

    o0, o1, o2, o3 = c7, c5, c3, c1
    z1 = o0 + o3
    z2 = o1 + o2
    z3 = o0 + o2
    z4 = o1 + o3
    z5 = (z3 + z4) * _F_1_175875602
    o0 = o0 * _F_0_298631336
    o1 = o1 * _F_2_053119869
    o2 = o2 * _F_3_072711026
    o3 = o3 * _F_1_501321110
    z1 = -z1 * _F_0_899976223
    z2 = -z2 * _F_2_562915447
    z3 = z5 - z3 * _F_1_961570560
    z4 = z5 - z4 * _F_0_390180644
    o0 += z1 + z3
    o1 += z2 + z4
    o2 += z2 + z3
    o3 += z1 + z4
    return (
        _descale(t10 + o3, shift), _descale(t11 + o2, shift),
        _descale(t12 + o1, shift), _descale(t13 + o0, shift),
        _descale(t13 - o0, shift), _descale(t12 - o1, shift),
        _descale(t11 - o2, shift), _descale(t10 - o3, shift),
    )


# The largest dequantized coefficient magnitude the decoder accepts: 1024 plus
# half the largest quantizer step (see the module docstring).
_LEVEL_LIMIT = 1024 + 255 // 2


def idct_islow_blocks(levels: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """Dequantize and inverse transform one component with the scaled-integer
    algorithm.

    Input: (64, n) int16 or int32 quantized levels, coefficient-major in
    natural order (row 8u + v holds coefficient (u, v) of the n blocks), and
    the (64,) natural-order quantization table.  Output: (8, 8, n) int32
    samples already level-shifted back to [0, 255], indexed by row, column
    and block.

    Both passes run in int32 on contiguous (8, n) rows: the first transforms
    every column of coefficients, the second every row of its output.  Raises
    :class:`ParseError` if some |level * q| exceeds 1151, the limit up to
    which no intermediate overflows.
    """
    n = levels.shape[1]
    d = levels * quant.astype(np.int32)[:, None]
    worst = max(int(d.max()), -int(d.min())) if d.size else 0
    if worst > _LEVEL_LIMIT:
        raise ParseError(f"dequantized coefficient of magnitude {worst} exceeds {_LEVEL_LIMIT}")
    d = d.reshape(8, 8, n)
    ws = np.stack(_islow_1d(*(d[u] for u in range(8)), _CONST_BITS - _PASS1_BITS), axis=1)
    out = np.stack(_islow_1d(*(ws[v] for v in range(8)), _CONST_BITS + _PASS1_BITS + 3), axis=1)
    out += 128
    return np.clip(out, 0, 255, out=out)


def _component_samples(levels: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """(8, 8, n) samples of one component's (64, n) levels, equal to those of
    :func:`idct_islow_blocks`.

    A block whose 63 AC levels are all 0 is flat at clip(((level * q0 + 4)
    >> 3) + 128, 0, 255), the value both passes give a lone DC, so only the
    other blocks take the inverse DCT.  Gathering those and scattering their
    samples costs about as much as their inverse DCT, so a component with
    fewer than half its blocks flat takes it whole, as does one whose flat
    blocks break the level limit, which keeps its checks and its error."""
    flat = ~levels[1:].any(axis=0)
    dc = levels[0] * quant[0]
    if 2 * np.count_nonzero(flat) < flat.size or np.abs(dc[flat]).max() > _LEVEL_LIMIT:
        return idct_islow_blocks(levels, quant)
    dc += 4
    dc >>= 3
    dc += 128
    samples = np.empty((8, 8, levels.shape[1]), dtype=np.uint8)
    samples[...] = np.clip(dc, 0, 255, out=dc)
    ac = np.flatnonzero(~flat)
    if ac.size:
        samples[:, :, ac] = idct_islow_blocks(levels.take(ac, axis=1), quant)
    return samples


@dataclass(frozen=True)
class QuantTables:
    """Quality-scaled quantization tables in zig-zag order, entries in [1, 255]."""

    luma: tuple[int, ...]
    chroma: tuple[int, ...]

    def natural(self, chroma: bool) -> np.ndarray:
        zz = np.array(self.chroma if chroma else self.luma, dtype=np.int64)
        out = np.empty(64, dtype=np.int64)
        out[ZIGZAG] = zz
        return out.reshape(8, 8)


def quality_to_tables(q: int) -> QuantTables:
    """Scale the base tables by the conventional quality rule."""
    qi = int(q)
    if not 1 <= qi <= 100:
        raise ParameterError(f"quality must lie in [1, 100], got {q}")
    scale = 5000 // qi if qi < 50 else 200 - 2 * qi
    def scaled(base: np.ndarray) -> tuple[int, ...]:
        entries = np.clip((base * scale + 50) // 100, 1, 255)
        return tuple(int(v) for v in entries[ZIGZAG])
    return QuantTables(luma=scaled(BASE_LUMA_QUANT), chroma=scaled(BASE_CHROMA_QUANT))


# ---------------------------------------------------------------------------
# Color conversion (BT.601 full range, rounded)


# Per YCbCr component: the R, G and B weights and the offset.  A subtracted
# term is added with a negated weight, which is the same IEEE operation.
_YCBCR_ROWS = (
    (0.299, 0.587, 0.114, 0.0),
    (-0.168736, -0.331264, 0.5, 128.0),
    (0.5, -0.418688, -0.081312, 128.0),
)


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """(3, h, w) uint8 YCbCr of (3, h, w) 8-bit RGB samples: per component,
    round(wr * R + wg * G + wb * B + offset) clipped to [0, 255], summed left
    to right in float64, one component at a time."""
    r, g, b = rgb
    ycc = np.empty(np.shape(rgb), dtype=np.uint8)
    acc = np.empty(ycc.shape[1:])
    term = np.empty_like(acc)
    for out, (wr, wg, wb, offset) in zip(ycc, _YCBCR_ROWS):
        np.multiply(wr, r, out=acc)
        acc += np.multiply(wg, g, out=term)
        acc += np.multiply(wb, b, out=term)
        acc += offset
        np.rint(acc, out=acc)
        out[...] = np.clip(acc, 0, 255, out=acc)
    return ycc


def _store_channel(out: np.ndarray, y: np.ndarray, term: np.ndarray) -> None:
    """out = clip(y + ((term + 2**15) >> 16), 0, 255), computed in ``term``."""
    term += 1 << 15
    term >>= 16
    term += y
    out[...] = np.clip(term, 0, 255, out=term)


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """RGB of 8-bit YCbCr samples in the fixed-point (16-bit scaled) arithmetic
    of the classic baseline decoder, which keeps this decoder bit-compatible
    with widespread JPEG implementations.  Every term stays below 2**24, so it
    runs in int32, one (h, w) uint16 output plane at a time."""
    y, cb, cr = ycc
    cb = np.subtract(cb, 128, dtype=np.int32)
    cr = np.subtract(cr, 128, dtype=np.int32)
    rgb = np.empty(np.shape(ycc), dtype=np.uint16)
    _store_channel(rgb[0], y, 91881 * cr)  # 1.40200
    _store_channel(rgb[1], y, -22554 * cb - 46802 * cr)  # 0.34414, 0.71414
    _store_channel(rgb[2], y, 116130 * cb)  # 1.77200
    return rgb


def _to_blocks(plane: np.ndarray) -> np.ndarray:
    """Edge-pad a plane to multiples of 8 and split into (n, 8, 8) blocks."""
    h, w = plane.shape
    padded = np.pad(plane, ((0, (-h) % 8), (0, (-w) % 8)), mode="edge")
    bh, bw = padded.shape[0] // 8, padded.shape[1] // 8
    return padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


# ---------------------------------------------------------------------------
# Huffman coding


def _canonical_codes(bits, values) -> list[tuple[int, int, int]]:
    """(symbol, code, length) of each entry of a canonical Huffman table, given
    its count of codes of each length 1..16 and its symbols (T.81 C.2)."""
    codes = []
    code = 0
    symbols = iter(values)
    for length, count in enumerate(bits, 1):
        for _ in range(count):
            codes.append((next(symbols), code, length))
            code += 1
        code <<= 1
    return codes


def _code_table(bits, values) -> np.ndarray:
    """(256, 2) array of the (code, length) of each symbol of a table."""
    table = np.zeros((256, 2), dtype=np.uint16)
    for symbol, code, length in _canonical_codes(bits, values):
        table[symbol] = code, length
    return table


# Indexed [table id (0 luma, 1 chroma), symbol].
_DC_CODES = np.stack([_code_table(DC_LUMA_BITS, DC_LUMA_VALUES),
                      _code_table(DC_CHROMA_BITS, DC_CHROMA_VALUES)])
_AC_CODES = np.stack([_code_table(AC_LUMA_BITS, AC_LUMA_VALUES),
                      _code_table(AC_CHROMA_BITS, AC_CHROMA_VALUES)])
_EOB = 0x00
_ZRL = 0xF0


def _magnitude(levels: np.ndarray) -> np.ndarray:
    """(bits, size) uint16 rows of levels: the bit length of each level, and
    its low bits, in ones'-complement form for a negative level."""
    out = np.empty((levels.size, 2), dtype=np.uint16)
    out[:, 1] = np.frexp(levels)[1]
    out[:, 0] = levels - (levels < 0)
    out[:, 0] &= _LOW_BITS[out[:, 1]]
    return out


def _scan_fields(levels: list[np.ndarray]) -> np.ndarray:
    """(value, width) rows of the bit fields of an interleaved baseline scan.

    ``levels`` holds one (blocks, 64) int16 array of zig-zag ordered levels
    per component.  The scan codes one unit per block and component, in
    block order and then component order.  A unit codes the size and bits of
    its DC difference from the previous DC of its component; then, for each
    nonzero AC level, one ZRL per 16 zeros before it and its (run, size)
    symbol and bits; and an EOB unless its last level is nonzero (ITU-T T.81
    F.1.2).  A last field one-fills the final byte (F.1.2.3).  Every field is
    written straight to its offset, and the arrays with one entry per nonzero
    level use the narrowest dtype that holds them.
    """
    units = np.stack(levels, axis=1)
    units[:, :, 0] = np.diff(units[:, :, 0], axis=0, prepend=0)
    units = units.reshape(-1, 64)
    n = units.shape[0]  # at most 3 * 8192**2 units: int32 counts them
    table = np.minimum(np.arange(n) % 3, 1).astype(np.uint8)
    unit = np.flatnonzero(units[:, 1:] != 0)  # flatnonzero is several times faster on bool
    k = (unit % 63).astype(np.uint8) + 1
    unit //= 63
    unit = unit.astype(np.int32)
    ac_levels = units[unit, k]
    dc = _magnitude(units[:, 0])
    del units
    prev = np.roll(k, 1)
    prev[:1] = 0
    prev[1:][unit[1:] != unit[:-1]] = 0
    run = k - prev - 1
    del prev
    zrls = run >> 4  # a run is at most 62 zeros: up to three ZRLs
    eob = np.ones(n, dtype=bool)
    eob[unit[k == 63]] = False
    del k
    # Two AC fields per level, and its ZRLs, which few levels have.
    has_zrl = zrls > 0
    unit_ac = np.bincount(unit[has_zrl], zrls[has_zrl], n).astype(np.int64)
    unit_ac += 2 * np.diff(np.searchsorted(unit, np.arange(n + 1, dtype=np.int32)))
    # A field's offset counts the DC pairs, EOBs and AC fields before it; a
    # level's symbol is the last but one of its AC fields.
    eob_before = (np.cumsum(eob) - eob).astype(np.int32)
    dc_at = 2 * np.arange(n) + eob_before + np.cumsum(unit_ac) - unit_ac
    ac_at = np.cumsum(zrls + 2, dtype=np.int64)
    ac_at += unit
    ac_at += unit
    ac_at += eob_before[unit]
    level_table = table[unit]
    del unit
    fields = np.zeros((dc_at[-1] + 2 + unit_ac[-1] + eob[-1] + 1, 2), dtype=np.uint16)
    fields[dc_at] = _DC_CODES[table, dc[:, 1]]
    fields[dc_at + 1] = dc
    fields[(dc_at + 2 + unit_ac)[eob]] = _AC_CODES[table[eob], _EOB]
    for i in range(1, 4):
        zrl = zrls >= i
        fields[ac_at[zrl] - i] = _AC_CODES[level_table[zrl], _ZRL]
    ac = _magnitude(ac_levels)
    fields[ac_at] = _AC_CODES[level_table, ((run & 15) << 4) | ac[:, 1]]
    fields[ac_at + 1] = ac
    pad = -int(fields[:, 1].sum()) % 8
    fields[-1] = (1 << pad) - 1, pad
    return fields


def _entropy_code(levels: list[np.ndarray]) -> bytes:
    """Entropy-coded data of the scan of :func:`_scan_fields`: its fields
    packed MSB-first, each 0xFF byte followed by a stuffed 0x00 (B.1.1.5)."""
    # Built in its own call, so that its temporaries are freed before packing.
    fields = _scan_fields(levels)
    return _pack_fields(fields[:, 0], fields[:, 1]).replace(b"\xFF", b"\xFF\x00")


def encode_base(image: LdrImage, q: int) -> bytes:
    """Encode an 8-bit image as a baseline sequential JFIF stream."""
    if image.bit_depth != 8:
        raise ParameterError(f"base layer must be 8-bit, got {image.bit_depth}-bit")
    if not (1 <= image.width <= MAX_DIMENSION and 1 <= image.height <= MAX_DIMENSION):
        raise ParameterError(f"unencodable dimensions {image.width}x{image.height}")
    tables = quality_to_tables(q)
    ycc = rgb_to_ycbcr(image.samples)
    quantized = [_quantize(ycc[comp], tables.natural(chroma=comp > 0)) for comp in range(3)]
    del ycc
    return _header(tables, image.width, image.height) + _entropy_code(quantized) + _EOI


def _quantize(samples: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """(blocks, 64) int16 zig-zag ordered levels of one component's 8-bit
    samples under the (8, 8) natural-order quantization table ``qtab``."""
    coeffs = forward_dct_blocks(_to_blocks(np.subtract(samples, 128.0)))
    coeffs /= qtab
    # |level| <= 1024 and a DC difference lies within +-2047: int16 holds both.
    return np.rint(coeffs, out=coeffs).astype(np.int16).reshape(-1, 64)[:, ZIGZAG]


def _segment(marker: int, payload: bytes) -> bytes:
    return bytes([0xFF, marker]) + struct.pack(">H", len(payload) + 2) + payload


# The header segments that do not depend on the image: SOI and JFIF APP0 before
# the tables and the frame; the four standard Huffman tables and the scan
# header (Y on tables 0, Cb and Cr on tables 1) after them.
_JFIF = b"\xFF\xD8" + _segment(0xE0, b"JFIF\x00" + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + b"\x00\x00")
_HUFFMAN_AND_SCAN = _segment(0xC4, b"".join(
    bytes([(table_class << 4) | dest]) + bytes(bits) + bytes(values)
    for table_class, dest, bits, values in (
        (0, 0, DC_LUMA_BITS, DC_LUMA_VALUES),
        (1, 0, AC_LUMA_BITS, AC_LUMA_VALUES),
        (0, 1, DC_CHROMA_BITS, DC_CHROMA_VALUES),
        (1, 1, AC_CHROMA_BITS, AC_CHROMA_VALUES),
    )
)) + _segment(0xDA, bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]))
_EOI = b"\xFF\xD9"


def _header(tables: QuantTables, width: int, height: int) -> bytes:
    """Everything before the scan data of a stream of :func:`encode_base`:
    SOI, JFIF, one DQT segment with both tables, an 8-bit 4:4:4 three-component
    SOF (Y on table 0, Cb and Cr on table 1), the standard DHT tables and SOS.
    Its length does not depend on the tables or the size."""
    return b"".join((
        _JFIF,
        _segment(0xDB, b"\x00" + bytes(tables.luma) + b"\x01" + bytes(tables.chroma)),
        _segment(0xC0, struct.pack(">BHHB", 8, height, width, 3) + bytes([1, 0x11, 0, 2, 0x11, 1, 3, 0x11, 1])),
        _HUFFMAN_AND_SCAN,
    ))


_HEADER_SIZE = len(_header(quality_to_tables(50), 1, 1))
_LUMA_AT = len(_JFIF) + 5  # after the DQT marker, length and table id
_CHROMA_AT = _LUMA_AT + 65
_SIZE_AT = _CHROMA_AT + 64 + 5  # after the SOF marker, length and precision: height, width
_UNSTUFFED = re.compile(rb"\xFF(?!\x00)")


def _read_header(stream: bytes) -> tuple[QuantTables, int, int]:
    """The quantization tables and frame size of ``stream``, whose header
    must be the one :func:`encode_base` writes for them, with every table
    entry in 1..255 (T.81 Table B.4).  Raises :class:`ParseError` at the first
    byte that breaks either rule."""
    if len(stream) < _HEADER_SIZE:
        raise ParseError("truncated header", offset=len(stream))
    tables = QuantTables(tuple(stream[_LUMA_AT : _LUMA_AT + 64]), tuple(stream[_CHROMA_AT : _CHROMA_AT + 64]))
    height, width = struct.unpack_from(">HH", stream, _SIZE_AT)
    header = _header(tables, width, height)
    if not stream.startswith(header):
        at = next(i for i, (a, b) in enumerate(zip(stream, header)) if a != b)
        what = f"its tables at {width}x{height}"
        raise ParseError(f"header is not the one encode_base writes for {what}", offset=at)
    zero = stream.find(0, _LUMA_AT, _CHROMA_AT + 64)  # the byte between the tables is table id 1
    if zero >= 0:
        raise ParseError("quantization table entry of 0 (T.81 allows 1..255)", offset=zero)
    return tables, width, height


def check_base(stream: bytes, width: int, height: int) -> None:
    """Require ``stream`` to be laid out as :func:`encode_base` writes it for
    a ``width`` x ``height`` image: the header :func:`decode_base` accepts,
    with that frame size, then scan data in which every 0xFF byte is stuffed,
    then one EOI marker that ends the stream.  The scan is not decoded."""
    _, frame_width, frame_height = _read_header(stream)
    if (frame_width, frame_height) != (width, height):
        raise ParseError(f"{frame_width}x{frame_height} frame in a {width}x{height} image", offset=_SIZE_AT)
    _scan_end(stream)


def _scan_end(stream: bytes) -> int:
    """Offset of the EOI marker that ends ``stream``: the scan data after the
    header must stuff every 0xFF byte and run up to one final EOI."""
    marker = _UNSTUFFED.search(stream, _HEADER_SIZE)
    at = len(stream) if marker is None else marker.start()
    if stream[at : at + 2] != _EOI:
        raise ParseError("missing EOI marker after scan", offset=at)
    if at + 2 != len(stream):
        raise ParseError(f"{len(stream) - at - 2} bytes after the EOI marker", offset=at + 2)
    return at


# ---------------------------------------------------------------------------
# Decoder


class _JpegBitReader:
    """MSB-first reader over the unstuffed scan data of a stream.  Offsets it
    reports are stream offsets: each 0xFF before a scan position was followed
    by a stuffed 0x00 in the stream."""

    def __init__(self, scan: bytes):
        self._data = scan
        self._pos = 0
        self._acc = 0
        self._nbits = 0

    def _offset(self, pos: int) -> int:
        return _HEADER_SIZE + pos + self._data.count(0xFF, 0, pos)

    def read1(self) -> int:
        if self._nbits == 0:
            if self._pos >= len(self._data):
                raise ParseError("entropy data exhausted", offset=self.end_position())
            self._acc = self._data[self._pos]
            self._pos += 1
            self._nbits = 8
        self._nbits -= 1
        return (self._acc >> self._nbits) & 1

    def read(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read1()
        return value

    def end_position(self) -> int:
        return self._offset(self._pos)

    def tell(self) -> int:
        """The count of scan bits read."""
        return 8 * self._pos - self._nbits

    def seek(self, bit: int) -> None:
        """Put the reader in the state that reading ``bit`` bits from the
        start of the scan leaves it in."""
        self._pos, used = divmod(bit, 8)
        self._nbits = 0
        if used:
            self._acc = self._data[self._pos]
            self._pos += 1
            self._nbits = 8 - used

    def check_end(self) -> None:
        """Require the scan to be read to its last byte, whose unread bits
        must be one-filled."""
        mask = (1 << self._nbits) - 1
        if self._acc & mask != mask:
            raise ParseError("scan pad bits are not all ones", offset=self._offset(self._pos - 1))
        if self._pos != len(self._data):
            raise ParseError(
                f"{len(self._data) - self._pos} bytes of scan data after the last block",
                offset=self.end_position(),
            )


def _read_huffman(reader: _JpegBitReader, table: dict[tuple[int, int], int]) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | reader.read1()
        symbol = table.get((length, code))
        if symbol is not None:
            return symbol
    raise ParseError("invalid Huffman code in scan", offset=reader.end_position())


def _extend(bits: int, size: int) -> int:
    if size == 0:
        return 0
    if bits < (1 << (size - 1)):
        return bits - (1 << size) + 1
    return bits


def _decode_map(bits, values) -> dict[tuple[int, int], int]:
    return {(length, code): symbol for symbol, code, length in _canonical_codes(bits, values)}


def _huffman_code(bits, values, symbol: int) -> tuple[int, int]:
    """(code, length) of ``symbol`` in a canonical Huffman table."""
    (code, length), = ((c, n) for s, c, n in _canonical_codes(bits, values) if s == symbol)
    return code, length


def _dc_only_table(dc_bits, dc_values, ac_bits, ac_values) -> array:
    """Unit table of one component class, indexed by the next 16 scan bits.

    The entry of a window that starts with a complete DC-only unit (the DC
    size code, its magnitude bits, then EOB) is 32 * difference + bit length
    of that unit; every other window's entry is 0.  A unit fits in 16 bits
    only for a DC size of at most 7, so every entry fits an int16."""
    eob_code, eob_length = _huffman_code(ac_bits, ac_values, _EOB)
    table = np.zeros(1 << 16, dtype=np.int16)
    for size, code, length in _canonical_codes(dc_bits, dc_values):
        span = length + size + eob_length
        if span > 16:
            continue
        bits = np.arange(1 << size)
        difference = np.where(bits < (1 << size) >> 1, bits - (1 << size) + 1, bits)
        prefix = (((code << size) | bits) << eob_length) | eob_code
        table.reshape(-1, 1 << (16 - span))[prefix] = (32 * difference + span)[:, None]
    return array("h", table.tobytes())


# Per component: the DC and AC decode maps and the DC-only unit table.
_LUMA_MAPS = (_decode_map(DC_LUMA_BITS, DC_LUMA_VALUES), _decode_map(AC_LUMA_BITS, AC_LUMA_VALUES),
              _dc_only_table(DC_LUMA_BITS, DC_LUMA_VALUES, AC_LUMA_BITS, AC_LUMA_VALUES))
_CHROMA_MAPS = (_decode_map(DC_CHROMA_BITS, DC_CHROMA_VALUES), _decode_map(AC_CHROMA_BITS, AC_CHROMA_VALUES),
                _dc_only_table(DC_CHROMA_BITS, DC_CHROMA_VALUES, AC_CHROMA_BITS, AC_CHROMA_VALUES))


def _flat_unit(dc_bits, dc_values, ac_bits, ac_values) -> tuple[int, int]:
    """(code, length) of a DC-only unit of difference 0: the DC size-0 code,
    then EOB.  Its entry in the unit table is its length."""
    dc_code, dc_length = _huffman_code(dc_bits, dc_values, 0)
    eob_code, eob_length = _huffman_code(ac_bits, ac_values, _EOB)
    return dc_code << eob_length | eob_code, dc_length + eob_length


# A flat MCU is a luma and two chroma DC-only units of difference 0: one fixed
# bit pattern, 14 bits long for the standard tables.
_FLAT_LUMA = _flat_unit(DC_LUMA_BITS, DC_LUMA_VALUES, AC_LUMA_BITS, AC_LUMA_VALUES)
_FLAT_CHROMA = _flat_unit(DC_CHROMA_BITS, DC_CHROMA_VALUES, AC_CHROMA_BITS, AC_CHROMA_VALUES)
_FLAT_MCU_BITS = _FLAT_LUMA[1] + 2 * _FLAT_CHROMA[1]
_FLAT_MCU = ((_FLAT_LUMA[0] << _FLAT_CHROMA[1] | _FLAT_CHROMA[0]) << _FLAT_CHROMA[1]) | _FLAT_CHROMA[0]


def decode_base(stream: bytes) -> LdrImage:
    """Decode a stream produced by :func:`encode_base`.  Its header must be
    the one :func:`encode_base` writes for the quantization tables and the
    frame size the stream holds, and no table entry may be 0."""
    tables, width, height = _read_header(stream)
    if not width or not height:
        raise ParseError(f"empty {width}x{height} frame", offset=_SIZE_AT)
    bh = (height + 7) // 8
    bw = (width + 7) // 8
    # Each block codes at least one DC and one AC symbol per component, of at
    # least one bit each: reject a frame the scan cannot fill before allocating.
    if 3 * bh * bw * 2 > 8 * (len(stream) - _HEADER_SIZE):
        raise ParseError(f"{width}x{height} frame is larger than its scan data", offset=_HEADER_SIZE)
    n = bh * bw
    levels = _scan_levels(stream[_HEADER_SIZE : _scan_end(stream)].replace(b"\xFF\x00", b"\xFF"), n)

    # One component at a time: its (8, 8, n) samples go straight into the
    # (component, block row, row, block column, column) uint8 image.
    ycc = np.empty((3, bh, 8, bw, 8), dtype=np.uint8)
    for comp in range(3):
        samples = _component_samples(levels[comp], tables.natural(chroma=comp > 0).ravel())
        ycc[comp] = samples.reshape(8, 8, bh, bw).transpose(2, 0, 3, 1)
    ycc = ycc.reshape(3, 8 * bh, 8 * bw)
    return LdrImage(ycbcr_to_rgb(ycc[:, :height, :width]), bit_depth=8)


def _scan_levels(scan: bytes, n: int) -> np.ndarray:
    """(3, 64, n) int16 levels, in natural order, of the ``n`` blocks of the
    unstuffed ``scan``, which must end, pad bits aside, with the last unit.

    A luma unit whose table entry is the one of difference 0 may start a run
    of flat MCUs.  The run is stepped over while the next 14 bits, all inside
    the scan, hold the flat-MCU pattern and blocks remain; its blocks take the
    unchanged DC predictors, one slice per component, and decoding resumes
    with the MCU after it.  A flat MCU cannot raise, so no error moves."""
    reader = _JpegBitReader(scan)
    windows = array("I", _byte_windows(scan).tobytes())  # ints for the peek
    last_window = 8 * len(scan) - 16
    # The flat-MCU peek, in locals: the luma entry that starts it, the
    # pattern, its length, the window shift and mask, and its last start.
    flat_luma, flat_mcu, flat_bits = _FLAT_LUMA[1], _FLAT_MCU, _FLAT_MCU_BITS
    flat_shift, flat_mask, last_flat = 32 - flat_bits, (1 << flat_bits) - 1, 8 * len(scan) - flat_bits
    bit = read = 0  # bits decoded, and bits the per-bit reader has read
    # Laid out (component, natural coefficient index, block): a block's DC sits
    # at dc_at[component] + block, its zig-zag coefficient k step[k] further.
    # Every stored level is within +-1151, so int16 holds it.
    levels = np.zeros(3 * 64 * n, dtype=np.int16)
    dc_at = (0, 64 * n, 128 * n)
    step = [int(z) * n for z in ZIGZAG]
    pred = [0, 0, 0]
    block_index = 0
    while block_index < n:
        for comp, (dc_tbl, ac_tbl, dc_only) in enumerate((_LUMA_MAPS, _CHROMA_MAPS, _CHROMA_MAPS)):
            at = dc_at[comp] + block_index
            # A DC-only unit in the next 16 bits takes one table step.  A
            # level past the limit is left to the per-bit path, which rejects
            # it at its own offset.
            if bit <= last_window:
                entry = dc_only[windows[bit >> 3] >> (16 - (bit & 7)) & 0xFFFF]
                if entry and abs(pred[comp] + (entry >> 5)) <= _LEVEL_LIMIT:
                    # A luma unit of difference 0 may start a run of flat
                    # MCUs; with none, it is stepped over as one unit.
                    if entry == flat_luma and not comp:
                        end = block_index
                        while (end < n and bit <= last_flat
                               and windows[bit >> 3] >> (flat_shift - (bit & 7)) & flat_mask == flat_mcu):
                            bit += flat_bits
                            end += 1
                        if end > block_index:
                            for c in range(3):
                                levels[dc_at[c] + block_index : dc_at[c] + end] = pred[c]
                            block_index = end
                            break
                    bit += entry & 31
                    pred[comp] += entry >> 5
                    levels[at] = pred[comp]
                    continue
            if read != bit:
                reader.seek(bit)
            size = _read_huffman(reader, dc_tbl)
            pred[comp] += _extend(reader.read(size), size)
            # Checked before it is stored: DC differences add up without bound.
            if abs(pred[comp]) > _LEVEL_LIMIT:
                raise ParseError(f"DC level {pred[comp]} out of range", offset=reader.end_position())
            levels[at] = pred[comp]
            k = 1
            while k < 64:
                symbol = _read_huffman(reader, ac_tbl)
                if symbol == 0x00:
                    break
                size = symbol & 0x0F
                if size == 0:  # ZRL: the tables hold no other size-0 symbol but EOB
                    k += 16
                    # A level must follow the sixteen zeros (T.81 F.1.2.2).
                    if k > 63:
                        raise ParseError("ZRL runs past coefficient 63", offset=reader.end_position())
                    continue
                k += symbol >> 4
                if k > 63:
                    raise ParseError("AC coefficient index overflow", offset=reader.end_position())
                # An AC size is at most 10, so |level| < 1024.
                levels[at + step[k]] = _extend(reader.read(size), size)
                k += 1
            bit = read = reader.tell()
        else:  # a run breaks out of the MCU after moving block_index past it
            block_index += 1

    reader.seek(bit)
    reader.check_end()
    return levels.reshape(3, 64, n)


# ---------------------------------------------------------------------------
# Refinement plane

@dataclass(frozen=True)
class RefinementPlane:
    """Losslessly coded plane of the R least significant sample bits: R and
    one payload per channel, none when R == 0.  Its size is the base image's,
    which :func:`merge_refinement` decodes it at.  Which depths a stream may
    carry is :data:`container.ARMS`'s rule, checked where R is read."""

    refine_bits: int
    payloads: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.payloads) != (3 if self.refine_bits else 0):
            raise ParameterError("refinement needs one payload per channel when R > 0 and none when R == 0")


def split_refinement(image: LdrImage) -> tuple[LdrImage, RefinementPlane]:
    """Split an (8+R)-bit image, R <= 8, into its 8-bit top and a coded R-bit plane."""
    refine_bits = image.bit_depth - 8
    if refine_bits == 0:
        return image, RefinementPlane(0, ())
    top = LdrImage(image.samples >> refine_bits, bit_depth=8)
    mask = (1 << refine_bits) - 1
    payloads = code_planes(image.samples & mask)
    return top, RefinementPlane(refine_bits, payloads)


def merge_refinement(base: LdrImage, plane: RefinementPlane) -> LdrImage:
    """Recombine a decoded 8-bit base with the refinement LSBs."""
    if base.bit_depth != 8:
        raise ParameterError(f"refinement merge needs an 8-bit base, got {base.bit_depth}-bit")
    if plane.refine_bits == 0:
        return base
    lsbs = decode_planes(plane.payloads, base.width, base.height)
    merged = (base.samples << plane.refine_bits) | lsbs
    return LdrImage(merged, bit_depth=8 + plane.refine_bits)
