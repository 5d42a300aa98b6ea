"""Image containers, half-float sample codes, and file I/O.

HDR pixels are stored as IEEE 754 binary16 bit patterns in uint16 arrays, one
plane per channel.  Fixing the sample domain to half codes gives the codec a
finite integer alphabet, so residual arithmetic can wrap mod 2^16 and stay
exactly invertible.

File formats:

* Radiance RGBE (``.hdr``), read-only, flat and RLE scanlines.  The header
  is ``#?RADIANCE`` or ``#?RGBE`` and the rest of that line, then header
  lines that are not empty, one empty line, and the resolution line
  ``-Y height +X width``, each line ending in a newline byte (Ward, "Real
  pixels", Graphics Gems II, 1991).  A ``FORMAT=`` line must read
  ``FORMAT=32-bit_rle_rgbe``; other header lines (comments, ``EXPOSURE=``,
  ...) are ignored.  No other orientation is accepted, so the first
  scanline is the top row.  The component value ``m`` with
  exponent byte ``e > 0`` decodes to ``m * 2**(e - 136)``; ``e == 0``
  decodes to black.
* PFM (``.pfm``), read and write, color ``PF`` only.  The header is ``PF``,
  the decimal width, height and scale separated by whitespace, then one
  whitespace byte; the scale is ``[+-]`` digits with an optional fraction and
  exponent, and nonzero.  ``nan``, ``inf`` and ``1_0`` are not numbers there.
  Scanlines are stored bottom-to-top; the sign of the scale selects
  endianness (negative: little-endian).
* PPM ``P6`` (8-bit, maxval 255), read-only: it holds the tone-mapped
  renderings that ``hdr2l tmqi`` scores.  Netpbm ``#`` comments may stand
  between header tokens.

Ingestion normalizes out-of-domain samples: negatives clamp to 0, +inf clamps
to the half maximum, NaN is rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ParameterError, ParseError

HALF_MAX = 65504.0
HALF_MAX_CODE = 0x7BFF
MAX_DIMENSION = 65535

# BT.709 luma weights, applied to linear-light values.
LUMA_WEIGHTS = (0.2126, 0.7152, 0.0722)


def half_encode_array(values: np.ndarray) -> np.ndarray:
    """Binary16 bit patterns of non-negative finite reals, uint16.

    Rounds to nearest even; values above the half maximum clamp to it, and
    -0.0 gives code 0.  NaN, infinity or a negative value raises
    :class:`DomainError`."""
    a = np.asarray(values, dtype=np.float64)
    # min and max propagate NaN, so one test covers NaN, infinity and sign.
    if not (a.min(initial=0.0) >= 0.0 and a.max(initial=0.0) < math.inf):
        if np.isnan(a).any():
            raise DomainError("half_encode_array: NaN in input")
        if np.isinf(a).any():
            raise DomainError("half_encode_array: infinity in input")
        raise DomainError("half_encode_array: negative value in input")
    with np.errstate(over="ignore"):
        codes = a.astype(np.float16).view(np.uint16)
    # -0.0 passes the sign test and takes the code of +0.  Round-to-nearest
    # overflows to +inf (0x7C00) from 65520 up; those take HALF_MAX_CODE.
    codes &= 0x7FFF
    return np.minimum(codes, HALF_MAX_CODE, out=codes)


def half_decode_array(codes: np.ndarray) -> np.ndarray:
    """Exact float64 values of already-validated binary16 code arrays."""
    c = np.ascontiguousarray(codes, dtype=np.uint16)
    return c.view(np.float16).astype(np.float64)


@dataclass(frozen=True, eq=False)
class _Planes:
    """Three uint16 planes, shape (3, height, width), row-major, read-only."""

    samples: np.ndarray

    def _freeze(self, limit: int, message: str) -> None:
        """Store ``samples`` as a read-only, C-contiguous (3, h, w) uint16
        array with at least one pixel; a code of ``limit`` or more raises
        :class:`DomainError` with ``message``."""
        name = type(self).__name__
        arr = np.ascontiguousarray(self.samples, dtype=np.uint16)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ParameterError(f"{name} samples must have shape (3, h, w), got {arr.shape}")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ParameterError(f"{name} must have at least one pixel")
        if int(arr.max()) >= limit:
            raise DomainError(message)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def width(self) -> int:
        return self.samples.shape[2]

    @property
    def height(self) -> int:
        return self.samples.shape[1]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class HdrImage(_Planes):
    """Linear-light RGB image; samples are binary16 bit codes.

    A code above ``HALF_MAX_CODE`` has the sign bit set or an exponent of all
    ones, so every valid code is non-negative and finite."""

    def __post_init__(self):
        self._freeze(HALF_MAX_CODE + 1, "HdrImage samples contain negative, NaN, or infinite half codes")


@dataclass(frozen=True, eq=False)
class LdrImage(_Planes):
    """Tone-mapped integer RGB image with 8 to 16 bits per sample."""

    bit_depth: int = 8

    def __post_init__(self):
        if not 8 <= int(self.bit_depth) <= 16:
            raise ParameterError(f"LdrImage bit depth must be in [8, 16], got {self.bit_depth}")
        object.__setattr__(self, "bit_depth", int(self.bit_depth))
        self._freeze(1 << self.bit_depth, f"LdrImage sample exceeds {self.bit_depth}-bit range")


def luminance(image: HdrImage) -> np.ndarray:
    """BT.709 luminance of the decoded linear values, float64 (h, w).

    The weighted channels are summed left to right, one decoded channel at a
    time, so at most two float64 planes exist at once."""
    lum = half_decode_array(image.samples[0])
    lum *= LUMA_WEIGHTS[0]
    for weight, plane in zip(LUMA_WEIGHTS[1:], image.samples[1:]):
        term = half_decode_array(plane)
        term *= weight
        lum += term
        del term  # before the next channel is decoded
    return lum


# ---------------------------------------------------------------------------
# Radiance RGBE reader


# The signature line, header lines that are not empty, one empty line, then
# the resolution line (see the module docstring).
_RGBE_HEADER = re.compile(rb"#\?(?:RADIANCE|RGBE)[^\n]*\n((?:[^\n]+\n)*)\n-Y (\d+) \+X (\d+)\n")


def parse_rgbe(data: bytes) -> HdrImage:
    """Parse a Radiance RGBE stream (flat or RLE scanlines)."""
    m = _RGBE_HEADER.match(data)
    if not m:
        raise ParseError("not a Radiance RGBE stream with a -Y h +X w header", offset=0)
    pos = m.start(1)
    for line in m.group(1).split(b"\n")[:-1]:
        if line.startswith(b"FORMAT=") and line != b"FORMAT=32-bit_rle_rgbe":
            raise ParseError(f"unsupported RGBE format {line!r}", offset=pos)
        pos += len(line) + 1
    height, width = int(m.group(2)), int(m.group(3))
    if not (1 <= width <= MAX_DIMENSION and 1 <= height <= MAX_DIMENSION):
        raise ParseError(f"bad RGBE dimensions {width}x{height}", offset=m.end())

    # A scanline that opens with 2, 2 and its width as u16 is RLE, when the
    # width is in the range that RLE encodes.
    rle_mark = bytes((2, 2, width >> 8, width & 0xFF)) if 8 <= width <= 0x7FFF else None
    rgbe = np.empty((height, width, 4), dtype=np.uint8)
    pos = m.end()
    for row in rgbe:
        if data[pos : pos + 4] == rle_mark:
            pos = _read_rle_scanline(data, pos + 4, row)
        else:
            pos = _read_flat_scanline(data, pos, row)

    exp = rgbe[:, :, 3].astype(np.int32)
    scale = np.where(exp > 0, np.exp2((exp - 136).astype(np.float64)), 0.0)
    linear = rgbe[:, :, :3].astype(np.float64) * scale[:, :, None]
    codes = half_encode_array(linear)
    return HdrImage(np.transpose(codes, (2, 0, 1)))


def _read_rle_scanline(data: bytes, pos: int, out: np.ndarray) -> int:
    # New-style RLE: the four components are stored as separate byte streams.
    for comp in range(4):
        filled = 0
        while filled < out.shape[0]:
            if pos >= len(data):
                raise ParseError("truncated RLE scanline", offset=pos)
            count = data[pos]
            pos += 1
            if count > 128:
                count -= 128
                if pos >= len(data):
                    raise ParseError("truncated RLE run", offset=pos)
                if filled + count > out.shape[0]:
                    raise ParseError("RLE run overflows scanline", offset=pos)
                out[filled : filled + count, comp] = data[pos]
                pos += 1
            else:
                if pos + count > len(data):
                    raise ParseError("truncated RLE literals", offset=pos)
                if filled + count > out.shape[0]:
                    raise ParseError("RLE literals overflow scanline", offset=pos)
                out[filled : filled + count, comp] = np.frombuffer(
                    data, dtype=np.uint8, count=count, offset=pos
                )
                pos += count
            filled += count
    return pos


def _read_flat_scanline(data: bytes, pos: int, out: np.ndarray) -> int:
    # Flat quads, with legacy (1,1,1,n) repeat codes.
    width = out.shape[0]
    x = 0
    shift = 0
    while x < width:
        if pos + 4 > len(data):
            raise ParseError("truncated flat scanline", offset=pos)
        r, g, b, e = data[pos], data[pos + 1], data[pos + 2], data[pos + 3]
        pos += 4
        if r == 1 and g == 1 and b == 1:
            if x == 0:
                raise ParseError("repeat code with no previous pixel", offset=pos - 4)
            count = e << shift
            if x + count > width:
                raise ParseError("repeat run overflows scanline", offset=pos - 4)
            out[x : x + count] = out[x - 1]
            x += count
            shift += 8
        else:
            out[x] = (r, g, b, e)
            x += 1
            shift = 0
    return pos


# ---------------------------------------------------------------------------
# PFM reader / writer


# "PF", width, height, scale, then one whitespace byte (see the module docstring).
_PFM_HEADER = re.compile(rb"PF\s+(\d+)\s+(\d+)\s+([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s")


def parse_pfm(data: bytes) -> HdrImage:
    """Parse a binary color PFM stream into half codes, with the ingestion rules."""
    m = _PFM_HEADER.match(data)
    if not m:
        raise ParseError("not a color PFM (PF) stream", offset=0)
    width, height, scale = int(m.group(1)), int(m.group(2)), float(m.group(3))
    if not (1 <= width <= MAX_DIMENSION and 1 <= height <= MAX_DIMENSION):
        raise ParseError(f"bad PFM dimensions {width}x{height}", offset=m.end())
    if scale == 0.0:
        raise ParseError("PFM scale must be nonzero", offset=m.end())
    count = width * height * 3
    if len(data) - m.end() < count * 4:
        raise ParseError("truncated PFM pixel data", offset=m.end())
    dtype = "<f4" if scale < 0 else ">f4"
    values = np.frombuffer(data, dtype=dtype, count=count, offset=m.end()).astype(np.float64)
    if np.isnan(values).any():
        raise ParseError("PFM: NaN sample value")
    np.clip(values, 0.0, None, out=values)
    values[np.isposinf(values)] = HALF_MAX
    codes = half_encode_array(values.reshape(height, width, 3)[::-1])  # rows are stored bottom-up
    return HdrImage(np.transpose(codes, (2, 0, 1)))


def write_pfm(image: HdrImage) -> bytes:
    """Serialize to little-endian color PFM (lossless for half-coded samples)."""
    interleaved = np.transpose(half_decode_array(image.samples), (1, 2, 0)).astype("<f4")
    header = f"PF\n{image.width} {image.height}\n-1.0\n".encode("ascii")
    return header + interleaved[::-1].tobytes()


# ---------------------------------------------------------------------------
# PPM reader


# Between the tokens of a Netpbm header: whitespace, and "#" comments that run
# to the end of a line.  One whitespace byte ends the header.
_PPM_GAP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(rb"P6%s(\d+)%s(\d+)%s255\s" % (_PPM_GAP, _PPM_GAP, _PPM_GAP))


def parse_ppm(data: bytes) -> LdrImage:
    """Parse a binary PPM (P6, maxval 255) stream."""
    m = _PPM_HEADER.match(data)
    if not m:
        raise ParseError("not an 8-bit binary PPM (P6) stream", offset=0)
    width, height = int(m.group(1)), int(m.group(2))
    if not (1 <= width <= MAX_DIMENSION and 1 <= height <= MAX_DIMENSION):
        raise ParseError(f"bad PPM dimensions {width}x{height}", offset=m.end())
    count = width * height * 3
    if len(data) - m.end() < count:
        raise ParseError("truncated PPM pixel data", offset=m.end())
    pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=m.end())
    return LdrImage(np.transpose(pixels.reshape(height, width, 3), (2, 0, 1)), bit_depth=8)
