"""Image containers, half-float sample codes, and file I/O.

HDR pixels are stored as IEEE 754 binary16 bit patterns in uint16 arrays, one
plane per channel.  Fixing the sample domain to half codes gives the codec a
finite integer alphabet, so residual arithmetic can wrap mod 2^16 and stay
exactly invertible.

File formats:

* Radiance RGBE (``.hdr``), read-only, flat and RLE scanlines.  The component
  value ``m`` with exponent byte ``e > 0`` decodes to ``m * 2**(e - 136)``;
  ``e == 0`` decodes to black.  The only accepted orientation is
  ``-Y height +X width`` with the first scanline as the top row.
* PFM (``.pfm``), read and write, color ``PF`` only.  Scanlines are stored
  bottom-to-top; the sign of the scale line selects endianness.
* PPM ``P6`` (8-bit), write-only, for tone-mapped output.

Ingestion normalizes out-of-domain samples: negatives clamp to 0, +inf clamps
to the half maximum, NaN is rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, ParseError

HALF_MAX = 65504.0
HALF_MAX_CODE = 0x7BFF
MAX_DIMENSION = 65535

# BT.709 luma weights, applied to linear-light values.
LUMA_WEIGHTS = (0.2126, 0.7152, 0.0722)


def half_encode(value: float) -> int:
    """Encode a non-negative finite real as a binary16 bit pattern.

    Rounds to nearest even; values above the half maximum clamp to it.
    """
    v = float(value)
    if math.isnan(v) or math.isinf(v) or v < 0.0:
        raise DomainError(f"half_encode requires a finite non-negative value, got {value!r}")
    if v > HALF_MAX:
        return HALF_MAX_CODE
    return int(np.float16(v).view(np.uint16))


def half_decode(code: int) -> float:
    """Exact real value of a non-negative finite binary16 bit pattern."""
    c = int(code)
    if not 0 <= c <= 0xFFFF:
        raise DomainError(f"half code out of 16-bit range: {code!r}")
    if c & 0x8000:
        raise DomainError(f"half code 0x{c:04X} has the sign bit set")
    if (c & 0x7C00) == 0x7C00:
        raise DomainError(f"half code 0x{c:04X} is NaN or infinity")
    return float(np.uint16(c).view(np.float16))


def half_encode_array(values: np.ndarray) -> np.ndarray:
    """Vectorized half_encode. Same domain rules, returns uint16."""
    a = np.asarray(values, dtype=np.float64)
    # min and max propagate NaN, so one test covers NaN, infinity and sign.
    if not (a.min(initial=0.0) >= 0.0 and a.max(initial=0.0) < math.inf):
        if np.isnan(a).any():
            raise DomainError("half_encode_array: NaN in input")
        if np.isinf(a).any():
            raise DomainError("half_encode_array: infinity in input")
        raise DomainError("half_encode_array: negative value in input")
    with np.errstate(over="ignore"):
        h = a.astype(np.float16)
    # Round-to-nearest overflows to +inf from 65520 up; those take HALF_MAX_CODE.
    return np.where(np.isinf(h), np.uint16(HALF_MAX_CODE), h.view(np.uint16))


def half_decode_array(codes: np.ndarray) -> np.ndarray:
    """Vectorized half_decode for already-validated code arrays."""
    c = np.ascontiguousarray(codes, dtype=np.uint16)
    return c.view(np.float16).astype(np.float64)


def _valid_half_codes(codes: np.ndarray) -> bool:
    """No uint16 code is negative, NaN or infinite: every code with the sign
    bit clear and an exponent below all ones is below 0x7C00."""
    return int(codes.max()) < 0x7C00


@dataclass(frozen=True, eq=False)
class HdrImage:
    """Linear-light RGB image; samples are binary16 bit codes, one uint16
    plane per channel, shape (3, height, width), row-major."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.samples, dtype=np.uint16)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ParameterError(f"HdrImage samples must have shape (3, h, w), got {arr.shape}")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ParameterError("HdrImage must have at least one pixel")
        if not _valid_half_codes(arr):
            raise DomainError("HdrImage samples contain negative, NaN, or infinite half codes")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def width(self) -> int:
        return self.samples.shape[2]

    @property
    def height(self) -> int:
        return self.samples.shape[1]

    def linear(self) -> np.ndarray:
        """Decoded linear-light values, float64, shape (3, h, w)."""
        return half_decode_array(self.samples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HdrImage):
            return NotImplemented
        return self.samples.shape == other.samples.shape and bool(
            np.array_equal(self.samples, other.samples)
        )


@dataclass(frozen=True, eq=False)
class LdrImage:
    """Tone-mapped integer RGB image with 8 to 16 bits per sample."""

    samples: np.ndarray
    bit_depth: int = 8

    def __post_init__(self):
        if not 8 <= int(self.bit_depth) <= 16:
            raise ParameterError(f"LdrImage bit depth must be in [8, 16], got {self.bit_depth}")
        arr = np.ascontiguousarray(self.samples, dtype=np.uint16)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ParameterError(f"LdrImage samples must have shape (3, h, w), got {arr.shape}")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ParameterError("LdrImage must have at least one pixel")
        if int(arr.max(initial=0)) >= (1 << int(self.bit_depth)):
            raise DomainError(f"LdrImage sample exceeds {self.bit_depth}-bit range")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "bit_depth", int(self.bit_depth))

    @property
    def width(self) -> int:
        return self.samples.shape[2]

    @property
    def height(self) -> int:
        return self.samples.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LdrImage):
            return NotImplemented
        return self.bit_depth == other.bit_depth and bool(
            np.array_equal(self.samples, other.samples)
        )


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


def _normalize_linear(values: np.ndarray, where: str) -> np.ndarray:
    """Apply the ingestion rules: clamp negatives to 0 and +inf to HALF_MAX."""
    if np.isnan(values).any():
        raise ParseError(f"{where}: NaN sample value")
    out = np.clip(values, 0.0, None)
    out[np.isposinf(out)] = HALF_MAX
    return out


# ---------------------------------------------------------------------------
# Radiance RGBE reader


_RESOLUTION_RE = re.compile(rb"^-Y (\d+) \+X (\d+)$")


def parse_rgbe(data: bytes) -> HdrImage:
    """Parse a Radiance RGBE stream (flat or RLE scanlines)."""
    if not (data.startswith(b"#?RADIANCE") or data.startswith(b"#?RGBE")):
        raise ParseError("missing #?RADIANCE / #?RGBE signature", offset=0)

    pos = data.find(b"\n") + 1
    if not pos:
        raise ParseError("unterminated RGBE signature line", offset=len(data))
    # Header: variable lines terminated by one empty line.
    while True:
        end = data.find(b"\n", pos)
        if end < 0:
            raise ParseError("unterminated RGBE header", offset=pos)
        line = data[pos:end]
        pos = end + 1
        if line == b"":
            break
        if line.startswith(b"#"):
            continue
        if line.startswith(b"FORMAT="):
            if line != b"FORMAT=32-bit_rle_rgbe":
                raise ParseError(f"unsupported RGBE format {line!r}", offset=pos - len(line) - 1)
        # Other header variables (EXPOSURE, GAMMA, ...) are ignored.

    end = data.find(b"\n", pos)
    if end < 0:
        raise ParseError("missing resolution line", offset=pos)
    m = _RESOLUTION_RE.match(data[pos:end])
    if not m:
        raise ParseError(f"unsupported orientation string {data[pos:end]!r}", offset=pos)
    pos = end + 1
    height = int(m.group(1))
    width = int(m.group(2))
    if not (1 <= width <= MAX_DIMENSION and 1 <= height <= MAX_DIMENSION):
        raise ParseError(f"bad RGBE dimensions {width}x{height}", offset=pos)

    rgbe = np.empty((height, width, 4), dtype=np.uint8)
    for row in range(height):
        pos = _read_scanline(data, pos, rgbe[row])

    exp = rgbe[:, :, 3].astype(np.int32)
    scale = np.where(exp > 0, np.exp2((exp - 136).astype(np.float64)), 0.0)
    linear = rgbe[:, :, :3].astype(np.float64) * scale[:, :, None]
    codes = half_encode_array(linear)
    return HdrImage(np.transpose(codes, (2, 0, 1)))


def _read_scanline(data: bytes, pos: int, out: np.ndarray) -> int:
    """Decode one scanline of RGBE quads into ``out`` (width, 4). Returns new pos."""
    width = out.shape[0]
    if pos + 4 > len(data):
        raise ParseError("truncated RGBE scanline", offset=pos)
    if (
        8 <= width <= 0x7FFF
        and data[pos] == 2
        and data[pos + 1] == 2
        and (data[pos + 2] << 8 | data[pos + 3]) == width
    ):
        return _read_rle_scanline(data, pos + 4, out)
    return _read_flat_scanline(data, pos, out)


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


def parse_pfm(data: bytes) -> HdrImage:
    """Parse a binary color PFM stream into half codes."""
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("truncated PFM header", offset=start)
        return data[start:pos]

    magic = token()
    if magic != b"PF":
        raise ParseError(f"unsupported PFM type {magic!r} (only color 'PF')", offset=0)
    try:
        width = int(token())
        height = int(token())
        scale = float(token())
    except ValueError as exc:
        raise ParseError(f"malformed PFM header: {exc}", offset=pos) from None
    if not (1 <= width <= MAX_DIMENSION and 1 <= height <= MAX_DIMENSION):
        raise ParseError(f"bad PFM dimensions {width}x{height}", offset=pos)
    if scale == 0.0:
        raise ParseError("PFM scale must be nonzero", offset=pos)
    pos += 1  # single whitespace byte after the scale token
    count = width * height * 3
    if len(data) - pos < count * 4:
        raise ParseError("truncated PFM pixel data", offset=pos)
    dtype = "<f4" if scale < 0 else ">f4"
    values = np.frombuffer(data, dtype=dtype, count=count, offset=pos).astype(np.float64)
    values = values.reshape(height, width, 3)[::-1]  # rows are stored bottom-up
    values = _normalize_linear(np.array(values), "PFM")
    codes = half_encode_array(values)
    return HdrImage(np.transpose(codes, (2, 0, 1)))


def write_pfm(image: HdrImage) -> bytes:
    """Serialize to little-endian color PFM (lossless for half-coded samples)."""
    rgb = image.linear()  # (3, h, w)
    interleaved = np.transpose(rgb, (1, 2, 0)).astype("<f4")
    header = f"PF\n{image.width} {image.height}\n-1.0\n".encode("ascii")
    return header + interleaved[::-1].tobytes()


# ---------------------------------------------------------------------------
# PPM writer


def write_ppm(image: LdrImage) -> bytes:
    """Serialize an 8-bit image as binary PPM (P6, maxval 255)."""
    if image.bit_depth != 8:
        raise ParameterError(f"PPM writer requires 8-bit samples, got {image.bit_depth}-bit")
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    interleaved = np.transpose(image.samples, (1, 2, 0)).astype(np.uint8)
    return header + interleaved.tobytes()


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
