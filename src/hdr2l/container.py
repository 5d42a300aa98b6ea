"""Two-layer container: base JPEG + refinement + residual, with CRC framing.

Stream layout, format version 3 (little-endian):

========  =====================================================
bytes     field
========  =====================================================
4         magic ``H2L1``
1         format version (3)
1         refinement bits R (a depth of ``ARMS``)
4 + 4     width, height (u32 each)
4         CRC-32 of the source half codes (pixel CRC)
17        tone-mapping parameter block (below)
4 + n     base JPEG length + bytes
3*(4+n)   refinement payloads (only when R > 0)
4 + n     residual block length + bytes
4         CRC-32 of all preceding bytes
========  =====================================================

Each setting is stored once.  The coder mode is not a header field: each
residual plane's pack-table count K says whether that plane is packed (see
:mod:`rescodec`).  Nor is the base quality: the JPEG's quantization tables
are what the decoder uses.  The TMO block is the kind byte and the image's
log-average and peak luminance as float64; the operator constants
(``tmo.KEY``, ``GAMMA`` and the rest) are not stored, so changing one means a
new ``VERSION``.  Every reader raises :class:`ParseError` on a log-average of
0 or a peak below ``tmo.LOG_AVERAGE_DELTA`` before it reads the base layer.

The embedded JPEG is byte-identical to a standalone base-layer encode of the
same tone-mapped image, so extracting it yields an ordinary JPEG file.  Every
reader (:func:`decode`, :func:`measure`, :func:`extract_ldr`) requires the JPEG's
header to be the one :func:`basejpeg.encode_base` writes for the tables it holds
and the container's width and height, with no table entry of 0, its scan to
stuff every 0xFF, and one EOI marker to end it; a width or height above 65535
is rejected before that.  The trailing CRC covers the bytes; the pixel CRC,
taken over the samples as (3, h, w) little-endian u16 in C order, covers the
reconstruction, which rests on floating-point tone-map inversion that another
machine may compute differently.

Working set: every per-pixel stage holds at most one float64 plane per
channel at a time.  It maps, converts or predicts one channel, or one YCbCr
component, into its output before it reads the next, and :func:`encode` and
:func:`decode` release each intermediate image once the next stage has run.
At full size on the first image of each benchmark workload, the traced peak
of :func:`encode` is 45-48 B/px under the workload's own operator, set by the
base-layer JPEG encode (46.4-46.5 B/px under the local operator on the photo
and ladder images, set by the upsampling of its pyramid surrounds in the tone
map).  The JPEG encode's peak grows with its scan: on the XT R = 4 texture
image it is 51.6 B/px under the local operator and 54.0 under drago.  That of
:func:`decode` is 32.1-40.0 B/px on an 8-bit base, set by the base-layer
decode (32.0 B/px) and the residual decode, and 50.7 B/px on the 12-bit base
of R = 4, set by the per-pixel prediction; the half-float input itself is 6
B/px.

Cost per input byte: :func:`decode` peaks at most C0 + C1 * len(stream).
C0, 0.94 MB, is the 8-bit pair table of :func:`tmo.predict_hdr`.  The base
is decoded before the residual is read, and a base that decodes spends at
least 14 bits per 8 x 8 block (36.6 px/B), so at 32 B/px C1 is 1,170 B.  A
frame larger than its scan is refused at 85 px/B, before its 6 B/px level
array exists.  A stream that decodes also holds k tables of 1 byte per 32 px,
17.1 px/B at most in all, so its C1 is 550 B (a flat 1024 x 1024 stream: 541
B per input byte on HP, 455 on XT with R = 4).  Time per base byte:
:func:`basejpeg.decode_base` took 2.0 us on a 1.08 MB q100 base of uniform
noise (512 x 512, 2.19 s) and 0.75 us on the 29,283 B base of a flat 1024 x
1024 image (21.9 ms), whose MCUs after the first are one run of flat MCUs;
minimum of 15 runs, 2-vCPU Intel Xeon, NumPy 2.4.6.
"""

from __future__ import annotations

import operator
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import basejpeg, rescodec, tmo
from .errors import FormatError, Hdr2lError, IntegrityError, ParameterError
from .imagio import MAX_DIMENSION, HdrImage, luminance

MAGIC = b"H2L1"
VERSION = 3
_HEADER = struct.Struct("<4sBBIII")  # magic, version, R, width, height, pixel CRC


class CoderMode(IntEnum):
    HP = 0  # histogram-packed residual, no refinement scan
    XT = 1  # plain residual, optional refinement scan


# The paper's coder arms by name: (coder mode, refinement bits R).
ARMS = {"hp": (CoderMode.HP, 0), "xt-r0": (CoderMode.XT, 0), "xt-r4": (CoderMode.XT, 4)}
_DEPTHS = tuple(sorted({r for _, r in ARMS.values()}))


@dataclass(frozen=True)
class CodecParams:
    """Everything the encoder needs besides the image itself.  ``tmo`` names
    the operator only: :func:`encode` binds the image's statistics."""

    mode: CoderMode
    tmo: tmo.TmoParams
    q: int = 80
    refine_bits: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "mode", CoderMode(self.mode))
            # operator.index takes ints and NumPy integers, and refuses 80.7 and 4.0.
            object.__setattr__(self, "q", operator.index(self.q))
            object.__setattr__(self, "refine_bits", operator.index(self.refine_bits))
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"invalid codec parameter: {exc}") from None
        if not 1 <= self.q <= 100:
            raise ParameterError(f"quality must lie in [1, 100], got {self.q}")
        if (self.mode, self.refine_bits) not in ARMS.values():
            arms = ", ".join(f"{name} ({mode.name}, R = {r})" for name, (mode, r) in ARMS.items())
            raise ParameterError(f"{self.mode.name} with R = {self.refine_bits} is no coder arm: {arms}")
        if not isinstance(self.tmo, tmo.TmoParams):
            raise ParameterError(f"tmo must be a TmoParams, got {self.tmo!r}")
        if self.tmo.log_avg or self.tmo.l_max:
            raise ParameterError("tmo statistics are bound from the image by encode; pass TmoParams(kind)")


@dataclass(frozen=True)
class SizeReport:
    """Byte accounting of one stream; section sizes sum to the total."""

    total_bytes: int
    pixels: int
    base: int
    refinement: int
    tables: int
    residual_payload: int
    overhead: int

    @property
    def bits_per_pixel(self) -> float:
        return 8.0 * self.total_bytes / self.pixels

    def sections(self) -> dict[str, int]:
        return {
            "base": self.base,
            "refinement": self.refinement,
            "tables": self.tables,
            "residual_payload": self.residual_payload,
            "overhead": self.overhead,
        }


@dataclass(frozen=True)
class _Parsed:
    tmo: tmo.TmoParams
    width: int
    height: int
    pixel_crc: int
    base: bytes
    refinement: basejpeg.RefinementPlane
    residual: bytes


def _stage(name: str, fn, *args):
    """Run one pipeline stage, tagging any codec error with the stage name."""
    try:
        return fn(*args)
    except Hdr2lError as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"[{name}] {exc.args[0]}",) + exc.args[1:]
        raise


def _predict(base: bytes, refinement: basejpeg.RefinementPlane, params: tmo.TmoParams) -> HdrImage:
    """The inverse-tone-map prediction from the stream's base layer and
    refinement plane: the one path :func:`encode` and :func:`decode` share,
    so the encoder's prediction is the decoder's by construction."""
    base_dec = _stage("decode-base", basejpeg.decode_base, base)
    merged = _stage("merge-refinement", basejpeg.merge_refinement, base_dec, refinement)
    del base_dec
    return _stage("predict", tmo.predict_hdr, merged, params)


def _pixel_crc(image: HdrImage) -> int:
    return zlib.crc32(np.ascontiguousarray(image.samples, dtype="<u2"))


def encode(hdr: HdrImage, params: CodecParams) -> bytes:
    """Losslessly encode an HDR image; identical inputs give identical bytes."""
    lum = _stage("luminance", luminance, hdr)
    bound = _stage("bind-stats", tmo.bind_image_stats, params.tmo, lum)
    ldr_hr = _stage("tonemap", tmo.tonemap, hdr, lum, bound, params.refine_bits)
    del lum
    ldr8, refinement = _stage("split-refinement", basejpeg.split_refinement, ldr_hr)
    del ldr_hr
    base = _stage("encode-base", basejpeg.encode_base, ldr8, params.q)
    del ldr8
    prediction = _predict(base, refinement, bound)
    residual = _stage("residual", rescodec.compute_residual, hdr, prediction)
    del prediction
    res_bytes = _stage(
        "encode-residual", rescodec.encode_residual, residual, params.mode == CoderMode.HP
    )
    del residual

    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION, params.refine_bits, hdr.width, hdr.height, _pixel_crc(hdr))
    out += tmo.serialize_tmo_params(bound)
    out += struct.pack("<I", len(base)) + base
    for payload in refinement.payloads:
        out += struct.pack("<I", len(payload)) + payload
    out += struct.pack("<I", len(res_bytes)) + res_bytes
    out += struct.pack("<I", zlib.crc32(out))
    return bytes(out)


def _parse(data: bytes) -> _Parsed:
    if len(data) < _HEADER.size + tmo.TMO_PARAMS_SIZE + 12:
        raise FormatError(f"stream too short ({len(data)} bytes)")
    magic, version, refine_bits, width, height, pixel_crc = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != crc_stored:
        raise FormatError("CRC-32 mismatch")
    if refine_bits not in _DEPTHS:
        raise FormatError(f"refinement bits {refine_bits} not in {_DEPTHS}")
    if not width or not height:
        raise FormatError(f"empty image {width}x{height}")
    if max(width, height) > MAX_DIMENSION:
        raise FormatError(f"image {width}x{height} is larger than a JPEG frame ({MAX_DIMENSION} x {MAX_DIMENSION})")

    pos = _HEADER.size
    tmo_params = _stage("tmo-params", tmo.parse_tmo_params, data[pos : pos + tmo.TMO_PARAMS_SIZE])
    pos += tmo.TMO_PARAMS_SIZE

    def take_block(name: str) -> bytes:
        nonlocal pos
        if len(data) - 4 - pos < 4:
            raise FormatError(f"truncated {name} length")
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if len(data) - 4 - pos < n:
            raise FormatError(f"truncated {name} block")
        block = data[pos : pos + n]
        pos += n
        return block

    base = take_block("base layer")
    _stage("base-header", basejpeg.check_base, base, width, height)
    payloads = tuple(take_block("refinement") for _ in range(3)) if refine_bits else ()
    residual = take_block("residual")
    if pos != len(data) - 4:
        raise FormatError(f"{len(data) - 4 - pos} unaccounted bytes in stream")
    return _Parsed(
        tmo=tmo_params, width=width, height=height, pixel_crc=pixel_crc, base=base,
        refinement=basejpeg.RefinementPlane(refine_bits, payloads), residual=residual,
    )


def decode(data: bytes) -> HdrImage:
    """Bit-exact inverse of :func:`encode`."""
    parsed = _parse(data)
    prediction = _predict(parsed.base, parsed.refinement, parsed.tmo)
    residual = _stage(
        "decode-residual", rescodec.decode_residual, parsed.residual, parsed.width, parsed.height
    )
    image = _stage("reconstruct", rescodec.apply_residual, prediction, residual)
    del prediction, residual
    if _pixel_crc(image) != parsed.pixel_crc:
        raise IntegrityError("[reconstruct] decoded pixels fail the pixel CRC-32")
    return image


def extract_ldr(data: bytes) -> bytes:
    """Return the embedded backward-compatible JPEG bytes unmodified."""
    return _parse(data).base


def measure(data: bytes) -> SizeReport:
    """Per-section byte breakdown and total bits per pixel of a valid stream."""
    parsed = _parse(data)
    sections = rescodec.split_residual_sections(parsed.residual)
    refinement = sum(len(p) for p in parsed.refinement.payloads)
    tables = sum(s.table_bytes for s in sections)
    payload = sum(len(s.payload) for s in sections)
    return SizeReport(
        total_bytes=len(data),
        pixels=parsed.width * parsed.height,
        base=len(parsed.base),
        refinement=refinement,
        tables=tables,
        residual_payload=payload,
        overhead=len(data) - len(parsed.base) - refinement - tables - payload,
    )
