"""Residual layer: modular residual arithmetic, reversible color transform,
and the lossless predictive plane coder.

All arithmetic is on 16-bit sample codes mod 2^16, which makes every step
exactly invertible no matter how poor the prediction is.  The plane coder is
a raster-order MED predictor followed by a partitioned Golomb-Rice code (one
Rice parameter per block of symbols, as in FLAC); it is the in-repo stand-in
for an arbitrary lossless image encoder.

The coder works on a (p, h, w) stack of planes that share their size: the
three planes of a residual, or the three refinement planes of the XT arm.
:func:`code_planes` takes each plane's MED errors and gives them to
:func:`code_plane`, the Rice layer, one payload per plane; :func:`decode_planes`
reads every payload back with :func:`decode_plane`, then inverts MED once
for the whole stack.  That inversion runs one anti-diagonal of all p planes
at a time in uint16, using MED(a, b, c) = a + b - clip(c, min(a, b),
max(a, b)): the true MED lies in [min(a, b), max(a, b)], a subset of
[0, 65535], so the sum taken mod 2^16 is exactly the prediction.

Residual block, format version 3: three planes, each written as

====================  ==================================================
field                 bytes
====================  ==================================================
K                     u32 little-endian: the pack table's symbol count,
                      0 for a plane that is not histogram-packed
payload length        u32 little-endian
pack table            K varints of :func:`hpack.serialize_table`
plane payload         the payload length, laid out as below
====================  ==================================================

K = 0 is legal on any plane: which planes are packed is the encoder's choice,
and the stream records it in K alone.

Plane payload, unchanged since format version 2.  The symbols u are the MED
prediction errors mod 2^16 in raster order, folded to 0..65535 (e < 32768
gives 2e, else 2(65536 - e) - 1), and cut into blocks of B = 48 (the last may
be shorter).

====================  ==================================================
field                 bits
====================  ==================================================
U                     u32 little-endian: byte length of the unary stream
k table               a 4-bit field per block: 15 marks a block of
                      zeros, 0..14 is the block's Rice parameter k
unary stream          U bytes: per symbol of a coded block, with
                      q = u >> k, min(q, E) zeros then a one (E = 6)
remainder stream      the rest: per symbol of a coded block, the low k bits
                      of u, or all 16 bits of u when q >= E
====================  ==================================================

The k table, unary stream and remainder stream are each MSB-first fields
zero-padded to a byte, written by :func:`_pack_fields` (so an odd count of
blocks ends in one zero pad nibble); a block of zeros puts no bits in either
of the last two.  The encoder gives each block the k of fewest bits (the
least on a tie), and searches k only in blocks that hold a nonzero symbol.
A decoder rejects any other length, nonzero pad bits, a run of more than E
zeros, an escaped u with u >> k < E, and u > 65535.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptStreamError, ParameterError
from .hpack import PackTable, build_table, pack, read_table, serialize_table, unpack
from .imagio import HdrImage

MASK = 0xFFFF
RICE_BLOCK = 48  # symbols per Rice parameter (B)
RICE_ESCAPE_QUOTIENT = 6  # unary zeros before a symbol is sent whole (E)
RICE_MAX_K = 14
ZERO_BLOCK = 15  # k-table nibble of a block whose symbols are all 0
_UNARY_LENGTH = struct.Struct("<I")
PLANE_HEADER = struct.Struct("<II")  # pack-table K (0 = not packed), payload length


def compute_residual(hdr: HdrImage, prediction: HdrImage) -> np.ndarray:
    """Per-sample (hdr - prediction) mod 2^16 on the half codes, (3, h, w) uint16."""
    if hdr.samples.shape != prediction.samples.shape:
        raise ParameterError(
            f"dimension mismatch: {hdr.samples.shape} vs {prediction.samples.shape}"
        )
    return hdr.samples - prediction.samples  # uint16 arithmetic wraps mod 2^16


def apply_residual(prediction: HdrImage, residual: np.ndarray) -> HdrImage:
    """Exact inverse of :func:`compute_residual`."""
    res = np.asarray(residual, dtype=np.uint16)
    if res.shape != prediction.samples.shape:
        raise ParameterError(
            f"dimension mismatch: {res.shape} vs {prediction.samples.shape}"
        )
    return HdrImage(prediction.samples + res)


def color_transform_fwd(planes: np.ndarray) -> np.ndarray:
    """Reversible integer transform mod 2^16 (lifting form).

    Cr = (R - G) mod 2^16, Cb = (B - G) mod 2^16,
    Y = (G + floor(((Cb + Cr) mod 2^16) / 4)) mod 2^16.

    On wrap-free inputs Y equals floor((R + 2G + B) / 4); computing the floor
    term from the stored chroma values is what makes the inverse exact for
    wrap-heavy inputs as well.  Every step is uint16 arithmetic, which wraps
    mod 2^16 by itself.
    """
    r, g, b = np.asarray(planes, dtype=np.uint16)
    cr = r - g
    cb = b - g
    return np.stack([g + ((cb + cr) >> 2), cb, cr])


def color_transform_inv(planes: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`color_transform_fwd`."""
    y, cb, cr = np.asarray(planes, dtype=np.uint16)
    g = y - ((cb + cr) >> 2)
    return np.stack([cr + g, g, cb + g])


# ---------------------------------------------------------------------------
# MED + partitioned Golomb-Rice plane coder


def med_predict(plane: np.ndarray) -> np.ndarray:
    """Vectorized MED prediction of a 16-bit plane, uint16; out-of-image
    neighbors read 0.  Computed as a + b - clip(c, min(a, b), max(a, b)) in
    uint16, which wraps to the true MED (see the module docstring)."""
    x = np.asarray(plane, dtype=np.uint16)
    padded = np.zeros((x.shape[0] + 1, x.shape[1] + 1), dtype=np.uint16)
    padded[1:, 1:] = x
    left = padded[1:, :-1]
    above = padded[:-1, 1:]
    clipped = np.minimum(left, above)
    np.maximum(clipped, padded[:-1, :-1], out=clipped)
    np.minimum(clipped, np.maximum(left, above), out=clipped)
    guess = left + above
    guess -= clipped
    return guess


def _threshold_columns() -> tuple[np.ndarray, np.ndarray]:
    """Bins of u for counting, per block, the symbols at or above each
    threshold j << k (1 <= j <= E, 0 <= k <= RICE_MAX_K) at once.

    Returns the bin of every u, and the column of the reverse-cumulated bin
    counts that holds #{u >= j << k}, indexed [k, j - 1]; a threshold above
    MASK maps to the extra column of zeros.
    """
    thresholds = np.arange(1, RICE_ESCAPE_QUOTIENT + 1) << np.arange(RICE_MAX_K + 1)[:, None]
    fits = thresholds <= MASK
    is_edge = np.zeros(MASK + 1, dtype=bool)
    is_edge[thresholds[fits]] = True
    bin_of = np.cumsum(is_edge).astype(np.uint8)  # the count of edges at or below u
    columns = np.where(fits, bin_of[np.minimum(thresholds, MASK)], int(bin_of[-1]) + 1)
    return bin_of, columns


_BIN_OF, _THRESHOLD_COLUMNS = _threshold_columns()
_LOW_BITS = ((1 << np.arange(17)) - 1).astype(np.uint16)  # indexed by a width of 0..16 bits


def _block_parameters(u: np.ndarray) -> np.ndarray:
    """The Rice parameter of every block of ``u``: the k in 0..14 that codes
    it in the fewest bits (the least such k on a tie).  :func:`code_plane`
    passes only the blocks that hold a nonzero symbol.

    Under k, a block of m symbols takes m (1 + k) bits of stop bits and
    remainders, sum_j #{u >= j << k} unary zeros (j = 1..E), and 16 - k more
    bits for each of the #{u >= E << k} escapes.
    """
    blocks = -(-u.size // RICE_BLOCK)
    nbins = int(_BIN_OF[-1]) + 1
    keys = np.repeat(np.arange(0, blocks * nbins, nbins), RICE_BLOCK)[: u.size]
    keys += _BIN_OF[u]
    counts = np.bincount(keys, minlength=blocks * nbins).reshape(blocks, nbins)
    del keys
    # A count is at most RICE_BLOCK, and so is a sum of counts of one block.
    at_least = np.zeros((blocks, nbins + 1), dtype=np.int16)  # [:, i]: symbols in bin i or above
    np.cumsum(counts[:, ::-1], axis=1, out=at_least[:, -2::-1])
    del counts
    k = np.arange(RICE_MAX_K + 1)
    lengths = at_least[:, _THRESHOLD_COLUMNS].sum(axis=2, dtype=np.int32)
    lengths += at_least[:, :1] * (1 + k)
    lengths += at_least[:, _THRESHOLD_COLUMNS[:, -1]] * (16 - k)
    return lengths.argmin(axis=1).astype(np.uint8)


def _pack_fields(values: np.ndarray, widths: np.ndarray | int) -> bytes:
    """The codec's only bit writer: fields of 0 to 16 bits (``widths`` per
    field, or one int for all) concatenated MSB-first, zero-padded to a byte."""
    # Join fields two at a time into items of at most 32 bits, then those two
    # at a time into items of at most 64 bits.
    size = -(-values.size // 4) * 4
    fields = np.zeros(size, dtype=np.uint32)
    fields[: values.size] = values
    lengths = np.zeros(size, dtype=np.uint8)
    lengths[: values.size] = widths
    pairs = fields[0::2] << lengths[1::2]
    pairs |= fields[1::2]
    del fields
    lengths = lengths[0::2] + lengths[1::2]
    items = pairs[0::2].astype(np.uint64)
    items <<= lengths[1::2]
    items |= pairs[1::2]
    del pairs
    lengths = lengths[0::2].astype(np.int64) + lengths[1::2]
    starts = np.cumsum(lengths)
    nbits = int(starts[-1]) if starts.size else 0
    starts -= lengths
    # Items are or-ed into 64-bit words, and an item that ends past its word
    # spills its low bits into the next.  An item is at most 64 bits, so each
    # word but perhaps the last holds an item start: the n-th word that holds
    # one is word n.
    spill = lengths  # becomes the bits past the end of the item's word
    spill += starts & 63
    spill -= 64
    word = starts  # becomes the word of the item's start
    word >>= 6
    over = np.flatnonzero(spill > 0)
    tails = items[over] << (64 - spill[over]).view(np.uint64)
    items >>= np.maximum(spill, 0).view(np.uint64)
    items <<= np.clip(-spill, 0, 63).view(np.uint64)
    new_word = np.ones(word.size, dtype=bool)
    np.not_equal(word[1:], word[:-1], out=new_word[1:])
    first = np.flatnonzero(new_word)
    words = np.zeros(((nbits + 63) >> 6) + 1, dtype=np.uint64)
    words[: first.size] = np.bitwise_or.reduceat(items, first)
    words[word[over] + 1] |= tails
    return words.astype(">u8").view(np.uint8)[: (nbits + 7) >> 3].tobytes()


def _byte_windows(data) -> np.ndarray:
    """The codec's only window builder: a zero-copy big-endian uint32 view of
    the 32 bits from each byte of ``data`` and from its end, zero-filled past
    it, so a field of up to 16 bits at bit b is in ``windows[b >> 3]``."""
    padded = np.zeros(len(data) + 4, dtype=np.uint8)
    padded[:-4] = np.frombuffer(data, np.uint8)
    return np.ndarray((len(data) + 1,), dtype=">u4", buffer=padded, strides=(1,))


def code_plane(errors: np.ndarray) -> bytes:
    """Rice-code one 2D plane of MED prediction errors mod 2^16 into the
    plane payload laid out in this module's docstring.  :func:`code_planes`
    computes the errors; :func:`decode_plane` accepts only this payload.

    A block of zeros is ZERO_BLOCK, so the k search and both streams are
    built from the live blocks alone, the ones with a nonzero symbol.  When
    every block is live the symbols are used as they are, without a copy.
    The k table, unary stream and remainder stream are each one field stream
    of :func:`_pack_fields`; a unary field is min(q, E) + 1 bits holding 1.
    """
    x = np.asarray(errors, dtype=np.uint16)
    if x.ndim != 2 or x.size == 0:
        raise ParameterError(f"plane must be a non-empty 2D array, got shape {x.shape}")
    error = x.ravel()
    u = error << 1  # uint16 arithmetic folds: 2e, or 2(65536 - e) - 1 from e = 32768 up
    u ^= -(error >> 15)
    live = np.logical_or.reduceat(u, np.arange(0, u.size, RICE_BLOCK))  # the short last block too
    if not live.all():
        u = u[np.repeat(live, RICE_BLOCK)[: u.size]]  # a live short last block stays short
    live_ks = _block_parameters(u)
    ks = np.full(live.size, ZERO_BLOCK, dtype=np.uint8)
    ks[live] = live_ks
    k = np.repeat(live_ks, RICE_BLOCK)[: u.size]
    q = u >> k
    escape = q >= RICE_ESCAPE_QUOTIENT
    np.minimum(q, RICE_ESCAPE_QUOTIENT, out=q)
    q += 1  # now the width of each unary field, whose value is its stop bit
    unary = _pack_fields(np.ones_like(q), q)
    del q
    k[escape] = 16  # now the width of each remainder field
    u &= _LOW_BITS[k]
    remainder = _pack_fields(u, k)
    return _UNARY_LENGTH.pack(len(unary)) + _pack_fields(ks, 4) + unary + remainder


def _decode_symbols(data: bytes, count: int) -> np.ndarray:
    """The ``count`` folded symbols of a plane payload; every rule of the
    format (see :func:`code_plane`) is checked."""
    blocks = -(-count // RICE_BLOCK)
    unary_start = _UNARY_LENGTH.size + (blocks + 1) // 2
    # The first two checks come before anything of the plane's size exists:
    # a complete k table bounds the plane to 2 * RICE_BLOCK symbols a byte.
    if len(data) < unary_start:
        raise CorruptStreamError(f"{len(data)}-byte payload cannot hold the k table of {count} symbols")
    (unary_len,) = _UNARY_LENGTH.unpack_from(data)
    table = np.frombuffer(data, np.uint8, unary_start - _UNARY_LENGTH.size, _UNARY_LENGTH.size)
    ks = np.stack([table >> 4, table & 0xF], axis=1).ravel()
    if ks[blocks:].any():
        raise CorruptStreamError("nonzero pad nibble after the k table")
    ks = ks[:blocks]
    coded_count = int(np.count_nonzero(ks != ZERO_BLOCK)) * RICE_BLOCK
    if ks[-1] != ZERO_BLOCK:
        coded_count -= blocks * RICE_BLOCK - count  # the last block is short
    if coded_count > 8 * unary_len:
        raise CorruptStreamError(f"{unary_len}-byte unary stream cannot hold {coded_count} symbols")
    if len(data) - unary_start < unary_len:
        raise CorruptStreamError("truncated unary stream")

    stops = np.flatnonzero(np.unpackbits(np.frombuffer(data, np.uint8, unary_len, unary_start)))
    if stops.size < coded_count:
        raise CorruptStreamError(f"unary stream has {stops.size} stop bits for {coded_count} symbols")
    if stops.size > coded_count:
        raise CorruptStreamError("nonzero pad bits after the unary stream")
    if unary_len != (int(stops[-1]) // 8 + 1 if coded_count else 0):
        raise CorruptStreamError(f"unary stream is {unary_len} bytes, its last stop bit is sooner")
    # The zeros before each stop bit, checked at full width, then kept in uint8.
    stops[1:] -= stops[:-1] + 1
    if coded_count and stops.max() > RICE_ESCAPE_QUOTIENT:
        raise CorruptStreamError(f"run of more than {RICE_ESCAPE_QUOTIENT} zeros in the unary stream")
    q = stops.astype(np.uint8)
    del stops

    k = np.repeat(ks, RICE_BLOCK)[:count]
    coded = k != ZERO_BLOCK
    k = k[coded]
    escape = np.flatnonzero(q == RICE_ESCAPE_QUOTIENT)
    width = k.copy()
    width[escape] = 16
    starts = np.cumsum(width, dtype=np.int64)
    remainder_bits = int(starts[-1]) if coded_count else 0
    starts -= width
    remainder_start = unary_start + unary_len
    expected = remainder_start + (remainder_bits + 7) // 8
    if len(data) != expected:
        raise CorruptStreamError(f"payload is {len(data)} bytes, its fields imply {expected}")
    if remainder_bits % 8 and data[-1] & (0xFF >> remainder_bits % 8):
        raise CorruptStreamError("nonzero pad bits after the remainder stream")
    windows = _byte_windows(memoryview(data)[remainder_start:])
    shift = (starts & 7).astype(np.uint8)
    np.subtract(32 - width, shift, out=shift)
    starts >>= 3
    fields = windows[starts].astype(np.uint32)
    del starts
    fields >>= shift
    del shift
    fields &= _LOW_BITS[width]
    if ((fields[escape] >> k[escape]) < RICE_ESCAPE_QUOTIENT).any():
        raise CorruptStreamError("escaped symbol whose quotient is below the escape")
    q[escape] = 0
    value = q.astype(np.uint32)
    value <<= k
    value |= fields
    if coded_count and value.max() > MASK:
        raise CorruptStreamError(f"decoded symbol {int(value.max())} exceeds 16-bit range")
    symbols = np.zeros(count, dtype=np.uint16)
    symbols[coded] = value
    return symbols


def decode_plane(data: bytes, width: int, height: int) -> np.ndarray:
    """Exact inverse of :func:`code_plane`: the (h, w) uint16 MED errors mod
    2^16.  :func:`decode_planes` turns the errors of a whole stack back into
    samples in one uint16 wavefront (see :func:`_med_reconstruct_stack`)."""
    if width < 1 or height < 1:
        raise ParameterError(f"bad plane dimensions {width}x{height}")
    u = _decode_symbols(data, width * height)
    errors = u >> 1
    errors ^= -(u & 1)  # uint16 arithmetic unfolds u to the error mod 2^16
    return errors.reshape(height, width)


def code_planes(planes: np.ndarray) -> tuple[bytes, ...]:
    """Losslessly encode a (p, h, w) stack of 16-bit planes: one
    :func:`code_plane` payload of each plane's MED errors mod 2^16."""
    stack = np.asarray(planes, dtype=np.uint16)
    return tuple(code_plane(plane - med_predict(plane)) for plane in stack)  # uint16, wraps mod 2^16


def _med_reconstruct_stack(errors: np.ndarray) -> np.ndarray:
    """Invert MED prediction on a (p, h, w) uint16 stack of errors:
    x = (MED(left, above, above-left) + e) mod 2^16 in every plane.

    A pixel depends on the previous anti-diagonal (left, above) and the one
    before (above-left), so each anti-diagonal is reconstructed at once, for
    all p planes together.  The stack is stored skewed with the plane index
    innermost, ``skew[d + 2, i + 1, k] = x[k, i, d - i]``, which makes every
    anti-diagonal of the stack a contiguous slice and leaves the
    out-of-image neighbours at 0.  MED is computed as a + b - clip(c,
    min(a, b), max(a, b)); its true value lies in [min(a, b), max(a, b)],
    so uint16 arithmetic, which wraps mod 2^16, gives it exactly.  MED is
    symmetric in left and above, so a tall stack is reconstructed
    transposed, which keeps the skewed array near 2x the stack.  On row 0
    MED predicts the left neighbour, so a stack one row high is the running
    sum of its errors, taken in uint16.
    """
    planes, height, width = errors.shape
    if height > width:
        flipped = _med_reconstruct_stack(errors.transpose(0, 2, 1))
        return np.ascontiguousarray(flipped.transpose(0, 2, 1))
    if height == 1:
        return np.cumsum(errors, axis=2, dtype=np.uint16)
    stride = height + 1
    skew = np.zeros((height + width + 1, stride, planes), dtype=np.uint16)
    item = skew.itemsize
    stack = np.lib.stride_tricks.as_strided(
        skew.reshape(-1)[(2 * stride + 1) * planes :],
        shape=(planes, height, width),
        strides=(item, (stride + 1) * planes * item, stride * planes * item),
    )
    stack[...] = errors  # each pixel holds its error until it is reconstructed
    for d in range(height + width - 1):
        lo = max(0, d - width + 1)
        hi = min(d, height - 1) + 1
        left = skew[d + 1, lo + 1 : hi + 1]
        above = skew[d + 1, lo:hi]
        clipped = np.minimum(left, above)
        np.maximum(clipped, skew[d, lo:hi], out=clipped)
        np.minimum(clipped, np.maximum(left, above), out=clipped)
        current = skew[d + 2, lo + 1 : hi + 1]
        current += left
        current += above
        current -= clipped
    return stack.copy()


def decode_planes(payloads: list[bytes] | tuple[bytes, ...], width: int, height: int) -> np.ndarray:
    """Exact inverse of :func:`code_planes`: the (p, h, w) uint16 stack.

    The first payload is decoded, and so checked to hold a plane of this
    size, before the stack of errors is allocated, and every payload before
    the skewed stack is: allocation stays bounded by the payloads.
    """
    first = decode_plane(payloads[0], width, height)
    errors = np.empty((len(payloads),) + first.shape, dtype=np.uint16)
    errors[0] = first
    del first
    for index in range(1, len(payloads)):
        errors[index] = decode_plane(payloads[index], width, height)
    return _med_reconstruct_stack(errors)


# ---------------------------------------------------------------------------
# Residual bitstream (three planes, each packed or not)


@dataclass(frozen=True)
class PlaneSection:
    """One coded plane of a residual block."""

    table: PackTable | None  # None when the plane is not histogram-packed
    table_bytes: int  # serialized size of the pack table
    payload: bytes


def encode_residual(raw_planes: np.ndarray, use_packing: bool) -> bytes:
    """Color transform, optional packing, and plane coding of a raw residual
    into the block laid out in this module's docstring."""
    raw = np.asarray(raw_planes, dtype=np.uint16)
    if raw.ndim != 3 or raw.shape[0] != 3:
        raise ParameterError(f"residual must have shape (3, h, w), got {raw.shape}")
    planes = color_transform_fwd(raw)
    tables = [build_table(plane) if use_packing else None for plane in planes]
    for plane, table in zip(planes, tables):
        if table is not None:
            plane[...] = pack(plane, table)
    out = bytearray()
    for table, payload in zip(tables, code_planes(planes)):
        out += PLANE_HEADER.pack(table.count if table else 0, len(payload))
        out += serialize_table(table) if table else b""
        out += payload
    return bytes(out)


def split_residual_sections(data: bytes) -> tuple[PlaneSection, ...]:
    """Walk a residual block: each plane's header, pack table and payload.

    This is the only reader of the block layout, so every bounds check on it
    lives here.  A plane whose K is 0 has no table.
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
            table, pos = read_table(data, pos, count)
        if len(data) - pos < payload_len:
            raise CorruptStreamError("truncated residual plane payload")
        sections.append(PlaneSection(table, pos - table_start, data[pos : pos + payload_len]))
        pos += payload_len
    if pos != len(data):
        raise CorruptStreamError(f"{len(data) - pos} trailing bytes in residual block")
    return tuple(sections)


def decode_residual(data: bytes, width: int, height: int) -> np.ndarray:
    """Exact inverse of :func:`encode_residual`; returns (3, h, w) uint16."""
    sections = split_residual_sections(data)
    planes = decode_planes([section.payload for section in sections], width, height)
    for plane, section in zip(planes, sections):
        if section.table is not None:
            plane[...] = unpack(plane, section.table)
    return color_transform_inv(planes)
