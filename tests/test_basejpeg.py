from __future__ import annotations

import zlib

import numpy as np
import pytest

from conftest import sparse_hdr_image
from hdr2l import basejpeg, container, tmo
from hdr2l.basejpeg import (
    AC_CHROMA_BITS,
    AC_CHROMA_VALUES,
    AC_LUMA_BITS,
    AC_LUMA_VALUES,
    BASE_CHROMA_QUANT,
    BASE_LUMA_QUANT,
    DC_CHROMA_BITS,
    DC_CHROMA_VALUES,
    DC_LUMA_BITS,
    DC_LUMA_VALUES,
    RefinementPlane,
    ZIGZAG,
    decode_base,
    encode_base,
    forward_dct_blocks,
    merge_refinement,
    quality_to_tables,
    rgb_to_ycbcr,
    split_refinement,
    ycbcr_to_rgb,
)
from hdr2l.errors import ParameterError, ParseError
from hdr2l.imagio import LdrImage


def _dct_oracle_matrix() -> np.ndarray:
    """Direct 64x64 DCT-II operator built from the definition."""
    mat = np.zeros((64, 64))
    for u in range(8):
        for v in range(8):
            cu = 1.0 / np.sqrt(2.0) if u == 0 else 1.0
            cv = 1.0 / np.sqrt(2.0) if v == 0 else 1.0
            for x in range(8):
                for y in range(8):
                    mat[u * 8 + v, x * 8 + y] = (
                        0.25 * cu * cv
                        * np.cos((2 * x + 1) * u * np.pi / 16.0)
                        * np.cos((2 * y + 1) * v * np.pi / 16.0)
                    )
    return mat


def test_forward_dct_matches_matrix_oracle(rng):
    oracle = _dct_oracle_matrix()
    blocks = rng.uniform(-128.0, 127.0, size=(100, 8, 8))
    ours = forward_dct_blocks(blocks)
    direct = (oracle @ blocks.reshape(-1, 64).T).T.reshape(-1, 8, 8)
    assert float(np.abs(ours - direct).max()) < 1e-9


def _inverse_dct_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Exact transpose pair of :func:`forward_dct_blocks`."""
    return np.einsum("ji,bjk,kl->bil", basejpeg._DCT, coeffs, basejpeg._DCT, optimize=True)


def test_dct_pair_is_isometry(rng):
    blocks = rng.uniform(-128.0, 127.0, size=(50, 8, 8))
    back = _inverse_dct_blocks(forward_dct_blocks(blocks))
    assert float(np.abs(back - blocks).max()) < 1e-9
    # Parseval: coefficient energy equals sample energy.
    coeffs = forward_dct_blocks(blocks)
    assert np.allclose((coeffs**2).sum(), (blocks**2).sum(), rtol=1e-12)


def test_uniform_block_has_dc_only():
    block = np.full((1, 8, 8), 200.0 - 128.0)
    coeffs = forward_dct_blocks(block)[0]
    quantized = np.rint(coeffs / quality_to_tables(80).natural(chroma=False))
    assert quantized[0, 0] != 0
    assert (quantized.ravel()[1:] == 0).all()


# ---------------------------------------------------------------------------
# quantization tables


def test_quality_50_returns_base_tables():
    t = quality_to_tables(50)
    assert list(t.luma) == [int(v) for v in BASE_LUMA_QUANT[ZIGZAG]]
    assert list(t.chroma) == [int(v) for v in BASE_CHROMA_QUANT[ZIGZAG]]


def test_quality_100_all_ones():
    t = quality_to_tables(100)
    assert set(t.luma) == {1} and set(t.chroma) == {1}


def test_quality_80_luma_dc():
    # base DC entry 16, scale 200 - 160 = 40: floor((16*40 + 50)/100) = 6
    assert quality_to_tables(80).luma[0] == 6


def test_quality_monotone_non_increasing():
    prev = quality_to_tables(1)
    for q in range(2, 101):
        cur = quality_to_tables(q)
        assert all(c <= p for c, p in zip(cur.luma, prev.luma))
        assert all(c <= p for c, p in zip(cur.chroma, prev.chroma))
        prev = cur


def test_quality_range_errors():
    for q in (0, 101, -5):
        with pytest.raises(ParameterError):
            quality_to_tables(q)


# ---------------------------------------------------------------------------
# encode / decode


def _gradient_ldr(width: int, height: int) -> LdrImage:
    xx = np.linspace(0, 255, width)[None, :]
    yy = np.linspace(0, 255, height)[:, None]
    r = np.clip(np.rint(0.5 * (xx + yy)), 0, 255)
    g = np.clip(np.rint(xx * np.ones_like(yy)), 0, 255)
    b = np.clip(np.rint(yy * np.ones_like(xx)), 0, 255)
    return LdrImage(np.stack([r, g, b]).astype(np.uint16), bit_depth=8)


def _scan_data(stream: bytes) -> bytes:
    """The entropy-coded data between the scan header and EOI."""
    sos = stream.index(b"\xFF\xDA")
    return stream[sos + 2 + int.from_bytes(stream[sos + 2 : sos + 4], "big") : -2]


def test_encode_markers_and_stuffing():
    stream = encode_base(_gradient_ldr(24, 16), 80)
    assert stream[:2] == b"\xFF\xD8"
    assert stream[-2:] == b"\xFF\xD9"
    # within the entropy-coded data every 0xFF is followed by 0x00
    body = _scan_data(stream)
    i = 0
    while i < len(body):
        if body[i] == 0xFF:
            assert body[i + 1] == 0x00
            i += 2
        else:
            i += 1


def test_encode_decode_all_zero_image():
    img = LdrImage(np.zeros((3, 16, 16), dtype=np.uint16), bit_depth=8)
    assert decode_base(encode_base(img, 80)) == img


def test_decode_deterministic():
    stream = encode_base(_gradient_ldr(17, 9), 90)
    assert decode_base(stream) == decode_base(stream)


def test_q100_smooth_gray_gradient_error_bound():
    ramp = np.clip(np.rint(np.linspace(0, 255, 32))[None, :] * np.ones((32, 1)), 0, 255)
    img = LdrImage(np.stack([ramp, ramp, ramp]).astype(np.uint16), bit_depth=8)
    decoded = decode_base(encode_base(img, 100))
    err = np.abs(decoded.samples.astype(np.int64) - img.samples.astype(np.int64))
    assert int(err.max()) <= 2


def test_q100_smooth_color_gradient_error_regression():
    # Chroma rounding adds up to two more steps; bound measured once, frozen.
    img = _gradient_ldr(32, 32)
    decoded = decode_base(encode_base(img, 100))
    err = np.abs(decoded.samples.astype(np.int64) - img.samples.astype(np.int64))
    assert int(err.max()) <= 3


def test_encode_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        encode_base(LdrImage(np.zeros((3, 2, 2), dtype=np.uint16), bit_depth=12), 80)
    with pytest.raises(ParameterError):
        encode_base(_gradient_ldr(4, 4), 0)


def test_decode_rejects_corruption():
    stream = encode_base(_gradient_ldr(16, 16), 80)
    with pytest.raises(ParseError):
        decode_base(stream[:20])
    with pytest.raises(ParseError):
        decode_base(b"\x00\x01" + stream[2:])
    with pytest.raises(ParseError) as err:
        decode_base(stream[:-10])  # chop EOI and tail
    assert err.value.offset is not None
    with pytest.raises(ParseError, match="after the EOI marker") as err:
        decode_base(stream + b"\x00")
    assert err.value.offset == len(stream)
    with pytest.raises(ParseError, match="1 bytes of scan data after the last block") as err:
        decode_base(stream[:-2] + b"\x00" + stream[-2:])
    assert err.value.offset == len(stream) - 2


def test_decode_and_check_base_agree_on_scan_corruption_offsets():
    stream = encode_base(_gradient_ldr(32, 32), 80)
    mid = (basejpeg._HEADER_SIZE + len(stream)) // 2
    assert stream[mid - 1] != 0xFF  # so the byte at mid starts no stuffed pair
    bad = {
        "marker inside the scan": (stream[:mid] + b"\xFF\xD0" + stream[mid + 2 :], mid),
        "dangling 0xFF": (stream[:mid] + b"\xFF", mid),
        "missing EOI": (stream[:-2], len(stream) - 2),
    }
    for name, (data, offset) in bad.items():
        with pytest.raises(ParseError) as decoded:
            decode_base(data)
        with pytest.raises(ParseError) as checked:
            basejpeg.check_base(data, 32, 32)
        assert decoded.value.offset == checked.value.offset == offset, name


@pytest.mark.parametrize("width, height", [(24, 16), (17, 9), (16, 16), (8, 8)])
def test_decode_rejects_scan_pad_bits_not_all_ones(width, height):
    stream = encode_base(_gradient_ldr(width, height), 80)
    last = len(stream) - 3  # the last data byte, before EOI
    assert stream[last] not in (0x00, 0xFF)
    bad = stream[:last] + bytes([stream[last] & 0xFE]) + stream[-2:]
    with pytest.raises(ParseError, match="pad bits") as err:
        decode_base(bad)
    assert err.value.offset == last


def _edit(stream: bytes, marker: int, offset: int, value: bytes) -> bytes:
    """Overwrite bytes at ``offset`` inside the payload of the first ``marker`` segment."""
    start = stream.index(bytes([0xFF, marker])) + 4 + offset
    return stream[:start] + value + stream[start + len(value) :]


def test_decode_rejects_malformed_headers_with_offsets():
    stream = encode_base(_gradient_ldr(16, 16), 80)
    dht_dc_luma_values = 1 + 16
    dht = stream.index(b"\xFF\xC4")
    dht_length = int.from_bytes(stream[dht + 2 : dht + 4], "big")
    bad = {
        "counts beyond the symbols": _edit(stream, 0xC4, -2, (dht_length - 1).to_bytes(2, "big")),
        "code space overflow": _edit(stream, 0xC4, 1, bytes([2])),
        "DC symbol above 11": _edit(stream, 0xC4, dht_dc_luma_values, bytes([12])),
        "AC size above 10": _edit(stream, 0xC4, 2 * 17 + 12, bytes([0x0B])),
        "undefined Huffman table": _edit(stream, 0xDA, 4, bytes([0x22])),
        "undefined quantization table": _edit(stream, 0xC0, 8, bytes([5])),
        "short DQT": _edit(stream, 0xDB, -2, (2 + 64).to_bytes(2, "big")),
        "short SOF": _edit(stream, 0xC0, -2, (2 + 6).to_bytes(2, "big")),
    }
    for name, data in bad.items():
        with pytest.raises(ParseError) as err:
            decode_base(data)
        assert err.value.offset is not None, name


def test_decode_rejects_frame_larger_than_scan_before_allocating():
    stream = encode_base(_gradient_ldr(16, 16), 80)
    huge = _edit(stream, 0xC0, 1, (65535).to_bytes(2, "big") * 2)  # height, width
    with pytest.raises(ParseError, match="larger than its scan data"):
        decode_base(huge)


def test_header_length_does_not_depend_on_tables_or_size():
    lengths = set()
    for q in (1, 50, 80, 100):
        tables = quality_to_tables(q)
        assert encode_base(_gradient_ldr(17, 9), q).startswith(basejpeg._header(tables, 17, 9))
        lengths |= {len(basejpeg._header(tables, w, h)) for w, h in ((1, 1), (17, 9), (65535, 65535))}
    assert lengths == {basejpeg._HEADER_SIZE}


def test_decode_rejects_any_other_header_byte_change_at_its_offset():
    stream = encode_base(_gradient_ldr(16, 16), 80)
    dqt = stream.index(b"\xFF\xDB") + 5  # first luma entry
    sof = stream.index(b"\xFF\xC0") + 5  # height, then width
    free = {*range(dqt, dqt + 64), *range(dqt + 65, dqt + 129), *range(sof, sof + 4)}
    header_size = len(stream) - len(_scan_data(stream)) - 2
    for at in sorted(set(range(header_size)) - free):
        for flip in (0x01, 0xFF):
            bad = stream[:at] + bytes([stream[at] ^ flip]) + stream[at + 1 :]
            with pytest.raises(ParseError) as err:
                decode_base(bad)
            assert err.value.offset == at, (at, flip)


def test_color_conversion_round_trip_is_close(rng):
    rgb = rng.integers(0, 256, size=(3, 8, 8)).astype(np.int64)
    back = ycbcr_to_rgb(rgb_to_ycbcr(rgb))
    assert int(np.abs(back.astype(np.int64) - rgb).max()) <= 2


def test_non_multiple_of_8_dimensions_round_trip():
    img = _gradient_ldr(13, 21)
    decoded = decode_base(encode_base(img, 95))
    assert (decoded.width, decoded.height) == (13, 21)
    err = np.abs(decoded.samples.astype(np.int64) - img.samples.astype(np.int64))
    assert int(err.max()) <= 12  # mild quantization error, no structural damage


# ---------------------------------------------------------------------------
# scan writer against a per-block reference writer


def _code_map(bits, values) -> dict[int, tuple[int, int]]:
    return {symbol: (code, length) for symbol, code, length in basejpeg._canonical_codes(bits, values)}


_DC_ENC = (_code_map(DC_LUMA_BITS, DC_LUMA_VALUES), _code_map(DC_CHROMA_BITS, DC_CHROMA_VALUES))
_AC_ENC = (_code_map(AC_LUMA_BITS, AC_LUMA_VALUES), _code_map(AC_CHROMA_BITS, AC_CHROMA_VALUES))


class _JpegBitWriter:
    """MSB-first bit writer with 0xFF byte stuffing and one-fill padding."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits == 0:
            return
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            byte = (self._acc >> self._nbits) & 0xFF
            self._out.append(byte)
            if byte == 0xFF:
                self._out.append(0x00)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        if self._nbits:
            pad = 8 - self._nbits
            byte = ((self._acc << pad) | ((1 << pad) - 1)) & 0xFF
            self._out.append(byte)
            if byte == 0xFF:
                self._out.append(0x00)
            self._acc = 0
            self._nbits = 0
        return bytes(self._out)


def _magnitude_bits(value: int) -> tuple[int, int]:
    """(size, bits) of a DC/AC level: ones'-complement form for negatives."""
    if value == 0:
        return 0, 0
    size = abs(value).bit_length()
    bits = value if value > 0 else value + (1 << size) - 1
    return size, bits


def _encode_block(coeffs, pred_dc: int, table_id: int, writer: _JpegBitWriter) -> int:
    dc_table = _DC_ENC[table_id]
    ac_table = _AC_ENC[table_id]
    dc = coeffs[0]
    size, bits = _magnitude_bits(dc - pred_dc)
    code, length = dc_table[size]
    writer.write(code, length)
    if size:
        writer.write(bits, size)
    run = 0
    for k in range(1, 64):
        v = coeffs[k]
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, length = ac_table[0xF0]
            writer.write(code, length)
            run -= 16
        size, bits = _magnitude_bits(v)
        code, length = ac_table[(run << 4) | size]
        writer.write(code, length)
        writer.write(bits, size)
        run = 0
    if run:
        code, length = ac_table[0x00]
        writer.write(code, length)
    return dc


def _reference_scan(levels: list[np.ndarray]) -> bytes:
    writer = _JpegBitWriter()
    pred = [0, 0, 0]
    for block_index in range(levels[0].shape[0]):
        for comp in range(3):
            coeffs = levels[comp][block_index].tolist()
            pred[comp] = _encode_block(coeffs, pred[comp], min(comp, 1), writer)
    return writer.getvalue()


def _crafted_levels(blocks: list[dict[int, int]]) -> list[np.ndarray]:
    """Per-component levels where component c codes ``blocks`` rotated by c,
    so every block meets both the luma and the chroma tables."""
    table = np.zeros((len(blocks), 64), dtype=np.int16)
    for row, block in zip(table, blocks):
        for index, level in block.items():
            row[index] = level
    return [np.roll(table, c, axis=0) for c in range(3)]


CRAFTED_SCANS = {
    # runs of 0, 16 and 32 zeros: one and two ZRLs
    "zrl chains": [{0: 5, 1: 3, 18: -2, 51: 1}, {0: 5, 1: -1, 18: 2, 51: -1, 52: 1}],
    # 47 zeros: two ZRLs, then a run of 15
    "47 zeros": [{48: 7}, {0: -3, 48: -7}],
    # 62 zeros before index 63: three ZRLs, then no EOB
    "lone level at 63": [{63: 1}, {0: 2, 63: -1}, {63: 100}],
    "dc only": [{0: 37}, {0: 37}, {0: -40}, {}, {0: 1024}],
    # DC differences of size 11 (-1024 -> 1016 -> -1024), AC levels of size 10
    "extreme sizes": [{0: -1024, 1: 1023, 62: -1023}, {0: 1016, 2: -512, 63: 513}, {0: -1024, 5: 1000}],
    "unit levels": [{1: 1, 2: -1, 3: 1, 17: -1, 63: 1}, {0: -1, 1: -1, 62: 1}],
    "all zero": [{}, {}],
    # the last data byte is 0xFF, followed by a stuffed 0x00
    "0xFF last": [{0: -64, 63: 3}],
}


@pytest.mark.parametrize("name", sorted(CRAFTED_SCANS))
def test_scan_matches_reference_writer_on_crafted_blocks(name):
    levels = _crafted_levels(CRAFTED_SCANS[name])
    assert basejpeg._entropy_code(levels) == _reference_scan(levels)


def test_crafted_scans_cover_stuffing():
    assert _reference_scan(_crafted_levels(CRAFTED_SCANS["0xFF last"])).endswith(b"\xFF\x00")
    assert b"\xFF\x00" in _reference_scan(_crafted_levels(CRAFTED_SCANS["extreme sizes"]))[:-2]


@pytest.mark.parametrize("q", [1, 50, 80, 100])
def test_scan_matches_reference_writer_on_images(q, rng, monkeypatch):
    seen = []
    entropy_code = basejpeg._entropy_code
    monkeypatch.setattr(basejpeg, "_entropy_code", lambda levels: seen.append(levels) or entropy_code(levels))
    sides = (1, 8, 9, 17, 33)
    for width in sides:
        for height in sides:
            noise = rng.integers(0, 256, size=(3, height, width)).astype(np.uint16)
            for image in (_gradient_ldr(width, height), LdrImage(noise, bit_depth=8)):
                stream = encode_base(image, q)
                assert _scan_data(stream) == _reference_scan(seen.pop()), (width, height)


# ---------------------------------------------------------------------------
# pixel reconstruction against an int64 oracle


def _oracle_idct(coeffs: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """The islow inverse DCT in int64 over (n, 8, 8) natural-order levels,
    column by column: (n, 8, 8) samples level-shifted back to [0, 255]."""
    d = coeffs.astype(np.int64) * qtab.astype(np.int64)
    ws = basejpeg._islow_1d(*(d[:, r, :] for r in range(8)), basejpeg._CONST_BITS - basejpeg._PASS1_BITS)
    out = np.empty_like(d)
    for r in range(8):
        row = basejpeg._islow_1d(*(ws[r][:, c] for c in range(8)), basejpeg._CONST_BITS + basejpeg._PASS1_BITS + 3)
        for c in range(8):
            out[:, r, c] = row[c]
    return np.clip(out + 128, 0, 255)


def _oracle_ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """BT.601 YCbCr to RGB through int64 16-bit fixed-point chroma tables."""
    i = np.arange(256, dtype=np.int64) - 128
    half = 1 << 15
    crr = (91881 * i + half) >> 16
    cbb = (116130 * i + half) >> 16
    crg = -46802 * i
    cbg = -22554 * i + half
    y, cb, cr = (ycc[c].astype(np.int64) for c in range(3))
    rgb = np.stack([y + crr[cr], y + ((cbg[cb] + crg[cr]) >> 16), y + cbb[cb]])
    return np.clip(rgb, 0, 255).astype(np.uint16)


def _oracle_decode(levels: list[np.ndarray], tables, width: int, height: int) -> np.ndarray:
    """Samples of a frame from the (blocks, 64) zig-zag levels of each
    component: scatter to natural order, inverse DCT block by block, tile."""
    bh, bw = (height + 7) // 8, (width + 7) // 8
    planes = []
    for comp in range(3):
        natural = np.zeros((bh * bw, 64), dtype=np.int64)
        natural[:, ZIGZAG] = levels[comp]
        spatial = _oracle_idct(natural.reshape(-1, 8, 8), tables.natural(chroma=comp > 0))
        planes.append(spatial.reshape(bh, bw, 8, 8).transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)[:height, :width])
    return _oracle_ycbcr_to_rgb(np.stack(planes))


def _stream(tables, width: int, height: int, levels: list[np.ndarray]) -> bytes:
    """A base-layer stream that codes ``levels`` with the reference writer."""
    return basejpeg._header(tables, width, height) + _reference_scan(levels) + basejpeg._EOI


def _random_levels(rng, tables, blocks: int) -> list[np.ndarray]:
    """Zig-zag levels, about a third nonzero and a tenth at the largest
    magnitude that is codable (|AC| <= 1023, DC differences within +-2047) and
    dequantizes to at most the decoder's limit."""
    out = []
    for zz in (tables.luma, tables.chroma, tables.chroma):
        top = np.minimum(basejpeg._LEVEL_LIMIT // np.array(zz), 1023)
        levels = rng.integers(-top, top + 1, size=(blocks, 64))
        pick = rng.random((blocks, 64))
        levels[pick < 0.1] = (top * rng.choice([-1, 1], size=(blocks, 64)))[pick < 0.1]
        levels[pick > 0.35] = 0
        out.append(levels)
    return out


@pytest.mark.parametrize("q", [1, 50, 80, 100])
def test_decode_matches_int64_oracle_on_random_levels(q, rng):
    tables = quality_to_tables(q)
    sides = (1, 8, 9, 17, 33)
    for width in sides:
        for height in sides:
            levels = _random_levels(rng, tables, ((width + 7) // 8) * ((height + 7) // 8))
            decoded = decode_base(_stream(tables, width, height, levels))
            assert np.array_equal(decoded.samples, _oracle_decode(levels, tables, width, height)), (width, height)


def test_ycbcr_to_rgb_matches_oracle_on_every_triple():
    cb, cr = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    for y in range(256):
        ycc = np.stack([np.full_like(cb, y), cb, cr])
        assert np.array_equal(ycbcr_to_rgb(ycc), _oracle_ycbcr_to_rgb(ycc)), y


# The whole-image colour conversions and decode pixel stage that the
# per-component ones replaced: they hold every component in float64, or in
# int32, at once.  The per-component stages must match them exactly.
def _rgb_to_ycbcr_whole(rgb: np.ndarray) -> np.ndarray:
    r, g, b = (rgb[i].astype(np.float64) for i in range(3))
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.clip(np.rint(np.stack([y, cb, cr])), 0, 255).astype(np.int64)


def _ycbcr_to_rgb_whole(ycc: np.ndarray) -> np.ndarray:
    y, cb, cr = np.asarray(ycc, dtype=np.int32)
    cb = cb - 128
    cr = cr - 128
    half = 1 << 15
    rgb = np.stack([
        y + ((91881 * cr + half) >> 16),
        y + ((-22554 * cb - 46802 * cr + half) >> 16),
        y + ((116130 * cb + half) >> 16),
    ])
    return np.clip(rgb, 0, 255, out=rgb).astype(np.uint16)


def _pixels_whole(levels: list[np.ndarray], tables, width: int, height: int) -> np.ndarray:
    """The pixel stage of the decoder on the (blocks, 64) zig-zag levels of
    each component: the inverse DCTs into one int32 stack, then one
    transpose."""
    bh, bw = (height + 7) // 8, (width + 7) // 8
    natural = np.zeros((3, bh * bw, 64), dtype=np.int32)
    for comp in range(3):
        natural[comp][:, ZIGZAG] = levels[comp]
    samples = np.stack([
        basejpeg.idct_islow_blocks(
            np.ascontiguousarray(natural[comp].T), tables.natural(chroma=comp > 0).ravel()
        )
        for comp in range(3)
    ])
    ycc = samples.reshape(3, 8, 8, bh, bw).transpose(0, 3, 1, 4, 2).reshape(3, 8 * bh, 8 * bw)
    return _ycbcr_to_rgb_whole(ycc[:, :height, :width])


def _odd_rgb(rng) -> list[np.ndarray]:
    """8-bit RGB at 1 x N, N x 1 and sizes off the block grid, with the
    extreme codes and grey pixels mixed in."""
    images = []
    for height, width in ((1, 41), (41, 1), (13, 21), (64, 72)):
        rgb = rng.integers(0, 256, size=(3, height, width)).astype(np.uint16)
        pick = rng.random((height, width))
        rgb[:, pick < 0.1] = rng.choice([0, 255], size=(3, int((pick < 0.1).sum())))
        rgb[:, pick > 0.9] = rgb[0, pick > 0.9]
        images.append(rgb)
    return images


def test_rgb_to_ycbcr_matches_whole_image_oracle(rng):
    cube = np.stack(np.meshgrid(*(np.arange(0, 256, 5),) * 3, indexing="ij")).reshape(3, 52, -1)
    for rgb in _odd_rgb(rng) + [cube.astype(np.uint16)]:
        ycc = rgb_to_ycbcr(rgb)
        assert ycc.dtype == np.uint8
        assert np.array_equal(ycc, _rgb_to_ycbcr_whole(rgb))
        assert np.array_equal(ycbcr_to_rgb(ycc), _ycbcr_to_rgb_whole(ycc))


@pytest.mark.parametrize("q", [1, 80, 100])
def test_decode_pixels_match_whole_image_stage(q, rng):
    tables = quality_to_tables(q)
    for height, width in ((1, 41), (41, 1), (13, 21), (8, 8), (64, 72)):
        levels = _random_levels(rng, tables, ((width + 7) // 8) * ((height + 7) // 8))
        decoded = decode_base(_stream(tables, width, height, levels))
        assert np.array_equal(decoded.samples, _pixels_whole(levels, tables, width, height)), (width, height)


class _Affine:
    """An integer IDCT intermediate as an affine form ``coef . d + const`` in
    the 64 dequantized inputs d, give or take ``slack`` from the descales
    before it.  Every form an operation makes is appended to ``made``."""

    def __init__(self, made: list, coef: np.ndarray, const: float = 0.0, slack: float = 0.0):
        self.made, self.coef, self.const, self.slack = made, coef, const, slack
        made.append(self)

    def bound(self, limit: int) -> float:
        """The largest magnitude the intermediate takes with every |d| <= limit."""
        return float(np.abs(self.coef).sum()) * limit + abs(self.const) + self.slack

    def __add__(self, other):
        if isinstance(other, _Affine):
            return _Affine(self.made, self.coef + other.coef, self.const + other.const, self.slack + other.slack)
        return _Affine(self.made, self.coef, self.const + other, self.slack)

    def __neg__(self):
        return _Affine(self.made, -self.coef, -self.const, self.slack)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, k: int):
        return _Affine(self.made, self.coef * k, self.const * k, self.slack * abs(k))

    def __lshift__(self, n: int):
        return self * (1 << n)

    def __rshift__(self, n: int):
        # floor(x / 2**n) lies within 1 below x / 2**n
        return _Affine(self.made, self.coef / 2**n, self.const / 2**n, self.slack / 2**n + 1)


def _idct_intermediates() -> list[_Affine]:
    """Every value the two passes of ``_islow_1d`` compute, over one block."""
    made: list[_Affine] = []
    inputs = [_Affine(made, np.eye(64)[i]) for i in range(64)]
    columns = [basejpeg._islow_1d(*(inputs[8 * u + v] for u in range(8)), basejpeg._CONST_BITS - basejpeg._PASS1_BITS)
               for v in range(8)]
    for y in range(8):
        basejpeg._islow_1d(*(columns[v][y] for v in range(8)), basejpeg._CONST_BITS + basejpeg._PASS1_BITS + 3)
    return made


def test_idct_intermediates_fit_int32_at_the_level_limit():
    forms = _idct_intermediates()
    assert max(form.bound(basejpeg._LEVEL_LIMIT) for form in forms) < 2**31
    # The headroom is narrow: a limit of 1200 would allow an overflow.
    assert max(form.bound(1200) for form in forms) >= 2**31


def test_idct_matches_oracle_on_the_worst_block_of_every_intermediate():
    signs = np.unique([np.where(form.coef < 0, -1, 1) for form in _idct_intermediates()], axis=0)
    blocks = basejpeg._LEVEL_LIMIT * np.concatenate([signs, -signs])  # (m, 64), natural order
    samples = basejpeg.idct_islow_blocks(blocks.T.astype(np.int32), np.ones(64))
    assert np.array_equal(samples.transpose(2, 0, 1), _oracle_idct(blocks.reshape(-1, 8, 8), np.ones((8, 8))))
    blocks[0, 0] = basejpeg._LEVEL_LIMIT + 1
    with pytest.raises(ParseError, match="exceeds 1151"):
        basejpeg.idct_islow_blocks(blocks.T.astype(np.int32), np.ones(64))


def test_block_at_the_level_limit_decodes_to_the_oracle():
    # DC step 1 and AC step 2: DC levels of +-1151 and AC levels of +-575.
    tables = basejpeg.QuantTables(luma=(1,) + (2,) * 63, chroma=(1,) + (2,) * 63)
    worst = max(_idct_intermediates(), key=lambda form: form.bound(1))
    natural = np.where(worst.coef < 0, -1, 1) * np.array([basejpeg._LEVEL_LIMIT] + [575] * 63)
    block = natural[ZIGZAG]
    levels = [block[None], -block[None], block[None]]
    assert np.array_equal(decode_base(_stream(tables, 8, 8, levels)).samples, _oracle_decode(levels, tables, 8, 8))


@pytest.mark.parametrize("name", sorted(CRAFTED_SCANS))
def test_crafted_scans_decode_to_the_oracle(name):
    levels = _crafted_levels(CRAFTED_SCANS[name])
    tables = quality_to_tables(100)
    width = 8 * len(CRAFTED_SCANS[name])
    assert np.array_equal(decode_base(_stream(tables, width, 8, levels)).samples,
                          _oracle_decode(levels, tables, width, 8))


def test_zrl_past_coefficient_63_rejected_at_its_offset():
    # Luma DC size 0, then four ZRLs: the fourth would end past index 63.
    writer = _JpegBitWriter()
    writer.write(*_DC_ENC[0][0])
    for _ in range(4):
        writer.write(*_AC_ENC[0][0xF0])
    for _ in range(2):
        writer.write(*_DC_ENC[1][0])
        writer.write(*_AC_ENC[1][0x00])
    stream = basejpeg._header(quality_to_tables(80), 8, 8) + writer.getvalue() + basejpeg._EOI
    with pytest.raises(ParseError, match="ZRL runs past coefficient 63") as err:
        decode_base(stream)
    # 2 + 4 * 11 bits read: six data bytes, the fourth 0xFF and followed by a stuffed 0x00
    assert err.value.offset == basejpeg._HEADER_SIZE + 7


def _with_base(stream: bytes, jpeg: bytes) -> bytes:
    """A container ``stream`` whose base layer is ``jpeg``, CRC recomputed."""
    old = container.extract_ldr(stream)
    at = stream.index(old)
    out = bytearray(stream[: at - 4])
    out += len(jpeg).to_bytes(4, "little") + jpeg + stream[at + len(old) : -4]
    out += zlib.crc32(out).to_bytes(4, "little")
    return bytes(out)


def test_levels_beyond_the_limit_rejected_before_any_narrow_store():
    tables = quality_to_tables(80)
    width, blocks = 160, 20
    drift = [np.zeros((blocks, 64), dtype=np.int64) for _ in range(3)]
    drift[0][:, 0] = 2047 * np.arange(blocks)  # repeated DC differences of size 11
    assert tables.luma[1] == 4
    big_ac = [np.zeros((blocks, 64), dtype=np.int64) for _ in range(3)]
    big_ac[0][0, 1] = 288  # 288 * 4 = 1152
    stream = container.encode(sparse_hdr_image(width, 8), container.CodecParams(
        mode=container.CoderMode.HP, tmo=tmo.TmoParams(kind=tmo.TmoKind.DEFAULT), q=80))
    for levels, match in ((drift, "DC level 2047 out of range"), (big_ac, "magnitude 1152 exceeds 1151")):
        jpeg = _stream(tables, width, 8, levels)
        for decoder, data in ((decode_base, jpeg), (container.decode, _with_base(stream, jpeg))):
            with pytest.raises(ParseError, match=match):
                decoder(data)
    big_ac[0][0, 1] = 287
    assert np.array_equal(decode_base(_stream(tables, width, 8, big_ac)).samples,
                          _oracle_decode(big_ac, tables, width, 8))


# ---------------------------------------------------------------------------
# unit table and flat blocks against the per-bit decoder


_PER_BIT_MAPS = (basejpeg._LUMA_MAPS[:2], basejpeg._CHROMA_MAPS[:2], basejpeg._CHROMA_MAPS[:2])


def _per_bit_decode_base(stream: bytes) -> np.ndarray:
    """The decoder before the unit table and the flat-block shortcut: every
    unit is read a bit at a time and every component takes the whole inverse
    DCT.  Returns the RGB samples."""
    tables, width, height = basejpeg._read_header(stream)
    if not width or not height:
        raise ParseError(f"empty {width}x{height} frame", offset=basejpeg._SIZE_AT)
    bh = (height + 7) // 8
    bw = (width + 7) // 8
    if 3 * bh * bw * 2 > 8 * (len(stream) - basejpeg._HEADER_SIZE):
        raise ParseError(f"{width}x{height} frame is larger than its scan data", offset=basejpeg._HEADER_SIZE)
    scan = stream[basejpeg._HEADER_SIZE : basejpeg._scan_end(stream)].replace(b"\xFF\x00", b"\xFF")
    reader = basejpeg._JpegBitReader(scan)
    n = bh * bw
    levels = np.zeros((3, 64, n), dtype=np.int16)
    pred = [0, 0, 0]
    for block in range(n):
        for comp, (dc_tbl, ac_tbl) in enumerate(_PER_BIT_MAPS):
            size = basejpeg._read_huffman(reader, dc_tbl)
            pred[comp] += basejpeg._extend(reader.read(size), size)
            if abs(pred[comp]) > basejpeg._LEVEL_LIMIT:
                raise ParseError(f"DC level {pred[comp]} out of range", offset=reader.end_position())
            levels[comp, 0, block] = pred[comp]
            k = 1
            while k < 64:
                symbol = basejpeg._read_huffman(reader, ac_tbl)
                if symbol == 0x00:
                    break
                size = symbol & 0x0F
                if size == 0:
                    k += 16
                    if k > 63:
                        raise ParseError("ZRL runs past coefficient 63", offset=reader.end_position())
                    continue
                k += symbol >> 4
                if k > 63:
                    raise ParseError("AC coefficient index overflow", offset=reader.end_position())
                levels[comp, ZIGZAG[k], block] = basejpeg._extend(reader.read(size), size)
                k += 1
    reader.check_end()
    ycc = np.empty((3, bh, 8, bw, 8), dtype=np.uint8)
    for comp in range(3):
        samples = basejpeg.idct_islow_blocks(levels[comp], tables.natural(chroma=comp > 0).ravel())
        ycc[comp] = samples.reshape(8, 8, bh, bw).transpose(2, 0, 3, 1)
    return ycbcr_to_rgb(ycc.reshape(3, 8 * bh, 8 * bw)[:, :height, :width])


def _outcome(decode, stream: bytes) -> tuple:
    """The samples ``decode`` gives ``stream``, or the type, message and
    offset of the ParseError it raises."""
    try:
        samples = decode(stream)
    except ParseError as err:
        return type(err), str(err), err.offset
    return samples.shape, samples.tobytes()


def _assert_decodes_as_per_bit(stream: bytes) -> tuple:
    outcome = _outcome(lambda data: decode_base(data).samples, stream)
    assert outcome == _outcome(_per_bit_decode_base, stream)
    return outcome


def _per_bit_unit(window: int, maps) -> int:
    """Bit length and DC difference of the DC-only unit that starts the
    16-bit ``window``, packed as the unit table packs them, or 0 when the
    per-bit reader finds no complete DC-only unit there."""
    reader = basejpeg._JpegBitReader(window.to_bytes(2, "big"))
    try:
        size = basejpeg._read_huffman(reader, maps[0])
        difference = basejpeg._extend(reader.read(size), size)
        if basejpeg._read_huffman(reader, maps[1]) != 0x00:
            return 0
    except ParseError:
        return 0
    return 32 * difference + reader.tell()


@pytest.mark.parametrize("maps", [basejpeg._LUMA_MAPS, basejpeg._CHROMA_MAPS], ids=["luma", "chroma"])
def test_unit_table_agrees_with_the_per_bit_decode_of_every_window(maps):
    table = maps[2]
    assert len(table) == 1 << 16 and table.itemsize == 2
    expected = [_per_bit_unit(window, maps) for window in range(1 << 16)]
    assert table.tolist() == expected
    # DC sizes 0..7 fit in 16 bits with the EOB, so every difference up to 127.
    assert {entry >> 5 for entry in expected if entry} == set(range(-127, 128))


def test_unit_tables_fit_half_a_megabyte():
    tables = (basejpeg._LUMA_MAPS[2], basejpeg._CHROMA_MAPS[2])
    assert sum(table.itemsize * len(table) for table in tables) <= 1 << 19


def _dc_only_levels(dcs: list[int]) -> list[np.ndarray]:
    """Levels of blocks with the DC levels ``dcs`` and no AC level, rotated
    per component as :func:`_crafted_levels` does."""
    return _crafted_levels([{0: dc} for dc in dcs])


def _dc_walk(sizes) -> list[int]:
    """DC levels whose differences take every size in ``sizes`` at its least
    and its largest magnitude, both signs, each undone at once: every level
    stays within the decoder's limit."""
    dcs = [0]
    for size in sizes:
        for step in sorted({1 << size >> 1, min((1 << size) - 1, basejpeg._LEVEL_LIMIT)}):
            dcs += [step, 0, -step, 0]
    return dcs


@pytest.mark.parametrize("q", [100, 80, 1])
def test_dc_only_units_of_every_dc_size_decode_as_per_bit(q):
    # At q = 100 every level dequantizes within the limit; at q = 80 and
    # q = 1 the larger ones do not, and both decoders must refuse alike.
    tables = quality_to_tables(q)
    dcs = _dc_walk(range(12))
    levels = _dc_only_levels(dcs)
    stream = _stream(tables, 8 * len(dcs), 8, levels)
    outcome = _assert_decodes_as_per_bit(stream)
    if q == 100:
        assert outcome[1] == _oracle_decode(levels, tables, 8 * len(dcs), 8).tobytes()
    else:
        assert outcome[0] is ParseError and "exceeds 1151" in outcome[1]


def test_dc_drift_past_the_limit_in_table_units_rejected_at_the_per_bit_offset():
    # Differences of 127 fit a table step in both classes; the tenth takes
    # the level to 1270.
    levels = np.zeros((12, 64), dtype=np.int16)
    levels[:, 0] = 127 * np.arange(12)
    stream = _stream(quality_to_tables(100), 8 * 12, 8, [levels] * 3)
    kind, message, offset = _assert_decodes_as_per_bit(stream)
    assert (kind, message.split(" (")[0]) == (ParseError, "DC level 1270 out of range")
    assert basejpeg._HEADER_SIZE < offset < len(stream)


@pytest.mark.parametrize("q", [1, 50, 80, 100])
@pytest.mark.parametrize("flat_share", [0.1, 0.6, 0.95, 1.0])
def test_mixed_dc_only_and_ac_units_decode_as_per_bit_and_oracle(q, flat_share, rng):
    tables = quality_to_tables(q)
    for height, width in ((8, 8), (13, 21), (40, 48), (64, 72)):
        blocks = ((width + 7) // 8) * ((height + 7) // 8)
        levels = _random_levels(rng, tables, blocks)
        for comp_levels in levels:
            comp_levels[rng.random(blocks) < flat_share, 1:] = 0
        stream = _stream(tables, width, height, levels)
        _assert_decodes_as_per_bit(stream)
        assert np.array_equal(decode_base(stream).samples, _oracle_decode(levels, tables, width, height))


def test_dc_only_unit_in_the_last_two_scan_bytes_decodes_as_per_bit():
    # A final DC-only unit with at least 16 scan bits from its start takes
    # the table step; one with fewer falls back to the per-bit reader.
    tables = quality_to_tables(100)
    tail_starts = set()
    for dcs in ([0], [5], [0, 127], [100, -27], [3, 3, 60], [0, 0, 0, 1], [90, -37, 0, 127, 1000]):
        levels = _dc_only_levels(dcs)
        fields = basejpeg._scan_fields(levels)
        unit_bits = fields[:-1, 1].reshape(-1, 3).sum(axis=1)  # DC code, DC bits, EOB per unit
        tail_starts.add(int(unit_bits[-1] + fields[-1, 1]) >= 16)  # the last unit and the pad bits
        stream = _stream(tables, 8 * len(dcs), 8, levels)
        assert _assert_decodes_as_per_bit(stream)[1] == _oracle_decode(levels, tables, 8 * len(dcs), 8).tobytes()
    assert tail_starts == {True, False}


def test_every_bit_flip_and_truncation_decodes_as_per_bit():
    # DC-only units of several sizes, units with AC levels, and a DC-only
    # unit last.
    blocks = [{0: 3}, {0: 60, 1: 2, 9: -1}, {0: -60}, {0: 1000}, {0: 7, 63: 1}, {0: -120}, {}, {0: 1}]
    stream = _stream(quality_to_tables(100), 8 * len(blocks), 8, _crafted_levels(blocks))
    bad = [stream[:at] for at in range(len(stream))]
    bad += [stream[:at] + bytes([stream[at] ^ (1 << bit)]) + stream[at + 1 :]
            for at in range(len(stream)) for bit in range(8)]
    # Scans cut short before the EOI marker, among them one of zero bits,
    # which end inside a unit the window past their end would complete.
    zeros = _stream(quality_to_tables(100), 8 * 16, 8, _dc_only_levels([0] * 16))
    for full in (stream, zeros):
        bad += [full[:at] + basejpeg._EOI for at in range(basejpeg._HEADER_SIZE, len(full) - 2)]
    outcomes = {_assert_decodes_as_per_bit(data) for data in bad}
    messages = {outcome[1].split(" (byte offset")[0] for outcome in outcomes if outcome[0] is ParseError}
    assert {"truncated header", "missing EOI marker after scan", "entropy data exhausted",
            "invalid Huffman code in scan", "scan pad bits are not all ones"} <= messages
    assert any(outcome[0] is not ParseError for outcome in outcomes)  # some flips still decode


# ---------------------------------------------------------------------------
# runs of flat MCUs against the per-bit decoder and the oracle


def _mcu_levels(dcs, ac=()) -> list[np.ndarray]:
    """Zig-zag levels of blocks whose three components take the DC levels of
    the rows of ``dcs`` and no AC level but the (block, component, zig-zag
    index, level) entries of ``ac``."""
    dcs = np.asarray(dcs, dtype=np.int64).reshape(-1, 3)
    levels = [np.zeros((len(dcs), 64), dtype=np.int64) for _ in range(3)]
    for comp in range(3):
        levels[comp][:, 0] = dcs[:, comp]
    for block, comp, index, level in ac:
        levels[comp][block, index] = level
    return levels


def _assert_decodes_as_per_bit_and_oracle(levels, tables, width: int, height: int) -> bytes:
    stream = _stream(tables, width, height, levels)
    assert _assert_decodes_as_per_bit(stream)[1] == _oracle_decode(levels, tables, width, height).tobytes()
    return stream


_A, _B, _C = (5, -3, 2), (-40, 7, 100), (5, -3, 3)
FLAT_RUN_SCANS = {
    "starts the scan": ([(0, 0, 0)] * 9 + [_A, _A, _B], ()),
    "mid-scan": ([_B] + [_A] * 9 + [_B, _B], ()),
    "ends at the last block": ([_B, _B, _A] + [_A] * 10, ()),
    # a chroma difference, then a luma difference, each between two runs
    "broken by a DC difference": ([_A] * 5 + [_C] * 5 + [(6, -3, 3)] * 4, ()),
    # difference-0 luma units followed by a chroma unit with an AC level
    "broken by a chroma AC level": ([_A] * 9, ((3, 1, 1, 4), (6, 2, 63, -1), (7, 0, 5, 2))),
    # runs of one flat MCU between MCUs that are not flat
    "alternating": ([_A, _A, _B, _B] * 2 + [_A], ((2, 0, 1, 1), (7, 2, 2, -3))),
    # flat MCUs at the limit a q = 100 level may reach
    "at the level limit": ([(1151, -1151, 0)] * 6 + [(1000, -1000, 1151)] * 3, ()),
}


@pytest.mark.parametrize("q", [100, 80])
@pytest.mark.parametrize("name", sorted(FLAT_RUN_SCANS))
def test_flat_runs_decode_as_per_bit_and_oracle(name, q):
    dcs, ac = FLAT_RUN_SCANS[name]
    tables = quality_to_tables(q)
    levels = _mcu_levels(dcs, ac)
    if q == 80:  # levels beyond the q = 80 limit are covered at q = 100
        for comp, zz in enumerate((tables.luma, tables.chroma, tables.chroma)):
            top = basejpeg._LEVEL_LIMIT // zz[0]
            levels[comp][:, 0] = np.clip(levels[comp][:, 0], -top, top)
    _assert_decodes_as_per_bit_and_oracle(levels, tables, 8 * len(dcs), 8)


def test_flat_mcu_pattern_is_the_reference_writers_flat_mcu():
    writer = _JpegBitWriter()
    for _ in range(4):  # 56 bits: no pad
        for comp in range(3):
            _encode_block([0] * 64, 0, min(comp, 1), writer)
    runs = 0
    for _ in range(4):
        runs = runs << basejpeg._FLAT_MCU_BITS | basejpeg._FLAT_MCU
    assert writer.getvalue() == runs.to_bytes(7, "big")
    # The luma unit table's entry of the difference-0 unit starts the run.
    window = basejpeg._FLAT_MCU << (16 - basejpeg._FLAT_MCU_BITS + 2) >> 2
    assert basejpeg._LUMA_MAPS[2][window] == basejpeg._FLAT_LUMA[1]


def test_final_flat_mcu_ending_in_the_last_scan_byte_takes_the_run_step(monkeypatch):
    # One MCU of DC-only units that are not flat, then flat MCUs of 14 bits
    # each: the scans end in every pad of 0, 2, 4 and 6 bits.  Every unit,
    # the last included, is stepped over from the windows.
    tables = quality_to_tables(80)
    streams, pads = {}, set()
    for blocks in range(2, 10):
        levels = _mcu_levels([_A] * blocks)
        stream = _assert_decodes_as_per_bit_and_oracle(levels, tables, 8 * blocks, 8)
        streams[stream] = _oracle_decode(levels, tables, 8 * blocks, 8).tobytes()
        pads.add(int(basejpeg._scan_fields(levels)[-1, 1]))
    assert pads == {0, 2, 4, 6}

    def per_bit(reader, table):
        raise AssertionError("a DC-only unit was read bit by bit")
    monkeypatch.setattr(basejpeg, "_read_huffman", per_bit)
    for stream, samples in streams.items():
        assert decode_base(stream).samples.tobytes() == samples


def _flat_prefix_scan(mcus: int, tail: int, pad: bool) -> bytes:
    """The scan of ``mcus`` flat MCUs and then the first ``tail`` bits of one
    more, one-filled to a byte when ``pad`` is set and left unfinished
    otherwise."""
    bits = mcus * basejpeg._FLAT_MCU_BITS + tail
    value = 0
    for _ in range(mcus + 1):
        value = value << basejpeg._FLAT_MCU_BITS | basejpeg._FLAT_MCU
    value >>= basejpeg._FLAT_MCU_BITS - tail
    if not pad:
        assert bits % 8 == 0
        return value.to_bytes(bits // 8, "big")
    writer = _JpegBitWriter()
    writer.write(value, bits)
    return writer.getvalue()


def test_final_mcu_with_fewer_than_14_bits_left_decodes_as_per_bit():
    # The window past the end of the scan is zero-filled, and a flat MCU
    # ends in zeros, so only the bound keeps a run inside the scan.
    tables = quality_to_tables(80)
    unpadded = 0
    for mcus in range(5):
        for tail in range(1, basejpeg._FLAT_MCU_BITS):
            for pad in (True, False):
                if not pad and (mcus * basejpeg._FLAT_MCU_BITS + tail) % 8:
                    continue
                unpadded += not pad
                scan = _flat_prefix_scan(mcus, tail, pad)
                stream = basejpeg._header(tables, 8 * (mcus + 1), 8) + scan + basejpeg._EOI
                assert _assert_decodes_as_per_bit(stream)[0] is ParseError, (mcus, tail, pad)
    assert unpadded >= 6


def test_flat_run_past_the_last_block_decodes_as_per_bit():
    # The scan holds one flat MCU more than the frame's blocks.
    tables = quality_to_tables(80)
    for blocks in range(1, 9):
        levels = _mcu_levels([_B] * (blocks + 1))
        stream = _stream(tables, 8 * blocks, 8, levels)
        kind, message, offset = _assert_decodes_as_per_bit(stream)
        assert kind is ParseError and offset < len(stream)


@pytest.mark.parametrize("height, width", [(1, 41), (41, 1), (13, 21), (9, 70), (20, 3)])
def test_flat_runs_off_the_block_grid_decode_as_per_bit_and_oracle(height, width, rng):
    tables = quality_to_tables(100)
    blocks = ((width + 7) // 8) * ((height + 7) // 8)
    for _ in range(4):
        dcs = rng.integers(-60, 61, size=(blocks, 3))
        for block in range(1, blocks):
            if rng.random() < 0.7:
                dcs[block] = dcs[block - 1]
        ac = [(int(b), int(rng.integers(3)), int(rng.integers(1, 64)), 1) for b in range(blocks) if rng.random() < 0.1]
        _assert_decodes_as_per_bit_and_oracle(_mcu_levels(dcs, ac), tables, width, height)


def test_every_bit_flip_of_a_flat_run_stream_decodes_as_per_bit():
    dcs = [(0, 0, 0)] * 4 + [_A] * 6 + [_B] * 5 + [_C] * 2
    levels = _mcu_levels(dcs, ((12, 1, 1, 3),))
    stream = _assert_decodes_as_per_bit_and_oracle(levels, quality_to_tables(100), 8 * len(dcs), 8)
    bad = [stream[:at] + bytes([stream[at] ^ (1 << bit)]) + stream[at + 1 :]
           for at in range(len(stream)) for bit in range(8)]
    outcomes = {_assert_decodes_as_per_bit(data) for data in bad}
    assert any(outcome[0] is ParseError for outcome in outcomes)
    assert any(outcome[0] is not ParseError for outcome in outcomes)  # some flips still decode


def test_flat_block_closed_form_equals_the_inverse_dct_at_every_dc():
    dc = np.arange(-basejpeg._LEVEL_LIMIT, basejpeg._LEVEL_LIMIT + 1)
    levels = np.zeros((64, dc.size), dtype=np.int32)
    levels[0] = dc
    closed = np.clip(((dc + 4) >> 3) + 128, 0, 255)
    assert np.array_equal(basejpeg.idct_islow_blocks(levels, np.ones(64)), np.broadcast_to(closed, (8, 8, dc.size)))
    # The same through the shortcut, with a DC step that is not 1.
    levels[0] = np.clip(dc // 3, -383, 383)  # 3 * 384 = 1152
    samples = basejpeg._component_samples(levels.astype(np.int16), np.full(64, 3))
    assert samples.dtype == np.uint8
    assert np.array_equal(samples, basejpeg.idct_islow_blocks(levels, np.full(64, 3)))


@pytest.mark.parametrize("ac_worst", [0, 1148, 1160, 1300])
def test_flat_block_past_the_limit_raises_as_the_whole_inverse_dct(ac_worst):
    # q = 50: luma DC step 16 and first AC step 11.  One flat block
    # dequantizes to 1152 in a mostly flat component; an AC block may be
    # worse, and the error names the worst coefficient of the component.
    tables = quality_to_tables(50)
    assert (tables.luma[0], tables.luma[1]) == (16, 11)
    blocks = [{0: 72}] + [{0: 1}] * 6 + [{0: 1, 1: ac_worst // 11}]
    stream = _stream(tables, 8 * len(blocks), 8, _crafted_levels(blocks))
    kind, message, offset = _assert_decodes_as_per_bit(stream)
    worst = max(72 * 16, ac_worst // 11 * 11)
    assert (kind, message, offset) == (ParseError, f"dequantized coefficient of magnitude {worst} exceeds 1151", None)


# ---------------------------------------------------------------------------
# refinement plane


def test_split_refinement_identity_at_zero_bits():
    img = _gradient_ldr(8, 8)
    top, plane = split_refinement(img)
    assert top == img
    assert plane.refine_bits == 0 and plane.payloads == ()
    assert merge_refinement(top, plane) == img


def test_split_refinement_bit_example():
    samples = np.full((3, 1, 1), 0x0FF3, dtype=np.uint16)
    img = LdrImage(samples, bit_depth=12)
    top, plane = split_refinement(img)
    assert int(top.samples[0, 0, 0]) == 0xFF
    merged = merge_refinement(top, plane)
    assert int(merged.samples[0, 0, 0]) == 0x0FF3


def test_split_merge_round_trip_random_12_bit(rng):
    samples = rng.integers(0, 4096, size=(3, 16, 16)).astype(np.uint16)
    img = LdrImage(samples, bit_depth=12)
    top, plane = split_refinement(img)
    assert merge_refinement(top, plane) == img


def test_merge_uses_decoded_base():
    # Distorting the 8-bit base shifts the merged top bits but keeps the LSBs.
    samples = rng_samples = np.full((3, 2, 2), 0x0AB5, dtype=np.uint16)
    img = LdrImage(samples, bit_depth=12)
    top, plane = split_refinement(img)
    bumped = LdrImage(top.samples + 1, bit_depth=8)
    merged = merge_refinement(bumped, plane)
    assert int(merged.samples[0, 0, 0]) == ((0xAB + 1) << 4) | 0x5


def test_refinement_plane_validation():
    with pytest.raises(ParameterError):
        RefinementPlane(2, ())
    with pytest.raises(ParameterError):
        RefinementPlane(0, (b"x",))
    with pytest.raises(ParameterError):
        RefinementPlane(4, (b"x",))
