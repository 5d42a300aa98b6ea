from __future__ import annotations

import numpy as np
import pytest

from hdr2l import basejpeg
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


def _code_map(bits, values, ac: bool) -> dict[int, tuple[int, int]]:
    return {symbol: (code, length) for symbol, code, length in basejpeg._canonical_codes(bits, values)}


_DC_ENC = (_code_map(DC_LUMA_BITS, DC_LUMA_VALUES, False),
           _code_map(DC_CHROMA_BITS, DC_CHROMA_VALUES, False))
_AC_ENC = (_code_map(AC_LUMA_BITS, AC_LUMA_VALUES, True),
           _code_map(AC_CHROMA_BITS, AC_CHROMA_VALUES, True))


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
        RefinementPlane(2, (), 4, 4)
    with pytest.raises(ParameterError):
        RefinementPlane(0, (b"x",), 4, 4)
    with pytest.raises(ParameterError):
        RefinementPlane(4, (b"x",), 4, 4)
