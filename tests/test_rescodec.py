from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from hdr2l import rescodec
from hdr2l.errors import CorruptStreamError, Hdr2lError, ParameterError, ParseError
from hdr2l.hpack import build_table, pack, serialize_table
from hdr2l.imagio import HdrImage
from hdr2l.rescodec import (
    MASK,
    PLANE_HEADER,
    RICE_BLOCK,
    RICE_ESCAPE_QUOTIENT,
    RICE_MAX_K,
    ZERO_BLOCK,
    apply_residual,
    code_plane,
    code_planes,
    color_transform_fwd,
    color_transform_inv,
    compute_residual,
    decode_plane,
    decode_planes,
    decode_residual,
    encode_residual,
    med_predict,
    split_residual_sections,
)


def _image(codes: np.ndarray) -> HdrImage:
    return HdrImage(np.asarray(codes, dtype=np.uint16))


# ---------------------------------------------------------------------------
# residual arithmetic


def test_compute_residual_perfect_prediction_is_zero(rng):
    codes = rng.integers(0, 0x7C00, size=(3, 4, 4)).astype(np.uint16)
    img = _image(codes)
    assert (compute_residual(img, img) == 0).all()


def test_compute_residual_wraps():
    h = _image(np.full((3, 1, 1), 0x0001, dtype=np.uint16))
    p = _image(np.full((3, 1, 1), 0x0002, dtype=np.uint16))
    assert (compute_residual(h, p) == 0xFFFF).all()


def test_residual_reconstruction_round_trip(rng):
    for _ in range(10):
        h = _image(rng.integers(0, 0x7C00, size=(3, 5, 7)).astype(np.uint16))
        p = _image(rng.integers(0, 0x7C00, size=(3, 5, 7)).astype(np.uint16))
        assert apply_residual(p, compute_residual(h, p)) == h


def test_compute_residual_dimension_mismatch():
    h = _image(np.zeros((3, 2, 2), dtype=np.uint16))
    p = _image(np.zeros((3, 2, 3), dtype=np.uint16))
    with pytest.raises(ParameterError):
        compute_residual(h, p)


# ---------------------------------------------------------------------------
# reversible color transform


def test_color_transform_examples():
    ones = np.ones((3, 1, 1), dtype=np.uint16)
    out = color_transform_fwd(ones)
    assert tuple(out[:, 0, 0]) == (1, 0, 0)
    zeros = np.zeros((3, 1, 1), dtype=np.uint16)
    assert (color_transform_fwd(zeros) == 0).all()


def test_color_transform_matches_flat_formula_when_wrap_free():
    # On wrap-free inputs (R, B >= G) the luma equals floor((R + 2G + B) / 4).
    r, g, b = 1000, 400, 700
    planes = np.array([[[r]], [[g]], [[b]]], dtype=np.uint16)
    y = color_transform_fwd(planes)[0, 0, 0]
    assert y == (r + 2 * g + b) // 4


def test_color_transform_inverse_identity_random(rng):
    triples = rng.integers(0, 65536, size=(3, 100, 100)).astype(np.uint16)
    assert np.array_equal(color_transform_inv(color_transform_fwd(triples)), triples)


def test_color_transform_inverse_identity_wrap_heavy():
    extremes = np.array([0, 1, 2, 32767, 32768, 65534, 65535], dtype=np.uint16)
    grid = np.stack(np.meshgrid(extremes, extremes, extremes, indexing="ij"))
    planes = grid.reshape(3, -1)[:, None, :]
    assert np.array_equal(color_transform_inv(color_transform_fwd(planes)), planes)


# ---------------------------------------------------------------------------
# plane coder
#
# Bit-at-a-time reference of the plane format: raster-order MED, a full
# search over k for every block, and one bit per step.  The codec must match
# it byte for byte and pixel for pixel.

B = RICE_BLOCK
E = RICE_ESCAPE_QUOTIENT


class _RefBitWriter:
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
        return bytes(self._chunks)


class _RefBitReader:
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

    def finish(self) -> None:
        """The stream must end in the byte of its last bit, padded with 0."""
        if len(self._data) != (self._pos + 7) >> 3:
            raise CorruptStreamError("trailing bytes after the stream")
        while self._pos & 7:
            if self.read1():
                raise CorruptStreamError("nonzero pad bit")


def _ref_symbols(plane: np.ndarray) -> list[int]:
    x = np.asarray(plane, dtype=np.int64)
    err = (x - med_predict(x)) & MASK
    return np.where(err < 32768, 2 * err, 2 * (65536 - err) - 1).ravel().tolist()


def _ref_length(u: int, k: int) -> int:
    q = u >> k
    return min(q, E) + 1 + (16 if q >= E else k)


def _ref_code_plane(plane: np.ndarray) -> bytes:
    symbols = _ref_symbols(plane)
    unary, remainder = _RefBitWriter(), _RefBitWriter()
    nibbles = []
    for start in range(0, len(symbols), B):
        block = symbols[start : start + B]
        if not any(block):
            nibbles.append(ZERO_BLOCK)
            continue
        k = min(range(RICE_MAX_K + 1), key=lambda k: (sum(_ref_length(u, k) for u in block), k))
        nibbles.append(k)
        for u in block:
            q = u >> k
            if q >= E:
                unary.write(1, E + 1)  # E zeros then the stop bit
                remainder.write(u, 16)
            else:
                unary.write(1, q + 1)
                remainder.write(u & ((1 << k) - 1), k)
    nibbles += [0] * (len(nibbles) % 2)
    table = bytes((hi << 4) | lo for hi, lo in zip(nibbles[0::2], nibbles[1::2]))
    unary_bytes = unary.getvalue()
    return len(unary_bytes).to_bytes(4, "little") + table + unary_bytes + remainder.getvalue()


def _ref_decode_plane(data: bytes, width: int, height: int) -> np.ndarray:
    count = width * height
    blocks = -(-count // B)
    table_end = 4 + (blocks + 1) // 2
    if len(data) < table_end:
        raise CorruptStreamError("payload cannot hold the k table")
    unary_len = int.from_bytes(data[:4], "little")
    nibbles = [n for byte in data[4:table_end] for n in (byte >> 4, byte & 0xF)]
    if any(nibbles[blocks:]):
        raise CorruptStreamError("nonzero pad nibble")
    if len(data) < table_end + unary_len:
        raise CorruptStreamError("truncated unary stream")
    unary = _RefBitReader(data[table_end : table_end + unary_len])
    remainder = _RefBitReader(data[table_end + unary_len :])
    errors = []
    for index, k in enumerate(nibbles[:blocks]):
        for _ in range(min(B, count - index * B)):
            u = 0
            if k != ZERO_BLOCK:
                q = 0
                while unary.read1() == 0:
                    q += 1
                    if q > E:
                        raise CorruptStreamError(f"run of more than {E} zeros")
                if q == E:
                    u = remainder.read(16)
                    if u >> k < E:
                        raise CorruptStreamError("escaped symbol below the escape")
                else:
                    u = (q << k) | remainder.read(k)
                    if u > MASK:
                        raise CorruptStreamError(f"decoded symbol {u} exceeds 16-bit range")
            errors.append((u >> 1) if (u & 1) == 0 else (65536 - ((u + 1) >> 1)))
    unary.finish()
    remainder.finish()
    out = [[0] * width for _ in range(height)]
    idx = 0
    for yrow in range(height):
        for xcol in range(width):
            a = out[yrow][xcol - 1] if xcol else 0
            b = out[yrow - 1][xcol] if yrow else 0
            c = out[yrow - 1][xcol - 1] if xcol and yrow else 0
            hi, lo = max(a, b), min(a, b)
            p = lo if c >= hi else hi if c <= lo else a + b - c
            out[yrow][xcol] = (p + errors[idx]) & MASK
            idx += 1
    return np.array(out, dtype=np.uint16)


def _row_of_symbols(symbols) -> np.ndarray:
    """A 1xN plane whose folded MED errors are ``symbols``: on the first row
    MED predicts the left neighbour."""
    u = np.asarray(symbols, dtype=np.int64)
    errors = np.where(u & 1, 65536 - ((u + 1) >> 1), u >> 1)
    return (np.cumsum(errors) & MASK).astype(np.uint16)[None, :]


def _reference_planes() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(77)
    checker = (np.indices((16, 16)).sum(axis=0) % 2).astype(np.uint16)
    spikes = np.zeros((24, 24), dtype=np.uint16)
    spikes[5, 7], spikes[17, 3], spikes[23, 23] = 3, 40000, 1
    sparse = rng.choice(np.arange(0, 65536, 256, dtype=np.uint16), size=(24, 24))
    mixed = np.zeros((16, 40), dtype=np.uint16)
    mixed[4:6] = rng.integers(0, 300, size=(2, 40))
    mixed[12, 17] = 9
    last_live = np.zeros((12, 12), dtype=np.uint16)  # 3 whole blocks
    last_live[11, 11] = 5  # the last sample in raster order
    return {
        "1x1": np.array([[40000]], dtype=np.uint16),
        "1xN": rng.integers(0, 65536, size=(1, 37)).astype(np.uint16),
        "Nx1": rng.integers(0, 65536, size=(29, 1)).astype(np.uint16),
        "zero": np.zeros((16, 16), dtype=np.uint16),  # every block ZERO_BLOCK
        "zero-with-spikes": spikes,
        "all-ffff": np.full((16, 16), 0xFFFF, dtype=np.uint16),
        "checker-0-ffff": checker * 0xFFFF,
        "checker-0-8000": checker * 0x8000,  # errors of 32768 fold to 65535
        "random": rng.integers(0, 65536, size=(21, 34)).astype(np.uint16),
        "random-tall": rng.integers(0, 65536, size=(40, 9)).astype(np.uint16),
        "small-errors": (1000 + np.cumsum(rng.integers(-3, 4, size=(20, 20)), axis=1)).astype(np.uint16),
        "hpack-sparse": pack(sparse, build_table(sparse)),
        "refinement-lsb": rng.integers(0, 16, size=(19, 26)).astype(np.uint16),
        "refinement-lsb-smooth": (np.indices((30, 30)).sum(axis=0) // 7 % 16).astype(np.uint16),
        "mixed-zero-blocks": mixed,
        "short-last-block": rng.integers(0, 50, size=(2 * B + 7, 1)).astype(np.uint16),
        # One E among zeros: k = 0 and q = E, the least escaped quotient; E - 1
        # is the largest q that is not escaped.
        "escape-at-E": _row_of_symbols([0] * 9 + [E] + [0] * (B - 10) + [E - 1] + [0] * (B - 1)),
        "k-14": _row_of_symbols((3 << 14) + rng.integers(0, 1 << 14, size=70)),
        # Live and zero blocks at the plane's block boundaries.
        "live-short-last-block": _row_of_symbols([0] * (2 * B) + [0, 3, 0, 0, 1]),
        "zero-short-last-block": _row_of_symbols(list(rng.integers(1, 90, size=2 * B)) + [0] * 5),
        "one-live-block": _row_of_symbols([0] * (2 * B - 1) + [2] + [0] * B),
        "last-whole-block-live": last_live,
        # Every sample wraps the running sum that reconstructs a 1xN stack.
        "1xN-wrap-heavy": rng.choice(np.array([0, 1, 0x7FFF, 0x8000, 0xFFFE, 0xFFFF], dtype=np.uint16),
                                     size=(1, 3 * B + 5)),
    }


@pytest.mark.parametrize("name,plane", _reference_planes().items())
def test_plane_coder_matches_reference(name, plane):
    height, width = plane.shape
    payload = code_planes(plane[None])[0]
    assert payload == _ref_code_plane(plane)
    decoded = decode_planes([payload], width, height)[0]
    assert decoded.dtype == np.uint16
    assert np.array_equal(decoded, plane)
    assert np.array_equal(_ref_decode_plane(payload, width, height), plane)
    # A payload has one length: trailing bytes are rejected.
    for decoder in (decode_plane, _ref_decode_plane):
        with pytest.raises(CorruptStreamError):
            decoder(payload + b"\x00", width, height)


def _k_table(payload: bytes, count: int) -> list[int]:
    """The k-table nibbles of a payload of ``count`` symbols."""
    blocks = -(-count // B)
    return [n for byte in payload[4 : 4 + (blocks + 1) // 2] for n in (byte >> 4, byte & 0xF)][:blocks]


def test_reference_planes_reach_the_format_corners():
    def k_table(name):
        plane = _reference_planes()[name]
        return _k_table(code_planes(plane[None])[0], plane.size)

    assert k_table("zero") == [ZERO_BLOCK] * -(-256 // B)
    assert ZERO_BLOCK in k_table("mixed-zero-blocks") and min(k_table("mixed-zero-blocks")) < ZERO_BLOCK
    assert _reference_planes()["short-last-block"].size % B == 7
    assert k_table("escape-at-E") == [0, 0]
    assert set(k_table("k-14")) == {RICE_MAX_K}
    def zero_blocks(name):
        return [n == ZERO_BLOCK for n in k_table(name)]

    assert zero_blocks("live-short-last-block") == [True, True, False]
    assert zero_blocks("zero-short-last-block") == [False, False, True]
    assert zero_blocks("one-live-block") == [True, False, True]
    assert zero_blocks("last-whole-block-live") == [True, True, False]
    assert _reference_planes()["last-whole-block-live"].size == 3 * B


@pytest.mark.parametrize(
    "name",
    ["zero", "random", "mixed-zero-blocks", "live-short-last-block", "zero-short-last-block",
     "one-live-block", "last-whole-block-live"],
)
def test_block_search_sees_only_live_blocks(monkeypatch, name):
    """The k search gets the symbols of the blocks that hold a nonzero
    symbol, in order, a live short last block at its own length."""
    seen = []
    search = rescodec._block_parameters

    def spy(u):
        seen.append(u.copy())
        return search(u)

    monkeypatch.setattr(rescodec, "_block_parameters", spy)
    plane = _reference_planes()[name]
    code_plane(plane - med_predict(plane))
    symbols = np.array(_ref_symbols(plane), dtype=np.uint16)
    live = [symbols[i : i + B] for i in range(0, symbols.size, B) if symbols[i : i + B].any()]
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.concatenate(live) if live else symbols[:0])


def test_code_plane_all_zero_plane_is_header_and_k_table():
    # Blocks of zero symbols are ZERO_BLOCK and put no bits in either stream.
    payload = code_plane(np.zeros((8, 8), dtype=np.uint16))
    assert payload == _payload([ZERO_BLOCK] * -(-64 // B), "", "")
    assert len(payload) == 4 + (-(-64 // B) + 1) // 2
    assert np.array_equal(decode_plane(payload, 8, 8), np.zeros((8, 8)))


@pytest.mark.parametrize("name", ["1x1", "small-errors", "checker-0-8000"])
def test_decode_plane_truncations_raise_only_corrupt_stream(name):
    plane = _reference_planes()[name][:8, :8]
    height, width = plane.shape
    payload = code_planes(plane[None])[0]
    for cut in range(len(payload)):
        with pytest.raises(CorruptStreamError):
            decode_plane(payload[:cut], width, height)
        with pytest.raises(CorruptStreamError):
            _ref_decode_plane(payload[:cut], width, height)


def _payload(k_nibbles: list[int], unary_bits: str, remainder_bits: str) -> bytes:
    """A plane payload from its k table and the bits of its two streams,
    each zero-padded to a byte."""
    def pad(bits):
        bits += "0" * (-len(bits) % 8)
        return int(bits or "0", 2).to_bytes(len(bits) // 8, "big")

    nibbles = k_nibbles + [0] * (len(k_nibbles) % 2)
    table = bytes((hi << 4) | lo for hi, lo in zip(nibbles[0::2], nibbles[1::2]))
    unary = pad(unary_bits)
    return len(unary).to_bytes(4, "little") + table + unary + pad(remainder_bits)


def test_payload_builder_matches_codec():
    # Under k = 0, u = 8 is escaped: E zeros, the stop bit, then 16 bits of u.
    plane = _row_of_symbols([8] + [0] * (B - 1))
    assert code_planes(plane[None])[0] == _payload([0], "0" * E + "1" * B, f"{8:016b}")


_MALFORMED_PAYLOADS = [
    ("zero-run-above-E", _payload([0], "0" * (E + 1) + "1", ""), 1, f"more than {E} zeros"),
    ("escape-below-E", _payload([0], "0" * E + "1", f"{E - 1:016b}"), 1, "below the escape"),
    ("pad-nibble", _payload([0, 1], "1", ""), 1, "pad nibble"),
    ("unary-pad-bit", _payload([0], "11", ""), 1, "pad bits after the unary"),
    ("unary-extra-byte", _payload([0], "1" + "0" * 8, ""), 1, "last stop bit is sooner"),
    ("missing-stop-bits", _payload([0], "1" + "0" * 7, ""), 2, "stop bits for 2 symbols"),
    ("remainder-pad-bit", _payload([1], "1", "01"), 1, "pad bits after the remainder"),
    ("remainder-extra-byte", _payload([1], "1", "0" * 9), 1, "fields imply"),
    ("remainder-short", _payload([4], "1", ""), 1, "fields imply"),
]


@pytest.mark.parametrize(
    "name,payload,width,match", _MALFORMED_PAYLOADS, ids=[case[0] for case in _MALFORMED_PAYLOADS]
)
def test_decode_plane_rejects_malformed_payloads(name, payload, width, match):
    with pytest.raises(CorruptStreamError, match=match):
        decode_plane(payload, width, 1)
    with pytest.raises(CorruptStreamError):
        _ref_decode_plane(payload, width, 1)


def test_decode_plane_rejects_symbol_above_16_bits():
    # q = 4 under k = 14 gives u = 1 << 16, the smallest symbol no plane holds.
    payload = _payload([14], "00001", "0" * 14)
    for decoder in (decode_plane, _ref_decode_plane):
        with pytest.raises(CorruptStreamError, match="exceeds 16-bit range"):
            decoder(payload, 1, 1)


@pytest.mark.parametrize("seed", range(3))
def test_pack_fields_read_back_through_byte_windows(seed):
    """The codec's only bit writer and its only window builder agree: every
    field comes back from the window of its byte, and each window is the
    big-endian 32 bits from its byte, zero-filled past the end."""
    rng = np.random.default_rng(seed)
    widths = np.concatenate([rng.permutation(np.repeat(np.arange(17), 25)), np.ones(53, dtype=np.int64)])
    values = rng.integers(0, 1 << 16, size=widths.size) & ((1 << widths) - 1)
    data = rescodec._pack_fields(values.astype(np.uint16), widths.astype(np.uint8))
    nbits = int(widths.sum())
    assert len(data) == (nbits + 7) // 8
    assert int.from_bytes(data, "big") & ((1 << (-nbits % 8)) - 1) == 0  # zero pad bits
    windows = rescodec._byte_windows(data)
    assert windows.dtype == np.uint32 and windows.dtype.isnative
    padded = data + bytes(4)
    assert windows.tolist() == [int.from_bytes(padded[i : i + 4], "big") for i in range(len(data) + 1)]
    words = windows.tolist()
    start = 0
    for width, value in zip(widths.tolist(), values.tolist()):
        assert words[start >> 3] >> (32 - (start & 7) - width) & ((1 << width) - 1) == value
        start += width


def _remainder_bits(plane: np.ndarray) -> int:
    """The bit length of the remainder stream of ``plane``'s payload: k bits
    per symbol of a coded block, 16 per escaped one."""
    ks = _k_table(code_planes(plane[None])[0], plane.size)
    symbols = _ref_symbols(plane)
    return sum(16 if u >> k >= E else k for i, u in enumerate(symbols) if (k := ks[i // B]) != ZERO_BLOCK)


def _assert_decoders_agree(plane: np.ndarray) -> None:
    height, width = plane.shape
    payload = code_planes(plane[None])[0]
    assert np.array_equal(decode_plane(payload, width, height), plane - med_predict(plane))
    assert np.array_equal(_ref_decode_plane(payload, width, height), plane)


@pytest.mark.parametrize("escape_last", [False, True])
@pytest.mark.parametrize("phase", range(8))
def test_decode_plane_at_each_end_phase_of_the_remainder_stream(phase, escape_last):
    """The remainder stream ends at each bit phase of its last byte, so the
    last fields are read from the windows that run into the zero fill."""
    # u = 3 takes k = 1, one remainder bit a symbol; 300 is escaped under k = 1.
    plane = _row_of_symbols([3] * (B + 8 + phase) + [300] * escape_last)
    assert _k_table(code_planes(plane[None])[0], plane.size) == [1, 1]
    assert _remainder_bits(plane) % 8 == phase
    _assert_decoders_agree(plane)


def test_decode_plane_with_an_empty_remainder_stream():
    # Symbols of 0 and 1 take k = 0 and are never escaped, so no block puts
    # a bit in the remainder stream: the payload ends with the unary stream.
    plane = _row_of_symbols([0, 1, 1, 0] * (B // 4) + [0] * B + [1, 0, 1])
    payload = code_planes(plane[None])[0]
    assert _k_table(payload, plane.size) == [0, ZERO_BLOCK, 0]
    assert _remainder_bits(plane) == 0
    assert len(payload) == 4 + 2 + int.from_bytes(payload[:4], "little")
    _assert_decoders_agree(plane)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_plane_rejects_size_the_payload_cannot_hold_before_allocating():
    def short_table():
        with pytest.raises(CorruptStreamError, match="cannot hold the k table"):
            decode_plane(b"\xff", 4096, 4096)

    assert _peak_bytes(short_table) < 1 << 20
    # A complete k table of coded blocks needs a stop bit per symbol: an
    # empty unary stream cannot hold 4096 x 4096 of them.
    payload = bytes(4 + (-(-4096 * 4096 // B) + 1) // 2)

    def short_unary():
        with pytest.raises(CorruptStreamError, match="unary stream cannot hold"):
            decode_plane(payload, 4096, 4096)

    assert _peak_bytes(short_unary) < 1 << 20

    # A stack decodes every payload before anything of the stack's size exists.
    def short_stack():
        with pytest.raises(CorruptStreamError, match="cannot hold the k table"):
            decode_planes([b"\xff"] * 3, 4096, 4096)

    assert _peak_bytes(short_stack) < 1 << 20


def test_med_predictor_branches():
    # a=left, b=above, c=above-left; build a plane that exercises a=1, b=2, c=0.
    plane = np.array([[0, 2], [1, 9]], dtype=np.uint16)
    pred = med_predict(plane)
    assert pred[1, 1] == 2  # c <= min(a, b) -> max(a, b)
    plane2 = np.array([[9, 2], [1, 0]], dtype=np.uint16)
    assert med_predict(plane2)[1, 1] == 1  # c >= max(a, b) -> min(a, b)
    plane3 = np.array([[2, 3], [1, 0]], dtype=np.uint16)
    assert med_predict(plane3)[1, 1] == 1 + 3 - 2  # otherwise a + b - c


# MED inversion of a stack.  The per-plane int32 wavefront below is the
# oracle that the uint16 stack wavefront of ``decode_planes`` must match.


def _med_reconstruct(errors: np.ndarray) -> np.ndarray:
    """Invert MED prediction on one plane in int32:
    x = (MED(left, above, above-left) + e) mod 2^16, one anti-diagonal at a
    time in a skewed array, ``skew[d + 2, i + 1] = x[i, d - i]``; a tall
    plane is reconstructed transposed."""
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
    plane[...] = errors
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


def _stack_errors(kind: str, planes: int, shape: tuple[int, int]) -> np.ndarray:
    """A (planes, h, w) stack of MED errors mod 2^16; the planes differ, so a
    mix-up of planes shows."""
    rng = np.random.default_rng(2024)
    checker = np.indices((planes,) + shape).sum(axis=0) % 2
    if kind == "random":
        return rng.integers(0, 65536, size=(planes,) + shape).astype(np.uint16)
    if kind == "checker-0-ffff":
        return (checker * 0xFFFF).astype(np.uint16)
    if kind == "checker-0-8000":
        return (checker * 0x8000).astype(np.uint16)
    spikes = np.zeros((planes,) + shape, dtype=np.uint16)
    at = rng.random(spikes.shape) < 0.03
    spikes[at] = rng.integers(1, 65536, size=int(at.sum()))
    spikes.reshape(planes, -1)[:, -1] = 0xFFFF  # at least one spike per plane
    return spikes


@pytest.mark.parametrize("kind", ["random", "checker-0-ffff", "checker-0-8000", "spikes"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 300), (300, 1), (7, 300), (300, 7), (48, 48)])
@pytest.mark.parametrize("planes", [1, 3])
def test_plane_stack_matches_per_plane_oracle(planes, shape, kind):
    height, width = shape
    errors = _stack_errors(kind, planes, shape)
    stack = np.stack([_med_reconstruct(plane) for plane in errors])
    payloads = code_planes(stack)
    assert len(payloads) == planes
    for payload, plane_errors in zip(payloads, errors):
        assert np.array_equal(decode_plane(payload, width, height), plane_errors)
    decoded = decode_planes(payloads, width, height)
    assert decoded.dtype == np.uint16
    assert decoded.shape == (planes, height, width)
    assert np.array_equal(decoded, stack)


def test_med_clip_form_matches_median_mod_2_16(rng):
    # MED(a, b, c) = a + b - clip(c, min(a, b), max(a, b)), taken in uint16,
    # equals median(a, b, a + b - c) taken over the integers.
    values = np.concatenate([np.arange(16), [32767, 32768, 32769, 65533, 65534, 65535]])
    grid = np.stack(np.meshgrid(values, values, values, indexing="ij")).reshape(3, -1)
    for a, b, c in (grid, rng.integers(0, 65536, size=(3, 200_000))):
        exact = np.median(np.stack([a, b, a + b - c]).astype(np.int64), axis=0).astype(np.int64)
        a16, b16, c16 = (v.astype(np.uint16) for v in (a, b, c))
        clip = np.minimum(np.maximum(c16, np.minimum(a16, b16)), np.maximum(a16, b16))
        assert np.array_equal(a16 + b16 - clip, exact.astype(np.uint16))
        assert ((exact >= 0) & (exact <= MASK)).all()


def test_code_plane_round_trip_random(rng):
    for shape in ((1, 1), (1, 17), (9, 1), (13, 11), (32, 32)):
        plane = rng.integers(0, 65536, size=shape).astype(np.uint16)
        assert np.array_equal(decode_planes(code_planes(plane[None]), shape[1], shape[0])[0], plane)


def test_code_plane_round_trip_adversarial():
    checker = np.indices((16, 16)).sum(axis=0) % 2
    cases = [
        np.full((16, 16), 65535, dtype=np.uint16),
        (checker * 65535).astype(np.uint16),
        (checker * 40000 + 1).astype(np.uint16),  # forces escape codes
        np.arange(256, dtype=np.uint16).reshape(16, 16),
    ]
    for plane in cases:
        assert np.array_equal(decode_planes(code_planes(plane[None]), 16, 16)[0], plane)


def test_code_plane_round_trip_sparse_packed(rng):
    raw = rng.choice(np.arange(0, 65536, 256, dtype=np.uint16), size=(24, 24))
    table = build_table(raw)
    packed = pack(raw, table)
    assert np.array_equal(decode_planes(code_planes(packed[None]), 24, 24)[0], packed)


def test_decode_plane_truncation_raises():
    plane = np.arange(64, dtype=np.uint16).reshape(8, 8) * 977
    payload = code_planes(plane[None])[0]
    with pytest.raises(CorruptStreamError):
        decode_plane(payload[: len(payload) // 2], 8, 8)


# ---------------------------------------------------------------------------
# residual bitstream


def test_encode_residual_zero_plane_packs_to_near_empty():
    zeros = np.zeros((3, 8, 8), dtype=np.uint16)
    packed = encode_residual(zeros, use_packing=True)
    sections = split_residual_sections(packed)
    table_bytes = len(serialize_table(build_table(np.zeros(1, dtype=np.uint16))))
    assert [s.table_bytes for s in sections] == [table_bytes] * 3
    assert sum(len(s.payload) for s in sections) < 40
    assert np.array_equal(decode_residual(packed, 8, 8), zeros)


def test_residual_lossless_both_modes(rng):
    raw = rng.integers(0, 65536, size=(3, 12, 10)).astype(np.uint16)
    for use_packing in (True, False):
        data = encode_residual(raw, use_packing)
        assert np.array_equal(decode_residual(data, 10, 12), raw)


def test_packing_shrinks_sparse_payload(rng):
    sparse = rng.choice(np.arange(0, 65536, 256, dtype=np.uint16), size=(3, 64, 64))
    packed = split_residual_sections(encode_residual(sparse, True))
    unpacked = split_residual_sections(encode_residual(sparse, False))
    assert sum(len(s.payload) for s in packed) < sum(len(s.payload) for s in unpacked)
    assert all(s.table is None and s.table_bytes == 0 for s in unpacked)


def test_decode_residual_errors(rng):
    raw = rng.integers(0, 65536, size=(3, 6, 6)).astype(np.uint16)
    data = encode_residual(raw, True)
    with pytest.raises(CorruptStreamError):
        decode_residual(data[:-3], 6, 6)
    with pytest.raises(CorruptStreamError):
        decode_residual(data + b"\x00", 6, 6)
    bad_header = bytearray(data)
    bad_header[0] ^= 0xFF  # corrupt the table count
    with pytest.raises(Hdr2lError):
        decode_residual(bytes(bad_header), 6, 6)
    bad_header[0:4] = (65537).to_bytes(4, "little")
    with pytest.raises(ParseError, match="count 65537 out of range"):
        decode_residual(bytes(bad_header), 6, 6)


def test_residual_block_mixing_packed_and_unpacked_planes_decodes(rng):
    """K alone says whether a plane is packed, so every mix of packed and
    unpacked planes in one block decodes exactly."""
    raw = rng.choice(np.arange(0, 65536, 97, dtype=np.uint16), size=(3, 9, 11))
    planes = color_transform_fwd(raw)
    for mix in itertools.product((False, True), repeat=3):
        tables = [build_table(plane) if packed else None for plane, packed in zip(planes, mix)]
        payloads = code_planes([pack(plane, t) if t else plane for plane, t in zip(planes, tables)])
        data = b"".join(
            PLANE_HEADER.pack(t.count if t else 0, len(payload)) + (serialize_table(t) if t else b"") + payload
            for t, payload in zip(tables, payloads)
        )
        sections = split_residual_sections(data)
        assert [s.table is not None for s in sections] == list(mix)
        assert np.array_equal(decode_residual(data, 11, 9), raw), mix
