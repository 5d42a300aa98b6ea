from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from hdr2l import rescodec
from hdr2l.errors import CorruptStreamError, Hdr2lError, ParameterError
from hdr2l.hpack import build_table, pack, serialize_table
from hdr2l.imagio import HdrImage
from hdr2l.rescodec import (
    MASK,
    RICE_ESCAPE_QUOTIENT,
    RICE_RESET_COUNT,
    apply_residual,
    code_plane,
    color_transform_fwd,
    color_transform_inv,
    compute_residual,
    decode_plane,
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
# Bit-at-a-time reference of the plane format: raster-order MED, one Rice
# parameter search and one bit per step.  The codec must match it byte for
# byte and pixel for pixel.


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


def _ref_code_plane(plane: np.ndarray) -> bytes:
    x = np.asarray(plane, dtype=np.int64)
    err = (x - med_predict(x)) & MASK
    folded = np.where(err < 32768, 2 * err, 2 * (65536 - err) - 1).ravel().tolist()
    writer = _RefBitWriter()
    a_sum, n = 4, 1
    for u in folded:
        k = 0
        while (n << k) < a_sum:
            k += 1
        q = u >> k
        if q >= RICE_ESCAPE_QUOTIENT:
            writer.write(0, RICE_ESCAPE_QUOTIENT)
            writer.write(u, 16)
        else:
            writer.write(1, q + 1)  # q zeros then a terminating one
            writer.write(u & ((1 << k) - 1), k)
        a_sum += u
        n += 1
        if n == RICE_RESET_COUNT:
            a_sum >>= 1
            n >>= 1
    return writer.getvalue()


def _ref_decode_plane(data: bytes, width: int, height: int) -> np.ndarray:
    reader = _RefBitReader(data)
    a_sum, n = 4, 1
    errors = []
    for _ in range(width * height):
        k = 0
        while (n << k) < a_sum:
            k += 1
        q = 0
        while q < RICE_ESCAPE_QUOTIENT and reader.read1() == 0:
            q += 1
        if q == RICE_ESCAPE_QUOTIENT:
            u = reader.read(16)
        else:
            u = (q << k) | reader.read(k)
            if u > MASK:
                raise CorruptStreamError(f"decoded symbol {u} exceeds 16-bit range")
        errors.append((u >> 1) if (u & 1) == 0 else (65536 - ((u + 1) >> 1)))
        a_sum += u
        n += 1
        if n == RICE_RESET_COUNT:
            a_sum >>= 1
            n >>= 1
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


def _reference_planes() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(77)
    checker = (np.indices((16, 16)).sum(axis=0) % 2).astype(np.uint16)
    spikes = np.zeros((24, 24), dtype=np.uint16)
    spikes[5, 7], spikes[17, 3], spikes[23, 23] = 3, 40000, 1
    sparse = rng.choice(np.arange(0, 65536, 256, dtype=np.uint16), size=(24, 24))
    return {
        "1x1": np.array([[40000]], dtype=np.uint16),
        "1xN": rng.integers(0, 65536, size=(1, 37)).astype(np.uint16),
        "Nx1": rng.integers(0, 65536, size=(29, 1)).astype(np.uint16),
        # 256 zero symbols halve A three times, 4 -> 2 -> 1 -> 0.
        "zero": np.zeros((16, 16), dtype=np.uint16),
        "zero-with-spikes": spikes,
        "all-ffff": np.full((16, 16), 0xFFFF, dtype=np.uint16),
        "checker-0-ffff": checker * 0xFFFF,
        # Errors of 32768 fold to 65535 and drive k to its largest, 16.
        "checker-0-8000": checker * 0x8000,
        "random": rng.integers(0, 65536, size=(21, 34)).astype(np.uint16),
        "random-tall": rng.integers(0, 65536, size=(40, 9)).astype(np.uint16),
        "small-errors": (1000 + np.cumsum(rng.integers(-3, 4, size=(20, 20)), axis=1)).astype(np.uint16),
        "hpack-sparse": pack(sparse, build_table(sparse)),
        "refinement-lsb": rng.integers(0, 16, size=(19, 26)).astype(np.uint16),
        "refinement-lsb-smooth": (np.indices((30, 30)).sum(axis=0) // 7 % 16).astype(np.uint16),
    }


@pytest.mark.parametrize("name,plane", _reference_planes().items())
def test_plane_coder_matches_reference(name, plane):
    height, width = plane.shape
    payload = code_plane(plane)
    assert payload == _ref_code_plane(plane)
    decoded = decode_plane(payload, width, height)
    assert decoded.dtype == np.uint16
    assert np.array_equal(decoded, plane)
    assert np.array_equal(_ref_decode_plane(payload, width, height), plane)
    # Bits after the last symbol are ignored.
    assert np.array_equal(decode_plane(payload + b"\xff\x00\xff", width, height), plane)


def test_rice_reader_crosses_window_chunks(monkeypatch):
    monkeypatch.setattr(rescodec, "_WINDOW_CHUNK", 3)
    for plane in _reference_planes().values():
        height, width = plane.shape
        assert np.array_equal(decode_plane(code_plane(plane), width, height), plane)


@pytest.mark.parametrize("name", ["1x1", "small-errors", "checker-0-8000"])
def test_decode_plane_truncations_raise_only_corrupt_stream(name):
    plane = _reference_planes()[name][:8, :8]
    height, width = plane.shape
    payload = code_plane(plane)
    for cut in range(len(payload)):
        with pytest.raises(CorruptStreamError):
            decode_plane(payload[:cut], width, height)
        with pytest.raises(CorruptStreamError):
            _ref_decode_plane(payload[:cut], width, height)


def test_decode_plane_rejects_symbol_above_16_bits():
    # An escaped 65535 lifts k to 16; then one zero, the stop bit and 16 zero
    # bits give u = 1 << 16, the smallest symbol no plane can hold.
    bits = "0" * 24 + "1" * 16 + "01" + "0" * 16 + "0" * 6
    payload = int(bits, 2).to_bytes(len(bits) // 8, "big")
    for decoder in (decode_plane, _ref_decode_plane):
        with pytest.raises(CorruptStreamError, match="exceeds 16-bit range"):
            decoder(payload, 2, 1)


def test_decode_plane_rejects_size_the_payload_cannot_hold_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match="cannot hold"):
            decode_plane(b"\xff", 4096, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # The bound is one bit per symbol: eight symbols in one byte get as far
    # as the Rice reader.
    with pytest.raises(CorruptStreamError, match="exhausted"):
        decode_plane(b"\xff", 8, 1)


def test_med_predictor_branches():
    # a=left, b=above, c=above-left; build a plane that exercises a=1, b=2, c=0.
    plane = np.array([[0, 2], [1, 9]], dtype=np.uint16)
    pred = med_predict(plane)
    assert pred[1, 1] == 2  # c <= min(a, b) -> max(a, b)
    plane2 = np.array([[9, 2], [1, 0]], dtype=np.uint16)
    assert med_predict(plane2)[1, 1] == 1  # c >= max(a, b) -> min(a, b)
    plane3 = np.array([[2, 3], [1, 0]], dtype=np.uint16)
    assert med_predict(plane3)[1, 1] == 1 + 3 - 2  # otherwise a + b - c


def test_code_plane_all_zero_length_matches_adaptation_oracle():
    # Simulate the pinned adaptation rule independently to count bits.
    bits = 0
    a_sum, n = 4, 1
    for _ in range(64):
        k = 0
        while (n << k) < a_sum:
            k += 1
        bits += 1 + k  # zero quotient: one stop bit plus k remainder bits
        n += 1
        if n == 64:
            a_sum >>= 1
            n >>= 1
    payload = code_plane(np.zeros((8, 8), dtype=np.uint16))
    assert len(payload) == (bits + 7) // 8
    assert np.array_equal(decode_plane(payload, 8, 8), np.zeros((8, 8)))


def test_code_plane_round_trip_random(rng):
    for shape in ((1, 1), (1, 17), (9, 1), (13, 11), (32, 32)):
        plane = rng.integers(0, 65536, size=shape).astype(np.uint16)
        assert np.array_equal(decode_plane(code_plane(plane), shape[1], shape[0]), plane)


def test_code_plane_round_trip_adversarial():
    checker = np.indices((16, 16)).sum(axis=0) % 2
    cases = [
        np.full((16, 16), 65535, dtype=np.uint16),
        (checker * 65535).astype(np.uint16),
        (checker * 40000 + 1).astype(np.uint16),  # forces escape codes
        np.arange(256, dtype=np.uint16).reshape(16, 16),
    ]
    for plane in cases:
        assert np.array_equal(decode_plane(code_plane(plane), 16, 16), plane)


def test_code_plane_round_trip_sparse_packed(rng):
    raw = rng.choice(np.arange(0, 65536, 256, dtype=np.uint16), size=(24, 24))
    table = build_table(raw)
    packed = pack(raw, table)
    assert np.array_equal(decode_plane(code_plane(packed), 24, 24), packed)


def test_decode_plane_truncation_raises():
    plane = np.arange(64, dtype=np.uint16).reshape(8, 8) * 977
    payload = code_plane(plane)
    with pytest.raises(CorruptStreamError):
        decode_plane(payload[: len(payload) // 2], 8, 8)


# ---------------------------------------------------------------------------
# residual bitstream


def test_encode_residual_zero_plane_packs_to_near_empty():
    zeros = np.zeros((3, 8, 8), dtype=np.uint16)
    packed = encode_residual(zeros, use_packing=True)
    sections = split_residual_sections(packed, True)
    table_bytes = len(serialize_table(build_table(np.zeros(1, dtype=np.uint16))))
    assert [s.table_bytes for s in sections] == [table_bytes] * 3
    assert sum(len(s.payload) for s in sections) < 40
    assert np.array_equal(decode_residual(packed, 8, 8, True), zeros)


def test_residual_lossless_both_modes(rng):
    raw = rng.integers(0, 65536, size=(3, 12, 10)).astype(np.uint16)
    for use_packing in (True, False):
        data = encode_residual(raw, use_packing)
        assert np.array_equal(decode_residual(data, 10, 12, use_packing), raw)


def test_packing_shrinks_sparse_payload(rng):
    sparse = rng.choice(np.arange(0, 65536, 256, dtype=np.uint16), size=(3, 64, 64))
    packed = split_residual_sections(encode_residual(sparse, True), True)
    unpacked = split_residual_sections(encode_residual(sparse, False), False)
    assert sum(len(s.payload) for s in packed) < sum(len(s.payload) for s in unpacked)
    assert all(s.table is None and s.table_bytes == 0 for s in unpacked)


def test_decode_residual_errors(rng):
    raw = rng.integers(0, 65536, size=(3, 6, 6)).astype(np.uint16)
    data = encode_residual(raw, True)
    with pytest.raises(CorruptStreamError):
        decode_residual(data[:-3], 6, 6, True)
    with pytest.raises(CorruptStreamError):
        decode_residual(data + b"\x00", 6, 6, True)
    bad_header = bytearray(data)
    bad_header[0] ^= 0xFF  # corrupt the table count
    with pytest.raises(Hdr2lError):
        decode_residual(bytes(bad_header), 6, 6, True)


def test_residual_sections_must_agree_with_packing(rng):
    raw = rng.integers(0, 65536, size=(3, 6, 6)).astype(np.uint16)
    for use_packing in (True, False):
        data = encode_residual(raw, use_packing)
        with pytest.raises(CorruptStreamError, match="pack-table count"):
            split_residual_sections(data, not use_packing)
        with pytest.raises(CorruptStreamError, match="pack-table count"):
            decode_residual(data, 6, 6, not use_packing)
