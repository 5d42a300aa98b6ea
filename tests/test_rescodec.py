from __future__ import annotations

import numpy as np
import pytest

from hdr2l.errors import CorruptStreamError, ParameterError
from hdr2l.hpack import build_table, pack, serialize_table
from hdr2l.imagio import HdrImage
from hdr2l.rescodec import (
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
    with pytest.raises((CorruptStreamError, Exception)):
        decode_residual(bytes(bad_header), 6, 6)
