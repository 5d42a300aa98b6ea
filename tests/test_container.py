from __future__ import annotations

import zlib

import numpy as np
import pytest

from hdr2l import basejpeg, tmo
from hdr2l.container import (
    CodecParams,
    CoderMode,
    decode,
    encode,
    extract_ldr,
    measure,
)
from hdr2l.errors import CorruptStreamError, FormatError, IntegrityError, ParameterError, ParseError
from hdr2l.imagio import HdrImage, luminance
from conftest import sparse_hdr_image, smooth_hdr_image


PIXEL_CRC_OFFSET = 17  # after magic, five header bytes, width and height


def _params(mode=CoderMode.HP, kind=tmo.TmoKind.DEFAULT, q=80, refine=0):
    return CodecParams(mode=mode, tmo=tmo.TmoParams(kind=kind), q=q, refine_bits=refine)


def test_single_black_pixel_round_trip():
    img = HdrImage(np.zeros((3, 1, 1), dtype=np.uint16))
    stream = encode(img, _params())
    assert decode(stream) == img


def test_hp_mode_rejects_refinement():
    with pytest.raises(ParameterError):
        CodecParams(mode=CoderMode.HP, tmo=tmo.TmoParams(kind=tmo.TmoKind.DEFAULT), refine_bits=4)


def _edited(stream: bytes, offset: int, value: bytes) -> bytes:
    """``stream`` with ``value`` written at ``offset`` and the CRC recomputed."""
    out = bytearray(stream)
    out[offset : offset + len(value)] = value
    out[-4:] = zlib.crc32(out[:-4]).to_bytes(4, "little")
    return bytes(out)


def test_reserved_header_byte_must_be_zero():
    stream = encode(sparse_hdr_image(8, 8), _params(mode=CoderMode.XT))
    bad = _edited(stream, 8, bytes([1]))  # the byte after the refinement bits R
    for reader in (decode, measure, extract_ldr):
        with pytest.raises(FormatError, match="reserved"):
            reader(bad)


def test_zero_log_average_refused_by_every_reader():
    # Unbound statistics made decode fail only at the prediction, after the
    # base layer was decoded, while measure and extract_ldr accepted them.
    stream = encode(sparse_hdr_image(8, 8), _params())
    bad = _edited(stream, PIXEL_CRC_OFFSET + 4 + 49, bytes(8))  # log_avg = 0.0
    for reader in (decode, measure, extract_ldr):
        with pytest.raises(ParseError, match="log-average"):
            reader(bad)


def test_header_fields_checked_as_codec_params():
    stream = encode(sparse_hdr_image(8, 8), _params(mode=CoderMode.XT, refine=4))
    # byte 5 mode, 6 quality, 7 refinement bits
    for offset, value in ((5, 7), (6, 0), (6, 101), (7, 3)):
        with pytest.raises(FormatError, match="invalid header"):
            measure(_edited(stream, offset, bytes([value])))
    with pytest.raises(FormatError, match="HP"):
        decode(_edited(stream, 5, bytes([int(CoderMode.HP)])))
    with pytest.raises(FormatError, match="empty image"):
        measure(_edited(stream, 9, bytes(4)))  # width 0


def test_frame_size_must_match_container_size():
    stream = encode(sparse_hdr_image(12, 10), _params())
    for width, height in ((13, 10), (12, 9), (1, 120), (60000, 60000)):
        bad = _edited(stream, 9, width.to_bytes(4, "little") + height.to_bytes(4, "little"))
        with pytest.raises(ParseError, match=f"encode_base writes for q=80 at {width}x{height}"):
            decode(bad)


def test_quality_byte_must_match_base_quant_tables():
    stream = encode(sparse_hdr_image(8, 8), _params(q=100))
    for q in (7, 99):
        with pytest.raises(ParseError, match=f"encode_base writes for q={q} at 8x8"):
            decode(_edited(stream, 6, bytes([q])))


def test_bytes_after_the_base_layer_eoi_rejected():
    stream = encode(smooth_hdr_image(24, 24), _params())
    jpeg = extract_ldr(stream)
    at = stream.index(jpeg)
    out = bytearray(stream[: at - 4])
    out += (len(jpeg) + 8).to_bytes(4, "little") + jpeg + bytes(8) + stream[at + len(jpeg) : -4]
    out += zlib.crc32(out).to_bytes(4, "little")
    for reader in (decode, measure, extract_ldr):
        with pytest.raises(ParseError, match="8 bytes after the EOI marker"):
            reader(bytes(out))


@pytest.mark.parametrize("size", [65536, 0xFFFFFFFF])
def test_sizes_beyond_a_jpeg_frame_rejected(size):
    stream = encode(sparse_hdr_image(8, 8), _params())
    for offset in (9, 13):  # width, height
        bad = _edited(stream, offset, size.to_bytes(4, "little"))
        for reader in (decode, measure, extract_ldr):
            with pytest.raises(FormatError, match="65535"):
                reader(bad)


def test_mode_byte_must_match_residual_packing():
    for mode in CoderMode:
        stream = encode(sparse_hdr_image(8, 8), _params(mode=mode))
        other = CoderMode.XT if mode == CoderMode.HP else CoderMode.HP
        bad = _edited(stream, 5, bytes([int(other)]))
        for reader in (decode, measure):
            with pytest.raises(CorruptStreamError, match="pack-table count"):
                reader(bad)


def test_full_grid_round_trip_small_image():
    img = sparse_hdr_image(16, 16, seed=3, levels=12)
    for kind in tmo.TmoKind:
        for q in (80, 90):
            for mode, refine in ((CoderMode.HP, 0), (CoderMode.XT, 0), (CoderMode.XT, 4)):
                stream = encode(img, _params(mode, kind, q, refine))
                assert decode(stream) == img, (kind, q, mode, refine)


def test_encode_deterministic(rng):
    img = sparse_hdr_image(32, 32, seed=9)
    params = _params(kind=tmo.TmoKind.DRAGO)
    assert encode(img, params) == encode(img, params)


def test_extract_ldr_is_jpeg_and_layer_independent():
    img = smooth_hdr_image(24, 24)
    params = _params(mode=CoderMode.XT, refine=4, q=85)
    stream = encode(img, params)
    jpeg = extract_ldr(stream)
    assert jpeg[:2] == b"\xFF\xD8"
    # byte-identical to a standalone base encode of the same tone-mapped image
    bound = tmo.bind_image_stats(params.tmo, luminance(img))
    ldr8, _ = basejpeg.split_refinement(tmo.tonemap(img, luminance(img), bound, 4))
    assert jpeg == basejpeg.encode_base(ldr8, 85)


def test_tampering_detected(rng):
    img = sparse_hdr_image(16, 16, seed=5)
    stream = bytearray(encode(img, _params()))
    for _ in range(12):
        pos = int(rng.integers(0, len(stream)))
        flipped = bytearray(stream)
        flipped[pos] ^= 0x40
        with pytest.raises(FormatError):
            decode(bytes(flipped))


def test_format_errors():
    img = sparse_hdr_image(8, 8)
    stream = encode(img, _params())
    with pytest.raises(FormatError):
        decode(b"XXXX" + stream[4:])
    with pytest.raises(FormatError):
        decode(stream[:10])
    version_bumped = bytearray(stream)
    version_bumped[4] = 3
    with pytest.raises(FormatError):
        decode(bytes(version_bumped))


def test_version_1_stream_rejected():
    # Version 1 had another plane format and no pixel CRC; no reader is kept.
    stream = _edited(encode(sparse_hdr_image(8, 8), _params()), 4, bytes([1]))
    for reader in (decode, measure, extract_ldr):
        with pytest.raises(FormatError, match="unsupported version 1"):
            reader(stream)


def test_pixel_crc_catches_a_wrong_reconstruction(monkeypatch):
    img = sparse_hdr_image(8, 8)
    stream = encode(img, _params())
    with pytest.raises(IntegrityError, match="pixel CRC"):
        decode(_edited(stream, PIXEL_CRC_OFFSET, bytes(4)))
    # A prediction one half code away, as another machine's float maths
    # might give, decodes to a wrong image that the pixel CRC rejects.
    predict = tmo.predict_hdr

    def drifted(base, params):
        samples = predict(base, params).samples.copy()
        samples[1, 3, 5] += 1
        return HdrImage(samples)

    monkeypatch.setattr(tmo, "predict_hdr", drifted)
    with pytest.raises(IntegrityError, match="pixel CRC"):
        decode(stream)


def test_measure_sections_sum_to_total():
    img = sparse_hdr_image(20, 12, seed=7)
    for mode, refine in ((CoderMode.HP, 0), (CoderMode.XT, 4)):
        stream = encode(img, _params(mode=mode, refine=refine))
        report = measure(stream)
        assert report.total_bytes == len(stream)
        assert sum(report.sections().values()) == report.total_bytes
        assert report.pixels == 240
        if refine:
            assert report.refinement > 0


def test_measure_bpp_formula():
    img = sparse_hdr_image(10, 10)
    stream = encode(img, _params())
    report = measure(stream)
    assert report.bits_per_pixel == pytest.approx(8.0 * len(stream) / 100.0)


def test_hp_not_larger_than_xt_on_sparse_image():
    from hdr2l.bench import synthetic_corpus

    _, img = synthetic_corpus(2, size=96, seed=2)[1]  # exposure-patch scene
    hp = len(encode(img, _params(mode=CoderMode.HP)))
    xt = len(encode(img, _params(mode=CoderMode.XT)))
    assert hp < xt


def test_decoded_params_round_trip_via_stream():
    img = sparse_hdr_image(8, 8)
    stream = encode(img, _params(kind=tmo.TmoKind.REINHARD_LOCAL, q=90))
    assert decode(stream) == img


@pytest.mark.parametrize("mode,refine", [(CoderMode.HP, 0), (CoderMode.XT, 4)])
def test_decode_never_evaluates_the_local_operator(mode, refine, monkeypatch):
    """The decoder inverts the global curve alone, so a reinhard-local stream
    whose base layer came from scipy's full-size Gaussian bank, as encoders
    before the box pyramid wrote it, decodes bit-exactly."""
    from test_tmo import _local_adaptation_gaussian_bank

    def refuse(scaled):
        raise AssertionError("decode evaluated the local operator")

    img = sparse_hdr_image(24, 24)
    params = _params(mode=mode, kind=tmo.TmoKind.REINHARD_LOCAL, refine=refine)
    pyramid_stream = encode(img, params)
    monkeypatch.setattr(tmo, "_local_adaptation", _local_adaptation_gaussian_bank)
    stream = encode(img, params)
    assert stream != pyramid_stream
    monkeypatch.setattr(tmo, "_local_adaptation", refuse)
    assert decode(stream) == img
    assert decode(pyramid_stream) == img
