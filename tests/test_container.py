from __future__ import annotations

import hashlib
import math
import struct
import zlib

import numpy as np
import pytest

from hdr2l import basejpeg, tmo
from hdr2l.container import (
    _HEADER,
    ARMS,
    MAGIC,
    CodecParams,
    CoderMode,
    _parse,
    decode,
    encode,
    extract_ldr,
    measure,
)
from hdr2l.errors import FormatError, IntegrityError, ParameterError, ParseError
from hdr2l.imagio import HdrImage, luminance
from conftest import sparse_hdr_image, smooth_hdr_image


REFINE_OFFSET = len(MAGIC) + 1  # after the magic and the version byte
WIDTH_OFFSET = _HEADER.size - 12  # u32 width, height, then the pixel CRC
PIXEL_CRC_OFFSET = _HEADER.size - 4
BASE_OFFSET = _HEADER.size + tmo.TMO_PARAMS_SIZE + 4  # the embedded JPEG, after its length


def _params(mode=CoderMode.HP, kind=tmo.TmoKind.DEFAULT, q=80, refine=0):
    return CodecParams(mode=mode, tmo=tmo.TmoParams(kind=kind), q=q, refine_bits=refine)


def test_single_black_pixel_round_trip():
    img = HdrImage(np.zeros((3, 1, 1), dtype=np.uint16))
    stream = encode(img, _params())
    assert decode(stream) == img


def test_hp_mode_rejects_refinement():
    with pytest.raises(ParameterError):
        CodecParams(mode=CoderMode.HP, tmo=tmo.TmoParams(kind=tmo.TmoKind.DEFAULT), refine_bits=4)


@pytest.mark.parametrize("mode", list(CoderMode), ids=lambda mode: mode.name)
def test_codec_params_accept_exactly_the_arms(mode):
    for refine in range(9):
        if (mode, refine) in ARMS.values():
            assert _params(mode=mode, refine=refine).refine_bits == refine
            continue
        with pytest.raises(ParameterError) as info:
            _params(mode=mode, refine=refine)
        assert all(name in str(info.value) for name in ARMS), (refine, str(info.value))


@pytest.mark.parametrize(
    "build",
    [lambda: _params(mode=7), lambda: _params(kind=9), lambda: _params(q="x")],
    ids=["coder-mode", "tmo-kind", "quality"],
)
def test_bad_enum_or_quality_raises_parameter_error(build):
    """A value no enum member has, or a quality that is not a number, raises
    the package's ParameterError, not the bare ValueError of the enum or
    int()."""
    with pytest.raises(ParameterError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: _params(q=80.7),
        lambda: _params(q=80.0),
        lambda: _params(mode=CoderMode.XT, refine=4.0),
    ],
    ids=["fractional-quality", "float-quality", "float-refine-bits"],
)
def test_non_integral_codec_parameter_raises_parameter_error(build):
    """q and refine_bits must be integers: 80.7 is not truncated to 80, and
    4.0 is refused here rather than failing later in a shift."""
    with pytest.raises(ParameterError):
        build()


@pytest.mark.parametrize(
    "value, match",
    [
        (None, "must be a TmoParams"),
        ("default", "must be a TmoParams"),
        (tmo.TmoKind.DEFAULT, "must be a TmoParams"),
        (tmo.TmoParams(tmo.TmoKind.DEFAULT, log_avg=5.0, l_max=9.0), "bound from the image"),
        (tmo.TmoParams(tmo.TmoKind.DRAGO, l_max=9.0), "bound from the image"),
    ],
    ids=["none", "name", "kind", "bound", "peak-only"],
)
def test_codec_tmo_must_be_unbound_tmo_params(value, match):
    """encode binds the statistics from the image, so a caller's statistics
    would be ignored, and anything but a TmoParams would fail inside encode
    with a bare TypeError."""
    with pytest.raises(ParameterError, match=match):
        CodecParams(mode=CoderMode.HP, tmo=value)


def test_numpy_integer_codec_parameters_accepted():
    params = _params(mode=CoderMode.XT, q=np.int64(80), refine=np.uint8(4))
    assert (params.q, params.refine_bits) == (80, 4)
    assert type(params.q) is int and type(params.refine_bits) is int


def _edited(stream: bytes, offset: int, value: bytes) -> bytes:
    """``stream`` with ``value`` written at ``offset`` and the CRC recomputed."""
    out = bytearray(stream)
    out[offset : offset + len(value)] = value
    out[-4:] = zlib.crc32(out[:-4]).to_bytes(4, "little")
    return bytes(out)


def test_zero_log_average_refused_by_every_reader():
    # Unbound statistics made decode fail only at the prediction, after the
    # base layer was decoded, while measure and extract_ldr accepted them.
    stream = encode(sparse_hdr_image(8, 8), _params())
    bad = _edited(stream, _HEADER.size + 1, bytes(8))  # log_avg = 0.0
    for reader in (decode, measure, extract_ldr):
        with pytest.raises(ParseError, match="log-average"):
            reader(bad)


def test_header_fields_checked_as_codec_params():
    stream = encode(sparse_hdr_image(8, 8), _params(mode=CoderMode.XT, refine=4))
    for value in (1, 3, 7, 255):
        with pytest.raises(FormatError, match=f"refinement bits {value} not in"):
            measure(_edited(stream, REFINE_OFFSET, bytes([value])))
    with pytest.raises(FormatError, match="empty image"):
        measure(_edited(stream, WIDTH_OFFSET, bytes(4)))  # width 0


def test_frame_size_must_match_container_size():
    stream = encode(sparse_hdr_image(12, 10), _params())
    for width, height in ((13, 10), (12, 9), (1, 120), (60000, 60000)):
        bad = _edited(stream, WIDTH_OFFSET, width.to_bytes(4, "little") + height.to_bytes(4, "little"))
        for reader in (decode, measure, extract_ldr):
            with pytest.raises(ParseError, match=f"12x10 frame in a {width}x{height} image"):
                reader(bad)


@pytest.mark.parametrize("entry", [basejpeg._LUMA_AT, basejpeg._LUMA_AT + 63, basejpeg._CHROMA_AT + 10])
def test_zero_quantization_entry_refused_by_every_reader(entry):
    # T.81 Table B.4 allows quantization values 1..255 only; a table of 0
    # made decode_base multiply every level of that coefficient by 0.
    stream = encode(smooth_hdr_image(16, 16), _params())
    bad = _edited(stream, BASE_OFFSET + entry, bytes(1))
    for reader in (decode, measure, extract_ldr):
        with pytest.raises(ParseError, match="quantization table entry of 0") as info:
            reader(bad)
        assert f"(byte offset {entry})" in str(info.value)
    jpeg = bytearray(extract_ldr(stream))
    jpeg[entry] = 0
    with pytest.raises(ParseError, match="quantization table entry of 0") as info:
        basejpeg.decode_base(bytes(jpeg))
    assert info.value.offset == entry


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
    for offset in (WIDTH_OFFSET, WIDTH_OFFSET + 4):
        bad = _edited(stream, offset, size.to_bytes(4, "little"))
        for reader in (decode, measure, extract_ldr):
            with pytest.raises(FormatError, match="65535"):
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
    version_bumped[4] = 4
    with pytest.raises(FormatError):
        decode(bytes(version_bumped))


def test_version_1_stream_rejected():
    # Version 1 had another plane format and no pixel CRC; no reader is kept.
    stream = _edited(encode(sparse_hdr_image(8, 8), _params()), 4, bytes([1]))
    for reader in (decode, measure, extract_ldr):
        with pytest.raises(FormatError, match="unsupported version 1"):
            reader(stream)


def test_version_2_stream_rejected():
    # Version 2 stored the coder mode, the base quality, a reserved byte and
    # the operator constants in the header, and a count ahead of every pack
    # table.  An XT R=0 stream has no pack table, so its v2 form is the v3
    # body behind the v2 header and 73-byte TMO block: the golden digest of
    # format version 2 confirms it.
    image = sparse_hdr_image(24, 24)
    stream = encode(image, _params(mode=CoderMode.XT))
    parsed = _parse(stream)
    params = parsed.tmo
    v2 = struct.pack("<4sBBBBBIII", MAGIC, 2, int(CoderMode.XT), 80, 0, 0, 24, 24, parsed.pixel_crc)
    v2 += struct.pack(
        "<B9d", int(params.kind), tmo.KEY, math.inf, tmo.BIAS, tmo.LDMAX, tmo.LOCAL_SCALES,
        tmo.LOCAL_THRESHOLD, params.log_avg, params.l_max, tmo.GAMMA,
    )
    v2 += stream[_HEADER.size + tmo.TMO_PARAMS_SIZE : -4]
    v2 += zlib.crc32(v2).to_bytes(4, "little")
    v2_golden = "a6d52944655d4ee601be61391d3f381762b45b41d90fa8ddb4f21f1df4cdc278"
    assert hashlib.sha256(v2).hexdigest() == v2_golden
    for reader in (decode, measure, extract_ldr):
        with pytest.raises(FormatError, match="unsupported version 2"):
            reader(v2)


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
