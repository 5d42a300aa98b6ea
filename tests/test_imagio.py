from __future__ import annotations

import numpy as np
import pytest

from hdr2l import imagio
from hdr2l.errors import DomainError, ParameterError, ParseError
from hdr2l.imagio import (
    HALF_MAX,
    HdrImage,
    LdrImage,
    LUMA_WEIGHTS,
    half_decode_array,
    half_encode_array,
    luminance,
    parse_pfm,
    parse_ppm,
    parse_rgbe,
    write_pfm,
)
from conftest import ppm_bytes


# ---------------------------------------------------------------------------
# half codes


def _float16_codes(values) -> list[int]:
    """The oracle: NumPy's own binary16 rounding, as bit patterns."""
    return np.asarray(values, dtype=np.float64).astype(np.float16).view(np.uint16).tolist()


def test_half_encode_known_values():
    values = [0.0, 1.0, 65504.0, 0.5]
    assert half_encode_array(np.array(values)).tolist() == [0x0000, 0x3C00, 0x7BFF, 0x3800]
    assert _float16_codes(values) == [0x0000, 0x3C00, 0x7BFF, 0x3800]
    # -0.0 is not negative; it takes +0's code, not np.float16's 0x8000.
    assert half_encode_array(np.array([-0.0, 0.0, -0.0])).tolist() == [0, 0, 0]
    assert _float16_codes([-0.0]) == [0x8000]
    assert HdrImage(half_encode_array(np.full((3, 1, 1), -0.0))) == HdrImage(np.zeros((3, 1, 1)))


def test_half_encode_clamps_above_max():
    assert half_encode_array(np.array([65505.0, 1e30])).tolist() == [0x7BFF, 0x7BFF]


def test_half_encode_rejects_bad_domain():
    for bad in (-1.0, -1e-30, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            half_encode_array(np.array([bad]))


def test_half_decode_known_values():
    codes = np.array([0x3C00, 0x0001, 0x7BFF, 0x0000], dtype=np.uint16)
    values = half_decode_array(codes)
    assert values.dtype == np.float64
    assert values.tolist() == [1.0, 2.0**-24, 65504.0, 0.0]
    assert values.tolist() == codes.view(np.float16).astype(np.float64).tolist()


def test_half_round_trip_all_valid_codes_vectorized():
    codes = np.arange(0x7C00, dtype=np.uint16)
    values = half_decode_array(codes)
    assert np.array_equal(half_encode_array(values), codes)


def test_half_encode_array_boundaries_match_scalar():
    # Up to 65520 (exclusive) binary16 rounding lands on HALF_MAX; from there on
    # it would round to +inf, and the clamp gives HALF_MAX too.  Below, the
    # smallest subnormal 2^-24, the tie 2^-25 that rounds to even 0, 3 * 2^-25
    # that rounds to even 2^-23, and the smallest float64 subnormal.
    values = [65504.0, 65519.99, 65520.0, 65536.0, 1e300, 2.0**-24, 2.0**-25,
              2.0**-25 * (1 + 2.0**-52), 3 * 2.0**-25, 5e-324, 0.0]
    expected = [0x7BFF] * 5 + [0x0001, 0x0000, 0x0001, 0x0002, 0x0000, 0x0000]
    codes = half_encode_array(np.array(values))
    assert codes.dtype == np.uint16
    assert codes.tolist() == expected
    # Where binary16 does not overflow, each value rounds as np.float16 rounds it.
    unclamped = [i for i, v in enumerate(values) if v < 65520.0]
    assert _float16_codes([values[i] for i in unclamped]) == [expected[i] for i in unclamped]


@pytest.mark.parametrize("values, message", [
    ([1.0, float("nan"), -1.0, float("inf")], "NaN in input"),
    ([1.0, -float("inf"), -1.0], "infinity in input"),
    ([float("inf")], "infinity in input"),
    ([0.0, -1e-300], "negative value in input"),
])
def test_half_encode_array_rejects_bad_domain(values, message):
    with pytest.raises(DomainError, match=f"^half_encode_array: {message}$"):
        half_encode_array(np.array(values))


def test_half_encode_rounds_to_nearest_even():
    # 1 + 2^-11 is exactly between 1.0 and the next half; ties go to even.
    values = [1.0 + 2.0**-11, 1.0 + 3 * 2.0**-11]
    assert half_encode_array(np.array(values)).tolist() == [0x3C00, 0x3C02] == _float16_codes(values)


# ---------------------------------------------------------------------------
# containers


def test_hdr_image_validates_codes():
    bad = np.full((3, 2, 2), 0x7C00, dtype=np.uint16)  # +inf
    with pytest.raises(DomainError):
        HdrImage(bad)
    with pytest.raises(ParameterError):
        HdrImage(np.zeros((2, 2, 2), dtype=np.uint16))


def _valid_half_codes_two_masks(codes: np.ndarray) -> np.ndarray:
    """Per code: sign bit clear and exponent not all ones."""
    return ((codes & 0x8000) == 0) & ((codes & 0x7C00) != 0x7C00)


def test_hdr_image_limit_equals_the_two_mask_check_on_every_code():
    codes = np.arange(1 << 16, dtype=np.uint16)
    assert np.array_equal(_valid_half_codes_two_masks(codes), codes <= imagio.HALF_MAX_CODE)
    assert imagio.HALF_MAX_CODE == 0x7BFF
    assert HdrImage(np.full((3, 1, 1), 0x7BFF)).samples.max() == 0x7BFF
    # Every valid code is accepted, and one bad code among them decides the
    # whole image.
    grid = np.resize(np.arange(0x7C00, dtype=np.uint16), (3, 32, 331))
    assert HdrImage(grid).samples.max() == 0x7BFF
    for bad in (0x7C00, 0x7E00, 0x8000, 0xFBFF, 0xFFFF):
        mixed = grid.copy()
        mixed[1, 10, 20] = bad
        with pytest.raises(DomainError, match="negative, NaN, or infinite"):
            HdrImage(mixed)


def test_hdr_image_equality_and_immutability():
    a = HdrImage(np.zeros((3, 2, 2), dtype=np.uint16))
    b = HdrImage(np.zeros((3, 2, 2), dtype=np.uint16))
    assert a == b
    with pytest.raises(ValueError):
        a.samples[0, 0, 0] = 1


def test_ldr_image_range_check():
    with pytest.raises(DomainError):
        LdrImage(np.full((3, 1, 1), 256, dtype=np.uint16), bit_depth=8)
    img = LdrImage(np.full((3, 1, 1), 4095, dtype=np.uint16), bit_depth=12)
    assert img.bit_depth == 12


# ---------------------------------------------------------------------------
# luminance


def test_luminance_known_pixels():
    codes = np.zeros((3, 1, 2), dtype=np.uint16)
    codes[:, 0, 0] = 0x3C00  # white
    codes[0, 0, 1] = 0x3C00  # pure red
    lum = luminance(HdrImage(codes))
    assert lum[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert lum[0, 1] == pytest.approx(0.2126, abs=1e-12)


def test_luminance_uniform_image_scalar_oracle():
    r, g, b = 0.25, 0.5, 0.75
    codes = half_encode_array(np.broadcast_to(np.array([r, g, b])[:, None, None], (3, 4, 4)))
    expected = LUMA_WEIGHTS[0] * r + LUMA_WEIGHTS[1] * g + LUMA_WEIGHTS[2] * b
    assert np.allclose(luminance(HdrImage(codes)), expected, atol=1e-12)


def test_luminance_is_linear_up_to_half_quantization(rng):
    values = rng.uniform(0.0, 100.0, size=(3, 8, 8))
    img = HdrImage(half_encode_array(values))
    img2 = HdrImage(half_encode_array(half_decode_array(img.samples) * 2.0))
    assert np.allclose(luminance(img2), 2.0 * luminance(img), rtol=2e-3)


# ---------------------------------------------------------------------------
# RGBE: independent writers live here so parses can be checked against them


def _rgbe_header(width: int, height: int) -> bytes:
    return b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n" + f"-Y {height} +X {width}\n".encode()


def _write_rgbe_flat(quads: np.ndarray) -> bytes:
    h, w, _ = quads.shape
    return _rgbe_header(w, h) + quads.astype(np.uint8).tobytes()


def _write_rgbe_rle(quads: np.ndarray) -> bytes:
    # New-style RLE: per scanline, 0x02 0x02 hi lo then four component streams.
    h, w, _ = quads.shape
    out = bytearray(_rgbe_header(w, h))
    for y in range(h):
        out += bytes([2, 2, w >> 8, w & 0xFF])
        for c in range(4):
            stream = quads[y, :, c]
            x = 0
            while x < w:
                run = 1
                while x + run < w and run < 127 and stream[x + run] == stream[x]:
                    run += 1
                if run >= 4:
                    out += bytes([128 + run, stream[x]])
                    x += run
                else:
                    lit = run
                    while (
                        x + lit < w
                        and lit < 128
                        and not (
                            x + lit + 3 < w
                            and stream[x + lit] == stream[x + lit + 1]
                            == stream[x + lit + 2] == stream[x + lit + 3]
                        )
                    ):
                        lit += 1
                    out += bytes([lit]) + stream[x : x + lit].tobytes()
                    x += lit
    return bytes(out)


def test_parse_rgbe_known_pixel_values():
    quads = np.zeros((1, 2, 4), dtype=np.uint8)
    quads[0, 0] = (128, 128, 128, 129)  # 128 * 2^(129-136) = 1.0
    quads[0, 1] = (0, 0, 0, 0)          # exponent 0 -> black
    img = parse_rgbe(_write_rgbe_flat(quads))
    assert tuple(img.samples[:, 0, 0]) == (0x3C00, 0x3C00, 0x3C00)
    assert tuple(img.samples[:, 0, 1]) == (0, 0, 0)


def test_parse_rgbe_rle_and_flat_agree(rng):
    w, h = 16, 4
    quads = rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8).astype(np.uint8)
    quads[:, 4:9] = quads[:, 4:5]  # force some runs
    flat = parse_rgbe(_write_rgbe_flat(quads))
    rle = parse_rgbe(_write_rgbe_rle(quads))
    assert flat == rle


def test_parse_rgbe_legacy_repeat_code():
    quads = np.zeros((1, 4, 4), dtype=np.uint8)
    quads[0, :] = (10, 20, 30, 130)
    flat = _rgbe_header(4, 1) + bytes([10, 20, 30, 130, 1, 1, 1, 3])
    assert parse_rgbe(flat) == parse_rgbe(_write_rgbe_flat(quads))


def test_parse_rgbe_errors():
    with pytest.raises(ParseError):
        parse_rgbe(b"not radiance")
    with pytest.raises(ParseError):
        parse_rgbe(_rgbe_header(4, 1)[:-5] + b"+Y 1 +X 4\n")  # unsupported orientation
    truncated = _write_rgbe_flat(np.zeros((2, 4, 4), dtype=np.uint8))[:-7]
    with pytest.raises(ParseError) as err:
        parse_rgbe(truncated)
    assert err.value.offset is not None


@pytest.mark.parametrize("data", [b"#?RADIANCE", b"#?RGBE FORMAT=32-bit_rle_rgbe"])
def test_parse_rgbe_signature_without_newline(data):
    with pytest.raises(ParseError, match="not a Radiance RGBE stream") as err:
        parse_rgbe(data)
    assert err.value.offset == 0


_ONE_PIXEL = bytes([40, 20, 30, 130])


@pytest.mark.parametrize("header", [
    b"#?RGBE\n\n-Y 1 +X 1\n",
    b"#?RADIANCE\n# made by hand\nEXPOSURE=2.0\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 1\n",
    b"#?RADIANCE\nGAMMA=1.0\n\n-Y 1 +X 1\n",
    b"#?RADIANCE 5.2\n#FORMAT=32-bit_rle_xyze\n\n-Y 1 +X 1\n",
], ids=["rgbe-signature", "comment-and-exposure", "no-format-line", "format-in-a-comment"])
def test_rgbe_header_accepts_the_radiance_grammar(header):
    assert parse_rgbe(header + _ONE_PIXEL) == parse_rgbe(_rgbe_header(1, 1) + _ONE_PIXEL)


@pytest.mark.parametrize("header", [
    b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n-Y 1 +X 1\n",
    b"#?RADIANCE\n\n+Y 1 +X 1\n",
    b"#?RADIANCE\n\n-Y 1 +X 1",
    b"#?RADIANCE\n\n-Y 1 +X 1 \n",
    b"#?RADIANCE\r\n\r\n-Y 1 +X 1\r\n",
    b"?RADIANCE\n\n-Y 1 +X 1\n",
    b"#?RADIANCE\n\n-Y +1 +X 1\n",
], ids=["no-empty-line", "plus-y", "no-newline-after-resolution", "space-after-resolution", "crlf", "no-hash", "signed-height"])
def test_rgbe_header_refuses_other_layouts(header):
    with pytest.raises(ParseError, match="not a Radiance RGBE stream") as err:
        parse_rgbe(header + _ONE_PIXEL)
    assert err.value.offset == 0


def test_rgbe_header_refuses_another_format_at_its_line():
    data = b"#?RADIANCE\n# note\nFORMAT=32-bit_rle_xyze\n\n-Y 1 +X 1\n" + _ONE_PIXEL
    with pytest.raises(ParseError, match="unsupported RGBE format b'FORMAT=32-bit_rle_xyze'") as err:
        parse_rgbe(data)
    assert err.value.offset == data.index(b"FORMAT=")


def test_parse_rgbe_huge_values_clamp_to_half_max():
    quads = np.zeros((1, 1, 4), dtype=np.uint8)
    quads[0, 0] = (255, 255, 255, 255)  # far above the half range
    img = parse_rgbe(_write_rgbe_flat(quads))
    assert tuple(img.samples[:, 0, 0]) == (0x7BFF, 0x7BFF, 0x7BFF)


# ---------------------------------------------------------------------------
# PFM


def test_pfm_single_pixel():
    data = b"PF\n1 1\n-1.0\n" + np.array([0.5, 0.5, 0.5], dtype="<f4").tobytes()
    img = parse_pfm(data)
    assert tuple(img.samples[:, 0, 0]) == (0x3800, 0x3800, 0x3800)


def test_pfm_round_trip_random_half_values(rng):
    codes = rng.integers(0, 0x7C00, size=(3, 16, 16)).astype(np.uint16)
    img = HdrImage(codes)
    assert parse_pfm(write_pfm(img)) == img


def test_pfm_big_endian_and_row_order():
    # positive scale -> big endian; rows stored bottom-up
    values = np.array(
        [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]], dtype=">f4"
    )  # bottom row red, top row green
    data = b"PF\n1 2\n1.0\n" + values.tobytes()
    img = parse_pfm(data)
    assert img.samples[1, 0, 0] == 0x3C00  # green in top row
    assert img.samples[0, 1, 0] == 0x3C00  # red in bottom row


def test_pfm_ingestion_normalization():
    data = b"PF\n1 1\n-1.0\n" + np.array([-2.0, np.inf, 1.0], dtype="<f4").tobytes()
    img = parse_pfm(data)
    assert img.samples[0, 0, 0] == 0  # negative clamps to zero
    assert half_decode_array(img.samples[1, 0, 0]) == HALF_MAX
    nan_data = b"PF\n1 1\n-1.0\n" + np.array([np.nan, 0, 0], dtype="<f4").tobytes()
    with pytest.raises(ParseError):
        parse_pfm(nan_data)


@pytest.mark.parametrize("header", [
    b"PF 1 1 -1 ",
    b"PF\n\n1\t1\r-1e0\n",
    b"PF\n01 1\n-.5\n",
    b"PF\n1 1\n-2.\n",
], ids=["spaces", "mixed-whitespace", "leading-zero", "trailing-point"])
def test_pfm_header_accepts_decimal_tokens_and_any_whitespace(header):
    pixels = np.array([0.5, 1.0, 2.0], dtype="<f4").tobytes()
    assert parse_pfm(header + pixels) == parse_pfm(b"PF\n1 1\n-1.0\n" + pixels)


@pytest.mark.parametrize("header", [
    b"PF\n1 1\nnan\n",
    b"PF\n1 1\ninf\n",
    b"PF\n1 1\n-inf\n",
    b"PF\n1_0 1\n-1.0\n",
    b"PF\n1 1\n-1_0\n",
], ids=["nan-scale", "inf-scale", "minus-inf-scale", "underscore-width", "underscore-scale"])
def test_pfm_header_refuses_non_decimal_numbers(header):
    # int() and float() accept these tokens; the PFM header grammar does not.
    with pytest.raises(ParseError, match="not a color PFM") as err:
        parse_pfm(header + bytes(10 * 3 * 4))
    assert err.value.offset == 0


def test_pfm_errors():
    with pytest.raises(ParseError):
        parse_pfm(b"Pf\n1 1\n-1.0\n" + b"\x00" * 4)  # grayscale unsupported
    with pytest.raises(ParseError):
        parse_pfm(b"PF\n70000 1\n-1.0\n")  # dimension overflow
    with pytest.raises(ParseError):
        parse_pfm(b"PF\n2 2\n-1.0\n" + b"\x00" * 10)  # truncated


# ---------------------------------------------------------------------------
# PPM


def test_ppm_round_trip(rng):
    samples = rng.integers(0, 256, size=(3, 5, 7)).astype(np.uint16)
    img = LdrImage(samples, bit_depth=8)
    assert parse_ppm(ppm_bytes(img)) == img


def test_parse_ppm_interleaving():
    img = parse_ppm(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
    assert img.bit_depth == 8
    assert img.samples[:, 0, 0].tolist() == [1, 2, 3]
    assert img.samples[:, 0, 1].tolist() == [4, 5, 6]


@pytest.mark.parametrize("header", [
    b"P6\n# CREATOR: GIMP PNM Filter Version 1.1\n2 1\n255\n",
    b"P6 2#width\n1 #height\r255\n",
    b"P6#\n#\n\n2\t1\n# maxval\n255 ",
], ids=["own-lines", "inside-lines", "empty-comments"])
def test_parse_ppm_skips_header_comments(header):
    # Netpbm allows "#" comments, to the end of a line, between header tokens.
    pixels = bytes(range(6))
    assert parse_ppm(header + pixels) == parse_ppm(b"P6\n2 1\n255\n" + pixels)


@pytest.mark.parametrize("data", [
    b"P6\n2 1\n255#comment\n",  # one whitespace byte must follow the maxval
    b"P6\n2 1 # no maxval",
    b"P6 #2 1 255\n",  # a comment runs to the end of its line
])
def test_parse_ppm_comments_keep_the_header_rules(data):
    with pytest.raises(ParseError, match="not an 8-bit binary PPM"):
        parse_ppm(data + bytes(6))
