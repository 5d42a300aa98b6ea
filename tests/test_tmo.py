from __future__ import annotations

import itertools
import math
import struct
import sys

import numpy as np
import pytest

from hdr2l.errors import DomainError, Hdr2lError, ParameterError, ParseError
from hdr2l import tmo
from hdr2l.imagio import (
    HALF_MAX,
    LUMA_WEIGHTS,
    HdrImage,
    LdrImage,
    half_decode_array,
    half_encode,
    half_encode_array,
    luminance,
)
from hdr2l.tmo import (
    BIAS,
    GAMMA,
    INVERSE_DISPLAY_CAP,
    KEY,
    LDMAX,
    LOCAL_SCALE_RATIO,
    LOCAL_SCALES,
    LOCAL_SHARPEN,
    LOCAL_THRESHOLD,
    LOG_AVERAGE_DELTA,
    TMO_PARAMS_SIZE,
    TmoKind,
    TmoParams,
    bind_image_stats,
    display_luminance,
    log_average_luminance,
    parse_tmo_params,
    predict_hdr,
    serialize_tmo_params,
    tonemap,
)
from conftest import smooth_hdr_image, sparse_hdr_image


def _uniform_image(value: float, size: int = 4) -> HdrImage:
    code = half_encode(value)
    return HdrImage(np.full((3, size, size), code, dtype=np.uint16))


def _gray_image(lums: np.ndarray) -> HdrImage:
    codes = half_encode_array(np.stack([lums, lums, lums]))
    return HdrImage(codes)


# ---------------------------------------------------------------------------
# log-average luminance


def test_log_average_uniform_one():
    assert log_average_luminance(np.ones((4, 4))) == pytest.approx(1.0, abs=1e-5)


def test_log_average_constant_map_exact():
    v = 0.5
    res = log_average_luminance(np.full((3, 3), v))
    assert res == pytest.approx(v + 1e-6, rel=1e-9)


def test_log_average_two_pixel_geometric_mean():
    lum = np.array([[1.0, math.e**2]])
    assert log_average_luminance(lum) == pytest.approx(math.e, rel=1e-5)


def test_log_average_empty_rejected():
    with pytest.raises(ParameterError):
        log_average_luminance(np.zeros((0,)))


# ---------------------------------------------------------------------------
# parameter plumbing


def test_params_validation():
    with pytest.raises(ParameterError):
        TmoParams(kind=TmoKind.DEFAULT, log_avg=-1.0)
    with pytest.raises(ParameterError):
        TmoParams(kind=TmoKind.DRAGO, l_max=math.nan)
    with pytest.raises(ParameterError):
        TmoParams(kind=TmoKind.REINHARD_LOCAL, l_max=math.inf)


def test_params_serialization_round_trip():
    params = TmoParams(kind=TmoKind.DRAGO, log_avg=0.125, l_max=512.0)
    data = serialize_tmo_params(params)
    assert len(data) == TMO_PARAMS_SIZE
    # The kind and the two statistics; the operator constants are not stored.
    assert data == struct.pack("<B2d", 3, 0.125, 512.0)
    assert parse_tmo_params(data) == params


def test_params_serialize_requires_bound_stats():
    with pytest.raises(ParameterError):
        serialize_tmo_params(TmoParams(kind=TmoKind.DEFAULT))


def test_parse_params_rejects_bad_kind():
    params = bind_image_stats(TmoParams(kind=TmoKind.DEFAULT), np.ones((2, 2)))
    data = bytearray(serialize_tmo_params(params))
    data[0] = 99
    with pytest.raises(ParseError):
        parse_tmo_params(bytes(data))


def test_parse_params_rejects_peak_below_stats_floor():
    params = TmoParams(kind=TmoKind.DRAGO, log_avg=1.0, l_max=1e-300)
    with pytest.raises(ParseError, match="peak luminance"):
        parse_tmo_params(serialize_tmo_params(params))
    floor = TmoParams(kind=TmoKind.DRAGO, log_avg=1.0, l_max=LOG_AVERAGE_DELTA)
    assert parse_tmo_params(serialize_tmo_params(floor)) == floor


def test_bind_image_stats():
    img = _uniform_image(2.0)
    params = bind_image_stats(TmoParams(kind=TmoKind.DEFAULT), luminance(img))
    assert params.log_avg == pytest.approx(2.0, rel=1e-5)
    assert params.l_max == pytest.approx(2.0, rel=1e-3)


# ---------------------------------------------------------------------------
# display curves


def test_reinhard_global_curve_at_unit_scaled_luminance():
    # KEY * L / log_avg == 1 maps to display luminance 0.5 with burn-out off.
    params = TmoParams(kind=TmoKind.REINHARD_GLOBAL, log_avg=KEY, l_max=1.0)
    ld = display_luminance(np.array([[1.0]]), params)
    assert ld[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_drago_curve_endpoints():
    params = TmoParams(kind=TmoKind.DRAGO, log_avg=1.0, l_max=100.0)
    lum = np.array([[0.0, 100.0]])
    ld = display_luminance(lum, params)
    assert ld[0, 0] == 0.0
    assert ld[0, 1] == pytest.approx(LDMAX / 100.0, rel=1e-12)


def test_default_and_reinhard_global_are_one_curve(rng):
    img = _gray_image(np.exp(rng.uniform(-6, 6, size=(8, 8))))
    lum = luminance(img)
    default = bind_image_stats(TmoParams(kind=TmoKind.DEFAULT), lum)
    reinhard = bind_image_stats(TmoParams(kind=TmoKind.REINHARD_GLOBAL), lum)
    assert np.array_equal(display_luminance(lum, default), display_luminance(lum, reinhard))
    mapped = tonemap(img, lum, default, 4)
    assert mapped == tonemap(img, lum, reinhard, 4)
    assert predict_hdr(mapped, default) == predict_hdr(mapped, reinhard)


# ---------------------------------------------------------------------------
# tonemap


def test_tonemap_uniform_gray_default_scalar_oracle():
    value = 0.25
    img = _uniform_image(value, size=8)
    params = bind_image_stats(TmoParams(kind=TmoKind.DEFAULT), luminance(img))
    out = tonemap(img, luminance(img), params, 0)
    # scalar pipeline oracle
    lum = 0.2126 * value + 0.7152 * value + 0.0722 * value
    scaled = 0.18 * lum / params.log_avg
    ld = scaled / (1.0 + scaled)
    expected = int(np.clip(np.rint((1.0 * ld) ** (1.0 / 2.2) * 255.0), 0, 255))
    assert ld == pytest.approx(0.15254, abs=2e-4)
    assert (out.samples == expected).all()


def test_tonemap_zero_luminance_maps_to_zero():
    img = HdrImage(np.zeros((3, 4, 4), dtype=np.uint16))
    params = bind_image_stats(TmoParams(kind=TmoKind.DRAGO), luminance(img))
    for kind in TmoKind:
        bound = TmoParams(kind=kind, log_avg=params.log_avg, l_max=params.l_max)
        out = tonemap(img, luminance(img), bound, 0)
        assert (out.samples == 0).all()


def test_tonemap_output_depth_and_range(rng):
    img = _gray_image(np.exp(rng.uniform(-3, 6, size=(8, 8))))
    params = bind_image_stats(TmoParams(kind=TmoKind.REINHARD_GLOBAL), luminance(img))
    for refine in (0, 4):
        out = tonemap(img, luminance(img), params, refine)
        assert out.bit_depth == 8 + refine
        assert int(out.samples.max()) <= (1 << (8 + refine)) - 1


def test_tonemap_rejects_bad_refine_and_unbound_params():
    img = _uniform_image(1.0)
    params = bind_image_stats(TmoParams(kind=TmoKind.DEFAULT), luminance(img))
    with pytest.raises(ParameterError):
        tonemap(img, luminance(img), params, 2)
    with pytest.raises(ParameterError):
        tonemap(img, luminance(img), TmoParams(kind=TmoKind.DEFAULT), 0)


def test_tonemap_monotone_in_luminance_for_global_kinds():
    lums = np.sort(np.exp(np.linspace(-4, 5, 64))).reshape(1, 64)
    img = _gray_image(lums)
    stats = bind_image_stats(TmoParams(kind=TmoKind.DEFAULT), luminance(img))
    for kind in (TmoKind.DEFAULT, TmoKind.REINHARD_GLOBAL, TmoKind.DRAGO):
        params = TmoParams(kind=kind, log_avg=stats.log_avg, l_max=stats.l_max)
        out = tonemap(img, luminance(img), params, 0)
        for channel in out.samples:
            assert (np.diff(channel[0].astype(np.int64)) >= 0).all()


def test_tonemap_reinhard_local_runs_and_stays_in_range():
    img = smooth_hdr_image(32, 32)
    params = bind_image_stats(TmoParams(kind=TmoKind.REINHARD_LOCAL), luminance(img))
    out = tonemap(img, luminance(img), params, 0)
    assert out.bit_depth == 8
    assert int(out.samples.max()) <= 255


# ---------------------------------------------------------------------------
# prediction


def test_predict_hdr_zero_base_is_zero():
    from hdr2l.imagio import LdrImage

    base = LdrImage(np.zeros((3, 4, 4), dtype=np.uint16), bit_depth=8)
    params = TmoParams(kind=TmoKind.DEFAULT, log_avg=0.5, l_max=10.0)
    assert (predict_hdr(base, params).samples == 0).all()


def test_predict_hdr_deterministic(rng):
    from hdr2l.imagio import LdrImage

    base = LdrImage(rng.integers(0, 256, size=(3, 8, 8)).astype(np.uint16), bit_depth=8)
    for kind in TmoKind:
        params = TmoParams(kind=kind, log_avg=0.37, l_max=613.0)
        a = predict_hdr(base, params)
        b = predict_hdr(base, params)
        assert a == b


def test_predict_hdr_requires_bound_stats():
    from hdr2l.imagio import LdrImage

    base = LdrImage(np.zeros((3, 2, 2), dtype=np.uint16), bit_depth=8)
    with pytest.raises(ParameterError):
        predict_hdr(base, TmoParams(kind=TmoKind.DEFAULT))


def test_predict_hdr_round_trip_residual_is_small():
    # Tone map then invert: the prediction should sit within a few percent of
    # the original for a midtone image, so residual magnitudes stay small.
    img = _uniform_image(0.8, size=8)
    params = bind_image_stats(TmoParams(kind=TmoKind.DEFAULT), luminance(img))
    pred = predict_hdr(tonemap(img, luminance(img), params, 0), params)
    rel = np.abs(half_decode_array(pred.samples) - 0.8) / 0.8
    assert float(rel.max()) < 0.05


def test_predict_hdr_drago_inverts_its_own_curve():
    img = _gray_image(np.exp(np.linspace(-3, 5, 64)).reshape(8, 8))
    params = bind_image_stats(TmoParams(kind=TmoKind.DRAGO), luminance(img))
    pred = predict_hdr(tonemap(img, luminance(img), params, 0), params)
    orig = half_decode_array(img.samples)
    approx = half_decode_array(pred.samples)
    mask = orig > 1e-3
    rel = np.abs(approx[mask] - orig[mask]) / orig[mask]
    assert float(np.median(rel)) < 0.05


# Reference: the per-pixel evaluation that predict_hdr's tables must
# reproduce bit for bit (the bisection runs on every pixel's proxy).  Returns
# the float64 values that are half-encoded into the prediction.
def _predict_hdr_per_pixel(base: LdrImage, params: TmoParams) -> np.ndarray:
    maxval = (1 << base.bit_depth) - 1
    linearized = np.power(base.samples.astype(np.float64) / maxval, GAMMA)
    proxy = linearized.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if params.kind == TmoKind.DRAGO:
            lum_est = tmo._drago_inverse(proxy, params.l_max)
        else:
            capped = np.minimum(proxy, INVERSE_DISPLAY_CAP)
            scaled = capped / (1.0 - capped)
            lum_est = scaled * params.log_avg / KEY
        ratio = np.where(proxy > 0.0, linearized / np.where(proxy > 0.0, proxy, 1.0), 0.0)
        return ratio * lum_est


def _prediction_bases(depth: int, rng) -> list[LdrImage]:
    """One row holding every code in each channel, random triples with two-
    and three-way channel ties, and dark triples (every code below an eighth
    of the range), whose inverse stays finite where the upper codes' does
    not."""
    codes = np.arange(1 << depth, dtype=np.uint16)
    every = np.stack([codes, codes[::-1], rng.permutation(codes)])[:, None, :]
    triples = rng.integers(0, 1 << depth, size=(3, 24, 24)).astype(np.uint16)
    triples[1, ::2] = triples[0, ::2]
    triples[2, ::3] = triples[0, ::3]
    dark = triples >> 3
    return [LdrImage(samples, bit_depth=depth) for samples in (every, triples, dark)]


def _codes_or_error(predict) -> np.ndarray | type:
    """The half codes ``predict()`` returns, or the class of the codec error
    it raises."""
    try:
        return predict()
    except Hdr2lError as exc:
        return type(exc)


@pytest.mark.parametrize("depth", [8, 12])
@pytest.mark.parametrize("kind", list(TmoKind))
def test_predict_hdr_tables_match_per_pixel_reference(depth, kind, rng):
    """Both paths, the pair table at depth 8 and the float planes at depth 12,
    give the half-encoded per-pixel values, and raise the reference's error
    class where a pixel takes a non-finite value: a log-average of 5e307
    overflows the photographic inverse at the upper codes, which the dark
    base never takes."""
    bases = _prediction_bases(depth, rng)
    l_maxes = (LOG_AVERAGE_DELTA, HALF_MAX, sys.float_info.max)
    outcomes = {}
    for l_max, log_avg in itertools.product(l_maxes, (0.37, 1e-300, 5e307, 1.7e308)):
        params = TmoParams(kind=kind, log_avg=log_avg, l_max=l_max)
        for index, base in enumerate(bases):
            want = _codes_or_error(lambda: half_encode_array(_predict_hdr_per_pixel(base, params)))
            got = _codes_or_error(lambda: predict_hdr(base, params).samples)
            if isinstance(want, type):
                assert got is want, (l_max, log_avg, index)
            else:
                assert np.array_equal(got, want), (l_max, log_avg, index)
            outcomes[index, log_avg, l_max] = want if isinstance(want, type) else None
    assert all(outcomes[2, 5e307, l_max] is None for l_max in l_maxes)
    if kind != TmoKind.DRAGO:  # log_avg does not enter the logarithmic inverse
        assert outcomes[0, 5e307, HALF_MAX] is DomainError


def test_top_codes_follow_a_non_monotone_level_table(rng):
    levels = rng.permutation(256) / 255.0
    samples = rng.integers(0, 256, size=(3, 16, 16)).astype(np.uint16)
    samples[1, ::2] = samples[0, ::2]
    linearized = levels[samples]
    top, proxy = tmo._top_codes(samples, linearized)
    assert np.array_equal(proxy, linearized.max(axis=0))
    assert np.array_equal(levels[top], proxy)
    assert not np.array_equal(top, samples.max(axis=0))


def test_pair_table_follows_a_non_monotone_level_table(rng):
    """The pair table's rows are ranked by level, not by code, so it agrees
    with the per-pixel path under a level table that is not monotone."""
    levels = rng.permutation(256) / 255.0
    inverse = levels * 3.0
    samples = rng.integers(0, 256, size=(3, 16, 16)).astype(np.uint16)
    samples[1, ::2] = samples[0, ::2]
    got = tmo._predict_by_pairs(samples, levels, inverse)
    assert np.array_equal(got, tmo._predict_per_pixel(samples, levels, inverse))
    top, _ = tmo._top_codes(samples, levels[samples])
    assert not np.array_equal(top, samples.max(axis=0))


# ---------------------------------------------------------------------------
# The whole-image stages that the one-plane-at-a-time ones replaced: each
# computes on (3, h, w) float64 arrays.  The per-channel stages must match
# them bit for bit.  The local operator's adaptation is taken from
# tmo._local_adaptation; its Gaussian pyramid is bounded against scipy's
# Gaussian bank further below.


def _luminance_whole(image: HdrImage) -> np.ndarray:
    rgb = image.linear()
    w = LUMA_WEIGHTS
    return w[0] * rgb[0] + w[1] * rgb[1] + w[2] * rgb[2]


def _drago_curve_whole(lum, l_max: float) -> np.ndarray:
    exponent = math.log(BIAS) / math.log(0.5)
    prefix = (LDMAX / 100.0) / math.log10(1.0 + l_max)
    with np.errstate(divide="ignore"):
        ratio = np.clip(np.asarray(lum, dtype=np.float64) / l_max, 0.0, 1.0)
        denom = np.log(2.0 + 8.0 * np.power(ratio, exponent))
    return prefix * np.log1p(lum) / denom


def _local_adaptation_gaussian_bank(scaled: np.ndarray) -> np.ndarray:
    """The local operator's adaptation with every center filtered at full
    size by scipy, all scales kept."""
    from scipy.ndimage import gaussian_filter

    n = LOCAL_SCALES
    centers = [gaussian_filter(scaled, sigma=LOCAL_SCALE_RATIO**i, mode="nearest") for i in range(n + 1)]
    selected = centers[0]
    passing = np.ones(scaled.shape, dtype=bool)
    for i in range(n):
        scale = LOCAL_SCALE_RATIO**i
        activity = (centers[i] - centers[i + 1]) / (LOCAL_SHARPEN * KEY / (scale * scale) + centers[i])
        passing = passing & (np.abs(activity) < LOCAL_THRESHOLD)
        selected = np.where(passing, centers[i], selected)
    return selected


def _display_luminance_whole(lum: np.ndarray, params: TmoParams) -> np.ndarray:
    if params.kind == TmoKind.DRAGO:
        return _drago_curve_whole(lum, params.l_max)
    scaled = KEY * lum / params.log_avg
    if params.kind == TmoKind.REINHARD_LOCAL:
        return scaled / (1.0 + tmo._local_adaptation(scaled))
    return scaled / (1.0 + scaled)


def _tonemap_whole(image: HdrImage, params: TmoParams, refine_bits: int) -> np.ndarray:
    lum = _luminance_whole(image)
    return _map_channels_whole(image, lum, _display_luminance_whole(lum, params), refine_bits)


def _map_channels_whole(image: HdrImage, lum: np.ndarray, display: np.ndarray, refine_bits: int) -> np.ndarray:
    rgb = image.linear()
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(lum > 0.0, rgb / np.where(lum > 0.0, lum, 1.0), 0.0)
    maxval = (1 << (8 + refine_bits)) - 1
    mapped = np.power(np.clip(ratio * display, 0.0, None), 1.0 / GAMMA) * maxval
    return np.clip(np.rint(mapped), 0, maxval).astype(np.uint16)


def _predict_hdr_whole(base: LdrImage, params: TmoParams) -> np.ndarray:
    maxval = (1 << base.bit_depth) - 1
    levels = np.power(np.arange(maxval + 1, dtype=np.float64) / maxval, GAMMA)
    linearized = levels[base.samples]
    top, proxy = base.samples[0], linearized[0]
    for code, level in zip(base.samples[1:], linearized[1:]):
        top = np.where(level > proxy, code, top)
        proxy = np.maximum(proxy, level)
    if params.kind == TmoKind.DRAGO:
        lum_est = tmo._drago_inverse(levels, params.l_max)[top]
    else:
        capped = np.minimum(levels, INVERSE_DISPLAY_CAP)
        scaled = capped / (1.0 - capped)
        lum_est = (scaled * params.log_avg / KEY)[top]
    scene = linearized / np.where(proxy > 0.0, proxy, 1.0)
    scene *= lum_est
    return half_encode_array(scene)


def _oracle_images(rng) -> list[HdrImage]:
    """Random colours over 23 stops at sizes that are not multiples of 8, 1 x N
    and N x 1, with black pixels, pixels with one black channel, and samples
    at the top half codes (up to HALF_MAX)."""
    images = []
    for height, width in ((1, 37), (37, 1), (13, 21), (40, 56)):
        lum = np.exp(rng.uniform(-12.0, 11.0, size=(height, width)))
        codes = half_encode_array(lum * rng.uniform(0.05, 1.0, size=(3, height, width)))
        pick = rng.random((height, width))
        codes[:, pick < 0.1] = 0
        codes[0, (pick >= 0.1) & (pick < 0.15)] = 0
        top = pick > 0.9
        codes[:, top] = rng.integers(0x7BC0, 0x7C00, size=(3, int(top.sum())))
        images.append(HdrImage(codes))
    return images


def test_luminance_matches_whole_image_oracle(rng):
    for image in _oracle_images(rng):
        assert np.array_equal(luminance(image).view(np.uint64), _luminance_whole(image).view(np.uint64))


@pytest.mark.parametrize("kind", list(TmoKind), ids=lambda kind: f"{kind.name}-{LOCAL_SCALES}-{GAMMA}")
def test_tonemap_matches_whole_image_oracle(kind, rng):
    for image in _oracle_images(rng):
        lum = luminance(image)
        bound = bind_image_stats(TmoParams(kind=kind), lum)
        assert np.array_equal(
            display_luminance(lum, bound).view(np.uint64), _display_luminance_whole(lum, bound).view(np.uint64)
        )
        for refine_bits in (0, 4):
            got = tonemap(image, lum, bound, refine_bits)
            assert got.bit_depth == 8 + refine_bits
            assert np.array_equal(got.samples, _tonemap_whole(image, bound, refine_bits)), refine_bits
            assert (got.samples[:, lum == 0.0] == 0).all()  # black pixels among lit ones


@pytest.mark.parametrize("kind", list(TmoKind))
def test_predict_hdr_matches_whole_image_oracle(kind, rng):
    for depth in (8, 12):
        for image in _oracle_images(rng):
            samples = rng.integers(0, 1 << depth, size=image.samples.shape).astype(np.uint16)
            samples[:, rng.random(samples.shape[1:]) < 0.1] = 0
            samples[:, rng.random(samples.shape[1:]) < 0.1] = (1 << depth) - 1
            base = LdrImage(samples, bit_depth=depth)
            for l_max in (LOG_AVERAGE_DELTA, HALF_MAX):
                params = TmoParams(kind=kind, log_avg=0.37, l_max=l_max)
                assert np.array_equal(predict_hdr(base, params).samples, _predict_hdr_whole(base, params))


# ---------------------------------------------------------------------------
# The local operator's box pyramid against scipy's Gaussian bank.  The bounds
# hold with some margin on every image below; the per-pixel noise of the
# 24 x 24 sparse image puts the most pixels near the activity threshold.

SURROUND_TOLERANCE = 0.08  # relative error of each pyramid surround
ADAPTATION_TOLERANCE = 0.05  # an adaptation this far off in relative terms...
ADAPTATION_SHARE = 0.1  # ...on at most this share of the pixels
CODE_SHARE = 0.2  # share of 8-bit tone-mapped samples that may differ
CODE_STEP = 32  # and by how much at most


def _ladder_image(height: int, width: int, seed: int) -> HdrImage:
    """4 x 4 flat patches on a 12-rung ladder of 0.75 stops, crossed by a step
    wedge: the hard edges of the benchmark's exposure-ladder scenes."""
    rng = np.random.default_rng(seed)
    rungs = np.exp2(0.75 * np.arange(12) - 4.0)
    picks = rng.integers(0, 12, size=(4, 4))
    idx = np.repeat(np.repeat(picks, -(-height // 4), 0), -(-width // 4), 1)[:height, :width]
    idx[height // 3 : height // 3 + max(1, height // 8)] = np.arange(width) * 12 // width
    lum = rungs[idx]
    return HdrImage(half_encode_array(np.stack([lum, lum * 0.8, lum * 0.6])))


PYRAMID_IMAGES = {
    "smooth-24x24": lambda: smooth_hdr_image(24, 24),
    "sparse-24x24": lambda: sparse_hdr_image(24, 24),
    "smooth-1x97": lambda: smooth_hdr_image(97, 1),
    "smooth-97x1": lambda: smooth_hdr_image(1, 97),
    "sparse-1x61": lambda: sparse_hdr_image(61, 1),
    "sparse-37x53": lambda: sparse_hdr_image(53, 37),
    "smooth-96x96": lambda: smooth_hdr_image(96, 96),
    "ladder-131x67": lambda: _ladder_image(131, 67, 1),
    "ladder-256x256": lambda: _ladder_image(256, 256, 2),
}


@pytest.mark.parametrize("name", sorted(PYRAMID_IMAGES))
def test_local_operator_pyramid_stays_near_the_gaussian_bank(name):
    from scipy.ndimage import gaussian_filter

    image = PYRAMID_IMAGES[name]()
    lum = luminance(image)
    params = bind_image_stats(TmoParams(kind=TmoKind.REINHARD_LOCAL), lum)
    scaled = KEY * lum / params.log_avg
    level = (0, scaled)
    sigmas = [LOCAL_SCALE_RATIO**i for i in range(1, LOCAL_SCALES + 1)]
    assert any(sigma >= tmo.PYRAMID_SIGMA for sigma in sigmas)
    for sigma in sigmas:
        if sigma >= tmo.PYRAMID_SIGMA:
            surround, level = tmo._pyramid_surround(sigma, level, scaled.shape)
            exact = gaussian_filter(scaled, sigma, mode="nearest")
            assert np.max(np.abs(surround - exact) / exact) <= SURROUND_TOLERANCE, sigma

    exact = _local_adaptation_gaussian_bank(scaled)
    off = np.abs(tmo._local_adaptation(scaled) - exact) > ADAPTATION_TOLERANCE * exact
    assert off.mean() <= ADAPTATION_SHARE

    got = tonemap(image, lum, params).samples.astype(np.int64)
    step = np.abs(got - _map_channels_whole(image, lum, scaled / (1.0 + exact), 0))
    assert (step > 0).mean() <= CODE_SHARE
    assert step.max() <= CODE_STEP


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (5, 9), (24, 24), (37, 53)])
def test_pyramid_levels_are_box_means_of_the_edge_extended_image(shape, rng):
    image = rng.uniform(0.0, 4.0, size=shape)
    level = image
    for k in range(1, 5):
        level = tmo._halve(level, padded=k > 1)
        n = 2**k
        blocks = [-(-side // n) for side in shape]
        # One block of edge values before the image, then whole blocks to one
        # block past its end.
        extended = np.pad(image, [(n, (b + 1) * n - side) for b, side in zip(blocks, shape)], mode="edge")
        means = extended.reshape(blocks[0] + 2, n, blocks[1] + 2, n).mean(axis=(1, 3))
        np.testing.assert_allclose(level, means, rtol=1e-13, err_msg=f"level {k}")


@pytest.mark.parametrize("shape", [(1, 1500), (1500, 1)])
def test_pyramid_surround_adds_the_variance_of_its_gaussian(shape):
    """On a quadratic the Gaussian of variance sigma^2 adds sigma^2.  The
    pyramid adds that, the box included, plus 4^k t (1 - t) from the linear
    upsampling at weight t; scipy's kernel, cut at 4 sigma, falls short by
    less than 0.1 %.  Without the box's (4^k - 1) / 12 in sigma_k it would
    add at least 0.2 % more on these scales."""
    x = np.arange(max(shape)) - max(shape) / 2.0
    quadratic = (x * x).reshape(shape)
    interior = slice(500, -500)
    for sigma in (LOCAL_SCALE_RATIO**i for i in range(1, LOCAL_SCALES + 1)):
        if sigma < tmo.PYRAMID_SIGMA:
            continue
        surround, (k, _) = tmo._pyramid_surround(sigma, (0, quadratic), shape)
        _, t = tmo._upsample_taps(max(shape), k)
        added = (surround - quadratic).ravel()[interior]
        expected = (sigma * sigma + 4**k * t * (1.0 - t))[interior]
        assert np.max(np.abs(added - expected)) <= 1.5e-3 * sigma * sigma, sigma
