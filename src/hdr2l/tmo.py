"""Tone-mapping operators and the decoder-side inverse prediction map.

Three tone curves run at their published settings, the module constants
:data:`KEY`, :data:`L_WHITE`, :data:`BIAS`, :data:`LDMAX`, :data:`LOCAL_SCALES`,
:data:`LOCAL_THRESHOLD` and :data:`GAMMA`: the global photographic curve
(Reinhard et al. 2002), its local dodge-and-burn variant, and the adaptive
logarithmic operator (Drago et al. 2003).  ``default`` and ``reinhard-global``
are one curve under two kind bytes.  The kind and two statistics of the source
image (log-average and peak luminance) are serialized bit-exactly so that the
encoder and decoder compute identical predictions.  The constants are not in
the stream: a change to any of them changes what a stream decodes to, so it
must come with a new container ``VERSION``.

The local operator's widest Gaussians (sigma up to 1.6^8, about 43 pixels)
run on a box pyramid after Burt and Adelson ("The Laplacian pyramid as a
compact image code", 1983).  A Gaussian of sigma >= :data:`PYRAMID_SIGMA` is
filtered on the level of 2^k x 2^k block means where sigma / 2^k first falls
below :data:`PYRAMID_SIGMA`, at sigma_k = sqrt(sigma^2 - (4^k - 1) / 12) / 2^k
because the box adds a variance of (4^k - 1) / 12 pixels^2, and interpolated
linearly back to full size.  Only the encoder evaluates this operator; its
streams decode through the global inverse like any other.

The inverse prediction map only has to be deterministic, not accurate: the
residual layer restores the original bit-exactly regardless.  Prediction
quality affects bitrate only.  Everything in it that depends on one sample
code alone (the gamma-linearized level and the inverse display curve at that
level) is computed once per code into tables of 2^b entries, b the base
depth.  On an 8-bit base, which HP and XT with R = 0 have, a predicted half
code depends only on the pixel's top code and the channel's code, so the
256 x 256 pair codes are computed once per call and each channel sample is
one gather from that table.  The 12-bit base of XT with R = 4 would need 2^24
pairs; it gathers the per-code tables and scales each channel as a float64
plane.  Both give the values of the per-pixel formula.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .basejpeg import REFINE_BIT_CHOICES
from .errors import InternalError, ParameterError, ParseError
from .imagio import HdrImage, LdrImage, half_decode_array, half_encode_array

LOG_AVERAGE_DELTA = 1e-6

# The operators' settings.  No stream carries them: changing one means
# bumping the container VERSION.
KEY = 0.18  # photographic key value a
L_WHITE = math.inf  # burn-out luminance; inf turns burn-out off
BIAS = 0.85  # logarithmic operator's bias b
LDMAX = 100.0  # display peak in cd/m^2; the logarithmic curve reaches LDMAX / 100
LOCAL_SCALES = 8  # center/surround scale pairs the local operator probes
LOCAL_THRESHOLD = 0.05  # local operator's activity threshold epsilon
GAMMA = 2.2  # display gamma of the base layer

# Local operator constants: center/surround scale ratio and sharpening
# exponent in the activity normalizer.
LOCAL_SCALE_RATIO = 1.6
LOCAL_SHARPEN = 2.0**8
# Gaussians at least this wide run on a box pyramid (see _local_adaptation),
# upsampled to full size in this many blocks of whole rows; the activity is
# computed in the same blocks.
PYRAMID_SIGMA = 6.0
UPSAMPLE_BLOCKS = 32

# Inverse map constants: the photographic inverse saturates just below 1, the
# logarithmic inverse bisects its forward curve to float64 resolution.  The
# bisection runs once per display level of the code table (at most 2^b levels
# for a b-bit base), not once per pixel.
INVERSE_DISPLAY_CAP = 1.0 - 2.0**-10
DRAGO_INVERSE_ITERATIONS = 64


class TmoKind(IntEnum):
    DEFAULT = 0
    REINHARD_GLOBAL = 1
    REINHARD_LOCAL = 2
    DRAGO = 3


TMO_NAMES = {
    TmoKind.DEFAULT: "default",
    TmoKind.REINHARD_GLOBAL: "reinhard-global",
    TmoKind.REINHARD_LOCAL: "reinhard-local",
    TmoKind.DRAGO: "drago",
}
TMO_BY_NAME = {name: kind for kind, name in TMO_NAMES.items()}

# The kind byte, then the log-average and peak luminance as little-endian
# float64.
_PARAMS_STRUCT = struct.Struct("<B2d")
TMO_PARAMS_SIZE = _PARAMS_STRUCT.size


@dataclass(frozen=True)
class TmoParams:
    """Operator choice plus the two statistics of the source image.

    ``log_avg`` and ``l_max`` default to 0 (unbound) and must be bound with
    :func:`bind_image_stats` before tone mapping, prediction, or
    serialization.
    """

    kind: TmoKind
    log_avg: float = 0.0
    l_max: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, TmoKind):
            object.__setattr__(self, "kind", TmoKind(self.kind))
        if not (self.log_avg >= 0 and math.isfinite(self.log_avg)):
            raise ParameterError(f"log_avg must be finite and non-negative, got {self.log_avg}")
        if not (self.l_max >= 0 and math.isfinite(self.l_max)):
            raise ParameterError(f"l_max must be finite and non-negative, got {self.l_max}")

    @property
    def bound(self) -> bool:
        return self.log_avg > 0 and self.l_max > 0


def serialize_tmo_params(params: TmoParams) -> bytes:
    """Fixed-order little-endian layout: kind byte, log_avg, l_max."""
    if not params.bound:
        raise ParameterError("cannot serialize unbound TmoParams (call bind_image_stats)")
    return _PARAMS_STRUCT.pack(int(params.kind), params.log_avg, params.l_max)


def parse_tmo_params(data: bytes) -> TmoParams:
    """Exact inverse of :func:`serialize_tmo_params`."""
    if len(data) != TMO_PARAMS_SIZE:
        raise ParseError(f"TMO parameter block must be {TMO_PARAMS_SIZE} bytes, got {len(data)}")
    kind, log_avg, l_max = _PARAMS_STRUCT.unpack(data)
    if kind not in TMO_NAMES:
        raise ParseError(f"unknown TMO kind {kind}", offset=0)
    try:
        params = TmoParams(TmoKind(kind), log_avg, l_max)
    except ParameterError as exc:
        raise ParseError(f"invalid TMO parameter block: {exc}") from None
    # bind_image_stats never stores a log-average of 0, which the prediction
    # refuses, nor a peak below this floor; the logarithmic curve divides by
    # log10(1 + l_max).
    if params.log_avg == 0.0:
        raise ParseError("TMO log-average luminance is 0", offset=1)
    if params.l_max < LOG_AVERAGE_DELTA:
        raise ParseError(f"TMO peak luminance {params.l_max} below {LOG_AVERAGE_DELTA}")
    return params


def log_average_luminance(lum: np.ndarray) -> float:
    """exp of the mean log luminance, offset by a small delta against zeros."""
    arr = np.asarray(lum, dtype=np.float64)
    if arr.size == 0:
        raise ParameterError("luminance map is empty")
    logs = LOG_AVERAGE_DELTA + arr
    return float(np.exp(np.mean(np.log(logs, out=logs))))


def bind_image_stats(params: TmoParams, lum: np.ndarray) -> TmoParams:
    """Fill in the source-image statistics the prediction map needs."""
    return replace(
        params,
        log_avg=log_average_luminance(lum),
        l_max=max(float(np.max(lum)), LOG_AVERAGE_DELTA),
    )


def _drago_curve(lum: np.ndarray, l_max: float) -> np.ndarray:
    """Adaptive logarithmic display luminance, 0 at 0 and LDMAX/100 at l_max:
    prefix * log1p(L) / log(2 + 8 * clip(L / l_max, 0, 1) ** exponent)."""
    exponent = math.log(BIAS) / math.log(0.5)
    prefix = (LDMAX / 100.0) / math.log10(1.0 + l_max)
    lum = np.asarray(lum, dtype=np.float64)
    # Every step writes into one of two planes; ``out`` keeps a 0-d input an array.
    with np.errstate(divide="ignore"):
        denom = np.divide(lum, l_max, out=np.empty_like(lum))
        np.clip(denom, 0.0, 1.0, out=denom)
        np.power(denom, exponent, out=denom)
        denom *= 8.0
        denom += 2.0
        np.log(denom, out=denom)
    curve = np.log1p(lum, out=np.empty_like(lum))
    curve *= prefix
    curve /= denom
    return curve


def _halve_rows(inner: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Means of row pairs of ``inner``, between the edge lines ``first`` and
    ``last``.  An odd last row is paired with ``last``, the next block of the
    image extended by its edge."""
    pairs, odd = divmod(inner.shape[0], 2)
    out = np.empty((pairs + odd + 2,) + inner.shape[1:])
    out[0] = first
    out[-1] = last
    body = out[1:-1]
    np.add(inner[0 : 2 * pairs : 2], inner[1 : 2 * pairs : 2], out=body[:pairs])
    if odd:
        np.add(inner[-1], last, out=body[-1])
    body *= 0.5
    return out


def _halve(level: np.ndarray, padded: bool) -> np.ndarray:
    """The next pyramid level: 2 x 2 box means of ``level``, with one line of
    edge values on each side.  A padded level already carries those lines; the
    full-size image is its own edge."""
    inner = level[1:-1] if padded else level
    rows = _halve_rows(inner, level[0], level[-1])
    inner = rows[:, 1:-1] if padded else rows
    return np.ascontiguousarray(_halve_rows(inner.T, rows[:, 0], rows[:, -1]).T)


def _upsample_taps(size: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``size`` pixels, the padded level-k index of the block
    centre at or before it and the linear weight of the next one.  Block j
    (index j + 1) covers pixels j * 2^k to (j + 1) * 2^k - 1."""
    at = (np.arange(size) + 0.5) / 2**k + 0.5
    lower = np.floor(at)
    return lower.astype(np.intp), at - lower


def _pyramid_surround(sigma: float, level: tuple, shape: tuple[int, int]) -> tuple[np.ndarray, tuple]:
    """``gaussian_filter(scaled, sigma, mode="nearest")`` of the full-size
    ``shape``, approximated on level k of the box pyramid, k the largest with
    sigma / 2^k >= PYRAMID_SIGMA / 2, and upsampled linearly a block of rows
    at a time.  ``level`` is (j, level j) for some j <= k, level 0 the
    full-size plane; the surround is returned with (k, level k)."""
    from scipy.ndimage import gaussian_filter

    k = 0
    while sigma / 2**k >= PYRAMID_SIGMA:
        k += 1
    while level[0] < k:
        level = (level[0] + 1, _halve(level[1], padded=level[0] > 0))
    # A 2^k box has variance (4^k - 1) / 12 in pixels^2; the Gaussian on the
    # level supplies the rest.
    coarse = gaussian_filter(level[1], math.sqrt(sigma * sigma - (4**k - 1) / 12) / 2**k, mode="nearest")
    row_at, row_weight = _upsample_taps(shape[0], k)
    col_at, col_weight = _upsample_taps(shape[1], k)
    col_next = col_at + 1
    surround = np.empty(shape)
    step = -(-shape[0] // UPSAMPLE_BLOCKS)
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        lines = coarse[row_at[rows] + 1]
        lower = coarse[row_at[rows]]
        lines -= lower
        lines *= row_weight[rows, None]
        lines += lower
        out = surround[rows]
        right = lines[:, col_next]
        np.take(lines, col_at, axis=1, out=out)
        right -= out
        right *= col_weight
        out += right
    return surround, level


def _local_adaptation(scaled: np.ndarray) -> np.ndarray:
    """Per-pixel adaptation luminance: the center Gaussian average at the
    largest scale whose center-surround activity stays below the threshold.

    The centers are filtered in scale order and only scales i and i + 1 are
    kept.  Scale 0 is selected everywhere at the first step, so its plane
    becomes the selection, which later scales overwrite where they pass.

    Surrounds of sigma >= :data:`PYRAMID_SIGMA` come from the box pyramid
    of the module docstring, whose levels are built once per call, each from
    the one before, and shared by the scales on them.  Each level is framed
    by one line of edge values per side, the block outside that border of
    the edge-extended image, with which an odd last row or column pairs when
    decimated.  So the Gaussian on a level, which replicates edges like the
    full-size ones, sees the decimated extended image, and the interpolation
    between block centres reaches the border.  It fills the full-size
    surround a block of rows at a time.

    The activity is computed in the same :data:`UPSAMPLE_BLOCKS` blocks of
    rows, so the selection, the center, the surround and the mask are the
    only full-size planes."""
    from scipy.ndimage import gaussian_filter  # slow to import; only this operator needs it

    level = (0, scaled)
    center = gaussian_filter(scaled, sigma=1.0, mode="nearest")
    selected = center
    passing = np.ones(scaled.shape, dtype=bool)
    step = -(-scaled.shape[0] // UPSAMPLE_BLOCKS)
    for i in range(LOCAL_SCALES):
        scale = LOCAL_SCALE_RATIO**i
        sigma = LOCAL_SCALE_RATIO ** (i + 1)
        if sigma < PYRAMID_SIGMA:
            surround = gaussian_filter(scaled, sigma=sigma, mode="nearest")
        else:
            surround, level = _pyramid_surround(sigma, level, scaled.shape)
        # |center - surround| / (LOCAL_SHARPEN * KEY / scale^2 + center) < threshold,
        # a block of rows at a time.
        for start in range(0, scaled.shape[0], step):
            rows = slice(start, start + step)
            activity = center[rows] - surround[rows]
            activity /= LOCAL_SHARPEN * KEY / (scale * scale) + center[rows]
            np.abs(activity, out=activity)
            passing[rows] &= activity < LOCAL_THRESHOLD
        if i:
            np.copyto(selected, center, where=passing)
        center = surround
    return selected


def display_luminance(lum: np.ndarray, params: TmoParams) -> np.ndarray:
    """Map scene luminance to display luminance under the chosen operator."""
    if params.kind == TmoKind.DRAGO:
        if params.l_max <= 0:
            raise ParameterError("Drago operator requires bound l_max")
        return _drago_curve(lum, params.l_max)
    # Each curve is evaluated in the order its formula reads, in place; IEEE
    # addition and multiplication commute, so 1 + x is computed as x + 1.
    scaled = KEY * np.asarray(lum, dtype=np.float64)
    scaled /= params.log_avg
    if params.kind == TmoKind.REINHARD_LOCAL:  # scaled / (1 + adaptation)
        denom = _local_adaptation(scaled)
        denom += 1.0
    else:  # scaled / (1 + scaled), burn-out off
        denom = scaled + 1.0
    scaled /= denom
    return scaled


def tonemap(image: HdrImage, lum: np.ndarray, params: TmoParams, refine_bits: int = 0) -> LdrImage:
    """Tone map to an (8 + refine_bits)-bit image; ``lum`` is
    :func:`~hdr2l.imagio.luminance` of ``image``.

    Per channel: out = round((channel / L * Ld) ** (1 / gamma) * maxval),
    clamped to the output range; pixels with zero luminance map to 0.  The
    channels are mapped one at a time, each in one float64 plane.
    """
    if refine_bits not in REFINE_BIT_CHOICES:
        raise ParameterError(f"refine_bits must be one of {REFINE_BIT_CHOICES}, got {refine_bits}")
    if params.log_avg <= 0:
        raise ParameterError("tonemap requires bound TmoParams (call bind_image_stats)")
    display = display_luminance(lum, params)
    # Zero luminance means all three half codes are 0, which 0 / 1 maps to 0.
    divisor = np.where(lum > 0.0, lum, 1.0)
    bit_depth = 8 + refine_bits
    maxval = (1 << bit_depth) - 1
    codes = np.empty(image.samples.shape, dtype=np.uint16)
    for plane, out in zip(image.samples, codes):
        mapped = half_decode_array(plane)
        mapped /= divisor
        mapped *= display
        np.clip(mapped, 0.0, None, out=mapped)
        np.power(mapped, 1.0 / GAMMA, out=mapped)
        mapped *= maxval
        if not np.isfinite(mapped).all():
            raise InternalError("non-finite value during tone mapping")
        np.rint(mapped, out=mapped)
        out[...] = np.clip(mapped, 0, maxval, out=mapped)
        del mapped  # before the next channel is decoded
    return LdrImage(codes, bit_depth=bit_depth)


def _drago_inverse(target: np.ndarray, l_max: float) -> np.ndarray:
    """Deterministic bisection of the monotone logarithmic curve.

    The curve has no closed-form inverse; a fixed iteration count keeps the
    result a pure function of the inputs, which is all losslessness needs.
    """
    top = float(_drago_curve(np.float64(l_max), l_max))
    t = np.clip(np.asarray(target, dtype=np.float64), 0.0, top)
    lo = np.zeros_like(t)
    hi = np.full_like(t, l_max)
    for _ in range(DRAGO_INVERSE_ITERATIONS):
        mid = 0.5 * (lo + hi)
        above = _drago_curve(mid, l_max) >= t
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def _top_codes(samples: np.ndarray, linearized) -> tuple[np.ndarray, np.ndarray]:
    """Per pixel, the channel maximum of ``linearized`` and a code whose level
    it is.  A later channel takes over only when its level is larger, so any
    level table works (np.power need not be monotone in its base).
    ``linearized`` holds or yields one level plane per channel, so a caller
    can gather them one at a time."""
    pairs = zip(samples, linearized)
    top, proxy = next(pairs)
    for code, level in pairs:
        top = np.where(level > proxy, code, top)
        proxy = np.maximum(proxy, level)
    return top, proxy


def _predict_by_pairs(samples: np.ndarray, levels: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Half codes of the prediction of an 8-bit base, one table gather per
    channel sample.  Row r of the table holds the pixels whose largest
    channel level is the r-th smallest level (a rank table, so ``levels``
    need not be monotone) and column c the channel code, so a sample's index
    is r << 8 | c.  Only rows some pixel takes are computed, and in them only
    the columns whose level does not exceed the row's; the rest hold 0.  A
    taken row's own top code has a non-finite value whenever another column
    of the row has, so the domain check of :func:`half_encode_array` refuses
    exactly the predictions the per-pixel path refuses."""
    order = np.argsort(levels, kind="stable")
    rank = np.empty(levels.size, dtype=np.uint16)
    rank[order] = np.arange(levels.size)
    top = np.take(rank, samples[0])
    for plane in samples[1:]:
        np.maximum(top, np.take(rank, plane), out=top)
    taken = np.bincount(top.ravel(), minlength=levels.size) > 0
    top_level = levels[order][:, None]
    reach = (levels <= top_level) & taken[:, None]
    # A top level of 0 has all three channels at level 0, divided by 1.
    divisor = np.where(top_level > 0.0, top_level, 1.0)
    table = np.divide(levels, divisor, out=np.zeros(reach.shape), where=reach)
    np.multiply(table, inverse[order][:, None], out=table, where=reach)
    table = half_encode_array(table).ravel()
    top <<= 8
    codes = np.empty(samples.shape, dtype=np.uint16)
    for plane, out in zip(samples, codes):
        np.take(table, top | plane, out=out)
    return codes


def _predict_per_pixel(samples: np.ndarray, levels: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Half codes of the prediction, evaluated per pixel: levels are gathered
    one channel at a time, and each channel is scaled and half-encoded in one
    float64 plane."""
    top, proxy = _top_codes(samples, (levels[plane] for plane in samples))
    lum_est = inverse[top]
    del top
    # Channel ratios; a zero proxy has all three channels at level 0, so they
    # are divided by 1.  No level is negative or NaN: not > 0 is == 0.
    proxy[proxy == 0.0] = 1.0
    codes = np.empty(samples.shape, dtype=np.uint16)
    for plane, out in zip(samples, codes):
        scene = levels[plane]
        scene /= proxy
        scene *= lum_est
        out[...] = half_encode_array(scene)
        del scene  # before the next channel is gathered
    return codes


def predict_hdr(base: LdrImage, params: TmoParams) -> HdrImage:
    """Deterministic approximate inverse of the tone mapping.

    Channels are gamma-linearized, the per-pixel display luminance proxy is
    their maximum, the global curve is inverted at the proxy, and channel
    ratios are rescaled by the recovered scene luminance.

    The linearized level and the inverse curve depend on one sample code
    each, so both are tabulated over every code of the base depth.  On an
    8-bit base every predicted half code depends on the pair (top code,
    channel code) alone, so the 256 x 256 pair values are computed and
    half-encoded once per call into a uint16 table, and each channel of each
    pixel is one gather from it.  A 12-bit base (XT with R = 4) would need
    2^24 pairs; it keeps the per-pixel float path, gathering the per-code
    tables and dividing, scaling and half-encoding each channel plane.  Both
    paths run the same float64 operations in the same order on the same
    operands, and the pixel's top code is one whose level is the channel
    maximum, so every code equals the per-pixel evaluation of the formula.

    Statistics from a crafted stream can overflow the inverse curve.  That
    raises no floating-point warning: a non-finite value that some pixel
    takes is refused by :func:`half_encode_array` with ``DomainError``.
    """
    if params.log_avg <= 0:
        raise ParameterError("predict_hdr requires bound TmoParams (call bind_image_stats)")
    maxval = (1 << base.bit_depth) - 1
    levels = np.power(np.arange(maxval + 1, dtype=np.float64) / maxval, GAMMA)
    if params.kind == TmoKind.DRAGO and params.l_max <= 0:
        raise ParameterError("Drago inverse requires bound l_max")
    with np.errstate(over="ignore", invalid="ignore"):
        if params.kind == TmoKind.DRAGO:
            inverse = _drago_inverse(levels, params.l_max)
        else:  # the local operator reuses the photographic inverse
            capped = np.minimum(levels, INVERSE_DISPLAY_CAP)
            scaled = capped / (1.0 - capped)
            inverse = scaled * params.log_avg / KEY
        predict = _predict_by_pairs if base.bit_depth == 8 else _predict_per_pixel
        codes = predict(base.samples, levels, inverse)
    return HdrImage(codes)
