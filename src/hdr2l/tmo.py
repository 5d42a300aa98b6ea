"""Tone-mapping operators and the decoder-side inverse prediction map.

Four operators are provided: the default global photographic curve (fixed key
0.18), the photographic operator with a configurable key and optional burn-out
luminance, its local dodge-and-burn variant, and the adaptive logarithmic
operator.  The operator parameters, together with two statistics of the source
image (log-average and peak luminance), are serialized bit-exactly so that the
encoder and decoder compute identical predictions.

The inverse prediction map only has to be deterministic, not accurate: the
residual layer restores the original bit-exactly regardless.  Prediction
quality affects bitrate only.  Everything in it that depends on one sample
code alone (the gamma-linearized level and the inverse display curve at that
level) is computed once per code into tables of 2^b entries, b the base
depth, and gathered per pixel; the values are those of the per-pixel formula.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .basejpeg import REFINE_BIT_CHOICES
from .errors import InternalError, ParameterError, ParseError
from .imagio import HdrImage, LdrImage, half_encode_array, luminance

LOG_AVERAGE_DELTA = 1e-6

# Local operator constants: center/surround scale ratio, sharpening exponent
# in the activity normalizer, and the smallest Gaussian scale in pixels.
LOCAL_SCALE_RATIO = 1.6
LOCAL_SHARPEN = 2.0**8
DEFAULT_KEY = 0.18

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

_PARAMS_STRUCT = struct.Struct("<B9d")
TMO_PARAMS_SIZE = _PARAMS_STRUCT.size


@dataclass(frozen=True)
class TmoParams:
    """Operator choice plus every number the prediction map depends on.

    ``log_avg`` and ``l_max`` are statistics of the source image; they default
    to 0 (unbound) and must be bound with :func:`bind_image_stats` before
    tone mapping, prediction, or serialization.
    """

    kind: TmoKind
    key_a: float = 0.18
    l_white: float = math.inf
    bias: float = 0.85
    ldmax: float = 100.0
    local_scales: int = 8
    local_threshold: float = 0.05
    log_avg: float = 0.0
    l_max: float = 0.0
    gamma: float = 2.2

    def __post_init__(self):
        if not isinstance(self.kind, TmoKind):
            object.__setattr__(self, "kind", TmoKind(self.kind))
        if not (self.key_a > 0 and math.isfinite(self.key_a)):
            raise ParameterError(f"key_a must be positive and finite, got {self.key_a}")
        if not (self.l_white > 0):
            raise ParameterError(f"l_white must be positive (inf disables it), got {self.l_white}")
        if not (0 < self.bias <= 1):
            raise ParameterError(f"bias must lie in (0, 1], got {self.bias}")
        if not (self.ldmax > 0 and math.isfinite(self.ldmax)):
            raise ParameterError(f"ldmax must be positive and finite, got {self.ldmax}")
        if not (1 <= int(self.local_scales) <= 16):
            raise ParameterError(f"local_scales must lie in [1, 16], got {self.local_scales}")
        if not (self.local_threshold > 0 and math.isfinite(self.local_threshold)):
            raise ParameterError(f"local_threshold must be positive, got {self.local_threshold}")
        if not (self.log_avg >= 0 and math.isfinite(self.log_avg)):
            raise ParameterError(f"log_avg must be finite and non-negative, got {self.log_avg}")
        if not (self.l_max >= 0 and math.isfinite(self.l_max)):
            raise ParameterError(f"l_max must be finite and non-negative, got {self.l_max}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ParameterError(f"gamma must be positive and finite, got {self.gamma}")
        object.__setattr__(self, "local_scales", int(self.local_scales))

    @property
    def bound(self) -> bool:
        return self.log_avg > 0 and self.l_max > 0


def serialize_tmo_params(params: TmoParams) -> bytes:
    """Fixed-order little-endian layout: kind byte plus nine float64 fields."""
    if not params.bound:
        raise ParameterError("cannot serialize unbound TmoParams (call bind_image_stats)")
    return _PARAMS_STRUCT.pack(
        int(params.kind),
        params.key_a,
        params.l_white,
        params.bias,
        params.ldmax,
        float(params.local_scales),
        params.local_threshold,
        params.log_avg,
        params.l_max,
        params.gamma,
    )


def parse_tmo_params(data: bytes) -> TmoParams:
    """Exact inverse of :func:`serialize_tmo_params`."""
    if len(data) != TMO_PARAMS_SIZE:
        raise ParseError(f"TMO parameter block must be {TMO_PARAMS_SIZE} bytes, got {len(data)}")
    fields = _PARAMS_STRUCT.unpack(data)
    try:  # the fields are in TmoParams declaration order
        params = TmoParams(TmoKind(fields[0]), *fields[1:5], int(fields[5]), *fields[6:])
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"invalid TMO parameter block: {exc}") from None
    # bind_image_stats never stores a peak below this floor; the logarithmic
    # curve divides by log10(1 + l_max).
    if params.l_max < LOG_AVERAGE_DELTA:
        raise ParseError(f"TMO peak luminance {params.l_max} below {LOG_AVERAGE_DELTA}")
    return params


def log_average_luminance(lum: np.ndarray) -> float:
    """exp of the mean log luminance, offset by a small delta against zeros."""
    arr = np.asarray(lum, dtype=np.float64)
    if arr.size == 0:
        raise ParameterError("luminance map is empty")
    return float(np.exp(np.mean(np.log(LOG_AVERAGE_DELTA + arr))))


def bind_image_stats(params: TmoParams, lum: np.ndarray) -> TmoParams:
    """Fill in the source-image statistics the prediction map needs."""
    return replace(
        params,
        log_avg=log_average_luminance(lum),
        l_max=max(float(np.max(lum)), LOG_AVERAGE_DELTA),
    )


def _effective_key(params: TmoParams) -> float:
    return DEFAULT_KEY if params.kind == TmoKind.DEFAULT else params.key_a


def _drago_curve(lum: np.ndarray, l_max: float, bias: float, ldmax: float) -> np.ndarray:
    """Adaptive logarithmic display luminance, 0 at 0 and ldmax/100 at l_max."""
    exponent = math.log(bias) / math.log(0.5)
    prefix = (ldmax / 100.0) / math.log10(1.0 + l_max)
    with np.errstate(divide="ignore"):
        ratio = np.clip(np.asarray(lum, dtype=np.float64) / l_max, 0.0, 1.0)
        denom = np.log(2.0 + 8.0 * np.power(ratio, exponent))
    return prefix * np.log1p(lum) / denom


def _local_adaptation(scaled: np.ndarray, key: float, params: TmoParams) -> np.ndarray:
    """Per-pixel adaptation luminance: the center Gaussian average at the
    largest scale whose center-surround activity stays below the threshold."""
    from scipy.ndimage import gaussian_filter  # slow to import; only this operator needs it

    n = params.local_scales
    centers = [
        gaussian_filter(scaled, sigma=LOCAL_SCALE_RATIO**i, mode="nearest")
        for i in range(n + 1)
    ]
    selected = centers[0]
    passing = np.ones(scaled.shape, dtype=bool)
    for i in range(n):
        scale = LOCAL_SCALE_RATIO**i
        activity = (centers[i] - centers[i + 1]) / (
            LOCAL_SHARPEN * key / (scale * scale) + centers[i]
        )
        passing = passing & (np.abs(activity) < params.local_threshold)
        selected = np.where(passing, centers[i], selected)
    return selected


def display_luminance(lum: np.ndarray, params: TmoParams) -> np.ndarray:
    """Map scene luminance to display luminance under the chosen operator."""
    key = _effective_key(params)
    if params.kind == TmoKind.DRAGO:
        if params.l_max <= 0:
            raise ParameterError("Drago operator requires bound l_max")
        return _drago_curve(lum, params.l_max, params.bias, params.ldmax)
    scaled = key * lum / params.log_avg
    if params.kind == TmoKind.REINHARD_LOCAL:
        return scaled / (1.0 + _local_adaptation(scaled, key, params))
    if params.kind == TmoKind.REINHARD_GLOBAL and math.isfinite(params.l_white):
        return scaled * (1.0 + scaled / (params.l_white * params.l_white)) / (1.0 + scaled)
    return scaled / (1.0 + scaled)


def tonemap(image: HdrImage, params: TmoParams, refine_bits: int = 0) -> LdrImage:
    """Tone map to an (8 + refine_bits)-bit image.

    Per channel: out = round((channel / L * Ld) ** (1 / gamma) * maxval),
    clamped to the output range; pixels with zero luminance map to 0.
    """
    if refine_bits not in REFINE_BIT_CHOICES:
        raise ParameterError(f"refine_bits must be one of {REFINE_BIT_CHOICES}, got {refine_bits}")
    if params.log_avg <= 0:
        raise ParameterError("tonemap requires bound TmoParams (call bind_image_stats)")
    lum = luminance(image)
    display = display_luminance(lum, params)
    rgb = image.linear()
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(lum > 0.0, rgb / np.where(lum > 0.0, lum, 1.0), 0.0)
    bit_depth = 8 + refine_bits
    maxval = (1 << bit_depth) - 1
    mapped = np.power(np.clip(ratio * display, 0.0, None), 1.0 / params.gamma) * maxval
    if not np.isfinite(mapped).all():
        raise InternalError("non-finite value during tone mapping")
    codes = np.clip(np.rint(mapped), 0, maxval).astype(np.uint16)
    return LdrImage(codes, bit_depth=bit_depth)


def _drago_inverse(target: np.ndarray, params: TmoParams) -> np.ndarray:
    """Deterministic bisection of the monotone logarithmic curve.

    The curve has no closed-form inverse; a fixed iteration count keeps the
    result a pure function of the inputs, which is all losslessness needs.
    """
    l_max, bias, ldmax = params.l_max, params.bias, params.ldmax
    top = float(_drago_curve(np.float64(l_max), l_max, bias, ldmax))
    t = np.clip(np.asarray(target, dtype=np.float64), 0.0, top)
    lo = np.zeros_like(t)
    hi = np.full_like(t, l_max)
    for _ in range(DRAGO_INVERSE_ITERATIONS):
        mid = 0.5 * (lo + hi)
        above = _drago_curve(mid, l_max, bias, ldmax) >= t
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def _top_codes(samples: np.ndarray, linearized: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per pixel, the channel maximum of ``linearized`` and a code whose level
    it is.  A later channel takes over only when its level is larger, so any
    level table works (np.power need not be monotone in its base)."""
    top, proxy = samples[0], linearized[0]
    for code, level in zip(samples[1:], linearized[1:]):
        top = np.where(level > proxy, code, top)
        proxy = np.maximum(proxy, level)
    return top, proxy


def predict_hdr(base: LdrImage, params: TmoParams) -> HdrImage:
    """Deterministic approximate inverse of the tone mapping.

    Channels are gamma-linearized, the per-pixel display luminance proxy is
    their maximum, the global curve is inverted at the proxy, and channel
    ratios are rescaled by the recovered scene luminance.

    The linearized level and the inverse curve depend on one sample code
    each, so both are tabulated over every code of the base depth; per pixel
    only the table gathers, the channel maximum, the channel ratio and the
    half encode remain.  The pixel's top code is one whose level is the
    channel maximum, so every value equals the per-pixel evaluation of the
    same formula.
    """
    if params.log_avg <= 0:
        raise ParameterError("predict_hdr requires bound TmoParams (call bind_image_stats)")
    maxval = (1 << base.bit_depth) - 1
    levels = np.power(np.arange(maxval + 1, dtype=np.float64) / maxval, params.gamma)
    linearized = levels[base.samples]
    top, proxy = _top_codes(base.samples, linearized)
    if params.kind == TmoKind.DRAGO:
        if params.l_max <= 0:
            raise ParameterError("Drago inverse requires bound l_max")
        lum_est = _drago_inverse(levels, params)[top]
    else:  # the local operator reuses the photographic inverse
        capped = np.minimum(levels, INVERSE_DISPLAY_CAP)
        scaled = capped / (1.0 - capped)
        lum_est = (scaled * params.log_avg / _effective_key(params))[top]
    # Channel ratios; a zero proxy has all three channels at level 0, so they
    # are divided by 1.
    scene = linearized / np.where(proxy > 0.0, proxy, 1.0)
    scene *= lum_est
    return HdrImage(half_encode_array(scene))
