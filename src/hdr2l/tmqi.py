"""Tone-mapped image quality index and boxplot statistics.

The index combines two terms computed between an HDR reference and an 8-bit
tone-mapped image:

* structural fidelity S: a five-scale SSIM-style comparison in which local
  standard deviations first pass through a contrast-visibility psychometric
  mapping (a normal CDF centered on the visibility threshold implied by a CSF
  evaluated at the scale's spatial frequency);
* statistical naturalness N: a normalized normal density on the global mean
  times a normalized beta density on the mean 11x11 block standard deviation.

All constants below follow Yeganeh and Wang, "Objective Quality Assessment of
Tone-Mapped Images", IEEE TIP 22(2), 2013.  HDR luminance is log-compressed
and range-normalized to [0, 255] before the windowed statistics so that both
inputs share a dynamic range; per-scale fidelities are clipped to [0, 1] so
every reported component stays in range.  Scores are comparable within this
implementation; no digit-exact parity with the original MATLAB release is
claimed.

Boxplot statistics use quartiles by linear interpolation at position
p*(n+1), the median-exclusive spreadsheet convention; whiskers reach the most
extreme data within 1.5 IQR of the quartiles and everything beyond is an
outlier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .imagio import HdrImage, LdrImage, LUMA_WEIGHTS, luminance

COMBINE_A = 0.8012
COMBINE_ALPHA = 0.3046
COMBINE_BETA = 0.7088
SCALE_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5
STABILITY_C1 = 0.01
STABILITY_C2 = 10.0

NATURAL_MEAN_MU = 115.94
NATURAL_MEAN_SIGMA = 27.99
NATURAL_STD_ALPHA = 4.4
NATURAL_STD_BETA = 10.1
NATURAL_STD_SCALE = 64.29

LOG_DELTA = 1e-6
# Five halvings of an n-pixel side leave at least WINDOW_SIZE pixels only
# when n >= 176; smaller images cannot support the full pyramid.
MIN_SIDE = 176


@dataclass(frozen=True)
class TmqiScore:
    q_overall: float
    s_structural: float
    n_naturalness: float
    per_scale_s: tuple[float, ...]


@dataclass(frozen=True)
class BoxStats:
    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple[float, ...]


# scipy is imported where it is used: importing it costs several times the
# rest of the package, and encode and decode never need it.


def _window() -> np.ndarray:
    from scipy.signal.windows import gaussian

    g = gaussian(WINDOW_SIZE, WINDOW_SIGMA)
    w = np.outer(g, g)
    return w / w.sum()


_DOWNSAMPLE_KERNEL = np.full((2, 2), 0.25)


def overall_score(s: float, n: float) -> float:
    """Combine structural fidelity and naturalness into the overall score."""
    if not (0.0 <= s <= 1.0 and 0.0 <= n <= 1.0):
        raise ParameterError(f"component scores must lie in [0, 1], got S={s}, N={n}")
    return COMBINE_A * s**COMBINE_ALPHA + (1.0 - COMBINE_A) * n**COMBINE_BETA


def _ldr_luma(ldr: LdrImage) -> np.ndarray:
    w = LUMA_WEIGHTS
    s = ldr.samples.astype(np.float64)
    return w[0] * s[0] + w[1] * s[1] + w[2] * s[2]


def _log_normalize(lum: np.ndarray) -> np.ndarray:
    logged = np.log(lum + LOG_DELTA)
    lo = logged.min()
    hi = logged.max()
    if hi <= lo:
        raise DomainError("degenerate HDR input: luminance is constant")
    return (logged - lo) * (255.0 / (hi - lo))


def _local_similarity(img1: np.ndarray, img2: np.ndarray, spatial_freq: float) -> float:
    from scipy.signal import convolve
    from scipy.stats import norm

    window = _window()
    mu1 = convolve(img1, window, mode="valid")
    mu2 = convolve(img2, window, mode="valid")
    sigma1_sq = convolve(img1 * img1, window, mode="valid") - mu1 * mu1
    sigma2_sq = convolve(img2 * img2, window, mode="valid") - mu2 * mu2
    sigma12 = convolve(img1 * img2, window, mode="valid") - mu1 * mu2
    sigma1 = np.sqrt(np.maximum(sigma1_sq, 0.0))
    sigma2 = np.sqrt(np.maximum(sigma2_sq, 0.0))

    csf = 100.0 * 2.6 * (0.0192 + 0.114 * spatial_freq) * math.exp(
        -((0.114 * spatial_freq) ** 1.1)
    )
    threshold = 128.0 / (1.4 * csf)
    spread = threshold / 3.0
    sigma1p = norm.cdf(sigma1, loc=threshold, scale=spread)
    sigma2p = norm.cdf(sigma2, loc=threshold, scale=spread)

    s_map = (
        (2.0 * sigma1p * sigma2p + STABILITY_C1)
        / (sigma1p * sigma1p + sigma2p * sigma2p + STABILITY_C1)
        * (sigma12 + STABILITY_C2)
        / (sigma1 * sigma2 + STABILITY_C2)
    )
    return float(np.mean(s_map))


def _structural_fidelity(hdr_luma: np.ndarray, ldr_luma: np.ndarray) -> tuple[float, tuple[float, ...]]:
    from scipy.signal import convolve

    a, b = hdr_luma, ldr_luma
    spatial_freq = 16.0
    per_scale = []
    for _ in SCALE_WEIGHTS:
        per_scale.append(min(max(_local_similarity(a, b, spatial_freq), 0.0), 1.0))
        spatial_freq /= 2.0
        a = convolve(a, _DOWNSAMPLE_KERNEL, mode="valid")[::2, ::2]
        b = convolve(b, _DOWNSAMPLE_KERNEL, mode="valid")[::2, ::2]
    s = float(np.prod(np.power(per_scale, SCALE_WEIGHTS)))
    return s, tuple(per_scale)


def _statistical_naturalness(ldr_luma: np.ndarray) -> float:
    from scipy.stats import beta as beta_dist

    mean = float(np.mean(ldr_luma))
    h, w = ldr_luma.shape
    pad_h = (-h) % WINDOW_SIZE
    pad_w = (-w) % WINDOW_SIZE
    padded = np.pad(ldr_luma, ((0, pad_h), (0, pad_w)), mode="constant")
    blocks = padded.reshape(
        padded.shape[0] // WINDOW_SIZE, WINDOW_SIZE, padded.shape[1] // WINDOW_SIZE, WINDOW_SIZE
    ).transpose(0, 2, 1, 3)
    block_std = float(np.mean(np.std(blocks, axis=(2, 3), ddof=1)))

    brightness = math.exp(
        -((mean - NATURAL_MEAN_MU) ** 2) / (2.0 * NATURAL_MEAN_SIGMA**2)
    )
    mode = (NATURAL_STD_ALPHA - 1.0) / (NATURAL_STD_ALPHA + NATURAL_STD_BETA - 2.0)
    peak = beta_dist.pdf(mode, NATURAL_STD_ALPHA, NATURAL_STD_BETA)
    contrast = beta_dist.pdf(
        block_std / NATURAL_STD_SCALE, NATURAL_STD_ALPHA, NATURAL_STD_BETA
    ) / peak
    return brightness * contrast


def tmqi(hdr: HdrImage, ldr: LdrImage) -> TmqiScore:
    """Score an 8-bit tone-mapped rendering of an HDR image."""
    if ldr.bit_depth != 8:
        raise ParameterError(f"TMQI scores 8-bit images, got {ldr.bit_depth}-bit")
    if (hdr.width, hdr.height) != (ldr.width, ldr.height):
        raise ParameterError(
            f"dimension mismatch: {hdr.width}x{hdr.height} vs {ldr.width}x{ldr.height}"
        )
    if min(hdr.width, hdr.height) < MIN_SIDE:
        raise ParameterError(
            f"TMQI needs at least {MIN_SIDE} pixels per side for the 5-scale pyramid"
        )
    hdr_luma = _log_normalize(luminance(hdr))
    ldr_luma = _ldr_luma(ldr)
    n = _statistical_naturalness(ldr_luma)
    s, per_scale = _structural_fidelity(hdr_luma, ldr_luma)
    return TmqiScore(
        q_overall=overall_score(s, n),
        s_structural=s,
        n_naturalness=n,
        per_scale_s=per_scale,
    )


# ---------------------------------------------------------------------------
# Boxplot statistics


def _quartile(sorted_values: list[float], p: float) -> float:
    n = len(sorted_values)
    position = p * (n + 1)
    position = min(max(position, 1.0), float(n))
    lower = int(math.floor(position))
    frac = position - lower
    if frac == 0.0 or lower >= n:
        return sorted_values[lower - 1]
    return sorted_values[lower - 1] + frac * (sorted_values[lower] - sorted_values[lower - 1])


def boxstats(values) -> BoxStats:
    """Quartiles, 1.5-IQR whiskers, and outliers of a non-empty sample."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ParameterError("boxstats requires a non-empty sample")
    q1 = _quartile(xs, 0.25)
    median = _quartile(xs, 0.5)
    q3 = _quartile(xs, 0.75)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = [x for x in xs if lo_fence <= x <= hi_fence]
    whisker_lo = inside[0]
    whisker_hi = inside[-1]
    outliers = tuple(x for x in xs if x < lo_fence or x > hi_fence)
    return BoxStats(
        q1=q1, median=median, q3=q3,
        whisker_lo=whisker_lo, whisker_hi=whisker_hi, outliers=outliers,
    )
