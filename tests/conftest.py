from __future__ import annotations

import numpy as np
import pytest

from hdr2l.imagio import HdrImage, LdrImage, half_encode_array


def sparse_hdr_image(width: int, height: int, seed: int = 0, levels: int = 24) -> HdrImage:
    """Deterministic sparse-histogram HDR test image."""
    rng = np.random.default_rng(seed)
    ladder = np.exp2(0.6 * np.arange(levels) - 0.3 * (levels - 1))
    lum = ladder[rng.integers(0, levels, size=(height, width))]
    rgb = np.stack([lum, lum * 0.5, lum * 0.25])
    return HdrImage(half_encode_array(rgb))


def smooth_hdr_image(width: int, height: int, lo: float = 0.05, hi: float = 200.0) -> HdrImage:
    """Deterministic smooth ramp HDR test image."""
    xx = np.linspace(0.0, 1.0, width)[None, :]
    yy = np.linspace(0.0, 1.0, height)[:, None]
    lum = lo * (hi / lo) ** np.clip(0.5 * (xx + yy), 0.0, 1.0)
    rgb = np.stack([lum, lum * 0.7, lum * 0.4])
    return HdrImage(half_encode_array(rgb))


def ppm_bytes(image: LdrImage) -> bytes:
    """An 8-bit image as a binary PPM (P6, maxval 255) stream."""
    header = b"P6\n%d %d\n255\n" % (image.width, image.height)
    return header + np.transpose(image.samples, (1, 2, 0)).astype(np.uint8).tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
