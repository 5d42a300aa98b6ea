"""Working-set budget: the traced peak allocation of ``container.encode`` and
``container.decode`` per pixel, on every arm under every operator.

Each stage holds at most one float64 plane per channel at a time (see the
``container`` module docstring).  The ceilings are the peaks that rule gives
at 256 x 256, plus about 15 %, so a stage that brings back a whole-image
temporary fails here."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.ndimage  # noqa: F401  imported on first use of the local operator; not counted

from conftest import smooth_hdr_image, sparse_hdr_image
from hdr2l.container import CodecParams, CoderMode, decode, encode
from hdr2l.imagio import HdrImage
from hdr2l.tmo import TmoKind, TmoParams

SIDE = 256
ARMS = {"hp": (CoderMode.HP, 0), "xt-r0": (CoderMode.XT, 0), "xt-r4": (CoderMode.XT, 4)}
# B/px: the largest peak of either image, plus about 15 %.  One encode
# ceiling covers every operator: the local operator's encode peak is
# 46.6-47.0 B/px, its activity computed a block of rows at a time.
ENCODE_CEILING = 55
DECODE_CEILING = 58


@pytest.fixture(scope="module")
def images():
    # The sparse image is in 8 x 8 patches, one per JPEG block: a traced
    # decode of a per-pixel noise scan at this size takes seconds.
    patches = sparse_hdr_image(SIDE // 8, SIDE // 8).samples
    sparse = HdrImage(np.repeat(np.repeat(patches, 8, axis=1), 8, axis=2))
    return {"sparse": sparse, "smooth": smooth_hdr_image(SIDE, SIDE)}


def _peak_per_pixel(fn, *args) -> tuple[object, float]:
    """The result of ``fn(*args)`` and its traced peak above what was held
    before the call, in bytes per pixel."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return result, peak / (SIDE * SIDE)


@pytest.mark.parametrize("kind", list(TmoKind), ids=lambda kind: kind.name.lower())
@pytest.mark.parametrize("arm", sorted(ARMS))
@pytest.mark.parametrize("name", ["smooth", "sparse"])
def test_encode_and_decode_stay_within_working_set(name, arm, kind, images):
    mode, refine_bits = ARMS[arm]
    image = images[name]
    params = CodecParams(mode=mode, tmo=TmoParams(kind=kind), refine_bits=refine_bits)
    stream, encode_peak = _peak_per_pixel(encode, image, params)
    decoded, decode_peak = _peak_per_pixel(decode, stream)
    assert decoded == image
    assert encode_peak <= ENCODE_CEILING, f"encode peak {encode_peak:.1f} B/px"
    assert decode_peak <= DECODE_CEILING, f"decode peak {decode_peak:.1f} B/px"
