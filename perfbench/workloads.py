"""Seeded HDR inputs and the cell plan of each benchmark workload.

The benchmark owns these generators so that no change to the codec package
can change what is measured.  Every scene is a pure function of its seed, and
the shape parameters that set the bitrate (noise level, ladder spacing, patch
size) are constants, so the per-pixel work stays alike from seed to seed and
only the layout moves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from hdr2l.container import CodecParams, CoderMode
from hdr2l.imagio import HdrImage, half_encode_array
from hdr2l.tmo import TmoKind, TmoParams

QUALITY = 80
# The photo scenes are 384 px, not 512 px: a cell then takes about 2.5 s, and
# a 34 s run times ten of them, which its median needs on a shared box.
PHOTO_SIZE = 384
LADDER_SIZE = 512
TEXTURE_SIZE = 256
# Per-channel multiplicative sensor noise of the continuous-tone scenes.
PHOTO_NOISE = 0.002
# Log2 luminance span of the continuous-tone scenes, in stops.
PHOTO_STOPS = 8.0
# Channel gains of the ladder scenes; fixed so that chroma costs the same on
# every seed.
LADDER_GAINS = ((1.0, 0.75, 0.5), (0.5, 0.75, 1.0))


@dataclass(frozen=True)
class Cell:
    """One encode -> decode of one image under one codec configuration."""

    image_index: int
    params: CodecParams

    @property
    def label(self) -> str:
        p = self.params
        arm = "hp" if p.mode == CoderMode.HP else f"xt-r{p.refine_bits}"
        return f"img{self.image_index}/{p.tmo.kind.name.lower()}/{arm}/q{p.q}"


@dataclass(frozen=True)
class Workload:
    name: str
    images: tuple[HdrImage, ...]
    cells: tuple[Cell, ...]  # one pass; the timed loop cycles through it

    @property
    def input_sha256(self) -> str:
        h = hashlib.sha256()
        for image in self.images:
            h.update(np.ascontiguousarray(image.samples, dtype="<u2").tobytes())
        return h.hexdigest()


def _value_noise(size: int, cells: int, rng: np.random.Generator) -> np.ndarray:
    """A coarse (cells+1)^2 random grid upsampled bilinearly to size x size."""
    coarse = rng.random((cells + 1, cells + 1))
    pos = np.linspace(0.0, cells, size)
    i = np.minimum(pos.astype(np.int64), cells - 1)
    f = pos - i
    rows = coarse[i] * (1.0 - f)[:, None] + coarse[i + 1] * f[:, None]
    return rows[:, i] * (1.0 - f)[None, :] + rows[:, i + 1] * f[None, :]


def _smooth_field(size: int, rng: np.random.Generator) -> np.ndarray:
    """Three octaves of value noise, rescaled to [0, 1]."""
    field = sum(amp * _value_noise(size, cells, rng) for cells, amp in ((3, 1.0), (7, 0.5), (15, 0.25)))
    lo, hi = field.min(), field.max()
    return (field - lo) / (hi - lo)


def _ladder(levels: int, step: float) -> np.ndarray:
    """Log-spaced luminance rungs centred on 1.0."""
    return np.exp2(step * np.arange(levels) - step * (levels - 1) / 2.0)


def _gains(rng: np.random.Generator) -> np.ndarray:
    gains = rng.choice([0.25, 0.5, 0.75, 1.0], size=3)
    gains[rng.integers(0, 3)] = 1.0
    return gains


def photo_scene(size: int, rng: np.random.Generator) -> HdrImage:
    """Continuous tone: a smooth log-exposure field, slowly varying colour and
    low multiplicative noise, so nearly every half code in a neighbourhood
    differs and the residual planes carry dense, small prediction errors."""
    log2_lum = PHOTO_STOPS * (_smooth_field(size, rng) - 0.5)
    lum = np.exp2(log2_lum)
    tint = np.stack([0.6 + 0.4 * _smooth_field(size, rng) for _ in range(3)])
    noise = np.exp(PHOTO_NOISE * rng.standard_normal((3, size, size)))
    return HdrImage(half_encode_array(lum[None] * tint * noise))


def ladder_scene(size: int, rng: np.random.Generator, variant: int) -> HdrImage:
    """Sparse exposure ladder: 4x4 flat patches stepping up the ladder in one
    of four directions, with a diagonal jitter of up to two rungs at a seeded
    phase, crossed by a horizontal step wedge and a vertical ramp at seeded
    positions.  Few distinct codes, long flat runs and a few hard edges.  The
    seed moves the layout but not the number or contrast of the edges, which
    set the bitrate; ``variant`` picks the direction and the channel gains."""
    levels = 12
    ladder = _ladder(levels, 0.75)
    block = size // 4
    ii, jj = np.mgrid[0:4, 0:4]
    slope = (ii, jj, 3 - ii, 3 - jj)[variant % 4]
    picks = 3 * slope + (ii + 2 * jj + int(rng.integers(0, 3))) % 3
    idx = np.repeat(np.repeat(picks, block, 0), block, 1)

    band = size // 8
    steps = np.arange(size) * levels // size
    # Band edges on the 8-pixel JPEG block grid, like the patch edges, so that
    # their ringing does not depend on where the seed puts them.
    top, left = (8 * int(v) for v in rng.integers(0, (size - band) // 8, size=2))
    idx[top : top + band] = steps[None, :]
    idx[:, left : left + band] = steps[::-1, None]

    lum = ladder[idx]
    gains = LADDER_GAINS[variant % len(LADDER_GAINS)]
    return HdrImage(half_encode_array(np.stack([lum * g for g in gains])))


def texture_scene(size: int, rng: np.random.Generator) -> HdrImage:
    """Per-pixel noisy ladder texture: a smooth drift picks the rung and every
    pixel jitters by up to two rungs, independently per channel."""
    levels = 16
    ladder = _ladder(levels, 0.5)
    drift = np.rint(_smooth_field(size, rng) * (levels - 1)).astype(np.int64)
    gains = _gains(rng)
    channels = [
        ladder[np.clip(drift + rng.integers(-2, 3, size=(size, size)), 0, levels - 1)] * g
        for g in gains
    ]
    return HdrImage(half_encode_array(np.stack(channels)))


def _codec(mode: CoderMode, kind: TmoKind, refine_bits: int = 0) -> CodecParams:
    return CodecParams(mode=mode, tmo=TmoParams(kind=kind), q=QUALITY, refine_bits=refine_bits)


def build(name: str, seed: int) -> Workload:
    """The images and one pass of cells of workload ``name`` for ``seed``."""
    rng = np.random.default_rng([seed, sum(name.encode())])
    if name == "photo-hp":
        images = tuple(photo_scene(PHOTO_SIZE, rng) for _ in range(6))
        cells = tuple(Cell(i, _codec(CoderMode.HP, TmoKind.DEFAULT)) for i in range(len(images)))
    elif name == "ladder-tmo":
        images = tuple(ladder_scene(LADDER_SIZE, rng, i) for i in range(12))
        kinds = (TmoKind.DEFAULT, TmoKind.REINHARD_LOCAL, TmoKind.DRAGO)
        cells = tuple(Cell(i, _codec(CoderMode.HP, kinds[i % 3])) for i in range(len(images)))
    elif name == "texture-xt4":
        images = tuple(texture_scene(TEXTURE_SIZE, rng) for _ in range(4))
        cells = tuple(Cell(i, _codec(CoderMode.XT, TmoKind.DEFAULT, 4)) for i in range(len(images)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, images, cells)


WORKLOADS = ("photo-hp", "ladder-tmo", "texture-xt4")
