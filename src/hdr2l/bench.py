"""Benchmark harness: sweep tone mappers, qualities, and coder arms over a set
of HDR images, verify losslessness, collect bitrates and quality scores, and
print the paper's two findings for ``hdr2l bench`` and ``tools/format_sizes.py``.

The grid per image is {configured TMOs} x {q values} x {hp, xt-r0, xt-r4}, the
coder arms of :data:`container.ARMS`.
By default each distinct tone curve runs once (:data:`DISTINCT_TMOS`):
``reinhard-global`` is the ``default`` curve under another kind byte, so it
would repeat those cells and count that curve twice in the cross-TMO spread.
Every cell is round-tripped and compared bit-exactly; a failed cell fails the
whole run.  Two tone-mapped images are scored per cell when quality scoring is
on: the pre-compression 8-bit image and the decoded base layer (columns
``tmqi_pre`` and ``tmqi_decoded``).  The pre-compression image depends only on
the operator and R, so it is scored once per image, operator and R.

A deterministic synthetic corpus generator (gradients, sparse-exponent block
scenes, palette noise) is bundled so the harness runs without external data.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .basejpeg import decode_base
from .container import ARMS, CodecParams
from .errors import BenchError, Hdr2lError, ParameterError
from .imagio import HdrImage, LdrImage, half_encode_array, luminance, parse_pfm, parse_rgbe, write_pfm
from .tmo import TMO_NAMES, TmoKind, TmoParams, bind_image_stats, tonemap
from .tmqi import MIN_SIDE as TMQI_MIN_SIDE
from .tmqi import BoxStats, boxstats
from .tmqi import tmqi as score_tmqi

DEFAULT_SEED = 20180814
CSV_FIELDS = (
    "image_id", "tmo", "arm", "q", "bpp",
    "tmqi_pre", "tmqi_decoded", "lossless_ok", "encode_s", "decode_s",
)
# The findings compare the packed arm with both XT arms, and with XT R=0 alone.
HP, XT_R0, _ = ARMS
DISTINCT_TMOS = (TmoKind.DEFAULT, TmoKind.REINHARD_LOCAL, TmoKind.DRAGO)
QUARTILE_METHOD_NOTE = (
    "quartiles: linear interpolation at p*(n+1) (median-exclusive convention)"
)


@dataclass(frozen=True)
class RunRecord:
    """One (image, TMO, coder arm) measurement."""

    image_id: str
    tmo: str
    arm: str  # a key of container.ARMS
    q: int
    bpp: float
    tmqi_pre: float | None
    tmqi_decoded: float | None
    lossless_ok: bool
    encode_s: float
    decode_s: float
    sections: dict[str, int] = field(default_factory=dict)  # container.measure bytes


@dataclass(frozen=True)
class BenchConfig:
    tmos: tuple[TmoKind, ...] = DISTINCT_TMOS
    qs: tuple[int, ...] = (80, 90)
    compute_tmqi: bool = True

    def __post_init__(self):
        for name in ("tmos", "qs"):
            if not getattr(self, name):
                raise ParameterError(f"benchmark grid needs at least one entry in {name}")


@dataclass
class GridResult:
    records: list[RunRecord]
    skipped: list[tuple[str, str]]
    summary: dict


# ---------------------------------------------------------------------------
# Input handling


def load_hdr_file(path: Path) -> HdrImage:
    data = Path(path).read_bytes()
    suffix = Path(path).suffix.lower()
    if suffix == ".pfm":
        return parse_pfm(data)
    if suffix == ".hdr":
        return parse_rgbe(data)
    raise ParameterError(f"unsupported HDR input {path} (expected .hdr or .pfm)")


def synthetic_corpus(count: int, size: int = 96, seed: int = DEFAULT_SEED) -> list[tuple[str, HdrImage]]:
    """Deterministic desk-scale HDR scenes with sparse sample histograms."""
    if count < 1:
        raise ParameterError("corpus needs at least one image")
    if size < 1:
        raise ParameterError(f"synthetic image side must be at least 1 px, got {size}")
    rng = np.random.default_rng(seed)
    makers = (_gradient_scene, _sparse_exponent_scene, _patch_noise_scene, _step_wedge_scene)
    corpus = []
    for i in range(count):
        maker = makers[i % len(makers)]
        image = maker(size, rng)
        corpus.append((f"img_{i:03d}_{maker.__name__.strip('_').removesuffix('_scene')}", image))
    return corpus


def write_corpus(directory: Path, count: int, size: int = 96, seed: int = DEFAULT_SEED) -> list[Path]:
    corpus = synthetic_corpus(count, size, seed)  # first, so a refused count makes no directory
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, image in corpus:
        path = directory / f"{name}.pfm"
        path.write_bytes(write_pfm(image))
        paths.append(path)
    return paths


def _smooth_field(size: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth value noise in [0, 1]: a 3 x 3 random grid upsampled bilinearly."""
    cells = 2
    coarse = rng.random((cells + 1, cells + 1))
    pos = np.linspace(0.0, cells, size)
    i = np.clip(pos.astype(np.int64), 0, cells - 1)
    f = pos - i
    rows = coarse[i] * (1.0 - f)[:, None] + coarse[i + 1] * f[:, None]
    out = rows[:, i] * (1.0 - f)[None, :] + rows[:, i + 1] * f[None, :]
    lo, hi = out.min(), out.max()
    return (out - lo) / (hi - lo) if hi > lo else np.zeros_like(out)


def _channel_gains(rng: np.random.Generator) -> np.ndarray:
    gains = rng.choice([0.25, 0.5, 0.75, 1.0], size=3)
    gains[rng.integers(0, 3)] = 1.0
    return gains


def _exposure_ladder(levels: int, step: float) -> np.ndarray:
    """Log-spaced luminance levels centered on 1.0 (the log-average region).

    Centering keeps both extremes within the range the 8-bit base layer can
    resolve after tone mapping, so prediction quality stays comparable across
    operators; the coarse spacing is the histogram sparseness the packed
    coder exploits.
    """
    return np.exp2(step * np.arange(levels) - step * (levels - 1) / 2.0)


def _gradient_scene(size: int, rng: np.random.Generator) -> HdrImage:
    # Smooth exposure ramp quantized onto a coarse ladder.
    axis = rng.integers(0, 3)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / max(size - 1, 1)
    t = (xx, 0.5 * (xx + yy), np.hypot(xx - 0.5, yy - 0.5) * math.sqrt(2.0))[axis]
    levels = int(rng.integers(12, 16))
    ladder = _exposure_ladder(levels, float(rng.uniform(0.5, 0.8)))
    lum = ladder[np.clip((np.clip(t, 0.0, 1.0) * levels).astype(np.int64), 0, levels - 1)]
    rgb = np.stack([lum * g for g in _channel_gains(rng)])
    return HdrImage(half_encode_array(rgb))


def _sparse_exponent_scene(size: int, rng: np.random.Generator) -> HdrImage:
    # Large flat exposure patches, each a random rung of the ladder.  Patch
    # interiors stay flat at every scale the local operator probes, so the
    # spatially varying map only acts near the few patch borders.
    block = max(size // 2, 24)
    nb = (size + block - 1) // block
    levels = int(rng.integers(10, 15))
    ladder = _exposure_ladder(levels, float(rng.uniform(0.7, 1.4)))
    picks = rng.integers(0, levels, size=(nb, nb))
    lum = np.repeat(np.repeat(ladder[picks], block, 0), block, 1)[:size, :size]
    rgb = np.stack([lum * g for g in _channel_gains(rng)])
    return HdrImage(half_encode_array(rgb))


def _patch_noise_scene(size: int, rng: np.random.Generator) -> HdrImage:
    # Exposure patches again, but the rung follows a smooth drift field with
    # per-patch jitter: blockwise exposure noise on the same sparse ladder.
    block = max(size // 2, 24)
    nb = (size + block - 1) // block
    levels = int(rng.integers(10, 15))
    ladder = _exposure_ladder(levels, float(rng.uniform(0.7, 1.2)))
    drift = _smooth_field(nb, rng)
    jitter = rng.integers(-2, 3, size=(nb, nb))
    picks = np.clip(np.rint(drift * (levels - 1)).astype(np.int64) + jitter, 0, levels - 1)
    lum = np.repeat(np.repeat(ladder[picks], block, 0), block, 1)[:size, :size]
    rgb = np.stack([lum * g for g in _channel_gains(rng)])
    return HdrImage(half_encode_array(rgb))


def _step_wedge_scene(size: int, rng: np.random.Generator) -> HdrImage:
    # Monotone horizontal exposure wedge with a brighter highlight band.
    steps = int(rng.integers(10, 14))
    ladder = _exposure_ladder(steps, float(rng.uniform(0.5, 0.8)))
    column = np.repeat(np.arange(steps), math.ceil(size / steps))[:size]
    idx = np.tile(column, (size, 1)).copy()
    band = slice(size // 3, size // 3 + max(size // 8, 1))
    idx[band] = np.minimum(idx[band] + 2, steps - 1)
    lum = ladder[idx]
    rgb = np.stack([lum, lum * 0.75, lum * 0.5])
    return HdrImage(half_encode_array(rgb))


# ---------------------------------------------------------------------------
# Grid execution


def _score_pre(hdr: HdrImage, lum: np.ndarray, params: TmoParams, refine_bits: int) -> float:
    """TMQI of the 8-bit image the base layer compresses: the top 8 bits of
    the (8 + R)-bit tone map, as ``split_refinement`` keeps them."""
    mapped = tonemap(hdr, lum, bind_image_stats(params, lum), refine_bits)
    return score_tmqi(hdr, LdrImage(mapped.samples >> refine_bits)).q_overall


def run_image(image_id: str, hdr: HdrImage, config: BenchConfig) -> list[RunRecord]:
    """All grid cells for one image, in deterministic arm order."""
    scored = config.compute_tmqi and min(hdr.width, hdr.height) >= TMQI_MIN_SIDE
    lum = luminance(hdr) if scored else None
    records = []
    for kind in config.tmos:
        tmo_params = TmoParams(kind=kind)
        tmqi_pre = {}  # per R, scored when a lossless cell first needs it
        for q in config.qs:
            for arm, (mode, refine) in ARMS.items():
                params = CodecParams(mode=mode, tmo=tmo_params, q=q, refine_bits=refine)
                t0 = time.perf_counter()
                stream = container.encode(hdr, params)
                t1 = time.perf_counter()
                decoded = container.decode(stream)
                t2 = time.perf_counter()
                lossless = decoded == hdr
                report = container.measure(stream)
                pre = decoded_score = None
                if scored and lossless:
                    if refine not in tmqi_pre:
                        tmqi_pre[refine] = _score_pre(hdr, lum, tmo_params, refine)
                    pre = tmqi_pre[refine]
                    decoded_score = score_tmqi(hdr, decode_base(container.extract_ldr(stream))).q_overall
                records.append(RunRecord(
                    image_id=image_id,
                    tmo=TMO_NAMES[kind],
                    arm=arm,
                    q=q,
                    bpp=report.bits_per_pixel,
                    tmqi_pre=pre,
                    tmqi_decoded=decoded_score,
                    lossless_ok=lossless,
                    encode_s=t1 - t0,
                    decode_s=t2 - t1,
                    sections=report.sections(),
                ))
    return records


def run_grid(input_dir: Path, config: BenchConfig | None = None) -> GridResult:
    """Sweep the grid over every parseable .hdr/.pfm file in a directory."""
    config = config or BenchConfig()
    input_dir = Path(input_dir)
    paths = sorted(p for p in input_dir.iterdir() if p.suffix.lower() in (".hdr", ".pfm"))
    images = {}
    skipped = []
    for path in paths:
        if path.stem in images:
            skipped.append((path.name, f"repeats image id {path.stem!r}"))
            continue
        try:
            images[path.stem] = load_hdr_file(path)
        except (Hdr2lError, OSError) as exc:  # OSError: say, a directory named scene.hdr
            skipped.append((path.name, str(exc)))
    if not images:
        raise BenchError(f"no usable HDR images in {input_dir}")
    result = run_images(list(images.items()), config)
    result.skipped.extend(skipped)
    return result


def run_images(images: list[tuple[str, HdrImage]], config: BenchConfig) -> GridResult:
    records = [r for image_id, hdr in images for r in run_image(image_id, hdr, config)]
    records.sort(key=lambda r: (r.image_id, r.tmo, r.arm, r.q))
    return GridResult(records=records, skipped=[], summary=summarize(records))


# ---------------------------------------------------------------------------
# Summaries


def arm_label(tmo: str, arm: str, q: int) -> str:
    return f"{tmo}/{arm}/q{q}"


def summarize(records: list[RunRecord]) -> dict:
    """Per-arm boxplot stats plus the two cross-coder findings (HP below every
    XT arm and HP - XT R=0 per curve; each arm's cross-TMO CoV per quality)."""
    ok = [r for r in records if r.lossless_ok]  # never report failed streams
    arms: dict[tuple[str, str, int], list[float]] = {}
    for r in ok:
        arms.setdefault((r.tmo, r.arm, r.q), []).append(r.bpp)
    arm_stats = dict(sorted((arm_label(*k), boxstats(v)) for k, v in arms.items()))
    mean_bpp = {k: float(np.mean(v)) for k, v in arms.items()}

    tmos = sorted({r.tmo for r in ok})
    qs = sorted({r.q for r in ok})
    hp_beats_xt, hp_minus_xt_r0 = {}, {}
    for tmo_name in tmos:
        for q in qs:
            key = f"{tmo_name}/q{q}"
            hp = mean_bpp.get((tmo_name, HP, q))
            xt = {a: mean_bpp[(tmo_name, a, q)] for a in ARMS if a != HP and (tmo_name, a, q) in mean_bpp}
            if hp is not None and xt:
                hp_beats_xt[key] = hp < min(xt.values())
            if hp is not None and XT_R0 in xt:
                hp_minus_xt_r0[key] = hp - xt[XT_R0]

    cov = {}
    for q in qs:
        spread = {}
        for arm in ARMS:
            means = [mean_bpp[(t, arm, q)] for t in tmos if (t, arm, q) in mean_bpp]
            if len(means) >= 2:
                spread[arm] = float(np.std(means) / np.mean(means))
        if HP in spread and len(spread) > 1:
            spread["hp_smaller"] = all(spread[HP] < v for k, v in spread.items() if k != HP)
            cov[f"q{q}"] = spread

    return {
        "arm_stats": arm_stats,
        "mean_bpp": {arm_label(*k): v for k, v in sorted(mean_bpp.items())},
        "hp_beats_xt": hp_beats_xt,
        "hp_minus_xt_r0": hp_minus_xt_r0,
        "cross_tmo_cov": cov,
        "lossless_failures": [
            (r.image_id, arm_label(r.tmo, r.arm, r.q))
            for r in records if not r.lossless_ok
        ],
        "tmqi_unscored": sum(r.tmqi_decoded is None for r in ok),
        "quartile_method": QUARTILE_METHOD_NOTE,
    }


def print_findings(summary: dict) -> None:
    """Print each arm's mean bpp and the two findings of :func:`summarize`."""
    for label, mean in summary["mean_bpp"].items():
        print(f"  mean bpp {label}: {mean:.4f}")
    for key, ok in summary["hp_beats_xt"].items():
        print(f"  hp < xt @ {key}: {'yes' if ok else 'NO'}")
    for key, diff in summary["hp_minus_xt_r0"].items():
        print(f"  {HP} - {XT_R0} @ {key}: {diff:+.4f} bpp")
    for key, spread in summary["cross_tmo_cov"].items():
        covs = " ".join(f"{arm}={cov:.4f}" for arm, cov in spread.items() if arm != "hp_smaller")
        print(f"  cross-TMO cov @ {key}: {covs} (hp {'smaller' if spread['hp_smaller'] else 'NOT smaller'})")


# ---------------------------------------------------------------------------
# CSV serialization


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a NumPy float's repr names its type
    return str(value)


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in records:
        writer.writerow([_format_field(getattr(r, name)) for name in CSV_FIELDS])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Boxplot SVG


def emit_boxplot_svg(arm_stats: dict[str, BoxStats]) -> str:
    """Render per-arm box-and-whisker plots as a deterministic static SVG."""
    if not arm_stats:
        raise ParameterError("boxplot needs at least one arm")
    labels = list(arm_stats.keys())
    stats = list(arm_stats.values())
    values = [v for s in stats for v in (s.whisker_lo, s.whisker_hi, *s.outliers)]
    vmin = min(values)
    vmax = max(values)
    if vmax <= vmin:
        vmax = vmin + 1.0

    slot = 64
    margin_left, margin_top = 70, 30
    plot_h = 320
    width = margin_left + slot * len(labels) + 20
    height = margin_top + plot_h + 110

    def y(v: float) -> float:
        return margin_top + plot_h * (vmax - v) / (vmax - vmin)

    def f(v: float) -> str:
        return f"{v:.4f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="10">',
        f'<text x="{margin_left}" y="16">bitrate (bpp)</text>',
        f'<line x1="{margin_left - 8}" y1="{f(y(vmin))}" x2="{margin_left - 8}" '
        f'y2="{f(y(vmax))}" stroke="black"/>',
    ]
    for i in range(5):
        v = vmin + (vmax - vmin) * i / 4
        parts.append(
            f'<text x="4" y="{f(y(v) + 3)}">{v:.3g}</text>'
            f'<line x1="{margin_left - 12}" y1="{f(y(v))}" x2="{margin_left - 8}" '
            f'y2="{f(y(v))}" stroke="black"/>'
        )
    for idx, (label, s) in enumerate(zip(labels, stats)):
        cx = margin_left + slot * idx + slot // 2
        half = 18
        parts.append(
            f'<line x1="{cx}" y1="{f(y(s.whisker_hi))}" x2="{cx}" y2="{f(y(s.q3))}" stroke="black"/>'
            f'<line x1="{cx}" y1="{f(y(s.q1))}" x2="{cx}" y2="{f(y(s.whisker_lo))}" stroke="black"/>'
            f'<line x1="{cx - half // 2}" y1="{f(y(s.whisker_hi))}" x2="{cx + half // 2}" '
            f'y2="{f(y(s.whisker_hi))}" stroke="black"/>'
            f'<line x1="{cx - half // 2}" y1="{f(y(s.whisker_lo))}" x2="{cx + half // 2}" '
            f'y2="{f(y(s.whisker_lo))}" stroke="black"/>'
            f'<rect x="{cx - half}" y="{f(y(s.q3))}" width="{2 * half}" '
            f'height="{f(max(y(s.q1) - y(s.q3), 0.0))}" fill="none" stroke="black"/>'
            f'<line x1="{cx - half}" y1="{f(y(s.median))}" x2="{cx + half}" '
            f'y2="{f(y(s.median))}" stroke="black" stroke-width="2"/>'
        )
        for v in s.outliers:
            parts.append(f'<circle cx="{cx}" cy="{f(y(v))}" r="2" fill="black"/>')
        parts.append(
            f'<text x="{cx}" y="{margin_top + plot_h + 14}" text-anchor="end" '
            f'transform="rotate(-45 {cx} {margin_top + plot_h + 14})">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
