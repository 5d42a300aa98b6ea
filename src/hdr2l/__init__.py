"""Two-layer lossless HDR codec with a JPEG base layer and a histogram-packed
residual layer, plus a benchmark harness and tone-mapped quality metric."""

from .container import CodecParams, CoderMode, SizeReport, decode, encode, extract_ldr, measure
from .imagio import (
    HdrImage,
    LdrImage,
    luminance,
    parse_pfm,
    parse_ppm,
    parse_rgbe,
    write_pfm,
)
from .tmo import TmoKind, TmoParams, log_average_luminance, predict_hdr, tonemap
from .tmqi import BoxStats, TmqiScore, boxstats, tmqi

__version__ = "0.1.0"

__all__ = [
    "CodecParams",
    "CoderMode",
    "SizeReport",
    "HdrImage",
    "LdrImage",
    "TmoKind",
    "TmoParams",
    "TmqiScore",
    "BoxStats",
    "encode",
    "decode",
    "extract_ldr",
    "measure",
    "luminance",
    "parse_rgbe",
    "parse_pfm",
    "parse_ppm",
    "write_pfm",
    "log_average_luminance",
    "tonemap",
    "predict_hdr",
    "tmqi",
    "boxstats",
    "__version__",
]
