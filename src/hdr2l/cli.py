"""Command-line interface: encode, decode, extract-ldr, tmqi, bench."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, container
from .container import ARMS, CodecParams
from .errors import Hdr2lError, LosslessnessError
from .imagio import parse_ppm, write_pfm
from .tmo import TMO_BY_NAME, TmoParams
from .tmqi import MIN_SIDE as TMQI_MIN_SIDE
from .tmqi import tmqi as tmqi_score


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hdr2l", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an HDR image to a two-layer stream")
    p.add_argument("input", type=Path, help=".hdr or .pfm source image")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--tmo", choices=sorted(TMO_BY_NAME), default="default",
                   help="tone-mapping operator for the base layer")
    p.add_argument("--q", type=int, default=80, metavar="1..100", help="base layer JPEG quality")
    p.add_argument("--arm", choices=list(ARMS), default="hp",
                   help="coder arm: histogram-packed (hp), or plain with R = 0 or 4 refinement bits")

    p = sub.add_parser("decode", help="restore the original HDR image (PFM output)")
    p.add_argument("input", type=Path)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("extract-ldr", help="extract the embedded JPEG base layer")
    p.add_argument("input", type=Path)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("tmqi", help="score a tone-mapped PPM against an HDR reference")
    p.add_argument("hdr", type=Path, help=".hdr or .pfm reference")
    p.add_argument("ldr", type=Path, help="8-bit PPM rendering")

    p = sub.add_parser("bench", help="run the evaluation grid over an HDR directory")
    p.add_argument("input", type=Path, nargs="?", help="directory of .hdr/.pfm images")
    p.add_argument("--synthetic", type=int, metavar="N",
                   help="generate N synthetic images instead of reading a directory")
    p.add_argument("--size", type=int, default=96, help="synthetic image side length")
    p.add_argument("--tmo", choices=sorted(TMO_BY_NAME) + ["all"], default="all",
                   help="tone-mapping operator; 'all' runs each distinct curve once: "
                        "default, reinhard-local, drago (reinhard-global is default's curve)")
    p.add_argument("--q", type=int, action="append", metavar="1..100",
                   help=f"quality value (repeatable; default {bench.BenchConfig.qs})")
    p.add_argument("--no-tmqi", action="store_true", help="skip quality scoring")
    p.add_argument("--csv", type=Path, help="write per-cell records here")
    p.add_argument("--svg", type=Path, help="write a bitrate boxplot here")
    return parser


def _cmd_encode(args) -> int:
    hdr = bench.load_hdr_file(args.input)
    mode, refine_bits = ARMS[args.arm]
    params = CodecParams(mode=mode, tmo=TmoParams(kind=TMO_BY_NAME[args.tmo]), q=args.q,
                         refine_bits=refine_bits)
    stream = container.encode(hdr, params)
    args.out.write_bytes(stream)
    report = container.measure(stream)
    print(f"{args.out}: {report.total_bytes} bytes, {report.bits_per_pixel:.3f} bpp")
    return 0


def _cmd_decode(args) -> int:
    hdr = container.decode(args.input.read_bytes())
    args.out.write_bytes(write_pfm(hdr))
    print(f"{args.out}: {hdr.width}x{hdr.height}")
    return 0


def _cmd_extract(args) -> int:
    jpeg = container.extract_ldr(args.input.read_bytes())
    args.out.write_bytes(jpeg)
    print(f"{args.out}: {len(jpeg)} bytes")
    return 0


def _cmd_tmqi(args) -> int:
    hdr = bench.load_hdr_file(args.hdr)
    ldr = parse_ppm(args.ldr.read_bytes())
    score = tmqi_score(hdr, ldr)
    print(f"Q={score.q_overall:.6f} S={score.s_structural:.6f} N={score.n_naturalness:.6f}")
    return 0


def _cmd_bench(args) -> int:
    tmos = bench.DISTINCT_TMOS if args.tmo == "all" else (TMO_BY_NAME[args.tmo],)
    config = bench.BenchConfig(
        tmos=tmos,
        qs=tuple(args.q or bench.BenchConfig.qs),
        compute_tmqi=not args.no_tmqi,
    )
    if args.synthetic is not None:  # 0 reaches synthetic_corpus, which refuses it
        if args.input:  # the files are a copy: the run below uses the images in memory
            bench.write_corpus(args.input, args.synthetic, size=args.size)
        result = bench.run_images(bench.synthetic_corpus(args.synthetic, size=args.size), config)
    elif args.input:
        result = bench.run_grid(args.input, config)
    else:
        print("bench: either an input directory or --synthetic N is required", file=sys.stderr)
        return 1

    summary = result.summary
    if args.csv:  # it records lossless_ok per cell, so a failed run writes it too
        args.csv.write_text(bench.records_to_csv(result.records))
        print(f"records: {args.csv}")
    print(f"{len(result.records)} records over {len({r.image_id for r in result.records})} images")
    print(summary["quartile_method"])
    bench.print_findings(summary)
    if config.compute_tmqi and summary["tmqi_unscored"]:
        print(
            f"tmqi: {summary['tmqi_unscored']} of {len(result.records)} cells unscored "
            f"(side < {TMQI_MIN_SIDE} px)"
        )
    for name, reason in result.skipped:
        print(f"  skipped {name}: {reason}", file=sys.stderr)

    if summary["lossless_failures"]:
        raise LosslessnessError(f"lossless round trip failed for {summary['lossless_failures']}")
    if args.svg:  # plots only exact round trips, so it is drawn only when every cell is exact
        args.svg.write_text(bench.emit_boxplot_svg(summary["arm_stats"]))
        print(f"boxplot: {args.svg}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "encode": _cmd_encode,
        "decode": _cmd_decode,
        "extract-ldr": _cmd_extract,
        "tmqi": _cmd_tmqi,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except LosslessnessError as exc:
        print(f"hdr2l: {exc}", file=sys.stderr)
        return 2
    except (Hdr2lError, OSError) as exc:  # OSError: a missing or unwritable file
        print(f"hdr2l: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
