#!/usr/bin/env python3
"""Stream sizes per coder arm on the benchmark's inputs, the paper's two
findings per workload, and what packing only the residual planes that gain
would save.

Run from the repository root:

    python3 tools/format_sizes.py --seed 1            # per-arm table
    python3 tools/format_sizes.py --seed 1 --per-plane

The codec comes from the checkout's ``src/`` and the seeded images from
``perfbench/workloads.py``, so the same command measures any checkout.

The per-arm table runs the first image of each workload through
``hdr2l.bench.run_images``: every arm (HP, XT R=0, XT R=4) under each
distinct tone curve at q = 80.  It prints ``bench.print_findings`` per
workload; its JSON rows hold stream bpp and the section bytes.

``--per-plane`` (format version 3 and later) takes the first six cells of
each workload and re-codes their residual block with each plane packed only
when its pack table plus packed payload is smaller than its plain payload.
The new block replaces the old one in the stream, which must still decode
bit-exactly through ``container.decode``: K = 0 marks a plane that is not
packed, so the choice needs no change to the reader.  Residual bpp counts the
whole block: plane headers, tables and payloads.

Every stream is decoded and compared with its source; the exit code is 1 if
any differs.  Standard output ends with one JSON line of the results.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from hdr2l import bench, container, rescodec  # noqa: E402
from hdr2l.hpack import build_table, pack, serialize_table  # noqa: E402

PER_PLANE_CELLS = 6


def arm_table(seed: int) -> tuple[list[dict], int]:
    config = bench.BenchConfig(qs=(workloads.QUALITY,), compute_tmqi=False)
    rows, mismatches = [], 0
    for name in workloads.WORKLOADS:
        result = bench.run_images([(name, workloads.build(name, seed).images[0])], config)
        print(f"workload {name}")
        bench.print_findings(result.summary)
        mismatches += len(result.summary["lossless_failures"])
        rows += [{
            "workload": name, "tmo": r.tmo, "arm": r.mode if r.mode == "hp" else f"xt-r{r.refine}",
            "bpp": round(r.bpp, 6), **r.sections,
        } for r in result.records]
    return rows, mismatches


def _plane_block(plane, packed: bool) -> bytes:
    """One plane of a residual block, packed or not."""
    table = build_table(plane) if packed else None
    coded = pack(plane, table) if packed else plane
    (payload,) = rescodec.code_planes(coded[None])
    header = rescodec.PLANE_HEADER.pack(table.count if packed else 0, len(payload))
    return header + (serialize_table(table) if packed else b"") + payload


def per_plane(seed: int) -> tuple[list[dict], int]:
    rows, mismatches = [], 0
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, seed)
        before = after = pixels = packed_planes = 0
        for cell in workload.cells[:PER_PLANE_CELLS]:
            image = workload.images[cell.image_index]
            stream = container.encode(image, cell.params)
            residual = container._parse(stream).residual
            raw = rescodec.decode_residual(residual, image.width, image.height)
            block = b""
            for plane in rescodec.color_transform_fwd(raw):
                plain, packed = _plane_block(plane, False), _plane_block(plane, True)
                block += packed if len(packed) < len(plain) else plain
                packed_planes += len(packed) < len(plain)
            body = stream[: len(stream) - 8 - len(residual)] + len(block).to_bytes(4, "little") + block
            mismatches += container.decode(body + zlib.crc32(body).to_bytes(4, "little")) != image
            before += len(residual)
            after += len(block)
            pixels += image.width * image.height
        cells = min(PER_PLANE_CELLS, len(workload.cells))
        row = {
            "workload": name, "cells": cells,
            "residual_bpp_as_encoded": round(8 * before / pixels, 4),
            "residual_bpp_per_plane_choice": round(8 * after / pixels, 4),
            "planes_packed": f"{packed_planes} of {3 * cells}",
        }
        rows.append(row)
        print(f"{name:<12} residual {row['residual_bpp_as_encoded']:8.4f} -> "
              f"{row['residual_bpp_per_plane_choice']:8.4f} bpp, {row['planes_packed']} planes packed")
    return rows, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--per-plane", action="store_true", help="measure the per-plane packing choice")
    args = parser.parse_args(argv)
    rows, mismatches = (per_plane if args.per_plane else arm_table)(args.seed)
    print(json.dumps({"seed": args.seed, "mismatches": mismatches, "rows": rows}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
