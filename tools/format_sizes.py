#!/usr/bin/env python3
"""Stream sizes per coder arm on the benchmark's inputs, and the paper's two
findings per workload.

Run from the repository root:

    python3 tools/format_sizes.py --seed 1

The codec comes from the checkout's ``src/`` and the seeded images from
``perfbench/workloads.py``, so the same command measures any checkout.

The first image of each workload runs through ``hdr2l.bench.run_images``:
every arm (hp, xt-r0, xt-r4) under each distinct tone curve at q = 80.  The
tool prints ``bench.print_findings`` per workload; its JSON rows hold stream
bpp and the section bytes.

Every stream is decoded and compared with its source; the exit code is 1 if
any differs.  Standard output ends with one JSON line of the results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from hdr2l import bench  # noqa: E402


def arm_table(seed: int) -> tuple[list[dict], int]:
    config = bench.BenchConfig(qs=(workloads.QUALITY,), compute_tmqi=False)
    rows, mismatches = [], 0
    for name in workloads.WORKLOADS:
        result = bench.run_images([(name, workloads.build(name, seed).images[0])], config)
        print(f"workload {name}")
        bench.print_findings(result.summary)
        mismatches += len(result.summary["lossless_failures"])
        rows += [{
            "workload": name, "tmo": r.tmo, "arm": r.arm, "bpp": round(r.bpp, 6), **r.sections,
        } for r in result.records]
    return rows, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rows, mismatches = arm_table(args.seed)
    print(json.dumps({"seed": args.seed, "mismatches": mismatches, "rows": rows}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
