#!/usr/bin/env python3
"""Checks that the benchmark measures what it claims; runs in a few seconds.

    python3 perfbench/selfcheck.py

1. Corrupted streams fed through the benchmark's decode path are counted as
   failed cells instead of crashing the run: a truncated stream, a flipped
   byte under a stale CRC, and a flipped residual byte under a fixed-up CRC.
   A valid stream of an image one half code away is counted as failed too.
2. A sleep injected into ``basejpeg.decode_base`` lands in that span's self
   time and not in the self time of its parents ``container.encode`` and
   ``container.decode``.
3. Refinement planes are coded and traced on the XT R=4 arm only.
4. Each codec stage of an HP cell records calls in the traced run, so a
   function that the scan of the layer modules misses cannot drop out of the
   breakdown unseen.

Exits 0 when every check passes.
"""

from __future__ import annotations

import sys
import time
import zlib

import run

SLEEP_S = 0.2
SIDE = 48


def _corrupt_streams(stream: bytes) -> dict[str, bytes]:
    flipped = bytearray(stream)
    flipped[len(stream) // 2] ^= 0x5A
    residual = bytearray(stream[:-4])
    residual[-16] ^= 0xFF
    residual += zlib.crc32(residual).to_bytes(4, "little")
    return {
        "truncated": stream[:-10],
        "stale-crc": bytes(flipped),
        "residual-flip": bytes(residual),
    }


def check_corruption_counted(workload) -> list[str]:
    from hdr2l import container
    from hdr2l.imagio import HdrImage

    problems = []
    image = workload.images[0]
    stream = container.encode(image, workload.cells[0].params)
    for name, bad in _corrupt_streams(stream).items():
        _, error = run.decode_and_compare(bad, image)
        if error is None:
            problems.append(f"{name}: corrupted stream decoded as a match")

    # A valid stream of an image one half code away must not pass either.
    samples = image.samples.copy()
    samples[0, 0, 0] ^= 1
    _, error = run.decode_and_compare(container.encode(HdrImage(samples), workload.cells[0].params), image)
    if error is None:
        problems.append("a stream of a different image decoded as a match")

    original = container.encode
    container.encode = lambda hdr, params: _corrupt_streams(original(hdr, params))["residual-flip"]
    try:
        runs = [run.run_cell(workload, i) for i in range(len(workload.cells))]
    finally:
        container.encode = original
    if any(r.ok for r in runs):
        problems.append("run_cell counted a corrupted stream as a bit-exact cell")
    return problems


def _traced_totals(workload, index: int):
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(cell=index):
        result = run.run_cell(workload, index)
    if not result.ok:
        raise RuntimeError(f"self-check cell failed: {result.error}")
    return tracing.summarise(tracer.spans)


def check_sleep_attribution(workload) -> list[str]:
    from hdr2l import basejpeg

    before = _traced_totals(workload, 0)
    original = basejpeg.decode_base

    def slowed(stream):
        time.sleep(SLEEP_S)
        return original(stream)

    basejpeg.decode_base = slowed
    try:
        after = _traced_totals(workload, 0)
    finally:
        basejpeg.decode_base = original

    calls = after["basejpeg.decode_base"].calls
    gained = {name: (after[name].self_ns - before[name].self_ns) / 1e9 for name in after}
    problems = []
    if gained["basejpeg.decode_base"] < 0.9 * SLEEP_S * calls:
        problems.append(
            f"basejpeg.decode_base self time grew {gained['basejpeg.decode_base']:.3f} s, "
            f"expected about {SLEEP_S * calls:.3f} s"
        )
    for parent in ("container.encode", "container.decode"):
        if gained[parent] > 0.25 * SLEEP_S:
            problems.append(f"{parent} self time grew {gained[parent]:.3f} s from a child's sleep")
    return problems


def check_refinement_planes(workloads) -> list[str]:
    """Encode splits three planes and merges them back for its prediction;
    decode merges three more."""
    problems = []
    for name, expected in (("photo-hp", (0, 0)), ("texture-xt4", (3, 6))):
        totals = _traced_totals(_small(workloads, name), 0)
        got = tuple(totals[f"basejpeg.{fn}"].counts["planes"] for fn in ("split_refinement", "merge_refinement"))
        if got != expected:
            problems.append(f"{name}: split/merge refinement planes {got}, expected {expected}")
    return problems


# Spans every HP cell must record; a call site the tracer misses shows here.
STAGES = (
    "container.encode", "container.decode", "imagio.luminance", "tmo.tonemap",
    "tmo.predict_hdr", "basejpeg.encode_base", "basejpeg.decode_base",
    "rescodec.compute_residual", "rescodec.apply_residual", "rescodec.encode_residual",
    "rescodec.decode_residual", "rescodec.code_plane", "rescodec.decode_plane",
    "hpack.build_table", "hpack.pack", "hpack.unpack",
)


def check_stages_traced(workload) -> list[str]:
    totals = _traced_totals(workload, 0)
    return [f"{name} recorded no calls" for name in STAGES if not totals.get(name) or not totals[name].calls]


def _small(workloads, name: str):
    """The workload's first cell on a SIDE x SIDE crop of its first image."""
    from hdr2l.imagio import HdrImage

    full = workloads.build(name, seed=1)
    crop = HdrImage(full.images[0].samples[:, :SIDE, :SIDE])
    return workloads.Workload(name, (crop,), (workloads.Cell(0, full.cells[0].params),))


def main() -> int:
    problem = run.import_codec()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import workloads

    photo = _small(workloads, "photo-hp")
    checks = {
        "corrupted streams count as failed cells": lambda: check_corruption_counted(photo),
        "injected sleep lands in the slowed span": lambda: check_sleep_attribution(photo),
        "refinement planes only on XT R=4": lambda: check_refinement_planes(workloads),
        "every codec stage records calls": lambda: check_stages_traced(photo),
    }
    failed = 0
    for label, check in checks.items():
        problems = check()
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for line in problems:
            print(f"     {line}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
