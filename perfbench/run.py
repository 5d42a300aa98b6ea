#!/usr/bin/env python3
"""Benchmark of the hdr2l codec on seeded HDR inputs.

Run from the repository root:

    python3 perfbench/run.py --workload photo-hp --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client, one process, closed loop: a cell encodes one image through
``container.encode``, decodes the stream through ``container.decode`` and
compares the result with the input half codes bit-exactly.  The workload's
cells cycle until ``--seconds`` have passed, through at least one whole pass
and whole rounds of its distinct codec settings.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each cell of
one pass twice, untraced and traced in alternating order, and reports per-layer
self time, calls and work counts per traced cell (see ``tracing.py``).

Standard output ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` holding the metrics ``BENCHMARK.json`` declares for the mode.  The
lines above it are a readable table of every metric (``failed_frac`` and the
``hpack`` self times among them, which read exactly 0 on some workloads), the
environment, and the input and stream digests.  The full record, spans
included, is written to ``.bench_build/perfbench/``.  The exit code is 0 only
when every cell round-trips bit-exactly, and 2 when the codec sources are not
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
# Thread pools of the numeric libraries are pinned to one thread: the client
# is single-threaded and the box has two cores shared with other work.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Fresh imports timed per run for setup_s, spread through the timed loop.
SETUP_SAMPLES = 6
# Side of the crop on which tracemalloc measures peak allocation; tracing
# every allocation slows the pure-Python coders about tenfold.
ALLOC_CROP = 64
SETUP_CODE = (
    "import time; t = time.perf_counter(); import hdr2l; "
    "print(time.perf_counter() - t, hdr2l.__file__)"
)
# The single-thread speed of a shared box drifts by up to a third within
# minutes, with the load of its neighbours, which is more than the change a
# bound should catch.  So a run times a fixed pure-Python reference loop
# after every encode and every decode, and its time metrics are rescaled to
# the speed at which one reference loop takes REFERENCE_LOOP_MS, about the
# fast state of a 2.1 GHz Xeon core.  The set-up imports are spread through
# the same loop, so that one rescaling covers them too.  Wall times are
# printed beside them.
REFERENCE_LOOP_MS = 15.0
REFERENCE_SIDE = 40
REFERENCE_SEED = 20190725


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# One cell


@dataclass
class CellRun:
    cell: int  # index into Workload.cells
    encode_s: float
    decode_s: float
    stream: bytes | None
    error: str | None  # None when the decode matched the input bit-exactly

    @property
    def ok(self) -> bool:
        return self.error is None


def decode_and_compare(stream: bytes, image) -> tuple[float, str | None]:
    """Decode ``stream`` and compare it with ``image``; return the decode wall
    time and None, or an error text when the decode raised or differs in any
    half code."""
    from hdr2l import container

    t0 = time.perf_counter()
    try:
        decoded = container.decode(stream)
    except Exception as exc:  # any escape from the decoder is a failed cell
        return time.perf_counter() - t0, f"decode raised {exc!r}"
    elapsed = time.perf_counter() - t0
    if decoded.samples.shape != image.samples.shape:
        return elapsed, f"decode returned shape {decoded.samples.shape}"
    wrong = int((decoded.samples != image.samples).sum())
    return elapsed, (f"decode differs in {wrong} half codes" if wrong else None)


def run_cell(workload, index: int, probe: SpeedProbe | None = None) -> CellRun:
    """Encode and decode one cell; ``probe`` samples the box's speed after
    each of the two calls, outside their timing."""
    from hdr2l import container

    cell = workload.cells[index]
    image = workload.images[cell.image_index]
    t0 = time.perf_counter()
    try:
        stream = container.encode(image, cell.params)
    except Exception as exc:  # counted as a failed cell, the run goes on
        return CellRun(index, time.perf_counter() - t0, 0.0, None, f"encode raised {exc!r}")
    encode_s = time.perf_counter() - t0
    if probe:
        probe.sample()
    decode_s, error = decode_and_compare(stream, image)
    if probe:
        probe.sample()
    return CellRun(index, encode_s, decode_s, stream, error)


class _Bits:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read1(self) -> int:
        bit = (self.data[self.pos >> 3] >> (7 - (self.pos & 7))) & 1
        self.pos += 1
        return bit

    def read(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read1()
        return value


def reference_loop(payload: bytes, side: int = REFERENCE_SIDE) -> int:
    """A frozen pure-Python adaptive-Rice + MED plane decode of a fixed
    payload: the shape of the codec's hottest loop, so the box's slow spells
    slow it alike, but not the codec's code, so no codec change moves it."""
    bits = _Bits(payload)
    read1, read = bits.read1, bits.read
    a_sum, n, errors = 4, 1, []
    for _ in range(side * side):
        k = 0
        while (n << k) < a_sum:
            k += 1
        q = 0
        while q < 24 and read1() == 0:
            q += 1
        u = read(16) if q == 24 else (q << k) | (read(k) if k else 0)
        errors.append(u >> 1)
        a_sum += u
        n += 1
        if n == 64:
            a_sum >>= 1
            n >>= 1
    rows = [[0] * side for _ in range(side)]
    above, idx = [0] * side, 0
    for row in rows:
        left = 0
        for x in range(side):
            b, c = above[x], (above[x - 1] if x else 0)
            hi, lo = (left, b) if left > b else (b, left)
            p = lo if c >= hi else hi if c <= lo else left + b - c
            left = row[x] = (p + errors[idx]) & 0xFFFF
            idx += 1
        above = row
    return left


class SpeedProbe:
    """Wall times of the reference loop, sampled through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._payload = random.Random(REFERENCE_SEED).randbytes(8 * REFERENCE_SIDE * REFERENCE_SIDE)

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop(self._payload)
        self.samples.append(time.perf_counter() - t0)

    @property
    def loop_ms(self) -> float:
        return 1e3 * statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        """Factor taking this run's wall times to reference speed."""
        return REFERENCE_LOOP_MS / self.loop_ms


# ---------------------------------------------------------------------------
# Measurements around the loop


def setup_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_time(env: dict) -> float:
    """Wall time of ``import hdr2l`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    if Path(out[1]).resolve().parent != SRC / "hdr2l":
        raise RuntimeError(f"setup imported hdr2l from {out[1]}")
    return float(out[0])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def git_revision() -> str:
    """HEAD of the checkout; git is kept from searching above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(),
        "seed": args.seed,
        "command": (
            f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
            f"--seconds {args.seconds:g} --trace {args.trace}"
        ),
    }


def stream_digest(streams) -> str:
    h = hashlib.sha256()
    for stream in streams:
        h.update(len(stream).to_bytes(8, "little"))
        h.update(stream)
    return h.hexdigest()


def stream_report(workload, runs: list[CellRun]) -> dict:
    """Sizes, digests and decoded-base TMQI of one pass; never timed."""
    from hdr2l import basejpeg, container
    from hdr2l.tmqi import MIN_SIDE, tmqi

    sections = {}
    total_bytes = pixels = 0
    scores, unscored = [], []
    for run in runs:
        cell = workload.cells[run.cell]
        image = workload.images[cell.image_index]
        if not run.ok:
            unscored.append(f"{cell.label}: failed ({run.error})")
            continue
        report = container.measure(run.stream)
        total_bytes += report.total_bytes
        pixels += report.pixels
        for key, value in report.sections().items():
            sections[key] = sections.get(key, 0) + value
        if min(image.width, image.height) < MIN_SIDE:
            unscored.append(f"{cell.label}: below the TMQI minimum side {MIN_SIDE}")
            continue
        base = basejpeg.decode_base(container.extract_ldr(run.stream))
        scores.append(tmqi(image, base).q_overall)
    return {
        "bpp": 8.0 * total_bytes / pixels if pixels else float("nan"),
        "sections": sections,
        "tmqi_decoded": statistics.fmean(scores) if scores else float("nan"),
        "tmqi_scored": len(scores),
        "tmqi_cells": len(runs),
        "unscored": unscored,
        "input_sha256": workload.input_sha256,
        "stream_sha256": stream_digest(r.stream or b"" for r in runs),
    }


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end(workload, args) -> tuple[dict, dict]:
    probe = SpeedProbe()
    env = setup_env()
    # The first import writes the bytecode cache and is not counted, as an
    # installed package ships its cache.
    import_time(env)
    setup: list[float] = []
    # Cells cycle in pass order until the deadline, for at least one pass and
    # always through whole rounds of the workload's distinct codec settings,
    # so that every run times the same mix of them.  A fresh import is timed
    # between cells once per SETUP_SAMPLES-th of the time.
    cells = len(workload.cells)
    round_len = len({c.params for c in workload.cells})
    runs: list[CellRun] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while len(runs) < cells or len(runs) % round_len or time.perf_counter() < deadline:
        runs.append(run_cell(workload, len(runs) % cells, probe))
        slot = start + (len(setup) + 0.5) * args.seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and time.perf_counter() >= slot:
            setup.append(import_time(env))
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_time(env))
    rss = peak_rss_mb()

    pixels = sum(workload.images[workload.cells[r.cell].image_index].samples[0].size for r in runs)
    # The first pass is the deterministic part: sizes, scores and digests.
    report = stream_report(workload, runs[:cells])
    setup_p50 = statistics.median(setup)
    metrics = {"setup_s": (setup_p50 * probe.scale, "s")}
    wall = {"setup_s.wall": (setup_p50, "s")}
    for phase in ("encode", "decode"):
        times = [getattr(r, f"{phase}_s") for r in runs]
        metrics[f"{phase}_mpx_s"] = (pixels / 1e6 / sum(times) / probe.scale, "Mpx/ref-s")
        wall[f"{phase}_mpx_s.wall"] = (pixels / 1e6 / sum(times), "Mpx/s")
    for phase in ("encode", "decode"):
        p50 = 1e3 * statistics.median(getattr(r, f"{phase}_s") for r in runs)
        metrics[f"{phase}_ms_p50"] = (p50 * probe.scale, "ref-ms")
        wall[f"{phase}_ms_p50.wall"] = (p50, "ms")
    metrics |= {
        "bpp": (report["bpp"], "bit/px"),
        "tmqi_decoded": (report["tmqi_decoded"], "score"),
        "peak_rss_mb": (rss, "MB"),
    }
    metrics |= wall
    metrics["reference_loop_ms"] = (probe.loop_ms, "ms")
    record = {
        "runs": runs,
        "setup_samples_s": setup,
        "reference_loop_samples_s": probe.samples,
        "report": report,
    }
    return metrics, record


def traced(workload, args) -> tuple[dict, dict]:
    import tracing
    from hdr2l import container

    def twin(i: int) -> tuple[CellRun, float]:
        """One cell plus the two stream readers a legacy viewer and a size
        report use; returns the run and its wall time."""
        t0 = time.perf_counter()
        run = run_cell(workload, i)
        if run.ok:
            container.measure(run.stream)
            container.extract_ldr(run.stream)
        return run, time.perf_counter() - t0

    tracer = tracing.Tracer()
    probe = SpeedProbe()
    plain_s = spanned_s = 0.0
    runs: list[CellRun] = []
    spanned: list[CellRun] = []
    for i in range(len(workload.cells)):
        # Alternate which twin goes first so drift of the box favours neither.
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed(cell=i):
                    run, wall = twin(i)
                spanned.append(run)
                spanned_s += wall
            else:
                run, wall = twin(i)
                plain_s += wall
            runs.append(run)
            probe.sample()

    cells = len(spanned)
    totals = tracing.summarise(tracer.spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name, t in totals.items():
        metrics[f"{name}.self_ms"] = (t.self_ns / 1e6 / cells, "ms")
        metrics[f"{name}.calls"] = (t.calls / cells, "1/cell")

    def ratio(name, count):
        t = totals[name]
        return t.self_ns / t.counts[count] if t.counts[count] else 0.0

    decode_plane = "rescodec.decode_plane"
    metrics[f"{decode_plane}.ns_per_bit"] = (ratio(decode_plane, "bits"), "ns/bit")
    metrics[f"{decode_plane}.ns_per_sample"] = (ratio(decode_plane, "samples"), "ns/sample")
    metrics["rescodec.code_plane.ns_per_sample"] = (ratio("rescodec.code_plane", "samples"), "ns/sample")
    for name in ("basejpeg.encode_base", "basejpeg.decode_base"):
        metrics[f"{name}.ns_per_byte"] = (ratio(name, "bytes"), "ns/B")
    for name in ("basejpeg.split_refinement", "basejpeg.merge_refinement"):
        metrics[f"{name}.planes"] = (totals[name].counts["planes"] / cells, "1/cell")
    for name in (
        "basejpeg.split_refinement", "basejpeg.merge_refinement",
        "rescodec.encode_residual", "rescodec.decode_residual",
    ):
        metrics[f"{name}.total_ms"] = (totals[name].total_ns / 1e6 / cells, "ms")

    for phase, per_px in peak_alloc(workload).items():
        metrics[f"container.{phase}.peak_alloc_b_per_px"] = (per_px, "B/px")

    report = stream_report(workload, spanned)
    for key, value in report["sections"].items():
        metrics[f"bytes.{key}"] = (value / cells, "B/cell")

    self_ns = sum(t.self_ns for t in totals.values())
    metrics["trace.overhead_frac"] = ((spanned_s - plain_s) / plain_s, "fraction")
    metrics["trace.attributed_frac"] = (self_ns / 1e9 / spanned_s, "fraction")
    metrics["trace.cells"] = (float(cells), "count")
    metrics["reference_loop_ms"] = (probe.loop_ms, "ms")
    record = {
        "runs": runs,
        "report": report,
        "spans": [asdict(s) for s in tracer.spans],
        "layer_self_ms": {
            layer: sum(t.self_ns for n, t in totals.items() if n.startswith(layer + ".")) / 1e6 / cells
            for layer in tracing.LAYERS
        },
    }
    return metrics, record


def busiest_crop(image, side: int = ALLOC_CROP):
    """The side x side tile of ``image``, on a grid of side-pixel tiles, with
    the most change between neighbouring half codes: its edges and ramps
    exercise the residual coder and the TMOs' local paths."""
    import numpy as np

    from hdr2l.imagio import HdrImage

    codes = image.samples.astype(np.int32)
    _, height, width = codes.shape
    activity = np.zeros((height, width))
    activity[:, 1:] += np.abs(np.diff(codes, axis=2)).sum(axis=0)
    activity[1:, :] += np.abs(np.diff(codes, axis=1)).sum(axis=0)
    tiles = [(y, x) for y in range(0, height - side + 1, side) for x in range(0, width - side + 1, side)]
    y, x = max(tiles, key=lambda t: activity[t[0] : t[0] + side, t[1] : t[1] + side].sum())
    return HdrImage(image.samples[:, y : y + side, x : x + side])


def peak_alloc(workload) -> dict[str, float]:
    """Peak traced allocation of encode and of decode, in bytes per pixel:
    the largest over the workload's distinct codec settings, each measured on
    the busiest crop of the first image coded with it."""
    import tracemalloc

    from hdr2l import container

    settings = {}
    for cell in workload.cells:
        settings.setdefault(cell.params, cell.image_index)
    peaks = {"encode": 0.0, "decode": 0.0}
    tracemalloc.start()
    try:
        for params, image_index in settings.items():
            crop = busiest_crop(workload.images[image_index])
            pixels = crop.samples[0].size
            tracemalloc.reset_peak()
            stream = container.encode(crop, params)
            peaks["encode"] = max(peaks["encode"], tracemalloc.get_traced_memory()[1] / pixels)
            tracemalloc.reset_peak()
            container.decode(stream)
            peaks["decode"] = max(peaks["decode"], tracemalloc.get_traced_memory()[1] / pixels)
    finally:
        tracemalloc.stop()
    return peaks


# ---------------------------------------------------------------------------
# Output


def write_record(args, env: dict, metrics: dict, record: dict) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    runs = [
        {k: v for k, v in asdict(r).items() if k != "stream"} | {"stream_bytes": len(r.stream or b"")}
        for r in record.pop("runs")
    ]
    payload = {"environment": env, "metrics": metrics, "cells": runs, **record}
    path.write_text(json.dumps(payload, indent=1, default=str))
    return path


def run_workload(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS} or 'all'", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    env = environment(args)
    t0 = time.perf_counter()
    workload = workloads.build(args.workload, args.seed)
    generate_s = time.perf_counter() - t0
    metrics, record = (traced if args.trace else end_to_end)(workload, args)
    missing = [name for name in declared if name not in metrics]
    if missing:
        print(f"BENCHMARK.json declares metrics the run does not produce: {missing}", file=sys.stderr)
        return 2

    runs: list[CellRun] = record["runs"]
    failed = [r for r in runs if not r.ok]
    report = record["report"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cells {len(runs)}  inputs generated in {generate_s:.2f} s")
    for key, value in env.items():
        print(f"# env {key}: {value}")
    print(f"# input_sha256  {report['input_sha256']}")
    print(f"# stream_sha256 {report['stream_sha256']}")
    print(f"# tmqi scored {report['tmqi_scored']} of {report['tmqi_cells']} cells")
    for reason in report["unscored"]:
        print(f"# unscored {reason}")
    for run in failed:
        print(f"# FAILED {workload.cells[run.cell].label}: {run.error}")
    print(f"{'failed_frac':<44} {len(failed) / len(runs):>16.6g} fraction")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    if args.trace:
        for layer, ms in record["layer_self_ms"].items():
            print(f"# layer {layer:<10} self {ms:10.3f} ms/cell")
    print(f"# record {write_record(args, env, metrics, dict(record)).relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared
        },
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return worst


def import_codec() -> str | None:
    """Put the checkout's ``src`` first on the path and import the codec from
    it; return why that failed, or None."""
    if not (SRC / "hdr2l" / "__init__.py").is_file():
        return f"codec sources not found under {SRC}"
    sys.path.insert(0, str(SRC))
    import hdr2l

    if Path(hdr2l.__file__).resolve().parent != SRC / "hdr2l":
        return f"hdr2l imported from {hdr2l.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    problem = import_codec()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
