"""``tools/format_sizes.py``: the per-arm table on small stand-in images, its
rows and findings, and the exit code on an inexact decode."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hdr2l import container
from hdr2l.bench import synthetic_corpus

TOOL = Path(__file__).resolve().parents[1] / "tools" / "format_sizes.py"
SECTIONS = ["base", "refinement", "tables", "residual_payload", "overhead"]


@pytest.fixture
def format_sizes(monkeypatch):
    """The tool as a module, its workloads replaced by one 24 x 24 image each."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
    spec = importlib.util.spec_from_file_location("format_sizes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = tool.workloads.WORKLOADS
    images = dict(zip(names, (image for _, image in synthetic_corpus(len(names), size=24, seed=5))))
    monkeypatch.setattr(tool.workloads, "build", lambda name, seed: SimpleNamespace(images=(images[name],)))
    return tool


def _flip_one_sample(monkeypatch):
    """Make every ``container.decode`` return its image with one bit flipped."""
    real_decode = container.decode

    def flip_one_sample(data):
        image = real_decode(data)
        samples = image.samples.copy()
        samples[0, 0, 0] ^= 1
        return type(image)(samples)

    monkeypatch.setattr(container, "decode", flip_one_sample)


def test_arm_table_rows_and_findings(format_sizes, capsys):
    assert format_sizes.main(["--seed", "1"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    result = json.loads(last)
    assert result["mismatches"] == 0
    rows = result["rows"]
    assert {(r["workload"], r["tmo"], r["arm"]) for r in rows} == {
        (w, t, a)
        for w in format_sizes.workloads.WORKLOADS
        for t in ("default", "reinhard-local", "drago")
        for a in ("hp", "xt-r0", "xt-r4")
    }
    for r in rows:
        assert list(r) == ["workload", "tmo", "arm", "bpp", *SECTIONS]
        assert r["bpp"] == round(8 * sum(r[k] for k in SECTIONS) / (24 * 24), 6)
    assert sum(line.startswith("  hp < xt @ ") for line in lines) == 9
    assert sum(line.startswith("  hp - xt-r0 @ ") for line in lines) == 9
    assert sum(line.startswith("  cross-TMO cov @ q80: ") for line in lines) == 3


def test_one_flipped_sample_exits_1(format_sizes, monkeypatch, capsys):
    _flip_one_sample(monkeypatch)
    assert format_sizes.main(["--seed", "1"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["mismatches"] == 27
