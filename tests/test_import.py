"""Importing the package, or its command line, loads no scipy: only TMQI
needs it, and imports it when first called.  Nor does it load ``numpy.ma``,
which some numpy functions (``np.unique``) import on first use.  Encoding and
decoding under every operator load no scipy either."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("module", ["hdr2l", "hdr2l.cli"])
def test_import_loads_no_scipy(module):
    code = (
        f"import sys, {module}, hdr2l\n"
        "from hdr2l import tmqi\n"
        "assert tmqi is hdr2l.tmqi and callable(tmqi), tmqi\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_codec_loads_no_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from hdr2l.container import CodecParams, CoderMode, decode, encode\n"
        "from hdr2l.imagio import HdrImage, half_encode_array\n"
        "from hdr2l.tmo import TmoKind, TmoParams\n"
        "lum = np.exp(np.random.default_rng(0).uniform(-4.0, 4.0, size=(40, 24)))\n"
        "image = HdrImage(half_encode_array(np.stack([lum, lum * 0.7, lum * 0.4])))\n"
        "for kind in TmoKind:\n"
        "    for mode, refine_bits in ((CoderMode.HP, 0), (CoderMode.XT, 4)):\n"
        "        params = CodecParams(mode=mode, tmo=TmoParams(kind=kind), refine_bits=refine_bits)\n"
        "        assert decode(encode(image, params)) == image\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
