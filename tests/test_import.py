"""Importing the package, or its command line, loads no scipy: only TMQI and
the local Reinhard operator need it, and they import it when first called.
Nor does it load ``numpy.ma``, which some numpy functions (``np.unique``)
import on first use."""

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
