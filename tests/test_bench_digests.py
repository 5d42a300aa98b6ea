"""The benchmark's seed-1 streams, frozen in ``tests/bench_digests_seed1.txt``.

The 256-512 px benchmark images reach code paths the 24 x 24 golden grid does
not.  Each workload of ``perfbench/workloads.py`` is built at seed 1, and its
first pass of cells is encoded in order and hashed as ``perfbench/run.py``'s
``stream_digest`` does: each stream's 8-byte little-endian length, then the
stream, under SHA-256.  A change that keeps the format keeps every digest.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from hdr2l import container

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = dict(
    line.split() for line in (ROOT / "tests" / "bench_digests_seed1.txt").read_text().splitlines()
)


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, imported from the checkout as the tools do."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    return workloads


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed1_stream_digest(workloads, name):
    assert set(DIGESTS) == set(workloads.WORKLOADS)
    workload = workloads.build(name, 1)
    h = hashlib.sha256()
    for cell in workload.cells:
        stream = container.encode(workload.images[cell.image_index], cell.params)
        h.update(len(stream).to_bytes(8, "little"))
        h.update(stream)
    assert h.hexdigest() == DIGESTS[name]
