"""Seeded mutation test: the decoder may be given any bytes.

CRC-valid mutants of two small streams (byte flips, bit flips and u32
overwrites, with the CRC recomputed so the mutation reaches the parsers) must
make ``decode``, ``measure`` and ``extract_ldr`` raise nothing but
``Hdr2lError`` subclasses.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from hdr2l import tmo
from hdr2l.container import CodecParams, CoderMode, decode, encode, extract_ldr, measure
from hdr2l.errors import Hdr2lError
from hdr2l.imagio import HdrImage
from conftest import sparse_hdr_image

SIDE = 20
MUTANTS = 300


def _mutants(stream: bytes, count: int, seed: int):
    rng = np.random.default_rng(seed)
    body = stream[:-4]
    for _ in range(count):
        mutant = bytearray(body)
        op = int(rng.integers(3))
        pos = int(rng.integers(len(body) - 3))
        if op == 0:
            mutant[pos] ^= int(rng.integers(1, 256))
        elif op == 1:
            mutant[pos] ^= 1 << int(rng.integers(8))
        else:
            mutant[pos : pos + 4] = int(rng.integers(1 << 32)).to_bytes(4, "little")
        yield bytes(mutant + zlib.crc32(mutant).to_bytes(4, "little"))


def _patch_image() -> HdrImage:
    """Flat patches of sparse HDR levels on the 8x8 JPEG block grid.  The
    stream still has pack tables and every JPEG table, but its entropy data
    and residual are small, so a full decode of a mutant stays cheap."""
    levels = sparse_hdr_image(3, 3, seed=1).samples
    patches = np.repeat(np.repeat(levels, 8, axis=1), 8, axis=2)
    return HdrImage(np.ascontiguousarray(patches[:, :SIDE, :SIDE]))


@pytest.mark.parametrize("mode,refine,seed", [(CoderMode.HP, 0, 11), (CoderMode.XT, 4, 12)])
def test_mutated_streams_raise_only_codec_errors(mode, refine, seed):
    params = CodecParams(mode, tmo.TmoParams(kind=tmo.TmoKind.DEFAULT), q=100, refine_bits=refine)
    stream = encode(_patch_image(), params)
    escapes = []
    for index, mutant in enumerate(_mutants(stream, MUTANTS, seed)):
        for reader in (decode, measure, extract_ldr):
            try:
                reader(mutant)
            except Hdr2lError:
                pass
            except Exception as exc:  # any other type escapes the contract
                escapes.append((index, reader.__name__, repr(exc)))
    assert escapes == []
