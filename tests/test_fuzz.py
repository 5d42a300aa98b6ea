"""Seeded mutation test: the decoder may be given any bytes.

CRC-valid mutants of two small streams (byte flips, bit flips and u32
overwrites, with the CRC recomputed so the mutation reaches the parsers) must
make ``decode``, ``measure`` and ``extract_ldr`` raise nothing but
``Hdr2lError`` subclasses.  Besides random sites, a share of the mutants
rewrite the fields that readers size their work from: the container width and
height and each residual plane's payload length.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np
import pytest

from hdr2l import tmo
from hdr2l.container import CodecParams, CoderMode, _parse, decode, encode, extract_ldr, measure
from hdr2l.errors import Hdr2lError
from hdr2l.imagio import HdrImage
from hdr2l.rescodec import PLANE_HEADER, split_residual_sections
from conftest import sparse_hdr_image

SIDE = 20
MUTANTS = 300
FIELD_MUTANTS = 30
WIDTH_OFFSET = 9  # u32 width, then u32 height


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
        yield _with_crc(mutant)


def _with_crc(body: bytearray) -> bytes:
    return bytes(body + zlib.crc32(body).to_bytes(4, "little"))


def _size_fields(stream: bytes, packed: bool) -> list[int]:
    """Offsets of the u32 fields a decoder sizes its work from: the width, the
    height and the payload length of each residual plane."""
    residual = _parse(stream).residual
    pos = len(stream) - 4 - len(residual)  # the residual block comes last
    fields = [WIDTH_OFFSET, WIDTH_OFFSET + 4]
    for section in split_residual_sections(residual, packed):
        fields.append(pos + 4)
        pos += PLANE_HEADER.size + section.table_bytes + len(section.payload)
    return fields


def _field_mutants(stream: bytes, packed: bool, count: int, seed: int):
    rng = np.random.default_rng(seed)
    fields = _size_fields(stream, packed)
    for _ in range(count):
        mutant = bytearray(stream[:-4])
        pos = fields[int(rng.integers(len(fields)))]
        value = int.from_bytes(mutant[pos : pos + 4], "little")
        choices = (0, 1, value - 1, value + 1, 2 * value, value // 2, 0xFFFF, 0xFFFFFFFF)
        new = choices[int(rng.integers(len(choices)))] if rng.integers(4) else int(rng.integers(1 << 32))
        mutant[pos : pos + 4] = (new & 0xFFFFFFFF).to_bytes(4, "little")
        yield _with_crc(mutant)


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
    mutants = itertools.chain(
        _mutants(stream, MUTANTS, seed),
        _field_mutants(stream, mode == CoderMode.HP, FIELD_MUTANTS, seed),
    )
    escapes = []
    for index, mutant in enumerate(mutants):
        for reader in (decode, measure, extract_ldr):
            try:
                reader(mutant)
            except Hdr2lError:
                pass
            except Exception as exc:  # any other type escapes the contract
                escapes.append((index, reader.__name__, repr(exc)))
    assert escapes == []
