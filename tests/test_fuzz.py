"""Seeded mutation test: the decoder may be given any bytes.

CRC-valid mutants of two small streams (byte flips, bit flips and u32
overwrites, with the CRC recomputed so the mutation reaches the parsers) must
make ``decode``, ``measure`` and ``extract_ldr`` raise nothing but
``Hdr2lError`` subclasses, and ``decode`` must either raise or return the
source image exactly.  Besides random sites, a share of the mutants rewrite
the fields that readers size their work from: the container width and
height, each residual plane's pack-table count K and payload length, and
inside every plane payload (residual and refinement) the unary-stream length
U and the k-table nibbles.  One more mutant sets the TMO block's log-average
to 1e308, where the inverse curve overflows; ``decode`` must raise a codec
error, not a floating-point warning, with warnings raised as errors.
"""

from __future__ import annotations

import itertools
import struct
import warnings
import zlib

import numpy as np
import pytest

from hdr2l import tmo
from hdr2l.container import _HEADER, CodecParams, CoderMode, _parse, decode, encode, extract_ldr, measure
from hdr2l.errors import Hdr2lError
from hdr2l.imagio import HdrImage
from hdr2l.rescodec import PLANE_HEADER, RICE_BLOCK, RICE_MAX_K, ZERO_BLOCK, split_residual_sections
from conftest import sparse_hdr_image

SIDE = 20
MUTANTS = 300
FIELD_MUTANTS = 60
WIDTH_OFFSET = _HEADER.size - 12  # u32 width, u32 height, then the pixel CRC


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


def _size_fields(stream: bytes) -> tuple[list[int], list[int]]:
    """Offsets of the u32 fields a decoder sizes its work from (the width, the
    height, each residual plane's K and payload length, and each plane
    payload's U) and of the k-table bytes of every plane payload."""
    parsed = _parse(stream)
    pos = _HEADER.size + tmo.TMO_PARAMS_SIZE + 4 + len(parsed.base)
    payloads = []
    for payload in parsed.refinement_payloads:
        payloads.append(pos + 4)
        pos += 4 + len(payload)
    pos += 4  # the residual block length
    fields = [WIDTH_OFFSET, WIDTH_OFFSET + 4]
    for section in split_residual_sections(parsed.residual):
        fields += [pos, pos + 4]
        payloads.append(pos + PLANE_HEADER.size + section.table_bytes)
        pos = payloads[-1] + len(section.payload)
    table_bytes = (-(-SIDE * SIDE // RICE_BLOCK) + 1) // 2
    fields += payloads
    tables = [start + 4 + i for start in payloads for i in range(table_bytes)]
    return fields, tables


def _field_mutants(stream: bytes, count: int, seed: int):
    rng = np.random.default_rng(seed)
    fields, tables = _size_fields(stream)
    for _ in range(count):
        mutant = bytearray(stream[:-4])
        if rng.integers(2):
            pos = fields[int(rng.integers(len(fields)))]
            value = int.from_bytes(mutant[pos : pos + 4], "little")
            choices = (0, 1, value - 1, value + 1, 2 * value, value // 2, 0xFFFF, 0xFFFFFFFF)
            new = choices[int(rng.integers(len(choices)))] if rng.integers(4) else int(rng.integers(1 << 32))
            mutant[pos : pos + 4] = (new & 0xFFFFFFFF).to_bytes(4, "little")
        else:
            pos = tables[int(rng.integers(len(tables)))]
            shift = 4 * int(rng.integers(2))
            nibble = (mutant[pos] >> shift) & 0xF
            choices = (0, nibble - 1, nibble + 1, RICE_MAX_K, ZERO_BLOCK)
            new = choices[int(rng.integers(len(choices)))] if rng.integers(4) else int(rng.integers(16))
            mutant[pos] = (mutant[pos] & ~(0xF << shift)) | ((new & 0xF) << shift)
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
    image = _patch_image()
    stream = encode(image, params)
    mutants = itertools.chain(
        _mutants(stream, MUTANTS, seed),
        _field_mutants(stream, FIELD_MUTANTS, seed),
    )
    escapes = []
    for index, mutant in enumerate(mutants):
        for reader in (decode, measure, extract_ldr):
            try:
                result = reader(mutant)
            except Hdr2lError:
                continue
            except Exception as exc:  # any other type escapes the contract
                escapes.append((index, reader.__name__, repr(exc)))
                continue
            if reader is decode and result != image:
                escapes.append((index, "decode", "returned an image that is not the source"))
    assert escapes == []


@pytest.mark.parametrize("mode,refine", [(CoderMode.HP, 0), (CoderMode.XT, 4)])
def test_overflowing_log_average_raises_a_codec_error_without_warnings(mode, refine):
    """A CRC-valid TMO block whose log-average of 1e308 overflows the inverse
    curve: ``decode`` raises a codec error, even with warnings as errors."""
    params = CodecParams(mode, tmo.TmoParams(kind=tmo.TmoKind.DEFAULT), q=100, refine_bits=refine)
    mutant = bytearray(encode(_patch_image(), params)[:-4])
    mutant[_HEADER.size + 1 : _HEADER.size + 9] = struct.pack("<d", 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Hdr2lError):
            decode(_with_crc(mutant))
