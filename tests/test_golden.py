"""Frozen stream format: SHA-256 and section sizes of a fixed encode grid.

Every tone-mapping operator on every arm (HP, XT R=0, XT R=4) for one sparse
and one smooth 24x24 image.  A change that claims to keep the stream format
must leave every digest and every ``measure`` breakdown here unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from hdr2l import tmo
from hdr2l.container import CodecParams, CoderMode, encode, measure
from conftest import smooth_hdr_image, sparse_hdr_image

SIDE = 24
IMAGES = {"sparse": sparse_hdr_image, "smooth": smooth_hdr_image}
ARMS = {"hp": (CoderMode.HP, 0), "xt-r0": (CoderMode.XT, 0), "xt-r4": (CoderMode.XT, 4)}

# (image, TMO, arm) -> (stream SHA-256, (base, refinement, tables, residual_payload, overhead))
GOLDEN = {
    ("sparse", "default", "hp"): (
        "128aa1528c5f329e6dfe7beff5713636ef91b0436e9c56304108ab165a50806f",
        (1162, 0, 1706, 2230, 126),
    ),
    ("sparse", "default", "xt-r0"): (
        "593cbdb8e3ae0ec39d6cb6fba04d55b2310725b58ff948a0f076890d849a5816",
        (1162, 0, 0, 3191, 126),
    ),
    ("sparse", "default", "xt-r4"): (
        "5b99e070f6624b75d7b1db25c0cef905ccde2e3970f794be9fec6e23421f68e0",
        (1163, 1118, 0, 3184, 138),
    ),
    ("sparse", "reinhard-global", "hp"): (
        "d5aaea4b46204bf3b7153219525eb4eb4f9d449fd540f42bb4ef3a0da00b78d7",
        (1162, 0, 1706, 2230, 126),
    ),
    ("sparse", "reinhard-global", "xt-r0"): (
        "a686ed488b1ba16fe26cb6bb328b5b8ce7a85e892bb48004c6c19b98f13bc65b",
        (1162, 0, 0, 3191, 126),
    ),
    ("sparse", "reinhard-global", "xt-r4"): (
        "f43e9f439a367a4dc355a7896a8332e8f03f2f1878ba3aa4286464eb01345538",
        (1163, 1118, 0, 3184, 138),
    ),
    ("sparse", "reinhard-local", "hp"): (
        "b100aac50985024f40019a927169d325d059a990ea76cf360ae6dd23c0d81711",
        (1165, 0, 1691, 2219, 126),
    ),
    ("sparse", "reinhard-local", "xt-r0"): (
        "899a417ec480287f8f5a11d0962f316fd13e220b5f49db7b781fbd9e83bd2059",
        (1165, 0, 0, 3248, 126),
    ),
    ("sparse", "reinhard-local", "xt-r4"): (
        "fe2aa0cf4d1cebba8d6cb4175dba1b047a761997a128dbfd4a46ff9fe85f821d",
        (1165, 1149, 0, 3249, 138),
    ),
    ("sparse", "drago", "hp"): (
        "80eb87f668e9b5b8cf5e98e833d28b74ddd81bea197e75d540ccce62fe086e1d",
        (1152, 0, 1655, 2231, 126),
    ),
    ("sparse", "drago", "xt-r0"): (
        "e70b9d45a1ff871784b371086bdade9ddc52afccf4b89d774010bae13d7ae18c",
        (1152, 0, 0, 3133, 126),
    ),
    ("sparse", "drago", "xt-r4"): (
        "b4bf7bad14c071c3ee14c0f75c1c0d1519a50ac4b12591760f24ca1bbf8dae6a",
        (1152, 1094, 0, 3132, 138),
    ),
    ("smooth", "default", "hp"): (
        "927531ab957663b745144fa513b7d742cb95793325302591f7e82e182398ff70",
        (717, 0, 547, 1839, 126),
    ),
    ("smooth", "default", "xt-r0"): (
        "3651ce22295eca60b48bf7ab9885ec15c18ccacb5dd653adae66b92e6f20f9a8",
        (717, 0, 0, 2449, 126),
    ),
    ("smooth", "default", "xt-r4"): (
        "6c027381fad07b75ff9625deffdab50956eef2981642ab7fee940c0d33f68649",
        (718, 1126, 0, 2444, 138),
    ),
    ("smooth", "reinhard-global", "hp"): (
        "52400704871f381dbffebe3dfbe3ae85b96d3ed4db94acbc404d98329d9ce4b7",
        (717, 0, 547, 1839, 126),
    ),
    ("smooth", "reinhard-global", "xt-r0"): (
        "b6b9e5c79f105b04607792777c7f9fdc55d59054a2124737af5ec04f3ab26aba",
        (717, 0, 0, 2449, 126),
    ),
    ("smooth", "reinhard-global", "xt-r4"): (
        "7cb276aa854d9e5f6dbcb0168e4eccb47210fe72660ea8d3d433a72754affa13",
        (718, 1126, 0, 2444, 138),
    ),
    ("smooth", "reinhard-local", "hp"): (
        "30014a813afb246f7d50a7c213abe887205c80e41036b9c3be9caef63a66a0f1",
        (728, 0, 723, 1954, 126),
    ),
    ("smooth", "reinhard-local", "xt-r0"): (
        "711d32765a28e9f303ce0f39abecbfeac7575b9628de9b95856cd3a4cb94ec5a",
        (728, 0, 0, 2433, 126),
    ),
    ("smooth", "reinhard-local", "xt-r4"): (
        "c8a6d8b5dbc6dee35e594782dccca9b8f00ea5d403c87e072b844a67fe94dd24",
        (730, 1125, 0, 2474, 138),
    ),
    ("smooth", "drago", "hp"): (
        "71996cc2fb631e9e7c0a06a430646cd42e9ce2346747b31643c3ac35b58a0c9e",
        (710, 0, 517, 1837, 126),
    ),
    ("smooth", "drago", "xt-r0"): (
        "e2ae9f19c66d4e676720a533dec01e3218c0f15e235add4cf240ae1880cbaa1b",
        (710, 0, 0, 2476, 126),
    ),
    ("smooth", "drago", "xt-r4"): (
        "56a77da3864645723b6a962f87756160f9002d19585650e42843b148cadd8764",
        (712, 1131, 0, 2474, 138),
    ),
}


@pytest.mark.parametrize("image,tmo_name,arm", sorted(GOLDEN))
def test_stream_digest_and_sections_frozen(image, tmo_name, arm):
    mode, refine = ARMS[arm]
    tmo_params = tmo.TmoParams(kind=tmo.TMO_BY_NAME[tmo_name])
    stream = encode(IMAGES[image](SIDE, SIDE), CodecParams(mode, tmo_params, refine_bits=refine))
    digest, sections = GOLDEN[(image, tmo_name, arm)]
    assert hashlib.sha256(stream).hexdigest() == digest
    assert tuple(measure(stream).sections().values()) == sections


def test_grid_covers_every_tmo_and_arm():
    assert set(GOLDEN) == {
        (image, name, arm) for image in IMAGES for name in tmo.TMO_BY_NAME for arm in ARMS
    }
