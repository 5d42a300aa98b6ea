"""Frozen stream format (container version 3): SHA-256 and section sizes of a
fixed encode grid.

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
        "dcd9b810a05e1a399c9c5aa7c41394449aeb9d4e20fbcc6cf97c48bf48ea875e",
        (1162, 0, 1694, 2171, 71),
    ),
    ("sparse", "default", "xt-r0"): (
        "b39557bb491a43a4635b48f602dac785aafaeaaf3f74fecad4bfebdc6c5bce65",
        (1162, 0, 0, 3140, 71),
    ),
    ("sparse", "default", "xt-r4"): (
        "05bf9be5ead8884740bc3a2e832809f52477e862041aa4f1f77a2bece4d48a6b",
        (1163, 1076, 0, 3130, 83),
    ),
    ("sparse", "reinhard-global", "hp"): (
        "f96e1b3df2c861efbf994b0f58ada4b84bcd2024539a7ea1e1d15a5efad024bf",
        (1162, 0, 1694, 2171, 71),
    ),
    ("sparse", "reinhard-global", "xt-r0"): (
        "d3822b30bd502281c356b87af0c46e43370973f295ec64e4897d77df603be322",
        (1162, 0, 0, 3140, 71),
    ),
    ("sparse", "reinhard-global", "xt-r4"): (
        "c6b087b9a3db9cd94b1ef0d1fe1c7e235fdf64290c6bb12f0aab988dd643f12e",
        (1163, 1076, 0, 3130, 83),
    ),
    ("sparse", "reinhard-local", "hp"): (
        "9c4d414dd20b839d65d0a0c682bb764a8bfab4c0819f3acdf9cf6c8442c48960",
        (1161, 0, 1673, 2165, 71),
    ),
    ("sparse", "reinhard-local", "xt-r0"): (
        "6f03e0e36b47a4a62741dc1eb9edab761ddf282c937c9dcb080206451bd2ad21",
        (1161, 0, 0, 3203, 71),
    ),
    ("sparse", "reinhard-local", "xt-r4"): (
        "2d369343e08ec7a956d789158f7d31c4403af9948e8a3e63af417e37f8913ded",
        (1160, 1113, 0, 3210, 83),
    ),
    ("sparse", "drago", "hp"): (
        "d2b2b91cadedecbb336d355324830d94ab881d39667178b53e34b2feb5b7d545",
        (1152, 0, 1643, 2172, 71),
    ),
    ("sparse", "drago", "xt-r0"): (
        "2bb0f31a02313280e9addb857e37ef5488c728f51b6c71988e07e37749c0f057",
        (1152, 0, 0, 3080, 71),
    ),
    ("sparse", "drago", "xt-r4"): (
        "a0791dd00bb4aea21fc054ba17b9a8f4e0f31f49ea82a3fe2052b192803b8dfb",
        (1152, 1054, 0, 3079, 83),
    ),
    ("smooth", "default", "hp"): (
        "bd52b579a9d5ce0f17763c45afe91347eae7ee77f1f1bccb8b6c69c33f89ebeb",
        (717, 0, 535, 1805, 71),
    ),
    ("smooth", "default", "xt-r0"): (
        "272a378fc6a23f982f6971a4a2869830ee3abe02cd541e2d13c338fc8383f8b4",
        (717, 0, 0, 2318, 71),
    ),
    ("smooth", "default", "xt-r4"): (
        "4e0b56ebb27e1a42a725eacee2426b0caa8c20755c01f57b3da1247bff6d97d6",
        (718, 1073, 0, 2267, 83),
    ),
    ("smooth", "reinhard-global", "hp"): (
        "b59ff71536e0a02f66346d1176d554b29ceacd1390b0ae9d28da0874874ff997",
        (717, 0, 535, 1805, 71),
    ),
    ("smooth", "reinhard-global", "xt-r0"): (
        "d407e5edcd4a155847728e5c1b9faa8235a16c57e1d2c06aa77969110f8f401f",
        (717, 0, 0, 2318, 71),
    ),
    ("smooth", "reinhard-global", "xt-r4"): (
        "a5e0c7ef9089e9d371e01dc3bc01205b603a7b6e076b185cd2810509da777305",
        (718, 1073, 0, 2267, 83),
    ),
    ("smooth", "reinhard-local", "hp"): (
        "3bbad9bc78526d2042918b61dce14bbf53e7055629bfa728c97d4b3902102455",
        (725, 0, 740, 1913, 71),
    ),
    ("smooth", "reinhard-local", "xt-r0"): (
        "4e968a08c18aad4d038098198cdda86eaab4c0e98a392db1bc14996a65eb9bc4",
        (725, 0, 0, 2293, 71),
    ),
    ("smooth", "reinhard-local", "xt-r4"): (
        "7a4b5924e39b2bd18b102637466724b27d348c5170d250464e00bd148c605dbb",
        (727, 1078, 0, 2369, 83),
    ),
    ("smooth", "drago", "hp"): (
        "4d996b0fe41735931259a251a606cdc80d4fef95d6325804a9602181b948d309",
        (710, 0, 505, 1802, 71),
    ),
    ("smooth", "drago", "xt-r0"): (
        "db6c59258efa9f6d426c231b51d8c43169bf8cd803cbd307cc006ef050446461",
        (710, 0, 0, 2402, 71),
    ),
    ("smooth", "drago", "xt-r4"): (
        "a587b2f48be2b9f9e25e5ed66bdf9a85cc4f4d1b30c220aa218d56722343741d",
        (712, 1086, 0, 2362, 83),
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
