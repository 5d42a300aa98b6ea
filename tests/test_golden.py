"""Frozen stream format (container version 2): SHA-256 and section sizes of a
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
        "db140a277511c38b82a5e0d5aa779b4cb8ece98f23d693dbe545c98e8657b458",
        (1162, 0, 1706, 2171, 130),
    ),
    ("sparse", "default", "xt-r0"): (
        "a6d52944655d4ee601be61391d3f381762b45b41d90fa8ddb4f21f1df4cdc278",
        (1162, 0, 0, 3140, 130),
    ),
    ("sparse", "default", "xt-r4"): (
        "89759a76565e276a1b45242844a46372ec9bbb1cee1ddf8ecec7411719e206b6",
        (1163, 1076, 0, 3130, 142),
    ),
    ("sparse", "reinhard-global", "hp"): (
        "5f31334d980e7ab6018448e01992cee6c7a1ced5bd2849f2c9d5be52a83df908",
        (1162, 0, 1706, 2171, 130),
    ),
    ("sparse", "reinhard-global", "xt-r0"): (
        "03bffeda26436d309a81000cdf45c51c153fce7cdc397acf9b746bde915e5621",
        (1162, 0, 0, 3140, 130),
    ),
    ("sparse", "reinhard-global", "xt-r4"): (
        "5a4b2181b9e82beba185598ef3f0b888c4ac2ebc5619d21cf439bc6129ce4f63",
        (1163, 1076, 0, 3130, 142),
    ),
    ("sparse", "reinhard-local", "hp"): (
        "8dbb4c5a3a9c883c2ab455c48e638af19f1c0b3108309b37dbc8f1d3017ece4e",
        (1161, 0, 1685, 2165, 130),
    ),
    ("sparse", "reinhard-local", "xt-r0"): (
        "bff9f14d719908089d7ecbcc82f3f22981311ac066c62f798dbdbfa2b8f4721e",
        (1161, 0, 0, 3203, 130),
    ),
    ("sparse", "reinhard-local", "xt-r4"): (
        "8995ced19f81d56c15fddc3fc8739e0239677d6d134e73741937783655290c6a",
        (1160, 1113, 0, 3210, 142),
    ),
    ("sparse", "drago", "hp"): (
        "325c547d25fdfef0a1672bc70046149cb5564af2bdfa23958eb589839754bf73",
        (1152, 0, 1655, 2172, 130),
    ),
    ("sparse", "drago", "xt-r0"): (
        "047085e440444df243802578c67b4d1958965e7a25b1782440b441bd545d1c49",
        (1152, 0, 0, 3080, 130),
    ),
    ("sparse", "drago", "xt-r4"): (
        "a50ea0904da63f7226c37f6134d0eddfc79de6ae2dd1c5df5f2fa10cc8089b3d",
        (1152, 1054, 0, 3079, 142),
    ),
    ("smooth", "default", "hp"): (
        "ea5d56ee4d18526ae51adf5f858811c1c29fff6f380ece0ed4fedb94543b1017",
        (717, 0, 547, 1805, 130),
    ),
    ("smooth", "default", "xt-r0"): (
        "8c5dd100b8ea3f8d820474ce62effe2fa7113bcd6d56d9420f35e12305ce41b9",
        (717, 0, 0, 2318, 130),
    ),
    ("smooth", "default", "xt-r4"): (
        "b46e0520ce9bab44626ef88b90beb9e33e2a9397bad194e6e0ca074e0e0d2002",
        (718, 1073, 0, 2267, 142),
    ),
    ("smooth", "reinhard-global", "hp"): (
        "78523b3e0e16a298820712c31f673ac995304704c56380195634706be8f45d0e",
        (717, 0, 547, 1805, 130),
    ),
    ("smooth", "reinhard-global", "xt-r0"): (
        "4d847e11af1b9dc85b7f687d76408c838c34998e567b57dd5c1d601a332a5cfb",
        (717, 0, 0, 2318, 130),
    ),
    ("smooth", "reinhard-global", "xt-r4"): (
        "6a6f2a5fd5284f842a0d3e6087acf405ef1d5f0a5c52b34bc93ce1d7e424d110",
        (718, 1073, 0, 2267, 142),
    ),
    ("smooth", "reinhard-local", "hp"): (
        "885614841798f91a05a9907842aefa1aed0f60ab467597a3b0200e229957e42b",
        (725, 0, 752, 1913, 130),
    ),
    ("smooth", "reinhard-local", "xt-r0"): (
        "abb93da91ce2eca41b7b6a4b2ab3a24092128ddff62a4061defb502966c74595",
        (725, 0, 0, 2293, 130),
    ),
    ("smooth", "reinhard-local", "xt-r4"): (
        "5f26223c01d11a3654c87c3c65262a7a4a0fa672534cafb30c382425e888249a",
        (727, 1078, 0, 2369, 142),
    ),
    ("smooth", "drago", "hp"): (
        "6aec2bec06ad931ac949a1ae4b4e78a58eb06246baaa8aeddf3ea37fe7a90670",
        (710, 0, 517, 1802, 130),
    ),
    ("smooth", "drago", "xt-r0"): (
        "326833d600154972bbce83b17d4a48f00f7e14c36a58a6ba333268068bdfafd9",
        (710, 0, 0, 2402, 130),
    ),
    ("smooth", "drago", "xt-r4"): (
        "72839af81b7c60664586e8ffe43ca6559e00650f10bb0b0169b0d46a6378f12e",
        (712, 1086, 0, 2362, 142),
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
