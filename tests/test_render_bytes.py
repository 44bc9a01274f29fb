"""Render output pinned byte for byte by SHA-256 digests.

The digests were taken from the element-by-element SVG writer and the
pairwise ASCII layout that the panel-by-panel writer and the linear
layout replaced, so any byte that a rewrite of render.py moves fails
here.  Each digest covers a run of outputs, each followed by a NUL.
The inputs are every member of S_n for n <= 8, and seeded members
drawn as the benchmark's roundtrip draws them, at its render sizes.
"""

import hashlib
import random

import pytest

from ncpseq import (
    CatSeq,
    generate_all,
    inverse,
    inverse_trace,
    render_ascii,
    render_svg,
    render_trace,
    to_arcs,
)

from bruteforce import half_stretched_member, random_member


def _digest(outputs):
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode("utf-8") + b"\0")
    return h.hexdigest()


def _renders(kind, seqs):
    for s in seqs:
        if kind == "trace":
            yield render_trace(inverse_trace(s))
        elif kind == "svg":
            yield render_svg(to_arcs(inverse(s)))
        else:
            yield render_ascii(to_arcs(inverse(s)))


MEMBER_DIGESTS = {
    ("ascii", 0): "e79e418e48623569d75e2a7b09ae88ed9b77b126a445b9ff9dc6989a08efa079",
    ("ascii", 1): "0f961242db0b2c165883b17df72ebe849730f4131d2ffd7081e3cbf6da3f4c18",
    ("ascii", 2): "0bf24f0defc842f74ccc6aa143b11974de736a77430b108ed79dab90a9fb775c",
    ("ascii", 3): "5afcbe76cc29e826f397f4d2ae01089ab880fbe23a9342cfde0d4902c419f2f2",
    ("ascii", 4): "b07c6c4f753a105de1d91a0dfe19c58c896b0f34d59d6d9037c8cd9e5c29e812",
    ("ascii", 5): "cf9c72f345db9e79393036f71d7310106fdc02d8a707a6f31f64b29f04ceb146",
    ("ascii", 6): "29147045519c6b980a87cadaebb009de308979a3fb2bd54c80b831f84f8ac34a",
    ("ascii", 7): "9e0b309151ca6918dceba16854df8e09e003412b653cd53cd91def83b013e767",
    ("ascii", 8): "edaf531c61908e7f8fc215df555dad40a33afdf603db479e00c80c443b4ae317",
    ("svg", 0): "dbcccb69009171d9d2a4dd9877970d1e1e96ba7c5aaf46b2fbe3141db4fe1e03",
    ("svg", 1): "159de696fdd19ead547ca1c8cacec90b7e996dd6f53f0928edcc7fba1651e5ad",
    ("svg", 2): "06186f071d69d29a9b718ddc4ed9e0c861c02348567beb4ce66bc4d77149581b",
    ("svg", 3): "69a39714bacab5168b060f10a3b80e624e9a5f0be8cb0f5c1a8f8c72e94474ce",
    ("svg", 4): "a057d241adeacbd1939586f22d2983ddb65cb22e7873453db82311873b95cb8f",
    ("svg", 5): "3200c6f30360e2a55d14c023bb9dd355f17e4cca716b3b03fffd6d2990060193",
    ("svg", 6): "968f34e443c2b0ad76cc4411d95ce37b023b5d16de3ca53ba292c268425a183d",
    ("svg", 7): "1c02e7ef75544a82ca35c9f352a0b6184329ae17a983b19b846c9002283bdfef",
    ("svg", 8): "af1f0745ed45eb423629c653e67351fb0d0e3eee7cba1d88f5a26dd146f10337",
    ("trace", 0): "208c056acea71f8d1785abdb411c6eb1c11b646dfd1e7226f84c3379e98e90b2",
    ("trace", 1): "133c0c5f67c8f4c2d099673e549bb7622a9e01d4b18214e8364210110082ffd0",
    ("trace", 2): "1ddba383f9db6edbde1df832ccf0535183371e3377782e0b532a39d0ba5a23ef",
    ("trace", 3): "cdd64c4b419404c8ac66caeaccf5725c5546fb2dce75fb6538d9eacaa1d74854",
    ("trace", 4): "02c38c870d67b6c3dd59bd7ad4eb013f8c0f699247bec94c682211ed15d8f2fc",
    ("trace", 5): "6ebb92408f322241b8eecb75b376c6cdab9d0e80b67938527dd0defdc966f031",
    ("trace", 6): "a3efae659fa4f762077e528bd9b436967f23570ebd3c03464560a81cbf6b595b",
    ("trace", 7): "d8af206b97fe9efee25166010c52086fc475d2fe1f3b9ba6fce1664eddcd2e9e",
    ("trace", 8): "426b9df0572eb1613e267fdd3ccddd8bac95b9df26a40c9216b41374c1f41c2d",
}


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("kind", ("ascii", "svg", "trace"))
def test_every_member_renders_its_pinned_bytes(kind, n):
    assert _digest(_renders(kind, generate_all(n))) == MEMBER_DIGESTS[kind, n]


# (kind, n, seed): traces of half-stretched members, as the benchmark
# draws them, and plain drawings of uniform-bound members.
SEEDED_DIGESTS = {
    ("trace", 100, 1): "6035d7e7c7818a356e72394d599e0d3e933fa97103b341593a8b2042bb7c2845",
    ("trace", 100, 2): "f0df9d4e15553f16d5c96e2d50241977531d72f535a4fb8261ba6be1ba423748",
    ("trace", 100, 3): "7cfd8fb134942a72edd7a8f708986b6b5e31c50c85360bc518409218a9657942",
    ("trace", 120, 1): "f9fdaa83bb134a447ebfbe2dbf2092b0048d83147d590fe4d62eebb7b97d2744",
    ("trace", 120, 2): "c930864eec4d9f19ccc2e5b7b3038bf75da677ad9712a0fd1d0f33d027318764",
    ("trace", 120, 3): "b9784a3fd806f8474b71b517e99b4f75f3b0082bd9848f4f9075743fc862f383",
    ("ascii", 300, 1): "4dcd64b39954dfb9b400aec7d147d073f69c8f6d6373a39fd4f7e62cc3f39ce6",
    ("ascii", 300, 2): "af70833a43872c8e940bb94b2b7a65b27fdd5e8ed66ebe9ec86fdaab59cc37ea",
    ("ascii", 300, 3): "85c0ab71c3e237a752a099f871dbe0915ce7e64b338069912c52ef7683e31451",
    ("svg", 300, 1): "1a06b859e0ee3e40743ce29c89bbd32082b17bbca1fc0fe88b52e68ebaf04d23",
    ("svg", 300, 2): "ed33a3255f9da8322ec021202da8ee75cf367af61d5f7d4e6347d03a3a582ea9",
    ("svg", 300, 3): "9b0081a677b1da80f25feea4808804ca685f4f353f9d87030735deb4bd813d5d",
}


@pytest.mark.parametrize("kind, n, seed", sorted(SEEDED_DIGESTS))
def test_seeded_members_render_their_pinned_bytes(kind, n, seed):
    rng = random.Random(seed)
    draw = half_stretched_member if kind == "trace" else random_member
    seq = CatSeq(tuple(draw(rng, n)))
    assert _digest(_renders(kind, [seq])) == SEEDED_DIGESTS[kind, n, seed]
