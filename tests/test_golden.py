"""Golden report digests: a refactor leaves every report byte-identical.

Each digest is the sha256 of a CLI report with its timing fields
(``started``, ``elapsed``) removed, re-serialised as the CLI writes it.
The values were frozen from the code before the canonical-ring change;
a digest may change only with a deliberate change of behaviour, and
that change is then recorded in CHANGES.md.
"""

import hashlib
import json

import pytest

from transvect.cli import _dilation_ring, run
from transvect.rewrite import conjugate_first_rowcol
from transvect.rings import Ideal
from transvect.words import se, word_to_json

GOLDEN = [
    (["verify-relations", "--ring", "gf:5", "--samples", "2", "--seed", "1"],
     "a152f35fc47cd1aec0b3bb244c75ecbd5ac6036c0e4d2bc9e608cdc9e4d7fda1"),
    (["verify-relations", "--symbolic", "--n", "2"],
     "a105cd1c7be0d4906359119063e90640e04d0117bf76b1ad0f8ca280dfe8db15"),
    (["decompose", "--ring", "zmod:9", "--samples", "10", "--seed", "3"],
     "c2f54813b1c61e803a96a3d5d62db1ee5edf16044b068b3ad5ab09f167951533"),
    (["decompose", "--symbolic", "--n", "2"],
     "848f71c562ea229f1667827a195937685960315be2b3aef62ddaf06fc48bbb57"),
    (["reduce-form", "--ring", "zmod:27", "--samples", "5", "--seed", "2"],
     "baf7c88fb09d53fb5186d9f962dea0f439508d10cc07db69864667b99f53138f"),
    (["reduce-form", "--ring", "zmod:27", "--ideal", "3", "--samples", "5",
      "--seed", "2"],
     "b0873ea9b01310aef4b65a66ad50d04b2d0005b21dbc7144c05898a27989d197"),
    (["reduce-form", "--ring", "zmod:45", "--samples", "5", "--seed", "2"],
     "b18825a4a3d0f56b9dea22c5bbc1902800d027d11587850cf420856a2e9d4a2e"),
    (["dilate", "--sizes", "4"],
     "6563a860d99a494ad9cb15b11ab8eb3c125769ab216b9f21dfd6ffd0dac25c5c"),
    (["orbits", "--ring", "zmod:9", "--size", "4", "--group", "esp-rel",
      "--ideal", "3"],
     "add2d9887b5b04e0b643c48a1ce5d532924f76a6e2a7385436a827e5add171ad"),
    (["orbit-equality", "--ring", "zmod:15", "--size", "4", "--ideal", "5"],
     "43a41ef40cdcf01f9c1273f2d8f1c67a0f8ca1bc26a5c9ae8fef2b84c8a5187c"),
    (["transitivity", "--ring", "zmod:9", "--size", "4", "--ideal", "3"],
     "3189e26f7698aa787feec8aada98d160c9999cf21a259fc2660c661bb4f80bcd"),
    (["square-ideal-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
      "--samples", "20", "--seed", "5"],
     "c67bb0d06e8ed52ad9d16f06824a91d42924f592d0b53ed11f036f20318f7b34"),
    (["splice-demo", "--ring", "zmod:25", "--k", "5", "--seed", "4"],
     "42f3ec40d84253eebbbab8a4d5c1142036acf404f44bfd57c1e2f260e96158ad"),
    # the three reduce-form runs of the benchmark's finite workload, seed 0
    (["reduce-form", "--ring", "zmod:27", "--samples", "20", "--seed", "0"],
     "8d6259f478287a8456262ac61e6826c801c5c4360ff85cbe25481b0cca5ea7cf"),
    (["reduce-form", "--ring", "zmod:27", "--ideal", "3", "--samples", "20",
      "--seed", "0"],
     "2ca2372d643a06db62cb960655eced631237db98bc50fbeac2213d8b3504a534"),
    (["reduce-form", "--ring", "zmod:45", "--samples", "20", "--seed", "0"],
     "ceade41b762e3b165907515e29eab26715fd50070726acb84e1de2196835b89e"),
]


def report_digest(argv, tmp_path):
    out = tmp_path / "report.json"
    run(argv + ["--out", str(out)])
    rep = json.loads(out.read_text())
    rep.pop("started")
    rep.pop("elapsed")
    return hashlib.sha256(json.dumps(rep, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_report_digest(argv, digest, tmp_path):
    assert report_digest(argv, tmp_path) == digest


def test_dilation_words_digest():
    """sha256 over the emitted word of every `dilate` case at sizes 4, 6, 8."""
    ring = _dilation_ring()
    ideal = Ideal.vars(ring, ("x1", "x2"))
    a, x_ = ring.var("a"), ring.var("x1")
    x, y = ring.var("X"), ring.var("Y")
    m = y * y * y * y * x * (ring.one() + x)
    h = hashlib.sha256()
    for size in (4, 6, 8):
        for k in range(2, size + 1):
            for conj in (se(1, k, a), se(k, 1, x_)):
                for j in range(2, size + 1):
                    for tgt in (se(1, j, m), se(j, 1, x_ * m)):
                        res = conjugate_first_rowcol(ring, size, conj, tgt,
                                                     ideal)
                        assert res.certificate
                        h.update(json.dumps(word_to_json(res.rhs)).encode())
    assert h.hexdigest() == \
        "59d21235bd7061bad53c80eae8e5f7940c04870ba361d47f7cd734d1f472c7f5"
