"""Golden report digests: a refactor leaves every report byte-identical.

Each digest is the sha256 of a CLI report with its timing fields
(``started``, ``elapsed``) removed, re-serialised as the CLI writes it.
The values were last re-frozen when each subcommand stopped taking the
shared options it does not read, which dropped those keys from
``parameters``; every ``results`` stayed byte-identical.  A digest may
change only with a deliberate change of behaviour, and that change is
then recorded in CHANGES.md.
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
     "448eb5b4de7789d523d2d30deb442cc8c145725d7b171fbc7231fff868178553"),
    (["verify-relations", "--symbolic", "--n", "2"],
     "51dc1465146d90e62dc6369f38c461a7330a91b9827340b7f05d61beeaf0f19c"),
    (["decompose", "--ring", "zmod:9", "--samples", "10", "--seed", "3"],
     "953e04c9aad20afcae4e3b47606928bc362f9cfa51bd43bd7764ed99e14d3cfd"),
    (["decompose", "--symbolic", "--n", "2"],
     "a2ec790e02e095a54e46bb812c6eb43a4667f673f84202ccf396b8554ddfa153"),
    (["reduce-form", "--ring", "zmod:27", "--samples", "5", "--seed", "2"],
     "5fa98acb2077b425fe15883b7198793b86bf85a4eb00fa8bb2617086c69497a7"),
    (["reduce-form", "--ring", "zmod:27", "--ideal", "3", "--samples", "5",
      "--seed", "2"],
     "4967c2286f19fe19b0125f164f14a26afd1a89c5bd943f3eb98c828d1076bf2e"),
    (["reduce-form", "--ring", "zmod:45", "--samples", "5", "--seed", "2"],
     "d4e3a99d271bf2ef34acad6dcc4073e96f64d9683ad265f7812cbf516ef26e99"),
    (["dilate", "--sizes", "4"],
     "c2b430e7b6f146e91f102e9e478df0b90eb6cdfe0dc5421f45a5af894ef16f81"),
    (["orbits", "--ring", "zmod:9", "--size", "4", "--group", "esp-rel",
      "--ideal", "3"],
     "a7496bba241413670e738d0b7618cb43582bf0db95bdfbb88e2eb4670fde1424"),
    (["orbit-equality", "--ring", "zmod:15", "--size", "4", "--ideal", "5"],
     "5fabb85788681aebe56f11ef118fe868c5adb20e4e4c4b202393d0fddec09d1d"),
    (["transitivity", "--ring", "zmod:9", "--size", "4", "--ideal", "3"],
     "0af2d2ddcf738b5baccd29cacee953a3520e57282c5a94b5b640cae188b63b29"),
    (["square-ideal-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
      "--samples", "20", "--seed", "5"],
     "4e4e8e8e81e5a33821200fa5e3545aa3bf71d31b8ea0cc725bd053dcb0d06a03"),
    (["splice-demo", "--ring", "zmod:25", "--k", "5", "--seed", "4"],
     "17946cd31fc9a1f749079170d2e8a53bf54ee296b2b854fbc919ff60370f7e6b"),
    # the three reduce-form runs of the benchmark's finite workload, seed 0
    (["reduce-form", "--ring", "zmod:27", "--samples", "20", "--seed", "0"],
     "af02ace88509328732c5ca41c5358174f36d4bc4207da06e5173b49338b8f3c9"),
    (["reduce-form", "--ring", "zmod:27", "--ideal", "3", "--samples", "20",
      "--seed", "0"],
     "cbdb9b3e562fc40a0d330c9fa7eff591a8c102790f9d71c45ded203934cdb659"),
    (["reduce-form", "--ring", "zmod:45", "--samples", "20", "--seed", "0"],
     "b47f2c6595a7ed2630566f894372edc0e1c9611bc4f679ac530f0bd9592a03ae"),
    # reduce-form over prime-power rings, one prime of the semilocal
    # table: Z/5 through its GF(5) factor, GF(7) with the zero ideal,
    # Z/27 with an ideal generator (6) that is not its modulus (3), and
    # Z/25 at n = 3
    (["reduce-form", "--ring", "zmod:5", "--samples", "5", "--seed", "1"],
     "abbc84c22e95b0cf5dbea34acd643d08e35612f3a3b4a6d625816d9b2866982c"),
    (["reduce-form", "--ring", "gf:7", "--ideal", "0", "--samples", "3"],
     "cd455f27559521305f5f92aa6c0f126728ced8527dd19b405272fe06020b40fb"),
    (["reduce-form", "--ring", "zmod:27", "--ideal", "6", "--samples", "5",
      "--seed", "3"],
     "5c6d2f76ba975b60099e9798ecdbf6e4603c56a0aa3ac7780acff45d5d789828"),
    (["reduce-form", "--ring", "zmod:25", "--n", "3", "--samples", "3"],
     "54c5c0025de6d7376bd19bcefadfb9ea859d9dc0f77eca42c223e8466ae49281"),
    # kernel-test: the finite workload's run at seeds 0 and 1, the full
    # and zero ideals, no samples, 5,000 samples (more than one block of
    # words.CHUNK_ROWS) and Z/25 past the default cap
    (["kernel-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
      "--samples", "1000", "--seed", "0"],
     "e54692e2cea38df71d79a94af7d8b42754f389ae7f0bda579e31aedfd07a6a49"),
    (["kernel-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
      "--samples", "1000", "--seed", "1"],
     "c0a1440bb5753b7b829a43d3638c1dd639a7ae0629aa7ed9e2a8a7d67ad7ac6c"),
    (["kernel-test", "--ring", "zmod:3", "--size", "4", "--ideal", "1",
      "--samples", "50"],
     "112449597a5e10846901bd694e5f4391ba5c483f714138eed342fb67d0a7c520"),
    (["kernel-test", "--ring", "zmod:9", "--size", "4", "--ideal", "0",
      "--samples", "3"],
     "e8b7ad7bdec30cc5bbc70331c1af04aa6a88ca5746bd609318303ad5b45dfb34"),
    (["kernel-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
      "--samples", "0"],
     "c31cf2352744cf0ad329fe4f07601da302888ed3ee1582f26ee6ca37b0f76a64"),
    (["kernel-test", "--ring", "zmod:9", "--size", "2", "--ideal", "3",
      "--samples", "5000"],
     "d4fcaed224ca7f6944e7dc55a334ad27cb601ff2b291f5a619d77b32ddb268f1"),
    (["kernel-test", "--ring", "zmod:25", "--size", "4", "--ideal", "5",
      "--samples", "50", "--cap", "10000000"],
     "4f306b83ba4b70da4c46ed39d06c0593f362eb5e0e945c66cd62757016c65bb4"),
    # kernel-test chains that stop at the closed-form order of
    # Sp_2n(R, I): Z/27 with (3) at 3**20, GF(5) with I = R at |Sp_4(F_5)|
    # and Z/15 with (5) at |Sp_4(F_3)|; over Z/9 the ideal 4 generates R,
    # so the bound 3**10 * |Sp_4(F_3)| passes the default cap and the
    # full build stops at its cap message
    (["kernel-test", "--ring", "zmod:27", "--size", "4", "--ideal", "3",
      "--samples", "200", "--cap", "3486784401"],
     "d2ced26d2dfde01e288474ed9db43572ce060c7f3f440274bb2b16f94be5f129"),
    (["kernel-test", "--ring", "gf:5", "--size", "4", "--ideal", "1",
      "--samples", "50", "--cap", "10000000"],
     "0629bab41562441806089807877fe4b37d60e7cdbedba10a6789d27b18dd2a7f"),
    (["kernel-test", "--ring", "zmod:15", "--size", "4", "--ideal", "5",
      "--samples", "200"],
     "a36f7895c7c61397620ad1a7371c1e98628ac0630d95bfdfefbfc4a13840fb95"),
    (["kernel-test", "--ring", "zmod:9", "--size", "4", "--ideal", "4"],
     "50e0527482c6e2fc7e731b4eb191612317bfbcfd25af957d411c9f25d7a6e4e5"),
    # square-ideal-test where the conjugates are not the identity (Z/15,
    # Z/27), the cap and error exits, size 2, the zero ideal and no
    # samples; the kernel-test cap exit, whose partial size depends on
    # generator order; and orbits for each family over Z/9, with an empty
    # generator family at size 1
    (["square-ideal-test", "--ring", "zmod:15", "--size", "4", "--ideal", "5",
      "--seed", "0"],
     "68a59ac9ba5e5a5dae1ab4fb9ad2dc867015977130af76eef0955a03bcaf374e"),
    (["square-ideal-test", "--ring", "zmod:15", "--size", "4", "--ideal", "5",
      "--seed", "3"],
     "0ab992a17d42810419a891c8ea31bc9dbb45ffbf182ab97f1e7eb4735f198dcf"),
    (["square-ideal-test", "--ring", "zmod:27", "--size", "4", "--ideal", "3",
      "--samples", "20", "--cap", "387420489"],
     "94c64c3fdbad4f95c7285bf52ee9b77ab9dedc99a39e8c1170966fb87ef200ee"),
    (["square-ideal-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
      "--cap", "100"],
     "7e27c159fc8f424f29f7215538c7cdef5c87571e64565a01892e19b53933e397"),
    (["square-ideal-test", "--ring", "zmod:9", "--size", "2", "--ideal", "3"],
     "f5e6084623d210aa1a351abf662a398fedcfdb1c01b26576bf0388fa38a593d9"),
    (["square-ideal-test", "--ring", "zmod:9", "--size", "4", "--ideal", "0",
      "--samples", "20"],
     "a5b620b1f8511880ac27e9303d8b81302ceee05a4cb54a8bd5e9567fc17eb8cd"),
    (["square-ideal-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
      "--samples", "0"],
     "71875def8c4bed32453d4249f9a6c6c217c148463cefbe3cd5c496c89f12a115"),
    (["square-ideal-test", "--ring", "dyadic", "--size", "4", "--ideal", "3"],
     "b5286259e4644d801c978897e42229e5d4ff32c9ab70c9aca9206592512fe0b5"),
    (["kernel-test", "--ring", "zmod:9", "--size", "4", "--ideal", "3",
      "--cap", "1000"],
     "df36b2ccdd3c6640cbf1258b3bcb228adb5b115713cff3a9f4e97a5d52720e65"),
    (["orbits", "--ring", "zmod:9", "--size", "4", "--group", "e"],
     "ea94be7bc1ff06a8e24d37f3a0575c8006a1f40735337b01451566327622f747"),
    (["orbits", "--ring", "zmod:9", "--size", "4", "--group", "esp"],
     "08eb1fafd91d0ae41871848cfe598a97e9d421d6af9897328b2d6e82ae547cdb"),
    (["orbits", "--ring", "zmod:9", "--size", "4", "--group", "e-rel",
      "--ideal", "3"],
     "be8a887327b49ff9593935f2d2b80a0428cb97e98a18fcfbe16d2e0c7134a4b3"),
    (["orbits", "--ring", "zmod:9", "--size", "4", "--group", "e1",
      "--ideal", "3"],
     "e171f4d1b8d64346de8952335916c0361f2f9804c94ecf81693203f1d52a14eb"),
    (["orbits", "--ring", "zmod:9", "--size", "4", "--group", "esp1",
      "--ideal", "3"],
     "96baa4e1b2244dbef37dad2e78cb86a335cb74e1e200e5566685efe5a8d838a9"),
    (["orbits", "--ring", "zmod:9", "--size", "4", "--group", "e1",
      "--ideal", "0"],
     "dd29abd32e65f5d77ee54148d414e5ccbe2b7eeb0f08ececbe23601d48532a61"),
    (["orbits", "--ring", "zmod:5", "--size", "1", "--group", "e"],
     "8bd036e99de36aee19cc56073b1edb6cfde9c0bc9cc7cb6d3ee93c8ead31fc30"),
    # decompose over GF(5) at n = 3, over Z/27 with 5,000 samples (two
    # blocks of words.CHUNK_ROWS) and over Z/(2**33 + 1), whose products
    # overflow int64 and keep the per-sample evaluation
    (["decompose", "--ring", "gf:5", "--n", "3", "--samples", "50",
      "--seed", "4"],
     "c722f0f1c51a332b7b3ad2a80159c8c11fd18828eccaad84e8754065d3f2f729"),
    (["decompose", "--ring", "zmod:27", "--n", "1", "--samples", "5000",
      "--seed", "2"],
     "2ae09161283eecefc0e3b63dd50d6c8677ea90c5c2690ab5c1ffeb9ec16d7bac"),
    (["decompose", "--ring", "zmod:8589934593", "--n", "1", "--samples",
      "2"],
     "0865a0e10f619794ab2cc94f1ab2f8efb29b13ed7db8e545870e78aa503199d2"),
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
