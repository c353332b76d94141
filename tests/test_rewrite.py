import pytest

from transvect.matrices import sigma
from transvect.rewrite import (RewriteError, comm_word,
                               conjugate_first_rowcol, conjugate_square_ideal,
                               dilate_word, rewrite_to_first)
from transvect.rings import Dyadic, Ideal, PolyRing
from transvect.words import GeneratorWord, se


def _setup():
    ring = PolyRing(Dyadic(), ("a", "X", "Y", "x1", "x2"))
    ideal = Ideal.vars(ring, ("x1", "x2"))
    return ring, ideal


def _target_arg(ring):
    x, y = ring.var("X"), ring.var("Y")
    return y * y * y * y * x * (ring.one() + x)


def test_commutator_word_is_exact():
    ring, _ = _setup()
    a = ring.var("a")
    g, h = se(1, 3, a), se(3, 2, ring.var("X"))
    word = comm_word(ring, 4, g, h)
    lhs = GeneratorWord(ring, 4, [g, h, g.inverse(), h.inverse()]).eval()
    assert GeneratorWord(ring, 4, word).eval() == lhs


@pytest.mark.parametrize("size", [4, 6])
def test_conjugation_case_sweep(size):
    """Every conjugator/target shape combination certifies."""
    ring, ideal = _setup()
    a, x1 = ring.var("a"), ring.var("x1")
    m = _target_arg(ring)
    for k in range(2, size + 1):
        for conj in (se(1, k, a), se(k, 1, x1)):
            for j in range(2, size + 1):
                for tgt in (se(1, j, m), se(j, 1, x1 * m)):
                    res = conjugate_first_rowcol(ring, size, conj, tgt, ideal)
                    assert res.certificate, (size, conj, tgt, res.checks)


@pytest.mark.parametrize("side", ["col", "row"])
def test_interior_short_root_rewrites_to_its_quad(side):
    """se_pq with p, q not in {1, 2} and q != sigma(p) is exactly the
    commutator [se_p1(u), se_1q(v)]: 2a+b and a+2b are not roots."""
    ring, _ = _setup()
    w = ring.var("x1") * ring.var("Y") * ring.var("Y") * ring.var("X")
    cases = [(size, p, q) for size in (4, 6, 8)
             for p in range(3, size + 1) for q in range(3, size + 1)
             if q not in (p, sigma(p))]
    assert len(cases) == 8 + 24  # none at size 4
    for size, p, q in cases:
        atom = se(p, q, w)
        word = rewrite_to_first(ring, size, atom, side)
        assert [(x.i, x.j) for x in word] == [(p, 1), (1, q)] * 2
        assert word[2:] == [word[0].inverse(), word[1].inverse()]
        assert GeneratorWord(ring, size, word).eval() == \
            atom.matrix(ring, size)


def test_conjugation_rejects_interior_target():
    ring, ideal = _setup()
    with pytest.raises(RewriteError):
        conjugate_first_rowcol(ring, 4, se(1, 2, ring.var("a")),
                               se(2, 3, _target_arg(ring)), ideal)


def test_dilate_word_depth_one():
    ring, ideal = _setup()
    a, x = ring.var("a"), ring.var("X")
    eps = GeneratorWord(ring, 4, [se(1, 3, a)])
    target = se(1, 4, x * (ring.one() + x))
    res = dilate_word(eps, target, ideal)
    assert res.certificate
    # argument was instantiated at Y^4 X
    assert all(a.i == 1 or a.j == 1 for a in res.rhs.atoms)


def test_conjugate_square_ideal_symbolic():
    ring = PolyRing(Dyadic(), ("z", "a", "b"))
    ideal = Ideal.vars(ring, ("a", "b"))
    z, a, b = ring.var("z"), ring.var("a"), ring.var("b")
    res = conjugate_square_ideal(ring, 4, 1, 3, z, a, b, ideal, kl=(3, 1))
    assert res.certificate
    assert all(ideal.contains(atom.arg) for atom in res.rhs.atoms)


def test_conjugate_square_ideal_trivial_cases():
    ring = PolyRing(Dyadic(), ("z", "a", "b"))
    ideal = Ideal.vars(ring, ("a", "b"))
    z, b = ring.var("z"), ring.var("b")
    res = conjugate_square_ideal(ring, 4, 1, 3, z, ring.zero(), b, ideal,
                                 kl=(3, 1))
    assert res.certificate and res.rhs.eval().is_identity()
    res = conjugate_square_ideal(ring, 4, 1, 3, ring.zero(), ring.var("a"),
                                 b, ideal, kl=(3, 1))
    assert res.certificate
