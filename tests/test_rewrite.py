import pytest

from transvect.rewrite import (RewriteError, comm_word,
                               conjugate_first_rowcol, conjugate_square_ideal,
                               dilate_word)
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


def test_conjugation_rejects_interior_target():
    ring, ideal = _setup()
    with pytest.raises(RewriteError):
        conjugate_first_rowcol(ring, 4, se(1, 2, ring.var("a")),
                               se(2, 3, _target_arg(ring)), ideal)


def test_dilate_word_depth_one():
    ring, ideal = _setup()
    a, x = ring.var("a"), ring.var("X")
    eps = GeneratorWord(ring, 4, [se(1, 3, a)], tag="first-rowcol")
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
