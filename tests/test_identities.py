import random

import pytest

from transvect.identities import (find_dilation_exponent,
                                  form_change_conjugate, splice_telescoping)
from transvect.matrices import standard_form
from transvect.rings import Ideal, PolyRing, RingError, Zmod
from transvect.words import GeneratorWord, lin, relative_generator


def _one_perp(mat):
    from transvect.matrices import SquareMatrix
    n = mat.n + 1
    rows = [[mat.ring.one() if r == c else mat.ring.zero() for c in range(n)]
            for r in range(n)]
    for r in range(1, n):
        for c in range(1, n):
            rows[r][c] = mat.rows[r - 1][c - 1]
    return SquareMatrix(mat.ring, rows)


def _row_times(ring, row, mat):
    return [sum((ring.element(row[k]) * mat.rows[k][c]
                 for k in range(mat.n)), ring.zero())
            for c in range(mat.n)]


def test_form_change_identity_eps():
    R = Zmod(9)
    psi = standard_form(R, 2)
    eps = GeneratorWord(R, 3, [])
    rep = form_change_conjugate(R, eps, psi, q=[1, 2, 3, 4], alpha=5, beta=6,
                                u=(0, 1, 0, 0), v=(0, 0, 0, 3))
    assert rep["holds"]


def test_form_change_random_eps():
    R = Zmod(9)
    psi = standard_form(R, 2)
    rng = random.Random(8)
    for _ in range(25):
        i, j = rng.sample(range(1, 4), 2)
        eps = GeneratorWord(R, 3, [lin(i, j, R.element(rng.randrange(9)))])
        q = [rng.randrange(9) for _ in range(4)]
        # transport an isotropic pair for psi back through 1 perp eps, so
        # <u, v> vanishes for the transformed form
        inv_t = _one_perp(eps.inverse().eval()).transpose()
        u = _row_times(R, (0, 1, 0, 0), inv_t)
        v = _row_times(R, (0, 0, 0, rng.randrange(9)), inv_t)
        rep = form_change_conjugate(R, eps, psi, q=q, alpha=rng.randrange(9),
                                    beta=rng.randrange(9), u=u, v=v)
        assert rep["holds"], rep


def test_form_change_relative_tracks_ideal():
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    psi = standard_form(R, 2)
    eps = relative_generator(R, "linear", 3, 1, 2, 4, 3, I)
    rep = form_change_conjugate(R, eps, psi, q=[4, 3, 6, 0], alpha=2, beta=5,
                                u=(1, 0, 0, 0), v=(0, 0, 3, 0), ideal=I)
    assert rep["holds"] and rep["relative"]


def test_form_change_relative_needs_conjugation_triples():
    """A proper ideal makes eps pass the relative check, which reads the
    atoms: a single elementary atom is not a conjugation triple."""
    R = Zmod(9)
    eps = GeneratorWord(R, 3, [lin(1, 2, R.element(4))])
    with pytest.raises(RingError, match="not a conjugation triple"):
        form_change_conjugate(R, eps, standard_form(R, 2), q=[1, 2, 3, 4],
                              alpha=2, beta=5, ideal=Ideal.principal(R, 3))


def test_form_change_size_mismatch():
    R = Zmod(9)
    psi = standard_form(R, 2)
    eps = GeneratorWord(R, 2, [])
    with pytest.raises(RingError):
        form_change_conjugate(R, eps, psi, q=[0] * 4, alpha=0, beta=0)


def _word_over(ring, rng, length=4):
    x = ring.var("X")
    atoms = []
    for _ in range(length):
        i, j = rng.sample(range(1, 4), 2)
        atoms.append(lin(i, j, ring.element(rng.randrange(ring.base.m)) * x))
    return GeneratorWord(ring, 3, atoms)


def test_splice_single_factor():
    ring = PolyRing(Zmod(5), ("X",))
    alpha = _word_over(ring, random.Random(1))
    factors = splice_telescoping(alpha, [(1, 1)])
    assert len(factors) == 1 and factors[0] == alpha.eval()


def test_splice_k2_and_k3():
    for m in (5, 9):
        ring = PolyRing(Zmod(m), ("X",))
        rng = random.Random(m)
        for k in (2, 3):
            alpha = _word_over(ring, rng)
            pairs = []
            total = 0
            for _ in range(k - 1):
                c, b = rng.randrange(m), rng.randrange(m)
                pairs.append((c, b))
                total += c * b
            pairs.append((1, (1 - total) % m))
            factors = splice_telescoping(alpha, pairs)
            assert len(factors) == k  # product equality checked inside


def test_splice_rejects_bad_partition():
    ring = PolyRing(Zmod(5), ("X",))
    alpha = _word_over(ring, random.Random(2))
    with pytest.raises(RingError):
        splice_telescoping(alpha, [(1, 2)])


def test_splice_needs_a_word():
    """A matrix alpha is rejected: its inverse is not the reversed word."""
    ring = PolyRing(Zmod(5), ("X",))
    alpha = _word_over(ring, random.Random(3))
    with pytest.raises(RingError):
        splice_telescoping(alpha.eval(), [(1, 1)])


def test_splice_rejects_nonidentity_at_zero():
    ring = PolyRing(Zmod(5), ("X",))
    alpha = GeneratorWord(ring, 3, [lin(1, 2, ring.one())])
    with pytest.raises(RingError):
        splice_telescoping(alpha, [(1, 1)])


def test_dilation_exponent_trivial_and_nilpotent():
    ring = PolyRing(Zmod(9), ("X",))
    x = ring.var("X")
    a = GeneratorWord(ring, 2, [lin(1, 2, ring.element(3) * x)])
    b = GeneratorWord(ring, 2, [lin(1, 2, ring.zero())])
    assert find_dilation_exponent(a, a, 3, 5) == 0
    assert find_dilation_exponent(a, b, 3, 5) == 1  # 3 * 3 = 0 in Z/9


def test_dilation_exponent_none_for_unit_difference():
    ring = PolyRing(Zmod(9), ("X",))
    x = ring.var("X")
    a = GeneratorWord(ring, 2, [lin(1, 2, x)])
    b = GeneratorWord(ring, 2, [lin(1, 2, ring.element(2) * x)])
    assert find_dilation_exponent(a, b, 2, 6) is None


def test_dilation_exponent_requires_matching_origin():
    ring = PolyRing(Zmod(9), ("X",))
    a = GeneratorWord(ring, 2, [lin(1, 2, ring.one())])
    b = GeneratorWord(ring, 2, [lin(1, 2, ring.zero())])
    with pytest.raises(RingError):
        find_dilation_exponent(a, b, 3, 5)
