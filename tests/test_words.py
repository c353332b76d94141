import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transvect.matrices import (SquareMatrix, matrix_from_json,
                                matrix_to_json, sigma, standard_form)
from transvect.rings import (Dyadic, GF, Ideal, PolyRing, RingError, Zmod,
                             parse_ring)
from transvect.words import (LINEAR, SYMPLECTIC, GeneratorAtom,
                             GeneratorWord, atom_rows,
                             bass_symplectic_transvection, commutator,
                             conjugate, conjugation_triple, decompose_mu,
                             decompose_rho, hyperbolic_defect, inverse_atoms,
                             lin, mu_matrix,
                             relative_generator, rho_matrix, se,
                             transvection_action_mu, transvection_action_rho,
                             word_from_json, word_to_json)


def test_short_atom_mirror_entry():
    R = PolyRing(Dyadic(), ("z",))
    z = R.var("z")
    for (i, j) in ((1, 3), (2, 3), (1, 4), (3, 2)):
        mat = se(i, j, z).matrix(R, 4)
        expected = -z if (i + j) % 2 == 0 else z
        assert mat[sigma(j) - 1, sigma(i) - 1] == expected


def test_long_atom_has_single_entry():
    R = Zmod(9)
    mat = se(1, 2, R.element(5)).matrix(R, 4)
    off = [(r, c) for r in range(4) for c in range(4)
           if r != c and not mat[r, c].is_zero()]
    assert off == [(0, 1)]


def test_atom_inverse_and_transpose():
    R = Zmod(9)
    a = se(1, 3, R.element(4))
    assert (a.matrix(R, 4) * a.inverse().matrix(R, 4)).is_identity()
    assert a.transpose().i == 3 and a.transpose().j == 1


def test_relative_generator_tag():
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    w = relative_generator(R, "linear", 3, 1, 2, 5, 6, I)
    assert w.check_relative(I)
    with pytest.raises(RingError):
        relative_generator(R, "linear", 3, 1, 2, 5, 2, I)


def test_relative_shape_follows_the_atoms():
    """Products, shifts and inverses of relative words stay relative;
    a word not made of conjugation triples fails however it was built."""
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    w = relative_generator(R, "linear", 3, 1, 2, 5, 6, I) * \
        relative_generator(R, "linear", 3, 3, 1, 2, 3, I)
    for word in (w * w, w.shifted(2), w.inverse()):
        assert word.check_relative(I)
    bad = [GeneratorWord(R, 3, [lin(1, 2, 4)]),
           GeneratorWord(R, 3, [lin(1, 2, 4), lin(2, 1, 3), lin(1, 2, 4)]),
           GeneratorWord(R, 3, [lin(1, 2, 4), lin(2, 3, 3), lin(1, 2, 5)]),
           GeneratorWord(R, 3, list(w.atoms) + [lin(1, 2, 4)])]
    bad += [b.inverse() for b in bad] + [w * bad[0], bad[0].shifted(2)]
    for word in bad:
        with pytest.raises(RingError, match="not a conjugation triple"):
            word.check_relative(I)
        with pytest.raises(RingError, match="not a conjugation triple"):
            word.check_relative()
    with pytest.raises(RingError, match="not in"):
        GeneratorWord(R, 3, conjugation_triple(LINEAR, 1, 2, 4, 1)
                      ).check_relative(I)


def _symbolic_q_ring(m):
    names = tuple("q%d" % k for k in range(1, m + 1)) + ("t",)
    return PolyRing(Dyadic(), names)


@pytest.mark.parametrize("n", [1, 2])
def test_rho_mu_decomposition_symbolic(n):
    m = 2 * n
    R = _symbolic_q_ring(m)
    q = [R.var("q%d" % k) for k in range(1, m + 1)]
    t = R.var("t")
    psi = standard_form(R, n)
    assert decompose_rho(R, q, t).eval() == rho_matrix(R, q, t, psi)
    assert decompose_mu(R, q, t).eval() == mu_matrix(R, q, t, psi)


def test_hyperbolic_defect_value():
    R = Zmod(9)
    assert hyperbolic_defect(R, [2, 3, 4, 5]) == R.element(2 * 3 + 4 * 5)


@pytest.mark.parametrize("n", [1, 2])
def test_bass_equals_rho_and_mu(n):
    R = GF(5)
    m = 2 * n
    rng = random.Random(11)
    psi_big = standard_form(R, n + 1)
    psi = standard_form(R, n)
    for _ in range(40):
        q = [rng.randrange(5) for _ in range(m)]
        s = rng.randrange(5)
        rho = bass_symplectic_transvection(R, [0, 1] + [0] * m,
                                           [0, 0] + list(q), s, psi_big)
        assert rho == rho_matrix(R, q, s, psi)
        mu = bass_symplectic_transvection(R, [-1, 0] + [0] * m,
                                          [0, 0] + list(q), s, psi_big)
        assert mu == mu_matrix(R, q, s, psi)


def test_transvection_actions_match_matrices():
    R = GF(5)
    n = 2
    psi = standard_form(R, n)
    rng = random.Random(3)
    for _ in range(40):
        q = [rng.randrange(5) for _ in range(2 * n)]
        s = rng.randrange(5)
        point = (rng.randrange(5), rng.randrange(5),
                 [rng.randrange(5) for _ in range(2 * n)])
        col = [R.element(point[0]), R.element(point[1])] + \
              [R.element(x) for x in point[2]]
        for mat, act in ((rho_matrix(R, q, s, psi),
                          transvection_action_rho(R, q, s, psi, point)),
                         (mu_matrix(R, q, s, psi),
                          transvection_action_mu(R, q, s, psi, point))):
            image = [sum((mat[r, c] * col[c] for c in range(2 * n + 2)),
                         R.zero()) for r in range(2 * n + 2)]
            flat = [act[0], act[1]] + list(act[2])
            assert image == [R.element(x) for x in flat]


def test_bass_requires_isotropic_pair():
    R = GF(5)
    psi = standard_form(R, 2)
    with pytest.raises(RingError):
        bass_symplectic_transvection(R, [1, 0, 0, 0], [0, 1, 0, 0], 1, psi)


def test_word_json_roundtrip():
    R = Zmod(9)
    w = GeneratorWord(R, 4, [se(2, 1, R.element(3)), se(3, 1, R.element(1))])
    again = word_from_json(R, 4, word_to_json(w))
    assert again.eval() == w.eval()


@pytest.mark.parametrize("text", ["gf:5", "dyadic", "poly:zmod:9:x",
                                  "poly:dyadic:a,b"])
def test_json_roundtrip_for_every_ring_kind(text):
    R = parse_ring(text)
    rng = random.Random(5)
    mat = SquareMatrix(R, [[R.sample(rng) for _ in range(4)]
                           for _ in range(4)])
    assert matrix_from_json(matrix_to_json(mat)) == mat
    w = GeneratorWord(R, 4, [se(2, 1, R.sample(rng)),
                             lin(3, 4, R.sample(rng)),
                             se(1, 3, R.sample(rng))])
    assert word_from_json(R, 4, word_to_json(w)).atoms == w.atoms


_WORD_RINGS = [Zmod(9), GF(5), Dyadic(), PolyRing(Zmod(9), ("x",)),
               PolyRing(Dyadic(), ("a", "b"))]
_atom_specs = st.lists(st.tuples(
    st.sampled_from([LINEAR, SYMPLECTIC]), st.integers(1, 4),
    st.integers(1, 4), st.sampled_from(["int", "base", "same"]),
    st.integers(-50, 50)), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_WORD_RINGS), _atom_specs)
def test_word_json_round_trip(ring, specs):
    """Int, base-ring and same-ring arguments all become elements of
    the word's ring, so JSON, repr and evaluation agree after a round
    trip, for every ring kind."""
    atoms = []
    for family, i, j, kind, n in specs:
        if i == j:
            continue
        if kind == "int":
            arg = n
        elif kind == "base":
            arg = getattr(ring, "base", ring).element(n)
        else:
            arg = ring.sample(random.Random(n))
        atoms.append(GeneratorAtom(family, i, j, arg))
    word = GeneratorWord(ring, 4, atoms)
    assert all(a.arg.ring is ring for a in word.atoms)
    back = word_from_json(ring, 4, word_to_json(word))
    assert back.atoms == word.atoms and repr(back) == repr(word)
    assert back.eval() == word.eval()


@pytest.mark.parametrize("ring,foreign", [
    (Zmod(9), Zmod(5).one()), (Dyadic(), Zmod(9).one()),
    (PolyRing(Dyadic(), ("a",)), Zmod(9).one()),
    (PolyRing(Dyadic(), ("a",)), PolyRing(Dyadic(), ("b",)).var("b"))])
def test_word_rejects_an_argument_from_another_ring(ring, foreign):
    with pytest.raises(RingError):
        GeneratorWord(ring, 4, [se(1, 2, foreign)])


def test_word_product_needs_one_ring_and_size():
    word = GeneratorWord(Zmod(9), 4, [se(1, 2, 1)])
    for other in (GeneratorWord(Zmod(9), 6, [se(1, 2, 1)]),
                  GeneratorWord(Zmod(15), 4, [se(1, 2, 1)])):
        with pytest.raises(RingError, match="word mismatch"):
            word * other


def test_atom_list_algebra_matches_matrix_products():
    """inverse_atoms, commutator and conjugate against dense products of
    the evaluated words; atom_rows reads each atom's (i, j, arg mod m)."""
    ring = Zmod(9)
    x = [se(1, 2, ring.element(2)), se(3, 1, ring.element(4))]
    y = [se(2, 4, ring.element(5)), lin(1, 3, ring.element(7))]
    ev = lambda atoms: GeneratorWord(ring, 4, atoms).eval()
    eye = SquareMatrix.identity(ring, 4)
    assert ev(inverse_atoms(x)) * ev(x) == eye != ev(x)
    assert ev(commutator(x, y)) == (ev(x) * ev(y) * ev(inverse_atoms(x))
                                    * ev(inverse_atoms(y)))
    assert ev(conjugate(x, y)) == ev(x) * ev(y) * ev(inverse_atoms(x))
    assert atom_rows(conjugate(x, y)) == [
        (1, 2, 2), (3, 1, 4), (2, 4, 5), (1, 3, 7), (3, 1, 5), (1, 2, 7)]
