import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transvect import words
from transvect.cli import run
from transvect.matrices import (SquareMatrix, matrix_from_json,
                                matrix_to_json, sigma, standard_form)
from transvect.rings import (Dyadic, GF, Ideal, PolyRing, RingError, Zmod,
                             parse_ring)
from transvect.words import (LINEAR, SYMPLECTIC, GeneratorAtom,
                             GeneratorWord, atom_rows,
                             bass_symplectic_transvection, commutator,
                             conjugate, conjugation_triple, decompose_mu,
                             decompose_rho, decomposition_counts,
                             hyperbolic_defect, inverse_atoms,
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


def test_atoms_are_hashable_and_immutable():
    """An atom is a (family, i, j, arg) tuple: equal atoms hash equal,
    and neither a field nor a new attribute can be assigned."""
    R = Zmod(9)
    a, b = se(1, 3, R.element(4)), se(1, 3, R.element(13))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, a.inverse(), a.transpose()}) == 3
    with pytest.raises(AttributeError):
        a.arg = R.element(1)
    with pytest.raises(AttributeError):
        a.tag = "x"
    with pytest.raises(RingError, match="unknown family"):
        GeneratorAtom("affine", 1, 2, R.one())
    with pytest.raises(RingError, match=r"bad indices \(2, 2\)"):
        lin(2, 2, R.one())


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
    w = GeneratorWord(R, 3, [
        *relative_generator(R, "linear", 3, 1, 2, 5, 6, I).atoms,
        *relative_generator(R, "linear", 3, 3, 1, 2, 3, I).atoms])
    for word in (GeneratorWord(R, 3, [*w.atoms, *w.atoms]), w.shifted(2),
                 w.inverse()):
        assert word.check_relative(I)
    bad = [GeneratorWord(R, 3, [lin(1, 2, 4)]),
           GeneratorWord(R, 3, [lin(1, 2, 4), lin(2, 1, 3), lin(1, 2, 4)]),
           GeneratorWord(R, 3, [lin(1, 2, 4), lin(2, 3, 3), lin(1, 2, 5)]),
           GeneratorWord(R, 3, list(w.atoms) + [lin(1, 2, 4)])]
    bad += [b.inverse() for b in bad] + [
        GeneratorWord(R, 3, [*w.atoms, *bad[0].atoms]), bad[0].shifted(2)]
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


def _draw(ring, n, count, seed):
    rng = random.Random(seed)
    return [([ring.sample(rng) for _ in range(2 * n)], ring.sample(rng),
             ring.sample(rng)) for _ in range(count)]


def _evaluated_counts(ring, n, samples):
    """The oracle: each sample's two words evaluated and compared with
    rho_matrix and mu_matrix one by one."""
    psi = standard_form(ring, n)
    return (sum(decompose_rho(ring, q, al).eval() == rho_matrix(ring, q, al, psi)
                for q, al, _ in samples),
            sum(decompose_mu(ring, q, be).eval() == mu_matrix(ring, q, be, psi)
                for q, _, be in samples))


def _plant_plain_rho_factor(monkeypatch):
    """Make every rho word start with the source display's se_21(alpha),
    without the hyperbolic defect h(q)."""
    rho_atoms = words._rho_atoms

    def plain(ring, q, alpha):
        return [se(2, 1, ring.element(alpha)), *rho_atoms(ring, q, alpha)[1:]]
    monkeypatch.setattr(words, "_rho_atoms", plain)


@pytest.mark.parametrize("plant", [False, True], ids=["library", "plain"])
@pytest.mark.parametrize("count", [0, 11])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("ring", [Zmod(9), Zmod(15), Zmod(27), GF(5)],
                         ids=str)
def test_decomposition_counts_match_evaluated_words(ring, n, count, plant,
                                                    monkeypatch):
    """The atom-table counts equal the per-sample evaluation, with 11
    samples spanning two blocks of 8; with the plain rho factor both
    fail wherever h(q) != 0."""
    monkeypatch.setattr(words, "CHUNK_ROWS", 8)
    if plant:
        _plant_plain_rho_factor(monkeypatch)
    samples = _draw(ring, n, count, 10 * n + count)
    counts = decomposition_counts(ring, n, samples)
    assert counts == _evaluated_counts(ring, n, samples)
    defects = sum(not hyperbolic_defect(ring, q).is_zero()
                  for q, _, _ in samples)
    assert counts == (count - defects if plant else count, count)


@pytest.mark.parametrize("ring", [Zmod(9), Zmod(2 ** 33 + 1)], ids=str)
def test_plain_rho_factor_fails_on_both_paths(ring, monkeypatch):
    """The errata's plain se_21(alpha) fails on the table path (Z/9) and
    on the per-sample fallback (a Z/m past int64)."""
    _plant_plain_rho_factor(monkeypatch)
    samples = _draw(ring, 1, 20, 1)
    rho_ok, mu_ok = decomposition_counts(ring, 1, samples)
    assert (rho_ok, mu_ok) == _evaluated_counts(ring, 1, samples)
    assert rho_ok < 20 == mu_ok


def _largest_table_modulus():
    m = 3037000499  # the largest odd m with m * (m - 1) < 2**63
    assert m * (m - 1) < 2 ** 63 <= (m + 2) * (m + 1)
    return Zmod(m)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("ring", [Zmod(9), GF(5), _largest_table_modulus()],
                         ids=str)
def test_closed_form_tables_equal_rho_and_mu_matrices(ring, n):
    """_rho_mu_table is rho_matrix / mu_matrix entry for entry, also
    where (m-1)**2 nearly reaches 2**63."""
    samples = _draw(ring, n, 6, n)
    psi = standard_form(ring, n)
    psi_arr = np.array([[x.value for x in row] for row in psi.rows],
                       dtype=np.int64).reshape(2 * n, 2 * n)
    q = np.array([[x.value for x in s[0]] for s in samples],
                 dtype=np.int64).reshape(6, 2 * n)
    for r, k, matrix in ((1, 1, rho_matrix), (0, 2, mu_matrix)):
        t = np.array([s[k].value for s in samples], dtype=np.int64)
        table = words._rho_mu_table(q, t, psi_arr, ring.m, r)
        for got, s in zip(table.tolist(), samples):
            want = matrix(ring, s[0], s[k], psi)
            assert got == [[x.value for x in row] for row in want.rows]


def test_table_decompose_evaluates_no_word(monkeypatch, tmp_path):
    """A Z/9 decompose evaluates no GeneratorWord, and builds no
    SquareMatrix per sample."""
    def no_eval(*args):
        raise AssertionError("a word or matrix was evaluated")

    for name in ("rho_matrix", "mu_matrix"):
        monkeypatch.setattr(words, name, no_eval)
    monkeypatch.setattr(words.GeneratorWord, "eval", no_eval)
    assert run(["decompose", "--ring", "zmod:9", "--samples", "30",
                "--out", str(tmp_path / "report.json")]) == 0
    built = []
    from_rows = SquareMatrix.from_rows.__func__
    monkeypatch.setattr(SquareMatrix, "from_rows", classmethod(
        lambda cls, *args: built.append(1) or from_rows(cls, *args)))
    for count in (3, 300):
        assert decomposition_counts(Zmod(9), 2, _draw(Zmod(9), 2, count, 0)) \
            == (count, count)
    assert len(built) == 2


@pytest.mark.parametrize("ring", [Zmod(2 ** 33 + 1), Dyadic(),
                                  _symbolic_q_ring(2)],
                         ids=["zmod-2^33+1", "dyadic", "symbolic"])
def test_other_rings_never_evaluate_a_table(ring, monkeypatch):
    """Symbolic rings, rings other than Z/m, and a Z/m whose products
    overflow int64 keep the per-sample evaluation."""
    def no_table(*args):
        raise AssertionError("an atom table was evaluated")

    monkeypatch.setattr(words, "eval_table", no_table)
    if isinstance(ring, PolyRing):
        t = ring.var("t")
        samples = [([ring.var("q1"), ring.var("q2")], t, t)]
    else:
        samples = _draw(ring, 1, 3, 0)
    assert decomposition_counts(ring, 1, samples) == (len(samples),) * 2


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
