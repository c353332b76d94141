import random
from itertools import cycle, islice

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
                             word_from_json, word_table, word_to_json)


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
    without the hyperbolic defect h(q): in the atoms of the per-sample
    path and in the rows of the table path."""
    rho_atoms, rho_mu_rows = words._rho_atoms, words._rho_mu_rows

    def plain(ring, q, alpha):
        return [se(2, 1, ring.element(alpha)), *rho_atoms(ring, q, alpha)[1:]]

    def plain_rows(vals, m):
        rho, mu = rho_mu_rows(vals, m)
        rho[:, 0, 2] = vals[:, -2]
        return rho, mu
    monkeypatch.setattr(words, "_rho_atoms", plain)
    monkeypatch.setattr(words, "_rho_mu_rows", plain_rows)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("ring", [Zmod(9), Zmod(27)], ids=str)
def test_direct_rows_equal_the_atom_rows(ring, n):
    """_rho_mu_rows writes the rows that atom_rows reads off the atoms
    of _rho_atoms and _mu_atoms, sample for sample."""
    samples = _draw(ring, n, 40, 7 * n)
    vals = np.array([[x.value for x in (*q, al, be)] for q, al, be in samples],
                    dtype=np.int64).reshape(40, 2 * n + 2)
    rho, mu = words._rho_mu_rows(vals, ring.m)
    assert rho.tolist() == word_table(
        [atom_rows(words._rho_atoms(ring, q, al)) for q, al, _ in samples]
    ).tolist()
    assert mu.tolist() == word_table(
        [atom_rows(words._mu_atoms(ring, q, be)) for q, _, be in samples]
    ).tolist()


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


# -- randbelow_block against the per-call draws -----------------------

# a cycle of every length 1..7, with the edge bounds 1, 2, 3, 2**31 and
# 2**32 - 1 alone and mixed
_BOUND_CYCLES = [(1,), (2,), (3,), (2 ** 31,), (2 ** 32 - 1,), (5, 3),
                 (3, 2, 9), (7, 1, 2 ** 32 - 1, 2), (12, 12, 9, 9, 9),
                 (6, 6, 5, 5, 1, 2 ** 32 - 1), (1, 2, 3, 4, 5, 6, 7)]


def _randbelow_loop(rng, bounds, count):
    """The oracle: one ``rng._randbelow`` call per value."""
    return [rng._randbelow(n) for n in islice(cycle(bounds), count)]


def _check_block(seed, bounds, count):
    """randbelow_block's values equal the per-call loop's and the
    ``randrange`` calls', and all three Randoms end in one state."""
    block, loop, calls = (random.Random(seed) for _ in range(3))
    got = words.randbelow_block(block, bounds, count)
    assert got.dtype == np.int64 and got.shape == (count,)
    assert got.tolist() == _randbelow_loop(loop, bounds, count) == \
        [calls.randrange(n) for n in islice(cycle(bounds), count)]
    assert block.getstate() == loop.getstate() == calls.getstate()


@pytest.mark.parametrize("bounds", _BOUND_CYCLES)
def test_randbelow_block_matches_the_per_call_draws(bounds):
    """Seeds 0-59; no value, one, counts that end inside a cycle, and a
    longer run."""
    c = len(bounds)
    for seed in range(60):
        for count in sorted({0, 1, c + 1, 3 * c - 1, 50}):
            _check_block(seed, bounds, count)


@pytest.mark.parametrize("chunk,counts", [
    (1, (2, 3, 4, 20)), (7, (5, 6, 7, 12, 13, 40)),
    (4096, (4095, 4096, 4097, 8191))])
@pytest.mark.parametrize("bounds", [(3,), (3, 2, 9), (12, 12, 9, 9, 9),
                                    (1, 2, 3, 4, 5, 6, 7)])
def test_randbelow_block_crosses_pieces_exactly(bounds, chunk, counts,
                                                 monkeypatch):
    """Counts around the pieces of whole cycles, at most CHUNK_ROWS
    values each (one cycle when the cycle is longer)."""
    monkeypatch.setattr(words, "CHUNK_ROWS", chunk)
    for seed in range(60 if chunk < 4096 else 3):
        for count in counts:
            _check_block(seed, bounds, count)


def _untemper(y):
    """The Mersenne Twister state word that tempers to the output y."""
    y ^= y >> 18
    x = y
    for _ in range(3):
        x = y ^ ((x << 15) & 0xEFC60000)
    y = x
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


class _CountingRandom(random.Random):
    """A Random that records the byte count of each ``randbytes`` call."""

    def randbytes(self, n):
        self.requests.append(n)
        return super().randbytes(n)


def _randoms_with_outputs(outputs):
    """Two Randoms, the first a _CountingRandom, whose next 32-bit words
    are ``outputs`` (at most 624): the tempered state words before the
    next twist."""
    tail = tuple(_untemper(w) for w in outputs)
    state = (3, (0,) * (624 - len(tail)) + tail + (624 - len(tail),), None)
    block, loop = _CountingRandom(), random.Random()
    block.requests = []
    block.setstate(state)
    loop.setstate(state)
    return block, loop


def test_randbelow_block_rejects_a_word_at_the_limit():
    """A Random set to output, per draw, the word n << (32 - bits) (top
    bits equal to n: rejected) and then the one below it (top bits n - 1:
    accepted) draws n - 1 in both ways, from two words each."""
    bounds = (1, 3, 9, 12, 2 ** 31, 2 ** 32 - 1)
    limits = [n << 32 - n.bit_length() for n in bounds]
    block, loop = _randoms_with_outputs(
        [w for limit in limits * 3 for w in (limit, limit - 1)])
    got = words.randbelow_block(block, bounds, 3 * len(bounds))
    assert got.tolist() == _randbelow_loop(loop, bounds, 3 * len(bounds)) \
        == [n - 1 for n in bounds] * 3
    assert block.getstate() == loop.getstate()
    assert block.getrandbits(32) == loop.getrandbits(32)


@pytest.mark.parametrize("bounds,count", [((1,), 1), ((3, 2, 9), 5),
                                          ((12, 12, 9, 9, 9), 7)])
def test_randbelow_block_retries_when_the_words_run_out(bounds, count):
    """After 600 words that every bound rejects, the first pieces of
    words run out; each retry asks for twice the words, and the draws
    and the state still equal the per-call loop's."""
    block, loop = _randoms_with_outputs([2 ** 32 - 1] * 600)
    got = words.randbelow_block(block, bounds, count)
    assert got.tolist() == _randbelow_loop(loop, bounds, count)
    assert block.getstate() == loop.getstate()
    first, *more = block.requests
    assert len(more) >= 3 and more == [first * 2 ** i
                                       for i in range(1, len(more) + 1)]


@pytest.mark.parametrize("bounds", [(0,), (-1,), (2 ** 32,), (3, 2 ** 32),
                                    (2, 0, 5), ()])
@pytest.mark.parametrize("count", [0, 5])
def test_randbelow_block_refuses_a_bound_before_any_draw(bounds, count):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError):
        words.randbelow_block(rng, bounds, count)
    assert rng.getstate() == state
