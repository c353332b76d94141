import random

import pytest

from transvect import rewrite
from transvect.cli import run
from transvect.matrices import sigma
from transvect.orbits import square_ideal_inclusion_test
from transvect.relations import (admissible_indices, relation_sides,
                                 symbolic_ring)
from transvect.rewrite import (RewriteError, _arg_at, _comm_by_peel, _neg,
                               _peel, atom_root, comm_word,
                               conjugate_first_rowcol, conjugate_square_ideal,
                               dilate_word, rewrite_to_first)
from transvect.rings import Dyadic, Ideal, PolyRing, Zmod
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


def _non_opposite_pairs(size):
    """Every pair of symplectic index positions on non-opposite roots."""
    n = size // 2
    spots = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1)
             if i != j]
    return [(p, q) for p in spots for q in spots
            if atom_root(*p, n) != _neg(atom_root(*q, n))]


def _argument_pools():
    """(ring, arguments): generic and non-monomial polynomials, and
    zero divisors mod 9 and 27, so that some a^i b^j vanish."""
    poly = symbolic_ring()
    a, b = poly.var("a"), poly.var("b")
    yield poly, [a, b, 3 * a + 1, a * b, a + b * b, poly.zero()]
    for m, args in ((9, (1, 2, 3, 6, 0)), (27, (1, 3, 9, 5, 0))):
        yield Zmod(m), [Zmod(m).element(x) for x in args]


@pytest.mark.parametrize("size", [4, 6, 8])
def test_comm_word_matches_eval_and_peel(size):
    """The expansion from structure constants equals, atom for atom, the
    word read off the evaluated commutator, for every non-opposite pair
    of index positions; one argument pair is sampled per position pair."""
    rng = random.Random(size)
    pairs = _non_opposite_pairs(size)
    assert len(pairs) == {4: 124, 6: 846, 8: 3032}[size]
    for ring, args in _argument_pools():
        for (gi, gj), (hi, hj) in pairs:
            g = se(gi, gj, rng.choice(args))
            h = se(hi, hj, rng.choice(args))
            assert comm_word(ring, size, g, h) == \
                _comm_by_peel(ring, size, g, h), (ring, g, h)


@pytest.mark.parametrize("n", [2, 3])
def test_relation_rows_agree_with_structure_constants(n):
    """Rows 6-11 of the relation table (four of them corrected against
    print) are Chevalley commutator formulas: each right-hand atom has
    the argument of the derived piece on its root, read at its position.
    Rows 12, 13 and 15 are commuting pairs: no pieces."""
    ring = symbolic_ring()
    a, b = ring.var("a"), ring.var("b")
    for rel_id in (6, 7, 8, 9, 10, 11, 12, 13, 15):
        for idx in admissible_indices(rel_id, n):
            lhs, rhs = relation_sides(ring, rel_id, n, idx, a, b)
            g, h = lhs.atoms[:2]
            pieces = {atom_root(c.i, c.j, n): c
                      for c in comm_word(ring, 2 * n, g, h)}
            assert len(rhs) == len(pieces), (rel_id, idx)
            for r in rhs.atoms:
                piece = pieces[atom_root(r.i, r.j, n)]
                assert _arg_at(piece, r.i, r.j) == r.arg, (rel_id, idx, r)


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


@pytest.mark.parametrize("size", [4, 6, 8])
def test_slide_matches_evaluation(size, monkeypatch):
    """``_slide(c, atoms)`` evaluates to c · atoms · c^-1 for every
    first-row/column conjugator c over the dilation ring.  Each word has
    atoms with Y^2-divisible arguments at random positions, a zero atom,
    which is skipped, and, when c is on a short root, an atom on the
    root opposite c, which is re-routed through ``_expand_avoiding``."""
    reroutes = []
    expand = rewrite._expand_avoiding
    monkeypatch.setattr(rewrite, "_expand_avoiding", lambda *args:
                        reroutes.append(args[2]) or expand(*args))
    ring, _ = _setup()
    n = size // 2
    y2 = ring.var("Y") * ring.var("Y")
    a, x = ring.var("a"), ring.var("X")
    args = [y2 * x, y2 * ring.var("x1") * (ring.one() + a),
            -y2 * ring.var("x2") * x]
    spots = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1)
             if i != j]
    rng = random.Random(size)
    for k in range(2, size + 1):
        for c in (se(1, k, a), se(k, 1, ring.var("x1"))):
            rc = atom_root(c.i, c.j, n)
            atoms = [se(*pq, rng.choice(args)) for pq in rng.sample(spots, 4)
                     if atom_root(*pq, n) != _neg(rc)]
            atoms.insert(1, se(*rng.choice(spots), ring.zero()))
            if k != 2:  # a short root: its opposite has a spot off row 1
                atoms.insert(2, se(c.j, c.i, rng.choice(args)))
            before = len(reroutes)
            slid = rewrite._slide(ring, size, c, atoms)
            assert len(reroutes) - before == (k != 2)
            assert all(not piece.arg.is_zero() for piece in slid)
            want = GeneratorWord(ring, size, [c] + atoms + [c.inverse()])
            assert GeneratorWord(ring, size, slid).eval() == want.eval(), \
                (size, c, atoms)


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


def _peeled_residue(ring, size, g, h, target):
    """The oracle for ``_long_residue``: [g, h]^-1 · target evaluated as
    a word and peeled over the long roots +-2e_k."""
    n = size // 2
    plus = [tuple(2 if c == k else 0 for c in range(n)) for k in range(n)]
    head = [g, h, g.inverse(), h.inverse()]
    word = [x.inverse() for x in reversed(head)] + [target]
    return _peel(ring, size, GeneratorWord(ring, size, word).eval(),
                 plus + [_neg(r) for r in plus])


def _expanded_probe(ring, size, g, h, p, q):
    """The oracle for ``_probe_coeff``: [se_g(1), se_h(1)] expanded over
    ``ring`` and its piece on the root of se_pq read at (p, q)."""
    n = size // 2
    one = ring.one()
    coeff = None
    for c in comm_word(ring, size, se(*g, one), se(*h, one)):
        if atom_root(c.i, c.j, n) == atom_root(p, q, n):
            coeff = _arg_at(c, p, q)
    return coeff


@pytest.fixture
def derived_reads(monkeypatch):
    """Records, for every residue and probe the calculus takes, the
    derived read next to its evaluated oracle."""
    seen = {"residues": [], "probes": []}
    residue, probe = rewrite._long_residue, rewrite._probe_coeff
    probe_ring = PolyRing(Dyadic(), ("a",))

    def checked_residue(ring, size, g, h, target):
        out = residue(ring, size, g, h, target)
        seen["residues"].append(
            (out, _peeled_residue(ring, size, g, h, target)))
        return out

    def checked_probe(size, g, h, p, q):
        out = probe(size, g, h, p, q)
        want = _expanded_probe(probe_ring, size, g, h, p, q)
        seen["probes"].append(
            (None if out is None else probe_ring.element(out), want))
        return out

    monkeypatch.setattr(rewrite, "_long_residue", checked_residue)
    monkeypatch.setattr(rewrite, "_probe_coeff", checked_probe)
    return seen


def test_derived_reads_match_evaluation_on_dilate(derived_reads, tmp_path):
    """Every long residue and probe constant of `dilate` at sizes 4, 6
    and 8 equals, atom for atom, the one read off an evaluated word."""
    assert run(["dilate", "--sizes", "4,6,8",
                "--out", str(tmp_path / "r.json")]) == 0
    residues, probes = derived_reads["residues"], derived_reads["probes"]
    assert any(got for got, _ in residues)
    assert probes and all(want is not None for _, want in probes)
    for got, want in residues + probes:
        assert got == want


def test_derived_residues_match_evaluation_on_square_ideal(derived_reads):
    """The same for the residues of `square-ideal-test` samples; over
    Z/9 and Z/27 with (3) each residue a*b^2 lies in (27) and vanishes,
    over Z/15 with (5) it does not."""
    for m, g in ((9, 3), (15, 5), (27, 3)):
        R = Zmod(m)
        rep = square_ideal_inclusion_test(R, 4, Ideal.principal(R, g),
                                          cap=3 ** 18)
        assert rep["ok"]
    residues = derived_reads["residues"]
    assert any(got for got, _ in residues)
    assert all(got == want for got, want in residues)


@pytest.mark.parametrize("target", ["direct", "opposite"])
def test_a_perturbed_quad_fails_the_certificate(monkeypatch, target):
    """A quad with one argument doubled emits a word that is not the
    conjugate: the certificate says so, and nothing raises."""
    quad = rewrite._quad
    monkeypatch.setattr(rewrite, "_quad", lambda p, q, u, y, side:
                        quad(p, q, u + u, y, side))
    ring, ideal = _setup()
    x1 = ring.var("x1")
    tgt = se(2 if target == "direct" else 3, 1, x1 * _target_arg(ring))
    res = conjugate_first_rowcol(ring, 4, se(1, 3, ring.var("a")), tgt, ideal)
    assert res.checks["eval-equal"] is False and not res.certificate


def test_a_residue_without_its_inverse_fails_the_certificate(monkeypatch):
    """A long residue that keeps the commutator's piece instead of its
    inverse: the square-ideal certificate fails, and nothing raises."""
    residue = rewrite._long_residue
    pieces = []

    def mutant(*args):
        kept = [x.inverse() for x in residue(*args)]
        pieces.extend(kept)
        return kept
    monkeypatch.setattr(rewrite, "_long_residue", mutant)
    ring = PolyRing(Dyadic(), ("z", "a", "b"))
    ideal = Ideal.vars(ring, ("a", "b"))
    z, a, b = ring.var("z"), ring.var("a"), ring.var("b")
    res = conjugate_square_ideal(ring, 4, 1, 3, z, a, b, ideal, kl=(3, 1))
    assert pieces
    assert res.checks["eval-equal"] is False and not res.certificate


# (conjugator variable, conjugator and target indices, route) at size 4:
# each orientation of the target, on the root opposite the conjugator
# (the opposite-root schedule) and off it (``_slide``); a column target
# is conjugated as the transposed row target.
ZERO_TARGET_CASES = [
    ("x1", (3, 1), (1, 3), "opposite"),
    ("a", (1, 2), (1, 3), "slide"),
    ("a", (1, 3), (3, 1), "opposite"),
    ("a", (1, 2), (3, 1), "slide"),
]


@pytest.mark.parametrize("var,conj,tgt,route", ZERO_TARGET_CASES)
def test_zero_target_is_the_empty_word(var, conj, tgt, route):
    """A zero target, as a ring element or as the int 0, conjugates to
    the empty word with its certificate, on either route: the
    opposite-root schedule emits no carrier pair for it."""
    ring, ideal = _setup()
    g = se(*conj, ring.var(var))
    opposite = atom_root(*conj, 2) == _neg(atom_root(*tgt, 2))
    assert opposite == (route == "opposite")
    for zero in (ring.zero(), 0):
        res = conjugate_first_rowcol(ring, 4, g, se(*tgt, zero), ideal)
        assert len(res.rhs) == 0 and res.certificate, (g, tgt, zero)


def _outcome(ring, ideal, g, t):
    """The rhs atoms and certificate of ^g t, or the type and message of
    what it raised."""
    try:
        res = conjugate_first_rowcol(ring, 4, g, t, ideal)
    except Exception as exc:  # compared below, never swallowed
        return type(exc), str(exc)
    return res.rhs.atoms, res.certificate


def test_int_arguments_act_as_their_ring_elements():
    """An int argument of the conjugator or of the target is lifted into
    the ring on entry: the rewrite emits the same word, or raises the
    same error, as with the ring element, in both orientations and on
    both routes."""
    ring, ideal = _setup()
    a, x1, m = ring.var("a"), ring.var("x1"), _target_arg(ring)
    cases = [
        (se(1, 3, 2), se(1, 2, m)),  # row target, _slide
        (se(3, 1, 0), se(1, 3, m)),  # row target, opposite root
        (se(1, 2, 3), se(3, 1, x1 * m)),  # column target, _slide
        (se(1, 3, 1), se(3, 1, x1 * m)),  # column target, opposite root
        (se(1, 2, a), se(1, 3, 3)),  # int row target, _slide
        (se(3, 1, x1), se(1, 3, 1)),  # int row target, opposite root
        (se(1, 2, a), se(3, 1, 5)),  # int column target, _slide
        (se(1, 3, a), se(3, 1, 5)),  # int column target, opposite root
    ]
    for g, t in cases:
        lifted = [se(x.i, x.j, ring.element(x.arg)) for x in (g, t)]
        got = _outcome(ring, ideal, g, t)
        assert got == _outcome(ring, ideal, *lifted), (g, t)
