import random

import numpy as np
import pytest

from transvect import normalforms
from transvect.matrices import SquareMatrix, standard_form
from transvect.normalforms import (LocalRingWitness,
                                   complete_unimodular_local, random_form,
                                   reduce_alternating_local,
                                   reduce_alternating_semilocal)
from transvect.rings import (GF, Ideal, RingError, Zmod, parse_ideal,
                             parse_ring)
from transvect.words import GeneratorWord


def test_witness_validation():
    LocalRingWitness(GF(5))
    LocalRingWitness(Zmod(27))
    with pytest.raises(RingError):
        LocalRingWitness(Zmod(15))
    with pytest.raises(RingError):
        Zmod(8)  # even moduli are rejected at the ring level


@pytest.mark.parametrize("m", [3, 5, 9, 27])
def test_completion_absolute(m):
    ring = Zmod(m) if m in (9, 27) else GF(m)
    L = LocalRingWitness(ring)
    rng = random.Random(m)
    for n in (2, 3, 4):
        for _ in range(60):
            v = [rng.randrange(m) for _ in range(n)]
            if not any(ring.is_unit(ring.element(x)) for x in v):
                with pytest.raises(RingError):
                    complete_unimodular_local(v, L)
                continue
            beta = complete_unimodular_local(v, L)
            assert len(beta) <= 2 * n
            assert list(beta.eval().row(0)) == [ring.element(x) for x in v]


def test_completion_deterministic_lowest_pivot():
    L = LocalRingWitness(GF(3))
    b1 = complete_unimodular_local([0, 1, 2], L)
    b2 = complete_unimodular_local([0, 1, 2], L)
    assert b1.atoms == b2.atoms


def test_completion_e1_is_empty():
    L = LocalRingWitness(GF(3))
    assert len(complete_unimodular_local([1, 0, 0], L)) == 0


def test_completion_relative():
    for m, p in ((9, 3), (27, 3)):
        ring = Zmod(m)
        L = LocalRingWitness(ring)
        I = Ideal.principal(ring, p)
        rng = random.Random(p * m)
        for n in (2, 4):
            for _ in range(60):
                v = [(1 + p * rng.randrange(m)) % m] + \
                    [p * rng.randrange(m) % m for _ in range(n - 1)]
                beta = complete_unimodular_local(v, L, I)
                assert beta.check_relative(I)
                assert list(beta.eval().row(0)) == [ring.element(x) for x in v]


def test_completion_relative_example():
    ring = Zmod(9)
    beta = complete_unimodular_local([1 + 3, 3, 0, 3], LocalRingWitness(ring),
                                     Ideal.principal(ring, 3))
    assert beta.check_relative(Ideal.principal(ring, 3))
    assert [x.value for x in beta.eval().row(0)] == [4, 3, 0, 3]


def test_completion_relative_congruence_enforced():
    ring = Zmod(9)
    with pytest.raises(RingError):
        complete_unimodular_local([2, 3, 0, 0], LocalRingWitness(ring),
                                  Ideal.principal(ring, 3))


@pytest.mark.parametrize("m", [3, 5, 9, 27])
def test_reduction_roundtrip_absolute(m):
    ring = Zmod(m) if m in (9, 27) else GF(m)
    L = LocalRingWitness(ring)
    rng = random.Random(41 + m)
    psi2 = standard_form(ring, 2)
    for n in (1, 2, 3):
        for _ in range(20):
            phi = random_form(ring, n, rng)
            eps = reduce_alternating_local(phi, L)  # postcondition asserted
            assert eps.size == 2 * n - 1
    assert len(reduce_alternating_local(psi2, L)) == 0


def test_reduction_relative():
    for m in (9, 27):
        ring = Zmod(m)
        L = LocalRingWitness(ring)
        I = Ideal.principal(ring, 3)
        rng = random.Random(m)
        for n in (1, 2, 3):
            for _ in range(20):
                phi = random_form(ring, n, rng, I)
                eps = reduce_alternating_local(phi, L, I)
                assert eps.check_relative(I)


def test_reduction_rejects_bad_pfaffian():
    ring = GF(5)
    psi = standard_form(ring, 1) * ring.element(2)
    with pytest.raises(RingError):
        reduce_alternating_local(psi, LocalRingWitness(ring))


def test_semilocal_table():
    R15 = Zmod(15)
    table = reduce_alternating_semilocal(standard_form(R15, 2))
    assert sorted(table) == [3, 5]
    assert all(len(rec["epsilon"]) == 0 for rec in table.values())
    rng = random.Random(7)
    R45 = Zmod(45)
    phi = random_form(R45, 2, rng)
    table = reduce_alternating_semilocal(phi)
    assert sorted(table) == [3, 5]
    assert all(rec["verified"] for rec in table.values())


def test_semilocal_prime_case_defers_to_local():
    table = reduce_alternating_semilocal(standard_form(Zmod(7), 2))
    assert sorted(table) == [7]


def test_semilocal_verified_flag_is_computed(monkeypatch):
    """A local reduction that returns a wrong word is not trusted: the
    table computes each prime's postcondition, and a failing one raises
    the local reduction's error."""
    rng = random.Random(3)
    phi = random_form(Zmod(45), 2, rng)
    while phi == standard_form(Zmod(45), 2):
        phi = random_form(Zmod(45), 2, rng)

    def empty_word(phi_p, witness, ideal):
        return GeneratorWord(phi_p.ring, phi_p.n - 1, [])
    monkeypatch.setattr(normalforms, "_local_epsilon", empty_word)
    with pytest.raises(RingError, match="postcondition congruence failed"):
        reduce_alternating_semilocal(phi)


@pytest.mark.parametrize("gen", [None, 3])
def test_semilocal_postcondition_is_checked_once_per_prime(gen, monkeypatch):
    """Each prime's congruence is computed exactly once, and its
    ``verified`` flag is the bool that one check returned."""
    ring = Zmod(45)
    ideal = None if gen is None else parse_ideal(ring, str(gen))
    certify = normalforms._certify
    calls = []

    def spy(phi_p, eps):
        calls.append((phi_p.ring.m, certify(phi_p, eps)))
        return calls[-1][1]
    monkeypatch.setattr(normalforms, "_certify", spy)
    rng = random.Random(20)
    for _ in range(5):
        table = reduce_alternating_semilocal(random_form(ring, 2, rng, ideal),
                                             ideal)
        assert sorted(m for m, _ in calls) == [5, 9]
        assert {rec["ring"].m: rec["verified"]
                for rec in table.values()} == dict(calls)
        calls.clear()


@pytest.mark.parametrize("gen", [3, 5, 15, 0])
@pytest.mark.parametrize("n", [2, 3])
def test_semilocal_reduction_with_principal_ideal(gen, n, monkeypatch):
    """Each prime's ideal is the projection of (gen): proper exactly
    where p divides gen, so that factor's epsilon is a relative word."""
    ring = Zmod(45)
    ideal = parse_ideal(ring, str(gen))
    rng = random.Random(45 * n + gen)
    local_reduction = normalforms._local_epsilon
    ideals = {}

    def spy(phi_p, witness, ideal_p):
        ideals[witness.ring.m] = ideal_p
        return local_reduction(phi_p, witness, ideal_p)
    monkeypatch.setattr(normalforms, "_local_epsilon", spy)
    for _ in range(3):
        table = reduce_alternating_semilocal(random_form(ring, n, rng, ideal),
                                             ideal)
        assert sorted(table) == [3, 5]
        for p, rec in table.items():
            assert rec["verified"]
            ideal_p = ideals.pop(rec["ring"].m)
            proper = ideal_p is not None and not ideal_p.is_full()
            assert proper == (gen % p == 0)
            if proper:
                assert rec["epsilon"].check_relative(ideal_p)


@pytest.mark.parametrize("text", ["zmod:5", "gf:5", "gf:7", "zmod:9",
                                  "zmod:25", "zmod:27"])
@pytest.mark.parametrize("gen", [None, "R", "0", "3", "6", "5"])
def test_semilocal_table_of_one_prime_is_the_local_reduction(text, gen):
    """Over a prime-power ring the table has one entry, and its epsilon
    is the word the local reduction returns for the same form and ideal
    (over Z/5 the entry's ring is GF(5), so the atoms compare by value)."""
    ring = parse_ring(text)
    ideal = None if gen is None else parse_ideal(ring, gen)
    rng = random.Random(text + str(gen))
    for n in (1, 2, 3):
        for _ in range(4):
            phi = random_form(ring, n, rng, ideal)
            table = reduce_alternating_semilocal(phi, ideal)
            assert len(table) == 1
            (rec,) = table.values()
            assert rec["verified"] is True
            eps = reduce_alternating_local(phi, LocalRingWitness(ring), ideal)
            assert [(a.family, a.i, a.j, a.arg.value)
                    for a in rec["epsilon"].atoms] == \
                [(a.family, a.i, a.j, a.arg.value) for a in eps.atoms]


# -- the block reduction over Z/m -------------------------------------

BLOCK_RINGS = ["zmod:5", "gf:5", "gf:7", "zmod:9", "zmod:25", "zmod:27",
               "zmod:45", "zmod:135"]
BLOCK_IDEALS = [None, "R", "0", "3", "5", "6", "9", "15"]


def _drawn(text, gen, n, count, seed):
    ring = parse_ring(text)
    ideal = None if gen is None else parse_ideal(ring, gen)
    forms = [random_form(ring, n, random.Random(seed), ideal)]
    rng = random.Random(seed + 1)
    forms += [random_form(ring, n, rng, ideal) for _ in range(count - 1)]
    return ring, ideal, forms


def _stack(forms):
    return np.concatenate([normalforms.matrix_block(phi) for phi in forms])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("gen", BLOCK_IDEALS)
@pytest.mark.parametrize("text", BLOCK_RINGS)
def test_block_reduction_matches_the_semilocal_table(text, gen, n):
    """Per prime, each form's block atoms (its present slots, in order)
    are the atoms of ``_local_epsilon`` and its ``verified`` flag is
    ``_certify``'s, form by form, on a block of 6 that holds psi_n."""
    ring, ideal, forms = _drawn(text, gen, n, 5, 31 * n)
    forms.append(standard_form(ring, n))
    table = normalforms._reduce_block(_stack(forms), ring, ideal)
    for f, phi in enumerate(forms):
        want = reduce_alternating_semilocal(phi, ideal)
        assert sorted(table) == sorted(want)
        for p, (local, eps, present, verified) in table.items():
            assert local is want[p]["ring"]
            got = [tuple(a) for a, keep in zip(eps[f].tolist(), present[f])
                   if keep]
            assert got == [(a.i, a.j, a.arg.value)
                           for a in want[p]["epsilon"].atoms]
            assert verified[f] == want[p]["verified"] is True


@pytest.mark.parametrize("gen", [None, "3", "0"])
@pytest.mark.parametrize("text", ["zmod:27", "zmod:45", "gf:7"])
def test_form_blocks_draw_the_random_forms(text, gen, monkeypatch):
    """form_blocks draws random_form's forms, in its order, split into
    blocks of _FORM_ROWS."""
    monkeypatch.setattr(normalforms, "_FORM_ROWS", 4)
    ring = parse_ring(text)
    ideal = None if gen is None else parse_ideal(ring, gen)
    for n in (1, 2, 3):
        blocks = list(normalforms.form_blocks(ring, n, random.Random(n), ideal,
                                              10))
        assert [len(b) for b in blocks] == [4, 4, 2]
        rng = random.Random(n)
        want = _stack([random_form(ring, n, rng, ideal) for _ in range(10)])
        assert np.concatenate(blocks).tolist() == want.tolist()


def test_form_blocks_past_int64_are_square_matrices():
    ring = Zmod(2 ** 33 + 1)
    blocks = list(normalforms.form_blocks(ring, 2, random.Random(0), None, 3))
    rng = random.Random(0)
    assert blocks == [[random_form(ring, 2, rng)] for _ in range(3)]


def _error(call, *args):
    with pytest.raises(RingError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("rows,gen", [
    ([[0, 1, 0, 0], [26, 0, 0, 0], [0, 0, 0, 1], [0, 0, 25, 0]], None),
    ([[1, 1, 0, 0], [26, 0, 0, 0], [0, 0, 0, 1], [0, 0, 26, 0]], None),
    ([[0, 2, 0, 0], [25, 0, 0, 0], [0, 0, 0, 1], [0, 0, 26, 0]], None),
    ([[0, 3, 0, 0], [24, 0, 0, 0], [0, 0, 0, 9], [0, 0, 18, 0]], None),
    ([[0, 1, 3, 0], [26, 0, 0, 0], [24, 0, 0, 1], [0, 0, 26, 0]], "9"),
    ([[0, 1, 1, 0], [26, 0, 0, 0], [26, 0, 0, 1], [0, 0, 26, 0]], "3"),
    ([[0, 1, 1, 0], [26, 0, 0, 0], [26, 0, 0, 1], [0, 0, 26, 0]], "0"),
    ([[0, 1, 1, 0], [26, 0, 0, 0], [26, 0, 0, 1], [0, 0, 26, 0]], "6"),
    ([[0, 4], [23, 0]], "6"),
    ([[0] * 14] * 14, None),
    ([[0, 1, 0], [26, 0, 0], [0, 0, 0]], None),
])
def test_block_of_one_raises_the_local_reductions_error(rows, gen):
    """An --input form is a block of one: each failed entry check (not
    alternating, a Pfaffian other than 1, not congruent to psi_n mod I,
    a size the reduction or the Pfaffian refuses) raises the message
    that _local_epsilon raises for the same form."""
    ring = Zmod(27)
    ideal = None if gen is None else parse_ideal(ring, gen)
    phi = SquareMatrix(ring, rows)
    local = _error(reduce_alternating_semilocal, phi, ideal)
    assert _error(normalforms._reduce_block, normalforms.matrix_block(phi),
                  ring, ideal) == local


@pytest.mark.parametrize("gen", [None, "3"])
def test_block_level_raises_on_a_row_that_is_not_unimodular(gen):
    """A first row with no unit in its tail stops the block step with
    the completion's message, as it stops _reduce_atoms."""
    ring = Zmod(27)
    ideal = None if gen is None else parse_ideal(ring, gen)
    phi = SquareMatrix(ring, [[0, 3, 6, 0], [24, 0, 0, 1], [21, 0, 0, 1],
                              [0, 26, 26, 0]])
    L = LocalRingWitness(ring)
    want = _error(normalforms._reduce_atoms, phi, L, ideal)
    assert want == "row is not unimodular over zmod:27"
    block = normalforms.matrix_block(phi)
    g = None if ideal is None else 3
    assert _error(normalforms._reduce_level, block, 3, ring, ideal, g) == want


@pytest.mark.parametrize("entry", [(0, 1), (1, 0), (2, 3), (3, 2), (0, 0)])
def test_block_certificate_compares_every_entry(entry):
    """The table certificate holds for the block's own eps, and fails
    once any one entry of phi is changed, above, below or on the
    diagonal, or the eps of another form is certified against it."""
    ring, _, forms = _drawn("zmod:27", None, 2, 4, 5)
    block = _stack(forms)
    (_, eps, _, verified), = normalforms._reduce_block(block, ring,
                                                       None).values()
    assert verified.all()
    assert normalforms._certify_block(block, eps, 27).all()
    for f in range(4):
        bad = block.copy()
        bad[f][entry] = (bad[f][entry] + 1) % 27
        assert normalforms._certify_block(bad, eps, 27).tolist() == \
            [k != f for k in range(4)]
    shifted = np.roll(eps, 1, axis=0)
    distinct = [not (forms[k] == forms[k - 1]) for k in range(4)]
    assert normalforms._certify_block(block, shifted, 27).tolist() == \
        [not d for d in distinct]


def test_unit_inverse_inverts_every_unit():
    for q, p in ((5, 5), (7, 7), (9, 3), (25, 5), (27, 3), (3037000493, 3037000493)):
        x = np.array([x for x in range(1, min(q, 2000)) if x % p], dtype=np.int64)
        inv = normalforms._unit_inverse(x, p, q)
        assert (x * inv % q == 1).all()
