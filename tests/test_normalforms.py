import random

import pytest

from transvect import normalforms
from transvect.matrices import standard_form
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
