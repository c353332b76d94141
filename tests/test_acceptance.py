"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line and enforcing its runtime budget."""

import random
import time

import pytest

from transvect import orbits
from transvect.identities import splice_telescoping
from transvect.matrices import standard_form
from transvect.normalforms import (LocalRingWitness, random_form,
                                   reduce_alternating_local)
from transvect.orbits import (check_dim0_transitivity, check_orbit_equality,
                              kernel_membership_test,
                              square_ideal_inclusion_test)
from transvect.relations import suite_summary, verify_relation_suite
from transvect.rewrite import conjugate_first_rowcol, conjugate_square_ideal
from transvect.rings import GF, Dyadic, Ideal, PolyRing, Zmod, prime_factors
from transvect.words import (GeneratorWord, bass_symplectic_transvection,
                             decompose_mu, decompose_rho, lin, mu_matrix,
                             rho_matrix, se)


def _verdict(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("ACCEPTANCE %d [%s]: %s (%.1fs / budget %.0fs)"
          % (num, label, status, elapsed, budget))
    assert ok, "criterion %d failed" % num
    assert elapsed < budget, "criterion %d exceeded budget" % num


def test_criterion_1_relations_suite():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        summary = suite_summary(verify_relation_suite(n, mode="symbolic"))
        ok = ok and summary["failures"] == 0
    _verdict(1, "relations symbolic n=2,3", ok, time.time() - t0, 60)


def test_criterion_2_decomposition_exactness():
    t0 = time.time()
    ok = True
    for n in (1, 2):
        m = 2 * n
        ring = PolyRing(Dyadic(), tuple("q%d" % k for k in range(1, m + 1))
                        + ("t",))
        q = [ring.var("q%d" % k) for k in range(1, m + 1)]
        t = ring.var("t")
        psi = standard_form(ring, n)
        ok = ok and decompose_rho(ring, q, t).eval() == rho_matrix(ring, q, t, psi)
        ok = ok and decompose_mu(ring, q, t).eval() == mu_matrix(ring, q, t, psi)
    for m in (9, 15):
        ring = Zmod(m)
        rng = random.Random(m)
        psi = standard_form(ring, 2)
        for _ in range(500):
            q = [rng.randrange(m) for _ in range(4)]
            s = ring.element(rng.randrange(m))
            ok = ok and decompose_rho(ring, q, s).eval() == \
                rho_matrix(ring, q, s, psi)
            ok = ok and decompose_mu(ring, q, s).eval() == \
                mu_matrix(ring, q, s, psi)
    _verdict(2, "rho/mu decompositions", ok, time.time() - t0, 30)


def test_criterion_3_bass_correspondence():
    t0 = time.time()
    R = GF(5)
    ok = True
    rng = random.Random(55)
    for n in (1, 2):
        m = 2 * n
        psi_big = standard_form(R, n + 1)
        psi = standard_form(R, n)
        for _ in range(200):
            q = [rng.randrange(5) for _ in range(m)]
            s = rng.randrange(5)
            rho = bass_symplectic_transvection(R, [0, 1] + [0] * m,
                                               [0, 0] + list(q), s, psi_big)
            mu = bass_symplectic_transvection(R, [-1, 0] + [0] * m,
                                              [0, 0] + list(q), s, psi_big)
            ok = ok and rho == rho_matrix(R, q, s, psi)
            ok = ok and mu == mu_matrix(R, q, s, psi)
    _verdict(3, "Bass transvection = rho/mu", ok, time.time() - t0, 30)


def test_criterion_4_form_reduction_roundtrip():
    t0 = time.time()
    ok = True
    for ring in (GF(3), GF(5), Zmod(9), Zmod(27)):
        L = LocalRingWitness(ring)
        I = Ideal.principal(ring, prime_factors(ring.m)[0])
        rng = random.Random(ring.m)
        for k in range(100):
            n = 1 + k % 3
            phi = random_form(ring, n, rng)
            reduce_alternating_local(phi, L)  # postcondition asserted inside
            if not I.is_full() and I.shape != "zero":
                phi = random_form(ring, n, rng, I)
                eps = reduce_alternating_local(phi, L, I)
                ok = ok and eps.check_relative(I)
    _verdict(4, "form reduction roundtrip", ok, time.time() - t0, 120)


def test_criterion_5_orbit_equality():
    t0 = time.time()
    cases = [(Zmod(3), 4, None), (Zmod(9), 4, Ideal.principal(Zmod(9), 3)),
             (Zmod(15), 4, Ideal.principal(Zmod(15), 5)), (Zmod(3), 6, None)]
    ok = all(check_orbit_equality(r, s, i)["equal"] for r, s, i in cases)
    _verdict(5, "orbit equality", ok, time.time() - t0, 180)


def test_criterion_6_dim0_transitivity():
    t0 = time.time()
    r1 = check_dim0_transitivity(Zmod(9), 4, Ideal.principal(Zmod(9), 3))
    r2 = check_dim0_transitivity(Zmod(15), 4, Ideal.principal(Zmod(15), 3))
    r3 = check_dim0_transitivity(Zmod(9), 4)
    ok = all(r["transitive"] and r["orbit_count"] == 1 for r in (r1, r2, r3))
    _verdict(6, "dimension-0 transitivity", ok, time.time() - t0, 60)


def test_criterion_7_kernel_membership():
    t0 = time.time()
    rep = kernel_membership_test(Zmod(9), 4, Ideal.principal(Zmod(9), 3),
                                 samples=1000, seed=7)
    ok = rep["ok"] and rep["members"] == 1000
    _verdict(7, "kernel membership 1000/1000", ok, time.time() - t0, 120)


def test_criterion_8_square_ideal():
    t0 = time.time()
    rep = square_ideal_inclusion_test(Zmod(9), 4, Ideal.principal(Zmod(9), 3),
                                      samples=200, seed=0)
    ring = PolyRing(Dyadic(), ("z", "a", "b"))
    ideal = Ideal.vars(ring, ("a", "b"))
    res = conjugate_square_ideal(ring, 4, 1, 3, ring.var("z"), ring.var("a"),
                                 ring.var("b"), ideal, kl=(3, 1))
    ok = rep["ok"] and res.certificate and \
        all(ideal.contains(x.arg) for x in res.rhs.atoms)
    _verdict(8, "square-ideal inclusion", ok, time.time() - t0, 60)


def test_criterion_9_dilation_rewriter():
    t0 = time.time()
    ring = PolyRing(Dyadic(), ("a", "X", "Y", "x1", "x2"))
    ideal = Ideal.vars(ring, ("x1", "x2"))
    a, x1 = ring.var("a"), ring.var("x1")
    x, y = ring.var("X"), ring.var("Y")
    m = y * y * y * y * x * (ring.one() + x)
    ok = True
    for size in (4, 6, 8):
        for k in range(2, size + 1):
            for conj in (se(1, k, a), se(k, 1, x1)):
                for j in range(2, size + 1):
                    for tgt in (se(1, j, m), se(j, 1, x1 * m)):
                        res = conjugate_first_rowcol(ring, size, conj, tgt,
                                                     ideal)
                        ok = ok and res.certificate
    _verdict(9, "dilation case table", ok, time.time() - t0, 120)


def test_criterion_10_telescoping_splice():
    t0 = time.time()
    ok = True
    for m in (5, 9):
        ring = PolyRing(Zmod(m), ("X",))
        x = ring.var("X")
        for seed in range(50):
            rng = random.Random(seed)
            atoms = []
            for _ in range(3):
                i, j = rng.sample(range(1, 4), 2)
                atoms.append(lin(i, j, ring.element(rng.randrange(m)) * x))
            alpha = GeneratorWord(ring, 3, atoms)
            for k in (1, 2, 3):
                pairs, total = [], 0
                for _ in range(k - 1):
                    c, b = rng.randrange(m), rng.randrange(m)
                    pairs.append((c, b))
                    total += c * b
                pairs.append((1, (1 - total) % m))
                factors = splice_telescoping(alpha, pairs)
                ok = ok and len(factors) == k
    _verdict(10, "telescoping splice", ok, time.time() - t0, 30)


def test_criterion_11_determinism(monkeypatch):
    t0 = time.time()
    I9 = Ideal.principal(Zmod(9), 3)
    a = check_orbit_equality(Zmod(9), 4, I9)
    c1 = check_dim0_transitivity(Zmod(9), 4, I9)
    monkeypatch.setattr(orbits, "CHUNK_ROWS", 17)
    b = check_orbit_equality(Zmod(9), 4, I9)
    monkeypatch.setattr(orbits, "CHUNK_ROWS", 13)
    c2 = check_dim0_transitivity(Zmod(9), 4, I9)
    k1 = kernel_membership_test(Zmod(9), 4, I9, samples=200, seed=7)
    k2 = kernel_membership_test(Zmod(9), 4, I9, samples=200, seed=7)
    ok = a == b and c1 == c2 and k1 == k2
    _verdict(11, "determinism across scheduling", ok, time.time() - t0, 300)
