"""Constructive normal forms over local rings.

Two reductions, both certified by their defining postconditions:

* ``complete_unimodular_local``: any unimodular row over a local ring
  is e_1 times an explicit elementary word (relative variant tracks an
  ideal and emits conjugation triples).
* ``reduce_alternating_local``: any alternating matrix of Pfaffian 1
  over a local ring is congruent to the standard form by a matrix
  1 perp eval(eps) with eps an explicit elementary word on the trailing
  indices.  ``reduce_alternating_semilocal`` runs the reduction on each
  local factor of Z/m via CRT projection.
"""

from .matrices import SquareMatrix, is_alternating, pfaffian, standard_form
from .rings import Ideal, RingError, Zmod, localize_at_prime, prime_factors
from .words import (LINEAR, GeneratorWord, act_on_columns,
                    conjugation_triple, lin)


class LocalRingWitness:
    """A ring certified local: GF(p) or Z/p^k with p an odd prime."""

    def __init__(self, ring):
        # a Zmod's m is odd and at least 3
        if not isinstance(ring, Zmod) or len(prime_factors(ring.m)) != 1:
            raise RingError("%s is not GF(p) or Z/p^k with p odd" % (ring,))
        self.ring = ring

    def __repr__(self):
        return "LocalRingWitness(%s)" % (self.ring,)


def complete_unimodular_local(v, L, I=None):
    """Elementary word beta with v = e_1 * eval(beta) over a local ring.

    ``v`` is a unimodular row; with a proper ideal ``I`` (requires
    v congruent to e_1 mod I) the word is a product of conjugation
    triples with cores in I.  Pivots are chosen at the lowest unit
    index, so the output is deterministic.
    """
    ring = L.ring
    n = len(v)
    w = [ring.element(x) for x in v]
    if not any(ring.is_unit(x) for x in w):
        raise RingError("row is not unimodular over %s" % (ring,))
    relative = I is not None and not I.is_full()
    e1 = [ring.one()] + [ring.zero()] * (n - 1)

    if w == e1:
        return GeneratorWord(ring, n, [])
    if n == 1:
        raise RingError("no elementary 1x1 word maps e_1 to %r" % (w[0],))

    ops = []  # w * ops == e_1 at the end, so beta = ops^-1

    def push(i, j, lam):
        if not lam.is_zero() or relative:
            ops.append(lin(i, j, lam))
            act_on_columns([w], ops[-1].entries(ring, n))

    if relative:
        if not I.contains(w[0] - ring.one()) or \
                any(not I.contains(x) for x in w[1:]):
            raise RingError("row is not congruent to e_1 mod %s" % (I,))
        # w_1 = 1 + i0 is a unit (I is proper in a local ring).
        inv1 = ring.invert(w[0])
        triples = []
        for j in range(2, n + 1):
            if not w[j - 1].is_zero():
                triples.append(conjugation_triple(LINEAR, j, 1, ring.zero(),
                                                  -w[j - 1] * inv1))
        u = w[0]
        if u != ring.one():
            # (u, 0) -> (1, u - 1) under E_12(1) E_21(u^{-1} - 1) E_12(-1).
            triples.append(conjugation_triple(LINEAR, 1, 2, ring.one(),
                                              ring.invert(u) - ring.one()))
            triples.append(conjugation_triple(LINEAR, 2, 1, ring.zero(),
                                              ring.one() - u))
        for t in triples:
            for a in t:
                push(a.i, a.j, a.arg)
    else:
        pivot = min(k for k in range(1, n + 1) if ring.is_unit(w[k - 1]))
        if pivot == 1 and w[0] != ring.one():
            # Plant a pivot 1 at index 2, then pull it into index 1.
            push(1, 2, ring.invert(w[0]) * (ring.one() - w[1]))
            pivot = 2
        if pivot > 1:
            push(pivot, 1, ring.invert(w[pivot - 1]) * (ring.one() - w[0]))
        for j in range(2, n + 1):
            if not w[j - 1].is_zero():
                push(1, j, -w[j - 1])
    beta = GeneratorWord(ring, n, ops).inverse()
    if relative:
        beta.check_relative(I)
    elif len(beta) > 2 * n:
        raise RingError("pivot schedule exceeded the 2n atom bound")

    if w != e1:
        raise RingError("completion schedule failed to reach e_1")
    check = [ring.element(x) for x in beta.eval().row(0)]
    if check != [ring.element(x) for x in v]:
        raise RingError("postcondition v = e_1 beta failed")
    return beta


def _solve_local(L, a_rows, rhs):
    """Solve A y = rhs over a local ring by elimination on unit pivots."""
    ring = L.ring
    m = len(rhs)
    rows = [[ring.element(x) for x in r] + [ring.element(rhs[k])]
            for k, r in enumerate(a_rows)]
    perm = []
    for col in range(m):
        pivot = next((r for r in range(m) if r not in perm
                      and ring.is_unit(rows[r][col])), None)
        if pivot is None:
            raise RingError("matrix is singular over %s" % (ring,))
        perm.append(pivot)
        inv = ring.invert(rows[pivot][col])
        rows[pivot] = [x * inv for x in rows[pivot]]
        for r in range(m):
            if r != pivot and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * p for x, p in zip(rows[r], rows[pivot])]
    y = [ring.zero()] * m
    for col in range(m):
        y[col] = rows[perm[col]][m]
    return y


def reduce_alternating_local(phi, L, I=None):
    """Word eps with (1 perp eval(eps))^t psi_n (1 perp eval(eps)) = phi.

    ``phi`` is an alternating matrix of Pfaffian 1 over the local ring;
    eps has size 2n-1 (embedded on indices 2..2n).  Induction on n:
    normalize row 1 to the e_2 pattern with a unimodular completion of
    its tail, clear row 2 against the trailing block, split off a
    2x2 standard block and recurse.  Relative variant (proper I,
    phi congruent to psi_n mod I) emits a product of conjugation
    triples with cores in I.
    """
    eps = _local_epsilon(phi, L, I)
    _certify(phi, eps)
    return eps


def _local_epsilon(phi, L, I):
    """eps of ``reduce_alternating_local``, its postcondition unchecked."""
    ring = L.ring
    m = phi.n
    if m % 2 or m < 2:
        raise RingError("alternating reduction needs even size >= 2")
    if not is_alternating(phi):
        raise RingError("phi is not alternating")
    if pfaffian(phi) != ring.one():
        raise RingError("phi must have Pfaffian 1")
    relative = I is not None and not I.is_full()
    if relative:
        psi = standard_form(ring, m // 2)
        for r in range(m):
            for c in range(m):
                if not I.contains(phi[r, c] - psi[r, c]):
                    raise RingError("phi is not congruent to psi_n mod %s" % (I,))

    # Inverting a product of triples keeps it a product of triples.
    eps = GeneratorWord(ring, m - 1,
                        _reduce_atoms(phi, L, I if relative else None)).inverse()
    if relative:
        eps.check_relative(I)
    return eps


def _certify(phi, eps):
    """(1 perp eval(eps))^t psi_n (1 perp eval(eps)) == phi: True or raise."""
    holds = eps.shifted(1).congruence(standard_form(phi.ring, phi.n // 2)) == phi
    if not holds:
        raise RingError("postcondition congruence failed")
    return holds


def random_form(ring, n, rng, ideal=None):
    """A random eps-generated alternating 2n x 2n form of Pfaffian 1;
    with a proper ideal, eps is a product of conjugation triples."""
    m = 2 * n
    atoms = []
    if m > 2:
        for _ in range(rng.randrange(1, 6)):
            i, j = rng.sample(range(1, m), 2)
            a = ring.sample(rng)
            if ideal is not None and not ideal.is_full():
                x = ideal.modulus() * ring.sample(rng)
                atoms += conjugation_triple(LINEAR, i, j, a, x)
            else:
                atoms.append(lin(i, j, a))
    return GeneratorWord(ring, m - 1, atoms).shifted(1).congruence(
        standard_form(ring, n))


def _reduce_atoms(phi, L, I):
    """Atoms of a size-(m-1) word W with (1 perp eval(W))^t phi (1 perp
    eval(W)) = psi; the caller inverts it into eps."""
    ring = L.ring
    m = phi.n
    if m == 2:
        return []
    relative = I is not None

    # Step 1: row 1 tail to (1, 0, ..., 0) by a unimodular completion.
    tail = [phi[0, c] for c in range(1, m)]
    beta_inv = complete_unimodular_local(tail, L, I).inverse()
    step1 = list(beta_inv.atoms)
    phi1 = beta_inv.shifted(1).congruence(phi)

    # Step 2: clear row 2 columns >= 3 against the trailing block.
    a_rows = [[phi1[r, c] for c in range(2, m)] for r in range(2, m)]
    rhs = [-phi1[r, 1] for r in range(2, m)]
    y = _solve_local(L, a_rows, rhs)
    step2 = []
    for c, yc in enumerate(y, start=3):
        if yc.is_zero() and not relative:
            continue
        if relative and not I.contains(yc):
            raise RingError("clearing coefficient %r escaped %s" % (yc, I))
        if relative:
            step2.extend(conjugation_triple(LINEAR, 1, c - 1, ring.zero(), yc))
        else:
            step2.append(lin(c - 1, 1, yc))
    phi2 = GeneratorWord(ring, m - 1, step2).shifted(1).congruence(phi1)

    # Step 3: split off the leading psi_1 block and recurse.
    block = SquareMatrix(ring, [[phi2[r, c] for c in range(2, m)]
                                for r in range(2, m)])
    step3 = GeneratorWord(ring, m - 3, _reduce_atoms(block, L, I)).shifted(2)
    return step1 + step2 + list(step3.atoms)


def reduce_alternating_semilocal(phi, I=None):
    """Per-prime reduction table for phi over Z/m (m odd, square-free in
    primes but arbitrary powers): CRT projection to each local factor
    Z/p^k, local reduction there, certificates included."""
    ring = phi.ring
    if not isinstance(ring, Zmod) or ring.m % 2 == 0:
        raise RingError("semilocal reduction needs Z/m with m odd")
    table = {}
    for p in prime_factors(ring.m):
        local, project = localize_at_prime(ring, p)
        witness = LocalRingWitness(local)
        phi_p = SquareMatrix(local, [[project(e) for e in row]
                                     for row in phi.rows])
        I_p = _project_ideal(I, local, project)
        eps = _local_epsilon(phi_p, witness, I_p)
        table[p] = {"ring": local, "witness": witness, "epsilon": eps,
                    "verified": _certify(phi_p, eps)}
    return table


def _project_ideal(I, local, project):
    if I is None or I.is_full():
        return None
    if I.ring is local:  # a prime-power ring is its own local factor
        return I
    return Ideal.principal(local, project(I.modulus()))
