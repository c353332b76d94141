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

``reduce_blocks`` reduces many forms: over a Z/m that ``fits_table``
it runs the semilocal reduction on int64 blocks of forms, each certified
as one atom table per prime, and elsewhere the reduction above per form.
"""

import numpy as np

from .matrices import SquareMatrix, is_alternating, pfaffian, standard_form
from .rings import Ideal, RingError, Zmod, localize_at_prime, prime_factors
from .words import (LINEAR, GeneratorWord, act_on_columns,
                    conjugation_triple, eval_table, fits_table, lin,
                    word_table)


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
    atoms = [lin(*a) for a in _draw_atoms(n, rng, ring.sample, ideal)]
    return GeneratorWord(ring, 2 * n - 1, atoms).shifted(1).congruence(
        standard_form(ring, n))


def _draw_atoms(n, rng, sample, ideal):
    """The (i, j, arg) atoms of one ``random_form`` word of size 2n - 1,
    each argument drawn by ``sample(rng)``: the one place that fixes the
    order in which a form's randomness is drawn."""
    m = 2 * n
    atoms = []
    if m > 2:
        for _ in range(rng.randrange(1, 6)):
            i, j = rng.sample(range(1, m), 2)
            a = sample(rng)
            if ideal is not None and not ideal.is_full():
                x = ideal.modulus() * sample(rng)
                atoms += [(i, j, a), (j, i, x), (i, j, -a)]
            else:
                atoms.append((i, j, a))
    return atoms


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


# -- many forms: int64 blocks over a Z/m that fits_table --------------
# A block is a (B, 2n, 2n) int64 array of forms.  Its reduction emits
# the atoms of ``_reduce_atoms`` as padded slots: an (i, j, arg) atom of
# every form per slot, and a ``present`` mask.  A relative word's
# zero-argument atoms are present, so a pad is never read off its arg.

# Forms per block.  A form holds 2-5 KB of int64 temporaries while its
# block is reduced (n = 2, 3), so 128 forms keep a block under 1 MB
# however many are sampled; no result depends on it.
_FORM_ROWS = 128


def form_blocks(ring, n, rng, ideal, count):
    """The ``count`` forms ``random_form`` draws from ``rng``, in its
    order, one block at a time: over a Z/m that ``fits_table``, int64
    blocks of at most _FORM_ROWS forms, each built as eps^t psi eps from
    one ``eval_table``; over any other ring, one SquareMatrix a block."""
    if not fits_table(ring):
        for _ in range(count):
            yield [random_form(ring, n, rng, ideal)]
        return
    m = ring.m

    def sample(r):
        return r.randrange(m)  # what ring.sample draws, as an int
    for lo in range(0, count, _FORM_ROWS):
        table = word_table([_draw_atoms(n, rng, sample, ideal)
                            for _ in range(min(_FORM_ROWS, count - lo))])
        table[:, :, 2] %= m
        yield _psi_congruence(_shifted_eval(table, 2 * n, m), m)


def matrix_block(phi):
    """The one form ``phi`` as a block of ``reduce_blocks``."""
    if not fits_table(phi.ring):
        return [phi]
    return np.array([[x.value for x in row] for row in phi.rows],
                    dtype=np.int64).reshape(1, phi.n, phi.n)


def reduce_blocks(ring, blocks, ideal=None):
    """(forms passed, forms, {p: eps word} of the last form or None)
    over blocks of ``form_blocks`` or ``matrix_block``.

    A form passes when the certificate of every prime p of m holds.
    Over a Z/m that ``fits_table`` each block runs ``_reduce_block``,
    and only the last form's eps becomes a GeneratorWord; over any other
    ring each form runs ``reduce_alternating_semilocal``.  Within a
    block of several forms, the first check that fails raises, whichever
    form failed it."""
    if not fits_table(ring):
        return _reduce_forms(blocks, ideal)
    passed = total = 0
    table = None
    for block in blocks:
        table = _reduce_block(block, ring, ideal)
        total += len(block)
        passed += int(np.logical_and.reduce(
            [verified for *_, verified in table.values()]).sum())
    if table is None:
        return passed, total, None
    size = block.shape[1] - 1
    return passed, total, {
        p: GeneratorWord(local, size, [lin(int(i), int(j), int(a))
                                       for (i, j, a), keep
                                       in zip(eps[-1], present[-1]) if keep])
        for p, (local, eps, present, _) in table.items()}


def _reduce_forms(blocks, ideal):
    """``reduce_blocks`` one SquareMatrix at a time."""
    passed = total = 0
    last = None
    for block in blocks:
        for phi in block:
            table = reduce_alternating_semilocal(phi, ideal)
            passed += all(rec["verified"] for rec in table.values())
            total += 1
            last = {p: rec["epsilon"] for p, rec in table.items()}
    return passed, total, last


def _reduce_block(phi, ring, ideal):
    """``reduce_alternating_semilocal`` for a block of forms over Z/m:
    {p: (local ring, eps slots, present, verified)} per prime p of m,
    each form's ``verified`` read from one table certificate."""
    table = {}
    for p in prime_factors(ring.m):
        local, project = localize_at_prime(ring, p)
        phi_p = phi % local.m
        eps, present = _epsilon_block(phi_p, p, local,
                                      _project_ideal(ideal, local, project))
        table[p] = (local, eps, present,
                    _certify_block(phi_p, eps, local.m))
    return table


def _epsilon_block(phi, p, local, I):
    """``_local_epsilon`` for a block of forms over the local ring
    Z/p^k, with the same checks and RingErrors: eps as (B, S, 3) atom
    slots (i, j, arg), arg 0 where a slot is absent, and the (B, S)
    ``present`` mask."""
    q, size = local.m, phi.shape[1]
    if size % 2 or size < 2:
        raise RingError("alternating reduction needs even size >= 2")
    if ((phi + phi.transpose(0, 2, 1)) % q).any():
        raise RingError("phi is not alternating")
    if (_pfaffian_block(phi, q) != 1).any():
        raise RingError("phi must have Pfaffian 1")
    g = None  # the relative variant's ideal as g | q: x in I iff g | x
    if I is not None and not I.is_full():
        g = I.modulus() or q
        psi = _psi_congruence(np.eye(size, dtype=np.int64)[None], q)
        if ((phi - psi) % g).any():
            raise RingError("phi is not congruent to psi_n mod %s" % (I,))
    work = phi.copy()
    slots = []
    for off in range(0, size - 2, 2):
        slots += [(i + off, j + off, arg, keep) for i, j, arg, keep
                  in _reduce_level(work[:, off:, off:], p, local, I, g)]
    atoms, present = _slot_table(slots, len(phi))
    eps, present = _inverse_table(atoms, q), present[:, ::-1]
    if g is not None:
        _check_triples(eps, present, local, I, g)
    return eps, present


def _reduce_level(v, p, local, I, g):
    """One step of ``_reduce_atoms`` on a block v of (s, s) forms, in
    place: the completion of row 1's tail to e_1 and the clearing of row
    2, as (i, j, arg, present) slots on the word indices 1..s-1, each arg
    and present one value per form.  Afterwards v[:, 2:, 2:] holds the
    forms the next step reduces."""
    q, s, forms = local.m, v.shape[1], np.arange(len(v))
    tail = v[:, 0, 1:].copy()
    if not (tail % p).any(axis=1).all():
        raise RingError("row is not unimodular over %s" % (local,))
    e1 = np.eye(1, s - 1, dtype=np.int64)[0]
    slots = []

    def push(i, j, arg, keep):
        arg = arg * keep % q
        slots.append((i, j, arg, keep))
        _congruence(v, i, [j], arg[:, None], q)

    def push_row(core):
        # (1, j, core_j) for j = 2..s-1 commute, so they act as one
        _congruence(v, 1, list(range(2, s)), core, q)
        return [(1, j, core[:, j - 2]) for j in range(2, s)]

    if g is not None:
        if ((tail - e1) % g).any():
            raise RingError("row is not congruent to e_1 mod %s" % (I,))
        u, zero = tail[:, 0], np.zeros(len(v), np.int64)
        kept = tail[:, 1:] != 0
        for (i, j, core), keep in zip(
                push_row(-tail[:, 1:] * _unit_inverse(u, p, q)[:, None] % q),
                kept.T):
            slots += [(j, i, zero, keep), (i, j, core, keep),
                      (j, i, zero, keep)]
        # (u, 0) -> (1, u - 1) -> (1, 0), two more triples
        for i, j, arg in ((1, 2, 1), (2, 1, _unit_inverse(u, p, q) - 1),
                          (1, 2, -1), (2, 1, 0), (1, 2, 1 - u), (2, 1, 0)):
            push(i, j, arg + zero, u != 1)
    else:
        pivot = (tail % p != 0).argmax(axis=1) + 1  # the lowest unit
        plant = (pivot == 1) & (tail[:, 0] != 1)
        # plant a pivot 1 at index 2, then pull it into index 1
        lam = _unit_inverse(tail[:, 0], p, q) * (1 - tail[:, 1]) * plant % q
        push(1, 2, lam, lam != 0)
        pivot[plant] = 2
        row = v[:, 0, 1:]
        push(pivot, 1, _unit_inverse(row[forms, pivot - 1], p, q)
             * (1 - row[:, 0]) % q, pivot > 1)
        slots += [(i, j, arg, arg != 0)
                  for i, j, arg in push_row(-row[:, 1:] % q)]
        if (sum(keep for *_, keep in slots) > 2 * (s - 1)).any():
            raise RingError("pivot schedule exceeded the 2n atom bound")
    if (v[:, 0, 1:] != e1).any():
        raise RingError("completion schedule failed to reach e_1")
    beta = _inverse_table(_slot_table(slots, len(v))[0], q)
    if (eval_table(beta, s - 1, q, LINEAR)[:, 0] != tail).any():
        raise RingError("postcondition v = e_1 beta failed")

    y = _solve_block(v[:, 2:, 2:], -v[:, 2:, 1] % q, p, local)
    if g is not None and (y % g).any():
        f, c = np.argwhere(y % g)[0]
        raise RingError("clearing coefficient %r escaped %s"
                        % (local.element(int(y[f, c])), I))
    for c, yc in enumerate(y.T, start=2):
        if g is None:
            slots.append((c, 1, yc, yc != 0))
        else:
            yes = np.ones(len(v), bool)
            slots += [(1, c, zero, yes), (c, 1, yc, yes), (1, c, zero, yes)]
    return slots


def _slot_table(slots, count):
    """(i, j, arg, present) slots as a (count, S, 3) atom table, arg 0
    where a slot is absent, and the (count, S) present mask."""
    atoms = np.empty((len(slots), 3, count), dtype=np.int64)
    for k, (i, j, arg, _) in enumerate(slots):
        atoms[k, 0], atoms[k, 1], atoms[k, 2] = i, j, arg
    present = np.array([keep for *_, keep in slots],
                       dtype=bool).reshape(len(slots), count).T
    atoms = atoms.transpose(2, 0, 1)
    atoms[:, :, 2] *= present
    return atoms, present


def _inverse_table(atoms, q):
    """The atom table of each word's inverse: the atoms reversed, each
    argument negated mod q."""
    inverse = atoms[:, ::-1].copy()
    inverse[:, :, 2] = -inverse[:, :, 2] % q
    return inverse


def _congruence(phi, a, b, lam, q):
    """phi <- T^t phi T mod q in place, in each form of a block, for
    T = I + sum_k lam_k e_(a, b_k) on 0-based indices: column b_k +=
    lam_k column a, then row b_k += lam_k row a.  ``a`` is an int or
    one index per form; it is not among the b_k, so T's elementary
    factors commute.  ``lam`` is (forms, len(b))."""
    forms = np.arange(len(phi))
    phi[:, :, b] = (phi[:, :, b]
                    + phi[forms, :, a][:, :, None] * lam[:, None, :]) % q
    phi[:, b, :] = (phi[:, b, :]
                    + lam[:, :, None] * phi[forms, a, :][:, None, :]) % q


def _unit_inverse(x, p, q):
    """x^-1 mod q = p^k for each unit of the int64 array x, as
    x^(phi(q) - 1) by square and multiply; a non-unit gives garbage."""
    out, x = np.ones_like(x), x % q
    e = q // p * (p - 1) - 1
    while e:
        if e & 1:
            out = out * x % q
        x = x * x % q
        e >>= 1
    return out


def _solve_block(a, rhs, p, local):
    """``_solve_local`` for a block: y with a y = rhs mod q = p^k in
    each form, by Gauss-Jordan elimination with the lowest unused row
    whose entry is a unit as each column's pivot."""
    q, (count, k) = local.m, rhs.shape
    forms = np.arange(count)
    rows = np.concatenate([a, rhs[:, :, None]], axis=2) % q
    free = np.ones((count, k), dtype=bool)
    pivots = []
    for col in range(k):
        unit = free & (rows[:, :, col] % p != 0)
        if not unit.any(axis=1).all():
            raise RingError("matrix is singular over %s" % (local,))
        r = unit.argmax(axis=1)
        free[forms, r] = False
        pivots.append(r)
        pivot = rows[forms, r] * _unit_inverse(rows[forms, r, col], p,
                                               q)[:, None] % q
        f = rows[:, :, col].copy()
        f[forms, r] = 0
        rows = (rows - f[:, :, None] * pivot[:, None, :]) % q
        rows[forms, r] = pivot
    return np.stack([rows[forms, r, k] for r in pivots], axis=1)


def _pfaffian_block(phi, q):
    """``pfaffian`` of each form of a block mod q: the same expansion
    along the lowest index, memoised over masks of the indices left."""
    size = phi.shape[1]
    if size > 12:
        raise RingError("pfaffian restricted to sizes <= 12")
    return _pfaffian_of_mask(phi, q, (1 << size) - 1,
                             {0: np.ones(len(phi), dtype=np.int64)})


def _pfaffian_of_mask(phi, q, mask, memo):
    if mask not in memo:
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        acc, sign, j = 0, 1, rest
        while j:
            k = (j & -j).bit_length() - 1
            sub = _pfaffian_of_mask(phi, q, rest & ~(1 << k), memo)
            acc = (acc + sign * (phi[:, i, k] * sub % q)) % q
            sign, j = -sign, j & (j - 1)
        memo[mask] = acc
    return memo[mask]


def _check_triples(eps, present, local, I, g):
    """``check_relative`` for each form of a block: its slots are whole
    triples ge_ij(a) ge_ji(x) ge_ij(-a), present or absent together, and
    each present core x lies in I (g | x)."""
    if eps.shape[1] % 3:
        raise RingError("atom block %d is not a conjugation triple"
                        % (eps.shape[1] // 3))
    g1, g2, g3 = (eps[:, k::3] for k in range(3))
    p1, p2, p3 = (present[:, k::3] for k in range(3))
    whole = (g1[..., :2] == g3[..., :2]).all(axis=2) \
        & (g1[..., :2] == g2[..., 1::-1]).all(axis=2) \
        & ((g1[..., 2] + g3[..., 2]) % local.m == 0)
    bad = (p1 != p2) | (p1 != p3) | (p1 & ~whole)
    if bad.any():
        f, k = np.argwhere(bad)[0]
        raise RingError("atom block %d is not a conjugation triple"
                        % p1[f, :k].sum())
    outside = p2 & (g2[..., 2] % g != 0)
    if outside.any():
        f, k = np.argwhere(outside)[0]
        raise RingError("triple core %r not in %s"
                        % (local.element(int(g2[f, k, 2])), I))


def _certify_block(phi, eps, q):
    """``_certify`` for each form of a block, as one table: whether
    (1 perp eval(eps))^t psi_n (1 perp eval(eps)) == phi."""
    return (_psi_congruence(_shifted_eval(eps, phi.shape[1], q), q)
            == phi).all(axis=(1, 2))


def _shifted_eval(table, size, m):
    """eval(1 perp w) mod m for each word w of an atom table on the
    indices 1..size-1."""
    return eval_table(table + (1, 1, 0), size, m, LINEAR)


def _psi_congruence(e, m):
    """e^t psi_n e mod m for each (2n, 2n) matrix e of a block: entry
    (a, b) is sum_k e[2k, a] e[2k+1, b] - e[2k+1, a] e[2k, b], each
    product reduced before the sum."""
    prod = e[:, 0::2, :, None] * e[:, 1::2, None, :] % m
    return (prod - prod.transpose(0, 1, 3, 2)).sum(axis=1) % m

