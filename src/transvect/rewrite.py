"""Constructive rewriting of conjugated first-row/column generators.

The engine works with the C_n root system: the index p of a generator
se_pq corresponds to the weight w_p, where w_{2k-1} = v_k and
w_{2k} = -v_k, and the atom se_pq sits on the root w_p - w_q.  A
commutator of two atoms on non-opposite roots r, s expands into atoms
on the roots r+s, 2r+s, r+2s by the Chevalley commutator formula
[x_r(a), x_s(b)] = prod x_{ir+js}(c_ij a^i b^j) with integer structure
constants c_ij.  The constants of each pair of index positions are
derived once, by evaluating and peeling the commutator of generic
arguments over Z[1/2][a, b], and memoised; an expansion then only
multiplies arguments.  The same constants give the long-root residue
left when a target is written as a commutator, and the integer read by
a probe commutator of unit arguments.  Every conjugation of atoms by
an atom goes through ``_slide``, which writes c x c^{-1} as the pieces
[c, x]·x.  Conjugation by first-column atoms on the root opposite to
the target needs an explicit schedule that routes the target through
an auxiliary commutator whose pieces conjugate benignly.

Everything returns a RewriteResult carrying a mechanically checked
certificate: evaluation equality, first-row/column shape, ideal
membership of first-column arguments, and Y-divisibility.  Over Z/m,
``orbits.py`` certifies ``square_ideal_atoms`` on its int64 atom tables
instead.  A word is evaluated in three places only: that certificate,
the derivation of the structure constants (``_comm_by_peel``), and the
Eichler correction of ``_monster_long_row``.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

from .matrices import sigma
from .rings import (X, Y, Dyadic, PolyRing, RingError, divide_by_unit,
                    divide_by_var, substitute, var_multiplicity)
from .words import (SYMPLECTIC, GeneratorAtom, GeneratorWord, act_on_rows,
                    commutator, conjugate, identity_rows, inverse_atoms, se)


class RewriteError(RingError):
    pass


# -- root bookkeeping -------------------------------------------------


def _weight(p):
    """(coordinate, sign) of the weight w_p."""
    return ((p + 1) // 2, 1 if p % 2 == 1 else -1)


def atom_root(i, j, n):
    root = [0] * n
    ki, si = _weight(i)
    kj, sj = _weight(j)
    root[ki - 1] += si
    root[kj - 1] -= sj
    return tuple(root)


def _neg(root):
    return tuple(-e for e in root)


def _addroot(a, b, mult=1):
    return tuple(x * mult + y for x, y in zip(a, b))


def _positions(root):
    """All index pairs (p, q) realizing the root; [] if not a root."""
    def pos(k, s):
        return 2 * k - 1 if s > 0 else 2 * k

    nz = [(k + 1, e) for k, e in enumerate(root) if e != 0]
    if len(nz) == 1:
        (k, e), = nz
        if e == 2:
            return [(2 * k - 1, 2 * k)]
        if e == -2:
            return [(2 * k, 2 * k - 1)]
        return []
    if len(nz) == 2 and all(abs(e) == 1 for _, e in nz):
        (ka, sa), (kb, sb) = nz
        return [(pos(ka, sa), pos(kb, -sb)), (pos(kb, sb), pos(ka, -sa))]
    return []


def _prefer(positions):
    for pq in positions:
        if 1 in pq:
            return pq
    return positions[0]


def _quad(p, q, u, y, ideal_side):
    """[se_p1(u), se_1q(y)], with u and y swapped on the "row" side."""
    if ideal_side != "col":
        u, y = y, u
    return commutator([se(p, 1, u)], [se(1, q, y)])


def _peel(ring, size, matrix, roots):
    """Write `matrix` as a product of atoms on the candidate roots.

    Tries every ordering of the candidate positions and reads each
    argument off the residual matrix; success means the residual is the
    identity, which certifies the factorization.
    """
    spots = []
    for r in roots:
        ps = _positions(r)
        if ps:
            pq = _prefer(ps)
            if pq not in spots:
                spots.append(pq)
    identity = identity_rows(ring, size)
    for order in permutations(spots):
        resid = [list(row) for row in matrix.rows]
        atoms = []
        for (p, q) in order:
            z = resid[p - 1][q - 1]
            if z.is_zero():
                continue
            atom = se(p, q, z)
            act_on_rows(resid, atom.inverse().entries(ring, size))
            atoms.append(atom)
        if resid == identity:
            return atoms
    raise RewriteError("matrix does not peel on roots %r" % (roots,))


def _comm_by_peel(ring, size, g, h):
    """[g, h] read off its matrix: the four-atom word evaluated and
    peeled on the roots r+s, 2r+s, r+2s of g and h.  The derivation of
    the structure constants, and the oracle that tests hold them to."""
    n = size // 2
    ra = atom_root(g.i, g.j, n)
    rb = atom_root(h.i, h.j, n)
    word = GeneratorWord(ring, size, commutator([g], [h]))
    cands = [_addroot(ra, rb), _addroot(ra, rb, 2), _addroot(rb, ra, 2)]
    return _peel(ring, size, word.eval(), cands)


@cache
def _comm_shape(size, g_family, gi, gj, h_family, hi, hj):
    """The structure constants ((p, q, c, i, j), ...) of [g(a), h(b)], for
    g at (gi, gj) and h at (hi, hj): the product of the se_pq(c a^i b^j).

    Derived on first use by peeling the commutator of the generic
    arguments a, b over Z[1/2][a, b].  Every peeled argument must be one
    term with an integer coefficient and both exponents >= 1, so that
    the product specialises to every ring; anything else raises.
    """
    ring = PolyRing(Dyadic(), ("a", "b"))
    g = GeneratorAtom(g_family, gi, gj, ring.var("a"))
    h = GeneratorAtom(h_family, hi, hj, ring.var("b"))
    shape = []
    for atom in _comm_by_peel(ring, size, g, h):
        terms = ring.terms(atom.arg)
        if len(terms) != 1:
            raise RewriteError("commutator piece %r is not one term" % (atom,))
        ((i, j), (c, k)), = terms
        if k or i < 1 or j < 1:
            raise RewriteError("commutator piece %r is not c a^i b^j with "
                               "c an integer and i, j >= 1" % (atom,))
        shape.append((atom.i, atom.j, c, i, j))
    return tuple(shape)


def _power(x, k):
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def comm_word(ring, size, g, h):
    """[g, h] as a word of atoms on the roots r+s, 2r+s, r+2s of g and h.

    The atoms are se_pq(c a^i b^j) for the memoised structure constants
    (p, q, c, i, j) of the pair's index positions (``_comm_shape``), a
    and b being the arguments of g and h lifted into ``ring``; an atom
    whose argument is zero in ``ring`` is dropped.  The pieces on r+s
    and on 2r+s (or r+2s) commute, as their sum is not a root, so the
    order is safe.
    """
    n = size // 2
    if atom_root(g.i, g.j, n) == _neg(atom_root(h.i, h.j, n)):
        raise RewriteError("opposite roots: no commutator expansion")
    a, b = ring.element(g.arg), ring.element(h.arg)
    out = []
    for p, q, c, i, j in _comm_shape(size, g.family, g.i, g.j,
                                     h.family, h.i, h.j):
        z = _power(a, i) * _power(b, j) * c
        if not z.is_zero():
            out.append(se(p, q, z))
    return out


def _long_residue(ring, size, g, h, target):
    """The atoms r with target = [g, h] · r, for a commutator whose piece
    on the target's root is the target: the inverses, in reverse order,
    of its other pieces.  Those sit on the long root 2r+s (or r+2s),
    which commutes with the target's piece, so the order is safe."""
    n = size // 2
    root = atom_root(target.i, target.j, n)
    return inverse_atoms([x for x in comm_word(ring, size, g, h)
                          if atom_root(x.i, x.j, n) != root])


# -- single-atom rewriting to first-row/column shape ------------------


def _arg_at(atom, p, q):
    """The atom's argument read at (p, q): its own position or, by the
    mirror sign rule, its mirror position."""
    if (atom.i, atom.j) == (p, q):
        return atom.arg
    return -atom.arg if (atom.i + atom.j) % 2 == 0 else atom.arg


def _probe_coeff(size, g, h, p, q):
    """The integer structure constant of the piece of [se_g(1), se_h(1)]
    on the root of se_pq, g and h index pairs, read at position (p, q);
    None if the commutator has no such piece."""
    n = size // 2
    root = atom_root(p, q, n)
    for i, j, c, _, _ in _comm_shape(size, SYMPLECTIC, *g, SYMPLECTIC, *h):
        if atom_root(i, j, n) == root:
            return _arg_at(se(i, j, c), p, q)
    return None


def _divide(arg, const, ypow):
    out = divide_by_unit(arg, const)
    return divide_by_var(out, Y, ypow)


def _quad_route(ring, size, atom, p, q, ideal_side):
    """The quad [se_p1(u), se_1q(Y)] whose piece at (p, q) carries the
    atom's argument there (u, Y swapped on the "row" side)."""
    coeff = _probe_coeff(size, (p, 1), (1, q), p, q)
    if coeff is None:
        raise RewriteError("no (%d, %d) component in the probe commutator"
                           % (p, q))
    u = _divide(_arg_at(atom, p, q), coeff, 1)
    return _quad(p, q, u, ring.var(Y), ideal_side)


def rewrite_to_first(ring, size, atom, ideal_side):
    """Rewrite one atom se_pq (p, q != 1) as a first-row/column word.

    Requires arg in the ideal and divisible by Y^2; consumes at most Y^2
    of the divisibility budget.  `ideal_side` says which side of the
    emitted commutators must carry ideal arguments ("col" is the E^1
    convention; "row" is its transpose).
    """
    p, q, w = atom.i, atom.j, atom.arg
    if p == 1 or q == 1:
        return [atom]
    if q == 2 or p == 2:
        # the mirror position has index 1
        return [se(sigma(q), sigma(p), _arg_at(atom, sigma(q), sigma(p)))]
    if w.is_zero():
        return []
    if q == sigma(p):
        # long root: se_p,sigma(p)(w) = [se_p1(u), se_1,sigma(p)(Y)], w = 2uY
        return _quad(p, q, _divide(w, 2, 1), ring.var(Y), ideal_side)
    # short root: the quad alone is the atom, since for its roots a, b
    # neither 2a+b nor a+2b is a root (each has three nonzero coordinates)
    return _quad_route(ring, size, atom, p, q, ideal_side)


def _emittable(ring, size, atom, ideal):
    """Whether the atom rewrites to a shape-and-membership-clean word
    ("row" side)."""
    try:
        word = rewrite_to_first(ring, size, atom, "row")
    except RingError:
        return False
    return all(a.j == 1 or ideal.contains(a.arg) for a in word)


def _expand_avoiding(ring, size, atom, avoid, ideal_side, process):
    """Rewrite `atom` so that no emitted piece sits on the root -`avoid`.

    Writes the atom at the index position away from the first row/column
    and opens the quad route there; long residues go through `process`.
    """
    n = size // 2
    root = atom_root(atom.i, atom.j, n)
    spots = [pq for pq in _positions(root) if 1 not in pq]
    if not spots:
        raise RewriteError("piece opposite to a cancelled factor; no route")
    p, q = spots[0]
    quad = _quad_route(ring, size, atom, p, q, ideal_side)
    if any(atom_root(x.i, x.j, n) == _neg(avoid) for x in quad):
        raise RewriteError("quad route still clashes")
    out = list(quad)
    for extra in _long_residue(ring, size, quad[0], quad[1], atom):
        out.extend(process(extra))
    return out


# -- conjugation ------------------------------------------------------


def _slide(ring, size, c, atoms):
    """c · atoms · c^{-1} as the pieces [c, x]·x, skipping zero atoms and
    first re-routing ("row" side) any atom on the root opposite c.  The
    calculus's one conjugation of atoms by an atom."""
    n = size // 2
    rc = atom_root(c.i, c.j, n)
    out = []
    for x in atoms:
        if x.arg.is_zero():
            continue
        pieces = [x]
        if atom_root(x.i, x.j, n) == _neg(rc):
            pieces = _expand_avoiding(ring, size, x, rc, "row", lambda e: [e])
        for piece in pieces:
            out.extend(comm_word(ring, size, c, piece))
            out.append(piece)
    return out


def _monster(ring, size, g, t, ideal, ideal_side):
    """^{se_j1(a)} se_1j(m): the opposite-root schedule.

    Routes the target through se_1j(m) = [A0, B0]·corr with
    A0 = se_1r(u), B0 = se_rj(Y^2); every conjugate of the pieces by g
    lands on benign roots, and the B0 pair cancels against itself after
    conjugating the sandwiched atoms by B0.
    """
    j, m = t.j, t.arg
    if g.i != j or g.j != 1 or t.i != 1:
        raise RewriteError("monster schedule expects se_j1 against se_1j")
    if j == 2 and ideal_side == "row":
        return _monster_long_row(ring, size, g, t, ideal)
    r = sigma(j) if j >= 3 else 4
    if r > size:
        raise RewriteError("schedule needs size >= 4")
    y = ring.var(Y)
    y2 = y * y
    coeff = _probe_coeff(size, (1, r), (r, j), 1, j)
    if coeff is None:
        raise RewriteError("route %d does not reach the target root" % r)
    u = _divide(m, coeff, 2)
    a0 = se(1, r, u)
    b0 = se(r, j, y2)
    corr = _long_residue(ring, size, a0, b0, t)
    n = size // 2
    rb0 = atom_root(b0.i, b0.j, n)

    def process(atom):
        """First-row/column form, deferring atoms that clash with B0."""
        if atom_root(atom.i, atom.j, n) == _neg(rb0):
            return _expand_avoiding(ring, size, atom, rb0, ideal_side, process)
        rewritten = rewrite_to_first(ring, size, atom, ideal_side)
        if any(atom_root(x.i, x.j, n) == _neg(rb0) for x in rewritten):
            return [atom]  # defer: rewrite after the B0 sandwich
        return rewritten

    def processed(atoms):
        return [piece for x in atoms for piece in process(x)]

    # ^g [A0, B0] = FA·A0·FB·B0·(FA·A0)^{-1}·B0^{-1}·FB^{-1}, then ^g corr
    fa_a0 = processed(_slide(ring, size, g, [a0]))
    fb = processed(comm_word(ring, size, g, b0))
    sandwich = processed(_slide(ring, size, b0, inverse_atoms(fa_a0)))
    out = (fa_a0 + fb + sandwich + inverse_atoms(fb)
           + _slide(ring, size, g, corr))
    # rewrite ^g corr and anything deferred through the sandwich
    return [piece for x in out
            for piece in rewrite_to_first(ring, size, x, ideal_side)]


def _monster_long_row(ring, size, g, t, ideal):
    """^{se_21(b)} se_12(w) with w in the ideal ("row" membership side).

    The generic schedule fails here: with a long-root conjugator, the
    Y^2-carrier commutator always sheds a long piece with argument b*Y^4,
    which is neither first-row/column shaped nor in the ideal.  Instead
    the target is treated as the symplectic transvection T(u, w/Y^2)
    with u = Y*(e_1 + b*e_2): splitting off the orthogonal vector
    v = Y*e_3 gives

        T(u, w') = T(u+v, w') * G^{-1} * T(v, w')^{-1},

    where the Eichler correction G = I + w'*(u v^t + v u^t)*psi and
    T(v, w') are short/long atoms with arguments deep in the ideal, and
    T(u+v, w') = W se_34(w) W^{-1} for W = se_43(b) se_13(1) se_23(b)
    (the se_43 factor cancels the mirror e_4 component, so that
    W e_3 = e_1 + b e_2 + e_3 exactly).  The three W-stages conjugate
    benignly; the pure-Y long pair shed while expanding an opposite
    piece annihilates in the cancellation pass.
    """
    n = size // 2
    b = g.arg
    w = t.arg
    divide_by_var(w, Y, 2)  # demand the Y^2 budget up front
    tv = se(3, 4, w)
    stages = (se(2, 3, b), se(1, 3, ring.one()), se(4, 3, b))
    wword = list(reversed(stages))
    # G^{-1} = T(u+v, w')^{-1} · ^g t · T(v, w'), evaluated as one word
    ginv = GeneratorWord(ring, size, conjugate(wword, [tv.inverse()])
                         + conjugate([g], [t]) + [tv]).eval()
    shorts = [(1, 1), (-1, 1)]
    longs = [(0, 2), (-2, 0)]
    cand = [r + (0,) * (n - 2) for r in shorts + longs]
    ginv_atoms = _peel(ring, size, ginv, cand)

    atoms = [tv]
    for c in stages:
        atoms = _slide(ring, size, c, atoms)

    raw = atoms + ginv_atoms + [tv.inverse()]
    return [piece for x in _cancel_pass(ring, size, raw, ideal)
            for piece in rewrite_to_first(ring, size, x, "row")]


_CANCEL_ROUNDS = 200


def _cancel_pass(ring, size, atoms, ideal):
    """Eliminate non-emittable atoms by sliding each onto its inverse.

    An atom that cannot be rewritten into clean first-row/column shape is
    conjugated rightward through the word (expanding any opposite-root
    atom in its way) until it annihilates against its exact inverse; the
    conjugation byproducts it sheds are handled in later rounds.
    """
    out = list(atoms)
    for _ in range(_CANCEL_ROUNDS):
        bad = None
        for i, x in enumerate(out):
            if x.arg.is_zero():
                continue
            if not _emittable(ring, size, x, ideal):
                bad = i
                break
        if bad is None:
            return [x for x in out if not x.arg.is_zero()]
        x = out[bad]
        inv = x.inverse()
        partner = None
        for k in range(bad + 1, len(out)):
            if out[k] == inv:
                partner = k
                break
        if partner is None:
            raise RewriteError("unmatched non-emittable atom %r" % (x,))
        seg = _slide(ring, size, x, out[bad + 1:partner])
        out = out[:bad] + seg + out[partner + 1:]
    raise RewriteError("cancellation pass did not terminate")


def _conjugate_row_target(ring, size, g, t, ideal, ideal_side):
    n = size // 2
    if t.arg.is_zero():
        return []
    if atom_root(g.i, g.j, n) == _neg(atom_root(t.i, t.j, n)):
        return _monster(ring, size, g, t, ideal, ideal_side)
    return [piece for x in _slide(ring, size, g, [t])
            for piece in rewrite_to_first(ring, size, x, ideal_side)]


class RewriteResult:
    """lhs = rhs with a mechanically verified certificate: shape, first-
    column membership and Y-divisibility for a first-row/column word,
    membership of every argument otherwise."""

    def __init__(self, lhs, rhs, ideal, first_rowcol):
        self.lhs = lhs
        self.rhs = rhs
        checks = {"eval-equal": lhs.eval() == rhs.eval()}
        if first_rowcol:
            checks["first-rowcol"] = all(a.i == 1 or a.j == 1 for a in rhs.atoms)
            checks["ideal-membership"] = all(
                ideal.contains(a.arg) for a in rhs.atoms if a.j == 1)
            checks["y-divisible"] = all(
                var_multiplicity(a.arg, Y) >= 1 for a in rhs.atoms)
        else:
            checks["ideal-membership"] = all(
                ideal.contains(a.arg) for a in rhs.atoms)
        self.checks = checks
        self.certificate = all(checks.values())

    def __repr__(self):
        return "RewriteResult(certificate=%r, checks=%r, atoms=%d)" % (
            self.certificate, self.checks, len(self.rhs))


def conjugate_first_rowcol(ring, size, conjugator, target, ideal):
    """^conjugator target as a certified first-row/column word.

    `conjugator` is a single E^1-legal atom (first row, any argument, or
    first column with argument in the ideal); `target` is a first-row or
    first-column atom with enough Y-divisibility for the route taken.
    Both arguments are lifted into ``ring``; a zero target gives [].
    """
    lhs = GeneratorWord(ring, size, conjugate([conjugator], [target]))
    conjugator, target = lhs.atoms[:2]
    if target.i == 1:
        atoms = _conjugate_row_target(ring, size, conjugator, target,
                                      ideal, "col")
    elif target.j == 1:
        g2 = conjugator.transpose().inverse()  # (g^t)^{-1}
        t2 = target.transpose()
        inner = _conjugate_row_target(ring, size, g2, t2, ideal, "row")
        atoms = [x.transpose() for x in reversed(inner)]
    else:
        raise RewriteError("target %r is not first-row/column" % (target,))
    rhs = GeneratorWord(ring, size, atoms)
    return RewriteResult(lhs, rhs, ideal, True)


def dilate_word(eps, target, ideal):
    """epsilon · target(Y^{4^r} X) · epsilon^{-1} rewritten recursively.

    eps is a first-rowcol word of r atoms; the target argument, a
    polynomial in X, is instantiated at Y^{4^r}X so that every level of
    the recursion keeps enough Y-divisibility for the case schedules.
    """
    ring, size = eps.ring, eps.size
    r = len(eps.atoms)
    y = ring.var(Y)
    scale = ring.one()
    for _ in range(4 ** r):
        scale = scale * y
    arg = substitute(ring.element(target.arg), X, scale * ring.var(X))
    seeded = GeneratorAtom(target.family, target.i, target.j, arg)
    current = [seeded]
    for g in reversed(eps.atoms):
        nxt = []
        for atom in current:
            step = conjugate_first_rowcol(ring, size, g, atom, ideal)
            if not step.certificate:
                raise RewriteError("uncertified step: %r" % (step,))
            nxt.extend(step.rhs.atoms)
        current = nxt
    lhs = GeneratorWord(ring, size, conjugate(eps.atoms, [seeded]))
    rhs = GeneratorWord(ring, size, current)
    return RewriteResult(lhs, rhs, ideal, True)


def square_ideal_atoms(ring, size, i, j, z, a, b, kl):
    """The atoms of ^{se_kl(z)} se_ij(ab), a, b in I, as a word over ESp(I).

    Splits se_ij(ab) = [se_{sigma(i)j}(b), se_{i sigma(i)}(-a)] · corr and
    conjugates the pieces by ``_slide``; every emitted argument lies in
    the ideal.
    """
    alpha = se(*kl, z)
    target = se(i, j, a * b)
    n = size // 2
    if atom_root(*kl, n) != _neg(atom_root(i, j, n)):
        # non-opposite: direct commutator expansion
        factors = [target]
    else:
        p1 = se(sigma(i), j, b)
        p2 = se(i, sigma(i), -a)
        factors = (commutator([p1], [p2])
                   + _long_residue(ring, size, p1, p2, target))
    return _slide(ring, size, alpha, factors)


def conjugate_square_ideal(ring, size, i, j, z, a, b, ideal, kl):
    """``square_ideal_atoms`` as the right side of a RewriteResult."""
    lhs = conjugate([se(*kl, z)], [se(i, j, a * b)])
    rhs = square_ideal_atoms(ring, size, i, j, z, a, b, kl)
    return RewriteResult(GeneratorWord(ring, size, lhs),
                         GeneratorWord(ring, size, rhs), ideal, False)
