"""The commutator-calculus relation table for the elementary symplectic
generators, with symbolic and sampled verification.

Each relation is one row of ``_RELATIONS``: its arity, its side
condition on the index tuple and a builder of its (lhs, rhs) atom
lists, written with the word algebra of ``words.py``.
Relation ids 4 and 5 are the two group-theoretic commutator identities;
ids 6 through 15 are the ten displayed se-relations.  Four of the
displayed rows do not hold as printed under the uniform two-branch
definition of se_ij; the corrected arguments (derived and certified by
evaluation) are used here, listed in ``CORRECTIONS`` and catalogued in
PAPER_ERRATA.md at the repository root.

``verify_relation_suite`` checks symbolic instances, and sampled ones
over rings other than Z/m, one ``GeneratorWord.eval`` per side.  Sampled
instances over Z/m (GF included) take the table path: the builders'
atom lists become ``atom_rows`` at once, with no ``GeneratorWord``, and
per block of ``_TABLE_ROWS`` instances the left sides are one int64
atom table and the right sides another, each evaluated once by
``words.eval_table`` and compared row by row.
"""

from __future__ import annotations

import random
from itertools import product

from .matrices import sigma
from .rings import Dyadic, PolyRing
from .words import (SYMPLECTIC, GeneratorWord, atom_rows, commutator,
                    conjugate, eval_table, fits_table, se, word_table)


#: sampled instances per pair of atom tables: the atom rows of one block
#: are all that is held at once
_TABLE_ROWS = 128

#: corrections applied to the printed table (documented in PAPER_ERRATA.md)
CORRECTIONS = {
    6: "first factor argument -ab (printed -2ab)",
    7: "second factor argument ab (printed 2ab)",
    8: "first factor argument -ab (printed -2ab)",
    9: "first factor argument ab (printed 2ab)",
    15: "side condition j != sigma(l) (printed j != sigma(k))",
}


def _on_ghk(f):
    """Row builder f(g, h, k) for the one-atom lists g = [se_ij(a)],
    h = [se_ji(b)] and k = [se_ij(b)]."""
    return lambda a, b, i, j: f([se(i, j, a)], [se(j, i, b)], [se(i, j, b)])


def _bracket(f):
    """Row builder for [g, h] = rhs: f(a, b, *indices) gives the atoms g
    and h, then the atoms of rhs (none when g and h commute)."""
    def sides(a, b, *indices):
        g, h, *rhs = f(a, b, *indices)
        return commutator([g], [h]), rhs
    return sides


def _distinct_unpaired(i, j):
    return i != j and i != sigma(j)


#: rel_id -> (arity, side condition on the indices, builder of the
#: (lhs, rhs) atom lists from the arguments a, b and the indices)
_RELATIONS = {
    # [g, hk] = [g, h] (^h [g, k])
    4: (2, lambda i, j: i != j, _on_ghk(lambda g, h, k: (
        commutator(g, h + k),
        commutator(g, h) + conjugate(h, commutator(g, k))))),
    # ^g [h, k] = [^g h, ^g k]
    5: (2, lambda i, j: i != j, _on_ghk(lambda g, h, k: (
        conjugate(g, commutator(h, k)),
        commutator(conjugate(g, h), conjugate(g, k))))),
    6: (2, _distinct_unpaired, _bracket(lambda a, b, i, j: (
        se(i, j, a), se(sigma(i), i, b),
        se(sigma(i), j, -(a * b)), se(sigma(j), j, (-1) ** (i + j) * a * a * b)))),
    7: (2, _distinct_unpaired, _bracket(lambda a, b, i, j: (
        se(i, j, a), se(j, sigma(j), b),
        se(i, sigma(i), (-1) ** (i + j) * a * a * b), se(i, sigma(j), a * b)))),
    8: (2, _distinct_unpaired, _bracket(lambda a, b, i, j: (
        se(sigma(i), i, a), se(sigma(j), sigma(i), b),
        se(sigma(j), i, -(a * b)),
        se(sigma(j), j, (-1) ** (i + j + 1) * a * b * b)))),
    9: (2, _distinct_unpaired, _bracket(lambda a, b, i, j: (
        se(sigma(i), i, a), se(i, j, b),
        se(sigma(i), j, a * b), se(sigma(j), j, (-1) ** (i + j + 1) * a * b * b)))),
    10: (2, _distinct_unpaired, _bracket(lambda a, b, i, j: (
        se(i, j, a), se(j, sigma(i), b), se(i, sigma(i), (a + a) * b)))),
    11: (2, _distinct_unpaired, _bracket(lambda a, b, i, j: (
        se(i, j, a), se(sigma(j), i, b), se(sigma(j), j, -((a + a) * b))))),
    12: (2, lambda i, j: i != sigma(j), _bracket(lambda a, b, i, j: (
        se(sigma(i), i, a), se(sigma(j), j, b)))),
    13: (2, lambda i, j: i != sigma(j), _bracket(lambda a, b, i, j: (
        se(sigma(j), j, a), se(sigma(i), j, b)))),
    # se_{i,sigma(i)}(a) = [se_ik(a/2), se_{k,sigma(i)}(1)]
    14: (2, _distinct_unpaired, lambda a, _b, i, k: (
        [se(i, sigma(i), a)],
        commutator([se(i, k, a.halve())], [se(k, sigma(i), a.ring.one())]))),
    15: (4, lambda i, j, k, l: (i != j and k != l and i != sigma(k)
                                and i != l and j != k and j != sigma(l)),
         _bracket(lambda a, b, i, j, k, l: (se(i, j, a), se(k, l, b)))),
}

RELATION_IDS = tuple(_RELATIONS)


def _relation(rel_id):
    if rel_id not in RELATION_IDS:
        raise ValueError("unknown relation id %r" % (rel_id,))
    return _RELATIONS[rel_id]


def relation_sides(ring, rel_id, n, indices, a, b):
    """Build (lhs, rhs) generator words for one relation instance."""
    _arity, _cond, sides = _relation(rel_id)
    return tuple(GeneratorWord(ring, 2 * n, atoms) for atoms in
                 sides(ring.element(a), ring.element(b), *indices))


def admissible_indices(rel_id, n):
    """All index tuples satisfying the relation's side conditions."""
    arity, cond, _sides = _relation(rel_id)
    return [t for t in product(range(1, 2 * n + 1), repeat=arity) if cond(*t)]


def verify_relation(ring, rel_id, n, indices, a, b):
    """Evaluate one relation instance; report, never assert."""
    lhs, rhs = relation_sides(ring, rel_id, n, indices, a, b)
    return _report(rel_id, n, indices, lhs.eval() == rhs.eval())


def _report(rel_id, n, indices, holds):
    return {
        "relation-id": rel_id,
        "n": n,
        "indices": tuple(indices),
        "holds": holds,
        "corrected": rel_id in CORRECTIONS,
    }


def symbolic_ring():
    """Z[1/2][a, b]: generic ground ring for the whole table."""
    return PolyRing(Dyadic(), ("a", "b"))


def verify_relation_suite(n, ring=None, mode="symbolic", samples=20, seed=0):
    """Run every relation over every admissible index tuple.

    mode "symbolic": generic args a, b over Z[1/2][a,b] (ring ignored);
    mode "sampled": `samples` random arg pairs over `ring` per tuple.
    Sampled over Z/m (GF included), the instances' sides are built in
    drawing order as atom rows and, per block of ``_TABLE_ROWS``
    instances, the left sides are evaluated as one int64 atom table and
    the right sides as another, compared row by row; other rings, and a
    Z/m whose products overflow int64, evaluate each instance by
    ``verify_relation``.
    """
    if mode == "symbolic":
        ring, samples = symbolic_ring(), 1
        draw = lambda: (ring.var("a"), ring.var("b"))
    elif mode == "sampled":
        rng = random.Random(seed)
        draw = lambda: (ring.sample(rng), ring.sample(rng))
    else:
        raise ValueError("mode must be symbolic or sampled")
    cases = [(rel_id, idx) for rel_id in RELATION_IDS
             for idx in admissible_indices(rel_id, n) for _ in range(samples)]
    if mode == "symbolic" or not fits_table(ring):
        return [verify_relation(ring, rel_id, n, idx, *draw())
                for rel_id, idx in cases]
    holds = []
    for lo in range(0, len(cases), _TABLE_ROWS):
        sides = [[atom_rows(s) for s in _RELATIONS[rel_id][2](*draw(), *idx)]
                 for rel_id, idx in cases[lo:lo + _TABLE_ROWS]]
        lhs, rhs = (eval_table(word_table(words), 2 * n, ring.m, SYMPLECTIC)
                    for words in zip(*sides))
        holds += (lhs == rhs).all(axis=(1, 2)).tolist()
    return [_report(rel_id, n, idx, h) for (rel_id, idx), h in zip(cases, holds)]


def suite_summary(reports):
    total = len(reports)
    failed = [r for r in reports if not r["holds"]]
    return {"total": total, "failures": len(failed),
            "failing": [(r["relation-id"], r["indices"]) for r in failed[:20]]}
