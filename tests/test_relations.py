import hashlib
import json
import random

import pytest

from transvect import relations
from transvect.matrices import sigma
from transvect.relations import (CORRECTIONS, RELATION_IDS, admissible_indices,
                                 relation_sides, suite_summary, symbolic_ring,
                                 verify_relation, verify_relation_suite)
from transvect.rings import GF, Dyadic, Zmod
from transvect.words import GeneratorWord, commutator, se, word_to_json


def test_symbolic_suite_n2_all_pass():
    reports = verify_relation_suite(2, mode="symbolic")
    summary = suite_summary(reports)
    assert summary["failures"] == 0
    assert summary["total"] > 100


def test_sampled_suite_matches_symbolic():
    reports = verify_relation_suite(2, ring=Zmod(15), mode="sampled",
                                    samples=3, seed=5)
    assert suite_summary(reports)["failures"] == 0


def test_every_relation_has_admissible_tuples():
    for rel_id in RELATION_IDS:
        assert admissible_indices(rel_id, 2)


def test_printed_coefficient_fails_where_corrected():
    """The doubled cross-term coefficient does not verify: evaluating the
    displayed rhs of relation 7 with coefficient 2ab (instead of ab)
    breaks the identity, which is why the table carries a correction."""
    ring = symbolic_ring()
    a, b = ring.var("a"), ring.var("b")
    i, j = next(iter(admissible_indices(7, 2)))
    lhs, rhs = relation_sides(ring, 7, 2, (i, j), a, b)
    assert lhs.eval() == rhs.eval()
    printed = GeneratorWord(ring, 4, [
        se(i, sigma(i), (a * a * b if (i + j) % 2 == 0 else -(a * a * b))),
        se(i, sigma(j), (a * b) + (a * b))])
    assert lhs.eval() != printed.eval()
    assert 7 in CORRECTIONS


def test_relation_15_side_condition():
    """Commuting pairs need j != sigma(l); tuples with j == sigma(l) do
    not commute, so the printed condition j != sigma(k) is insufficient."""
    ring = symbolic_ring()
    a, b = ring.var("a"), ring.var("b")
    for (i, j, k, l) in admissible_indices(15, 2):
        assert j != sigma(l)
    # witness: a tuple passing "j != sigma(k)" but violating j != sigma(l)
    i, j, k, l = 1, 4, 1, 3
    assert j != sigma(k) and j == sigma(l)
    lhs = GeneratorWord(ring, 4, commutator([se(i, j, a)], [se(k, l, b)]))
    assert not lhs.eval().is_identity()


def test_verify_relation_reports_structure():
    ring = symbolic_ring()
    rep = verify_relation(ring, 10, 2, (1, 3), ring.var("a"), ring.var("b"))
    assert rep["holds"] and rep["relation-id"] == 10
    assert not rep["corrected"]
    assert sorted(rep) == ["corrected", "holds", "indices", "n", "relation-id"]


def test_relation_words_digest():
    """Pin every relation's word pair at n = 1, 2, 3, not just whether it
    holds: a change that alters a relation that still holds shows here."""
    ring = symbolic_ring()
    a, b = ring.var("a"), ring.var("b")
    h = hashlib.sha256()
    counts = {}
    for n in (1, 2, 3):
        counts[n] = []
        for rel_id in RELATION_IDS:
            tuples = admissible_indices(rel_id, n)
            counts[n].append(len(tuples))
            for t in tuples:
                lhs, rhs = relation_sides(ring, rel_id, n, t, a, b)
                h.update(json.dumps([rel_id, n, list(t), word_to_json(lhs),
                                     word_to_json(rhs)]).encode())
    assert counts[1] == [2, 2, 0, 0, 0, 0, 0, 0, 2, 2, 0, 2]
    assert counts[2] == [12, 12, 8, 8, 8, 8, 8, 8, 12, 12, 8, 60]
    assert sum(counts[2]) == 164
    assert counts[3] == [30, 30, 24, 24, 24, 24, 24, 24, 30, 30, 24, 462]
    assert h.hexdigest() == (
        "19c53887028f02494eea3138fae8344fa44d85d7b754f60e8fb082e4a90834d1")


# -- the sampled table path against the per-instance evaluation -----------


def _plant_wrong_rhs(monkeypatch):
    """Relation 10's builder gains se_ij(a) on its right side, so an
    instance holds only when a = 0: the suites must report failures
    where they occur."""
    arity, cond, sides = relations._RELATIONS[10]

    def planted(a, b, i, j):
        lhs, rhs = sides(a, b, i, j)
        return lhs, rhs + [se(i, j, a)]

    monkeypatch.setitem(relations._RELATIONS, 10, (arity, cond, planted))


@pytest.mark.parametrize("rows", [7, 128])
@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ring", [Zmod(9), Zmod(15), Zmod(27), GF(5)],
                         ids=str)
def test_sampled_table_suite_matches_verify_relation(ring, n, planted, rows,
                                                     monkeypatch):
    """Over Z/m the sampled suite evaluates one atom table per side and
    block of ``rows`` instances; it equals the list of per-instance
    ``verify_relation`` reports, drawn from the same seed, and leaves its
    generator in the same state."""
    monkeypatch.setattr(relations, "_TABLE_ROWS", rows)
    if planted:
        _plant_wrong_rhs(monkeypatch)
    samples = 2 if n < 3 else 1
    oracle = random.Random(4)
    want = [verify_relation(ring, rel_id, n, idx, ring.sample(oracle),
                            ring.sample(oracle))
            for rel_id in RELATION_IDS for idx in admissible_indices(rel_id, n)
            for _ in range(samples)]
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(relations.random, "Random", Recorded)
    got = verify_relation_suite(n, ring=ring, mode="sampled", samples=samples,
                                seed=4)
    assert got == want
    assert [r.getstate() for r in made] == [oracle.getstate()]
    assert any(not r["holds"] for r in got) == (planted and n > 1)


@pytest.mark.parametrize("mode,ring", [("symbolic", None),
                                       ("sampled", Dyadic()),
                                       ("sampled", Zmod(2 ** 33 + 1))],
                         ids=["symbolic", "dyadic", "zmod-2^33+1"])
def test_other_suites_never_evaluate_a_table(mode, ring, monkeypatch):
    """Symbolic mode, sampled rings other than Z/m, and a Z/m whose
    products overflow int64 keep the per-instance evaluation."""
    def no_table(*args):
        raise AssertionError("an atom table was evaluated")

    monkeypatch.setattr(relations, "eval_table", no_table)
    reports = verify_relation_suite(1, ring=ring, mode=mode, samples=2)
    assert reports and all(r["holds"] for r in reports)


@pytest.mark.parametrize("ring", [Zmod(9), GF(5)], ids=str)
def test_sampled_table_suite_builds_no_word(ring, monkeypatch):
    """Over Z/m the sampled suite turns the builders' atom lists into atom
    rows at once: no side is wrapped in a ``GeneratorWord``."""
    def no_word(*args):
        raise AssertionError("a GeneratorWord was built")

    monkeypatch.setattr(relations, "GeneratorWord", no_word)
    reports = verify_relation_suite(2, ring=ring, mode="sampled", samples=2)
    assert reports and all(r["holds"] for r in reports)
