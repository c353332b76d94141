import math
import random
import re
import tracemalloc
from functools import partial
from itertools import compress, cycle, permutations, product

import numpy as np
import pytest

from transvect import orbits
from transvect.orbits import (GroupSpec, check_dim0_transitivity,
                              check_orbit_equality, enumerate_unimodular,
                              generators_for, kernel_membership_test,
                              orbit_partition, square_ideal_inclusion_test,
                              subgroup_closure)
from transvect.matrices import sigma
from transvect import rewrite
from transvect.rewrite import conjugate_square_ideal, square_ideal_atoms
from transvect.rings import (GF, DescriptorError, Ideal, RingError, Zmod,
                             parse_ring)
from transvect.words import (LINEAR, SYMPLECTIC, GeneratorAtom, GeneratorWord,
                             atom_rows, conjugate, conjugation_triple,
                             eval_table, lin, se, word_table)


def test_unimodular_counts():
    assert len(enumerate_unimodular(Zmod(3), 2)) == 8
    assert len(enumerate_unimodular(Zmod(9), 4)) == 6480
    I = Ideal.principal(Zmod(9), 3)
    assert len(enumerate_unimodular(Zmod(9), 4, I)) == 81


def test_unimodular_budget():
    with pytest.raises(RingError):
        enumerate_unimodular(Zmod(9), 8, budget=10 ** 6)


def _word_array(word, m):
    """A word evaluated exactly by ``GeneratorWord.eval``, as an int64
    array mod m: the orbit functions take only integer arrays."""
    return np.array([[e.value for e in row] for row in word.eval().rows],
                    dtype=np.int64) % m


def test_generator_families():
    R = Zmod(3)
    lin_gens = generators_for(GroupSpec("linear-E", 2, R))
    assert len(lin_gens) == 2  # E_12(1), E_21(1)
    sp_gens = generators_for(GroupSpec("symplectic-ESp", 4, R))
    assert all(g.shape == (4, 4) for g in sp_gens)
    I = Ideal.principal(Zmod(9), 3)
    rel = generators_for(GroupSpec("symplectic-ESp-relative", 4, Zmod(9), I))
    assert rel  # deduplicated triple evaluations


def _full_range_triples(spec):
    """The relative generators with a over all of Z/m: each distinct
    evaluation of ge_ij(a) ge_ji(g) ge_ij(-a) in first-seen order,
    the identity left out."""
    ring, size, m = spec.ring, spec.size, spec.ring.m
    g = ring.element(spec.ideal.modulus())
    out, seen = [], set()
    for i, j in permutations(range(1, size + 1), 2):
        for a in range(m):
            word = GeneratorWord(ring, size, conjugation_triple(
                spec.group, i, j, ring.element(a), g))
            mat = _word_array(word, m)
            key = mat.tobytes()
            if key not in seen and not (mat == np.eye(size)).all():
                seen.add(key)
                out.append(mat)
    return out


@pytest.mark.parametrize("m,gen,size,family", [
    (9, 3, 4, "linear-E-relative"),
    (9, 3, 6, "symplectic-ESp-relative"),
    (15, 5, 3, "linear-E-relative"),
    (25, 5, 4, "symplectic-ESp-relative"),
    (27, 3, 4, "linear-E-relative"),
    (27, 9, 4, "symplectic-ESp-relative"),
    (45, 3, 4, "symplectic-ESp-relative"),
])
def test_relative_generators_need_a_only_mod_m_over_g(m, gen, size, family):
    """a < m/g lists the same triples, in the same order, as a < m."""
    ring = Zmod(m)
    spec = GroupSpec(family, size, ring, Ideal.principal(ring, gen))
    got = generators_for(spec)
    want = _full_range_triples(spec)
    assert len(got) == len(want) > 0
    assert all((a == b).all() for a, b in zip(got, want))


def _generators_by_loop(spec):
    """The former per-word ``generators_for``, kept as the oracle: each
    word built as a GeneratorWord and evaluated exactly, the identity
    and repeats left out, first occurrences in order."""
    ring, size, g = spec.ring, spec.size, spec.ideal.modulus()
    out, seen = [], set()

    def emit(atoms):
        mat = _word_array(GeneratorWord(ring, size, atoms), ring.m)
        if mat.tobytes() not in seen and not (mat == np.eye(size)).all():
            seen.add(mat.tobytes())
            out.append(mat)

    pairs = list(permutations(range(1, size + 1), 2))
    if spec.kind == "first-rowcol":
        for j in range(2, size + 1):
            emit([GeneratorAtom(spec.group, 1, j, ring.one())])
            if g:
                emit([GeneratorAtom(spec.group, j, 1, ring.element(g))])
    elif g == 1:
        for i, j in pairs:
            emit([GeneratorAtom(spec.group, i, j, ring.one())])
    elif g:
        for i, j in pairs:
            for a in range(ring.m // g):
                emit(conjugation_triple(spec.group, i, j, ring.element(a),
                                        ring.element(g)))
    return out


@pytest.mark.parametrize("family", sorted(orbits.FAMILIES))
@pytest.mark.parametrize("m", [3, 9, 15, 27])
def test_generators_match_the_per_word_loop(m, family):
    """The atom-table families against the per-word oracle, as ordered
    lists: sizes 1 to 6 (even ones for the symplectic families), and
    for the families that take one, the zero, every proper and the full
    ideal.  The symplectic families repeat matrices, and g = 0 leaves a
    relative family empty."""
    ring = Zmod(m)
    group, kind = orbits.FAMILIES[family]
    ideals = [None]
    if kind != "absolute":
        ideals = [Ideal.zero(ring), Ideal.full(ring)] + [
            Ideal.principal(ring, d) for d in range(2, m) if m % d == 0]
    step = 2 if group == SYMPLECTIC else 1
    for size in range(step, 7, step):
        for ideal in ideals:
            spec = GroupSpec(family, size, ring, ideal)
            got = generators_for(spec)
            want = _generators_by_loop(spec)
            assert isinstance(got, list) and len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == np.int64 and np.array_equal(a, b)
            if size == 1 or (kind == "relative" and not ideal.modulus()):
                assert got == []


# family -> (group, universe restricted to I)
SPEC_TABLE = {
    "linear-E": (LINEAR, False),
    "symplectic-ESp": (SYMPLECTIC, False),
    "linear-E-relative": (LINEAR, True),
    "symplectic-ESp-relative": (SYMPLECTIC, True),
    "first-rowcol-E1": (LINEAR, False),
    "first-rowcol-ESp1": (SYMPLECTIC, False),
}


@pytest.mark.parametrize("family", sorted(SPEC_TABLE))
def test_group_spec_decides_group_and_universe(family):
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    group, relative = SPEC_TABLE[family]
    spec = GroupSpec(family, 4, R, I)
    assert spec.group == group
    assert spec.universe_ideal is (I if relative else None)
    if group == SYMPLECTIC:
        with pytest.raises(DescriptorError):
            GroupSpec(family, 3, R, I)
    if family in ("linear-E", "symplectic-ESp"):
        assert spec.ideal.is_full() and GroupSpec(family, 4, R).ideal.is_full()
    else:
        with pytest.raises(DescriptorError):
            GroupSpec(family, 4, R)


def test_generators_are_int_arrays_and_words_raise():
    """Arrays, unreduced too, give the same partition and closure as
    the exact evaluations of the words; a word itself is refused, since
    the orbit functions take integer arrays only."""
    R = Zmod(5)
    words = [GeneratorWord(R, 2, [lin(1, 2, R.element(1))]),
             GeneratorWord(R, 2, [lin(2, 1, R.element(3))])]
    evaluated = [_word_array(w, 5) for w in words]
    arrays = [np.array([[1, 6], [0, -4]]), np.array([[1, 0], [8, 1]])]
    universe = enumerate_unimodular(R, 2)
    parts = [orbit_partition(universe, gens, ring=R)
             for gens in (evaluated, arrays)]
    assert parts[0].label_of == parts[1].label_of
    assert parts[0].orbit_count() == 1
    closures = [subgroup_closure(gens, R) for gens in (evaluated, arrays)]
    assert np.array_equal(closures[0], closures[1])
    assert len(closures[0]) == 120  # |SL_2(F_5)|
    chain = orbits.StabilizerChain(arrays, R)
    for call in (lambda: orbit_partition(universe, words, ring=R),
                 lambda: subgroup_closure(words, R),
                 lambda: chain.contains(words[0]),
                 lambda: parts[0].spot_check_closed(words, 5)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("ideal", [None, Ideal.principal(Zmod(9), 3),
                                   Ideal.zero(Zmod(9))])
def test_orbit_equality_enumerates_the_universe_once(ideal, monkeypatch):
    calls = []
    real_enumerate = orbits.enumerate_unimodular

    def counted(*args, **kwargs):
        calls.append(args)
        return real_enumerate(*args, **kwargs)
    monkeypatch.setattr(orbits, "enumerate_unimodular", counted)
    rep = check_orbit_equality(Zmod(9), 4, ideal)
    assert len(calls) == 1 and rep["equal"]


def test_kernel_membership_full_ideal_is_the_whole_group():
    """For I = R the normal closure of ESp(R, R) in ESp(R) is ESp(R)."""
    R = Zmod(3)
    rep = kernel_membership_test(R, 4, Ideal.full(R), samples=20)
    assert rep["ok"] and rep["closure_size"] == 51840  # |Sp_4(F_3)|


def test_full_ideal_samples_are_not_the_identity():
    """For I = R the sampled first-row/column words are not cancelled
    by a mirror: most are not the identity, and all lie in ESp(R)."""
    R = Zmod(3)
    full = Ideal.full(R)
    atoms = orbits._first_rowcol_atoms(4, 3, 1, random.Random(0), 50)
    mats = eval_table(atoms, 4, 3, SYMPLECTIC)
    moved = sum(not np.array_equal(mat, np.eye(4)) for mat in mats)
    assert moved >= 40
    rep = kernel_membership_test(R, 4, full, samples=50, seed=0)
    assert rep["ok"] and rep["members"] == 50
    assert rep["closure_size"] == 51840  # |Sp_4(F_3)|


def test_additive_reduction_gives_same_partition():
    """Single additive generator vs all ring elements: same orbits."""
    R = Zmod(5)
    universe = enumerate_unimodular(R, 2)
    reduced = generators_for(GroupSpec("linear-E", 2, R))
    full = []
    for i, j in ((1, 2), (2, 1)):
        for a in range(1, 5):
            full.append(_word_array(
                GeneratorWord(R, 2, [lin(i, j, R.element(a))]), 5))
    p1 = orbit_partition(universe, reduced, ring=R)
    p2 = orbit_partition(universe, full, ring=R)
    assert p1.same_partition(p2)


def test_empty_generators_give_singletons():
    R = Zmod(3)
    universe = enumerate_unimodular(R, 2)
    part = orbit_partition(universe, [], ring=R)
    assert part.orbit_count() == len(universe)


def test_partition_chunk_independent(monkeypatch):
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    universe = enumerate_unimodular(R, 4, I)
    gens = generators_for(GroupSpec("linear-E-relative", 4, R, I))
    p1 = orbit_partition(universe, gens, ring=R)
    monkeypatch.setattr(orbits, "CHUNK_ROWS", 7)
    p2 = orbit_partition(universe, gens, ring=R)
    assert p1.same_partition(p2)


def test_partition_keeps_the_enumerated_array():
    """The enumerated universe is read column-major in place: the
    partition holds that array, not a copy."""
    R = Zmod(9)
    universe = enumerate_unimodular(R, 4)
    part = orbit_partition(universe, generators_for(
        GroupSpec("linear-E", 4, R)), ring=R)
    assert np.shares_memory(part.universe, universe)


def test_sp4_f3_closure_order():
    R = Zmod(3)
    gens = generators_for(GroupSpec("symplectic-ESp", 4, R))
    closure = subgroup_closure(gens, R, cap=10 ** 6)
    assert len(closure) == 51840  # |Sp_4(F_3)|


def test_closure_cap_reported():
    R = Zmod(3)
    gens = generators_for(GroupSpec("symplectic-ESp", 4, R))
    with pytest.raises(RingError):
        subgroup_closure(gens, R, cap=100)


def test_orbit_equality_small():
    rep = check_orbit_equality(Zmod(3), 4)
    assert rep["equal"] and rep["linear_orbits"] == 1
    rep = check_orbit_equality(Zmod(9), 4, Ideal.principal(Zmod(9), 3))
    assert rep["equal"] and rep["universe_size"] == 81


def test_orbit_equality_trivial_ideal():
    rep = check_orbit_equality(Zmod(9), 4, Ideal.zero(Zmod(9)))
    assert rep["equal"]
    assert rep["linear_orbits"] == rep["universe_size"] == 1


def test_transitivity_reports():
    rep = check_dim0_transitivity(Zmod(9), 4, Ideal.principal(Zmod(9), 3))
    assert rep["transitive"] and rep["orbit_count"] == 1
    rep = check_dim0_transitivity(Zmod(9), 4)
    assert rep["transitive"] and rep["orbit_count"] == 1


def test_transitivity_full_universe():
    rep = check_dim0_transitivity(Zmod(9), 4, Ideal.principal(Zmod(9), 3),
                                  full_universe=True)
    assert rep["transitive"]
    assert rep["orbit_count"] == rep["congruence_classes"] == 80


def _classes_from_tuples(ring, size, ideal, full_universe):
    """The congruence-class count as the tuple rows give it: the set of
    rows reduced mod g, entry by entry."""
    spec = GroupSpec("linear-E-relative", size, ring, ideal)
    universe = enumerate_unimodular(
        ring, size, None if full_universe else spec.universe_ideal)
    g = ideal.modulus()
    if not g:
        return len(universe)
    return len({tuple(x % g for x in row) for row in universe.tolist()})


@pytest.mark.parametrize("full_universe", [False, True])
@pytest.mark.parametrize("m,size,gen", [
    (9, 4, "zero"), (9, 4, "full"), (9, 4, 3), (9, 2, 3), (15, 4, 5),
    (15, 2, 3), (27, 2, 3), (27, 2, 9), (45, 2, 15)])
def test_transitivity_classes_from_partition_keys(m, size, gen,
                                                  full_universe):
    ring = Zmod(m)
    ideal = (Ideal.principal(ring, gen) if isinstance(gen, int)
             else getattr(Ideal, gen)(ring))
    rep = check_dim0_transitivity(ring, size, ideal,
                                  full_universe=full_universe)
    classes = _classes_from_tuples(ring, size, ideal, full_universe)
    assert rep["congruence_classes"] == classes
    assert rep["transitive"] == (rep["orbit_count"] == classes)


def test_kernel_membership_sampled():
    rep = kernel_membership_test(Zmod(9), 4, Ideal.principal(Zmod(9), 3),
                                 samples=100, seed=7)
    assert rep["ok"] and rep["members"] == 100
    assert rep["closure_size"] == 3 ** 10  # mod-3 congruence kernel


def test_square_ideal_sampled():
    rep = square_ideal_inclusion_test(Zmod(9), 4, Ideal.principal(Zmod(9), 3),
                                      samples=60, seed=1)
    assert rep["ok"]
    assert rep["factored_members"] == rep["factored"] > 0


def test_square_ideal_odd_size_raises():
    """Symplectic atoms need an even size: the evaluator refuses an odd
    one with the word kernel's RingError, not an index error."""
    R = Zmod(9)
    with pytest.raises(RingError, match="symplectic atoms need even size"):
        square_ideal_inclusion_test(R, 3, Ideal.principal(R, 3), samples=5)


def test_spot_check_closed():
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    universe = enumerate_unimodular(R, 4, I)
    gens = generators_for(GroupSpec("symplectic-ESp-relative", 4, R, I))
    part = orbit_partition(universe, gens, ring=R)
    assert part.spot_check_closed(gens, R.m, trials=500, seed=3)


def test_spot_check_closed_image_outside_universe():
    """E(R) moves rows of Um(R, I) off the congruence class e_1 mod I:
    such an image escapes its orbit, so the check fails."""
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    universe = enumerate_unimodular(R, 4, I)
    part = orbit_partition(universe, generators_for(
        GroupSpec("symplectic-ESp-relative", 4, R, I)), ring=R)
    assert not part.spot_check_closed(
        generators_for(GroupSpec("linear-E", 4, R)), R.m)


# -- the array engine against the former per-row BFS -------------------


def _inverse_by_powers(g, m):
    eye = np.eye(len(g), dtype=np.int64)
    prev, cur = eye, g
    for _ in range(10 ** 5):
        if (cur == eye).all():
            return prev
        prev, cur = cur, (cur @ g) % m
    raise AssertionError("oracle: generator is not invertible")


def _bfs_labels(universe, generators, m):
    """The slow oracle: BFS from each unlabelled row under the
    generators and their inverses, one dict lookup per image; every
    row is labelled by the least row of its orbit."""
    universe = list(map(tuple, universe.tolist()))
    gens = []
    for g in generators:
        g = np.asarray(g) % m
        gens += [g, _inverse_by_powers(g, m)]
    index = set(universe)
    label = {}
    for start in universe:
        if start in label:
            continue
        members = [start]
        frontier = [start]
        label[start] = start
        while frontier:
            block = np.array(frontier, dtype=np.int64)
            frontier = []
            for g in gens:
                for img in (block @ g) % m:
                    key = tuple(int(x) for x in img)
                    assert key in index, "oracle: left the universe"
                    if key not in label:
                        label[key] = start
                        frontier.append(key)
            members.extend(frontier)
        rep = min(members)
        for row in members:
            label[row] = rep
    return label


def _assert_matches_oracle(universe, gens, ring):
    want = _bfs_labels(universe, gens, ring.m)
    for chunk in (1, 7, 4096):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbits, "CHUNK_ROWS", chunk)
            part = orbit_partition(universe, gens, ring=ring)
        assert part.label_of == want
        assert part.stats["multiplications"] == len(universe) * len(gens)
        assert part.stats["generators"] == len(gens)


# (m, size, family, ideal generator or None, universe restricted to I)
STRUCTURED = [
    (3, 3, "linear-E", None, False),
    (9, 3, "linear-E", None, False),
    (5, 4, "symplectic-ESp", None, False),
    (15, 2, "symplectic-ESp", None, False),
    (9, 4, "linear-E-relative", 3, True),
    (9, 3, "linear-E-relative", 3, False),
    (15, 3, "linear-E-relative", 5, False),
    (5, 3, "linear-E-relative", 1, True),
    (9, 3, "linear-E-relative", 0, True),
    (9, 4, "symplectic-ESp-relative", 3, True),
    (25, 4, "symplectic-ESp-relative", 5, True),
    (9, 4, "symplectic-ESp-relative", 3, False),
    (9, 3, "first-rowcol-E1", 3, False),
    (9, 4, "first-rowcol-ESp1", 3, False),
    (9, 4, "first-rowcol-ESp1", 0, False),
]


@pytest.mark.parametrize("m,size,family,gen,relative", STRUCTURED)
def test_partition_matches_bfs_oracle(m, size, family, gen, relative):
    ring = Zmod(m)
    ideal = None if gen is None else Ideal.principal(ring, gen)
    universe = enumerate_unimodular(ring, size, ideal if relative else None)
    gens = generators_for(GroupSpec(family, size, ring, ideal))
    _assert_matches_oracle(universe, gens, ring)


def _random_invertible(ring, size, rng):
    """A random unit diagonal times a random product of transvections."""
    m = ring.m
    units = [u for u in range(1, m) if np.gcd(u, m) == 1]
    g = np.diag([rng.choice(units) for _ in range(size)]).astype(np.int64)
    for _ in range(rng.randrange(4) if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        g[:, j] = (g[:, j] + rng.randrange(m) * g[:, i]) % m
    return g


@pytest.mark.parametrize("seed", range(12))
def test_random_generators_match_bfs_oracle(seed):
    rng = random.Random(seed)
    ring = Zmod(rng.choice([3, 5, 7, 9, 15, 25]))
    size = rng.choice([1, 2, 3] if ring.m < 15 else [1, 2])
    universe = enumerate_unimodular(ring, size)
    gens = [_random_invertible(ring, size, rng)
            for _ in range(rng.randrange(1, 4))]
    _assert_matches_oracle(universe, gens, ring)


# -- the early stop at the congruence-class bound ----------------------


def _assert_early_stop_matches(universe, gens, ring, ideal, classes):
    """Given ``ideal``, the partition equals the one that applies every
    generator, counts ``classes``, and stops, if it stops, right after
    the first generator at which its orbit count reaches them."""
    full = orbit_partition(universe, gens, ring)
    part = orbit_partition(universe, gens, ring, ideal)
    assert part.same_partition(full)
    assert part.orbit_count() == full.orbit_count()
    used = part.stats["generators_used"]
    assert part.stats["classes"] == classes
    assert part.stats["generators"] == len(gens)
    assert part.stats["multiplications"] == len(universe) * used
    if used < len(gens):
        assert part.orbit_count() == classes
        assert used == 0 or orbit_partition(
            universe, gens[:used - 1], ring).orbit_count() > classes
    return used


# the oracle's structured cases, and relative families over Z/27
EARLY_STOP_CASES = STRUCTURED + [
    (27, 4, "linear-E-relative", 3, True),
    (27, 4, "symplectic-ESp-relative", 3, True),
    (27, 2, "linear-E-relative", 3, False),
    (27, 2, "linear-E-relative", 9, False),
]


@pytest.mark.parametrize("m,size,family,gen,relative", EARLY_STOP_CASES)
def test_early_stop_matches_full_partition(m, size, family, gen, relative):
    """Each family's ideal, and on Um(R) the full ideal too: the
    universe is a union of whole classes mod either.  First-row/column
    generators are not = 1 mod a proper ideal, so they never stop."""
    ring = Zmod(m)
    ideal = None if gen is None else Ideal.principal(ring, gen)
    spec = GroupSpec(family, size, ring, ideal)
    universe = enumerate_unimodular(ring, size, ideal if relative else None)
    gens = generators_for(spec)
    for whole in [spec.ideal] + [Ideal.full(ring)] * (not relative):
        classes = _classes_from_tuples(ring, size, whole, not relative)
        used = _assert_early_stop_matches(universe, gens, ring, whole,
                                          classes)
        if spec.kind == "first-rowcol" and whole.modulus() != 1:
            assert used == len(gens)


@pytest.mark.parametrize("seed", range(12))
def test_early_stop_matches_full_partition_on_random_generators(seed):
    """The oracle's random invertible generators on Um(R), given R."""
    rng = random.Random(seed)
    ring = Zmod(rng.choice([3, 5, 7, 9, 15, 25]))
    size = rng.choice([1, 2, 3] if ring.m < 15 else [1, 2])
    universe = enumerate_unimodular(ring, size)
    gens = [_random_invertible(ring, size, rng)
            for _ in range(rng.randrange(1, 4))]
    _assert_early_stop_matches(universe, gens, ring, Ideal.full(ring), 1)


def test_early_stop_fires_on_the_orbits_workload():
    """Over Um(Z/27, (3)) at size 4 both relative families connect the
    universe after 20 of their generators."""
    ring = Zmod(27)
    ideal = Ideal.principal(ring, 3)
    universe = enumerate_unimodular(ring, 4, ideal)
    for family, given in (("linear-E-relative", 108),
                          ("symplectic-ESp-relative", 86)):
        gens = generators_for(GroupSpec(family, 4, ring, ideal))
        stats = orbit_partition(universe, gens, ring, ideal).stats
        assert (stats["generators_used"], stats["generators"]) == (20, given)


def test_generator_off_the_ideal_turns_the_early_stop_off():
    """An absolute E_12(1) is not = 1 mod (3).  Added last to the relative
    family over all of Um_3(Z/9), which alone stops at the 26 classes
    mod (3), it merges them: every generator is applied, and the
    partition is the oracle's, with fewer orbits than classes."""
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    universe = enumerate_unimodular(R, 3)
    gens = generators_for(GroupSpec("linear-E-relative", 3, R, I))
    alone = orbit_partition(universe, gens, R, I).stats
    assert alone["generators_used"] < len(gens) and alone["classes"] == 26
    gens.append(np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    part = orbit_partition(universe, gens, R, I)
    assert part.stats["generators_used"] == len(gens)
    assert part.label_of == _bfs_labels(universe, gens, 9)
    assert part.orbit_count() < part.stats["classes"]


@pytest.mark.parametrize("m,gen,family,singular", [
    (9, None, "linear-E", [1, 0, 0, 0]),
    (9, 3, "linear-E-relative", [1, 0, 0, 0]),
    (15, 5, "linear-E-relative", [1, 1, 1, 6]),
])
def test_late_singular_generator_still_raises(m, gen, family, singular):
    """A singular generator after a family that alone stops early raises
    today's message with the ideal given: diag(1, 0, 0, 0) has
    determinant 0, and is not = 1 mod (3); diag(1, 1, 1, 6) is = 1 mod (5)
    but its determinant is not a unit mod 15."""
    R = Zmod(m)
    I = Ideal.full(R) if gen is None else Ideal.principal(R, gen)
    spec = GroupSpec(family, 4, R, I)
    universe = enumerate_unimodular(R, 4, spec.universe_ideal)
    gens = generators_for(spec)
    assert orbit_partition(universe, gens, R, I).stats["generators_used"] \
        < len(gens)
    gens.append(np.diag(singular))
    with pytest.raises(RingError) as plain:
        orbit_partition(universe, gens, R)
    assert re.search("left the universe|not a permutation",
                     str(plain.value))
    with pytest.raises(RingError) as given:
        orbit_partition(universe, gens, R, I)
    assert str(given.value) == str(plain.value)


# -- the neighbour kernel against a direct (rows @ g) % m lookup ------


def _kernel(universe, g, m):
    """``orbits._neighbours`` on one generator, set up as in
    ``orbit_partition``, and the stats it counts."""
    cols = np.ascontiguousarray(universe.T)
    powers = orbits._key_powers(universe.shape[1], m)
    keys = powers @ cols
    find = orbits._lookup(keys, m ** universe.shape[1])
    stats = {"table_columns": 0, "row_columns": 0}
    nbr = orbits._neighbours(cols, keys, powers, g % m, m, find,
                             partial(orbits._digit_index, cols, m),
                             lambda k: np.indices((m,) * k).reshape(k, -1),
                             stats)
    return nbr, stats


def _assert_kernel_matches_lookup(universe, gens, m):
    """For every generator, at every block size: the neighbour array
    is the index of each row's image (rows @ g) % m among the sorted
    keys, and each changed column c counts as read from a table exactly
    when m**k <= rows, k the size of c's deps (c and the rows where
    g[:, c] is not the identity's column)."""
    powers = orbits._key_powers(universe.shape[1], m)
    keys = universe @ powers
    eye = np.eye(universe.shape[1], dtype=np.int64)
    for g in gens:
        want_keys = (universe @ g) % m @ powers
        want = np.searchsorted(keys, want_keys)
        assert (keys[want] == want_keys).all()
        moved = g % m != eye
        deps = (moved | (eye == 1)).sum(axis=0)[moved.any(axis=0)]
        table = sum(m ** int(k) <= len(universe) for k in deps)
        for chunk in (1, 7, 4096):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(orbits, "CHUNK_ROWS", chunk)
                nbr, stats = _kernel(universe, g, m)
            assert np.array_equal(nbr, want)
            assert stats == {"table_columns": table,
                             "row_columns": len(deps) - table}


@pytest.mark.parametrize("m,size,family,gen,relative", STRUCTURED)
def test_kernel_matches_direct_lookup_on_families(m, size, family, gen,
                                                  relative):
    ring = Zmod(m)
    ideal = None if gen is None else Ideal.principal(ring, gen)
    universe = enumerate_unimodular(ring, size, ideal if relative else None)
    gens = generators_for(GroupSpec(family, size, ring, ideal))
    _assert_kernel_matches_lookup(universe, gens, m)


def _dense_invertible(m, size, rng):
    """A random matrix over Z/m with a unit determinant and no zero off
    the diagonal, so every column depends on every digit."""
    while True:
        g = np.array([[rng.randrange(m) for _ in range(size)]
                      for _ in range(size)], dtype=np.int64)
        off = ~np.eye(size, dtype=bool)
        det = round(np.linalg.det(g.astype(float)))
        if (g[off] != 0).all() and math.gcd(det, m) == 1:
            return g


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_direct_lookup_on_dense_generators(seed):
    """|deps| = n for every column: m**n > rows on any Um_n(Z/m), so
    every column is evaluated on the rows."""
    rng = random.Random(seed)
    m, size = rng.choice([(3, 3), (5, 2), (5, 3), (7, 2), (9, 3), (15, 2)])
    universe = enumerate_unimodular(Zmod(m), size)
    gens = [_dense_invertible(m, size, rng) for _ in range(3)]
    _assert_kernel_matches_lookup(universe, gens, m)
    assert _kernel(universe, gens[0], m)[1] == {"table_columns": 0,
                                                "row_columns": size}


def test_kernel_switches_to_the_rows_past_the_row_count():
    """Um_2(Z/243, (81)) has 9 rows, fewer than the 243**2 digit pairs
    of a relative triple, which is evaluated on the rows; Um_2(Z/9, (3))
    also has 9 rows, as many as the digits of a one-digit column, which
    is read from a table."""
    ring = Zmod(243)
    universe = enumerate_unimodular(ring, 2, Ideal.principal(ring, 81))
    gens = generators_for(GroupSpec("linear-E-relative", 2, ring,
                                    Ideal.principal(ring, 81)))
    assert len(universe) == 9 and gens
    _assert_kernel_matches_lookup(universe, gens, 243)
    stats = orbit_partition(universe, gens, ring).stats
    assert stats["table_columns"] == 0 and stats["row_columns"] > 0
    ring = Zmod(9)
    universe = enumerate_unimodular(ring, 2, Ideal.principal(ring, 3))
    scale = np.diag([1, 2]).astype(np.int64)
    assert len(universe) == 9
    _assert_kernel_matches_lookup(universe, [scale], 9)
    stats = orbit_partition(universe, [scale], ring).stats
    assert stats["table_columns"] == 1 and stats["row_columns"] == 0


def test_generator_leaving_relative_universe_raises():
    R = Zmod(9)
    universe = enumerate_unimodular(R, 4, Ideal.principal(R, 3))
    gens = generators_for(GroupSpec("linear-E", 4, R))
    with pytest.raises(RingError, match="left the universe"):
        orbit_partition(universe, gens, ring=R)


def test_singular_generator_raises():
    R = Zmod(9)
    singular = np.diag([1, 0, 0, 0])
    # Rows = e_1 mod (3) map into the universe, but not one-to-one.
    relative = enumerate_unimodular(R, 4, Ideal.principal(R, 3))
    with pytest.raises(RingError, match="not a permutation"):
        orbit_partition(relative, [singular], ring=R)
    with pytest.raises(RingError, match="left the universe"):
        orbit_partition(enumerate_unimodular(R, 4), [singular], ring=R)


def test_malformed_universe_raises():
    R = Zmod(3)
    universe = enumerate_unimodular(R, 2)
    with pytest.raises(RingError):
        orbit_partition(universe[::-1], [], ring=R)
    with pytest.raises(RingError, match="overflow"):
        orbit_partition(np.array([[0, 1]]), [], ring=Zmod(3 ** 20))


def test_empty_universe_and_generators():
    R = Zmod(3)
    gens = generators_for(GroupSpec("linear-E", 2, R))
    for g in (gens, []):
        part = orbit_partition(np.empty((0, 2), dtype=np.int64), g, ring=R)
        assert part.label_of == {} and part.orbit_count() == 0
        assert part.stats["multiplications"] == 0
    part = orbit_partition(enumerate_unimodular(R, 2), [], ring=R)
    assert all(lab == row for row, lab in part.label_of.items())
    assert part.stats["frontier_sizes"] == []


def test_row_length_must_be_positive():
    with pytest.raises(RingError):
        enumerate_unimodular(Zmod(3), 0)


def test_orbit_equality_z7_size6():
    """Z/7 is a field, so E_6 and ESp_6 are both transitive on the
    7^6 - 1 nonzero rows."""
    rep = check_orbit_equality(Zmod(7), 6)
    assert rep["universe_size"] == 117648
    assert rep["linear_orbits"] == rep["symplectic_orbits"] == 1
    assert rep["equal"] and rep["closed"]


# -- the key-array closure against the former dict BFS -----------------


def _dict_closure(generators, conjugators, m):
    """The slow oracle: BFS over a dict of matrices keyed by their bytes,
    one lookup per image.  Returns the sorted base-m keys, computed with
    Python integers."""
    gens = [np.asarray(g, dtype=np.int64) % m for g in generators]
    conj = [(c, _inverse_by_powers(c, m))
            for c in (np.asarray(x, dtype=np.int64) % m for x in conjugators)]
    n = len(gens[0]) if gens else (len(conj[0][0]) if conj else 1)
    eye = np.eye(n, dtype=np.int64)
    elements = {eye.tobytes(): eye}
    frontier = [eye]
    while frontier:
        block = np.stack(frontier)
        frontier = []
        images = [(block @ g) % m for g in gens]
        images += [(c @ block @ cinv) % m for c, cinv in conj]
        for batch in images:
            for y in batch:
                if y.tobytes() not in elements:
                    elements[y.tobytes()] = y
                    frontier.append(y)
    keys = [sum(int(a) * m ** k for k, a in enumerate(reversed(x.ravel())))
            for x in elements.values()]
    return np.array(sorted(keys), dtype=np.int64)


def _closure_inputs(kind, m, size):
    """(generators, conjugators) for each closure the package computes."""
    R = Zmod(m)
    if kind in ("linear-E", "symplectic-ESp"):
        return generators_for(GroupSpec(kind, size, R)), []
    I = Ideal.principal(R, 3)
    if kind == "normal":  # kernel_membership_test
        return (generators_for(GroupSpec("symplectic-ESp-relative", size, R,
                                         I)),
                generators_for(GroupSpec("symplectic-ESp", size, R)))
    # square_ideal_inclusion_test: the atoms se_ij(3)
    return [_word_array(GeneratorWord(R, size, [se(i, j, R.element(3))]), m)
            for i, j in orbits._index_pairs(size)], []


@pytest.mark.parametrize("kind,m,size,order", [
    ("linear-E", 3, 2, 24),  # |SL_2(Z/3)|
    ("linear-E", 9, 2, 648),
    ("linear-E", 15, 2, 2880),
    ("symplectic-ESp", 3, 4, 51840),  # |Sp_4(F_3)|
    ("normal", 9, 4, 3 ** 10),  # the mod-3 congruence kernel
    ("square-ideal", 9, 4, 3 ** 8),
])
def test_closure_matches_dict_oracle(kind, m, size, order):
    gens, conj = _closure_inputs(kind, m, size)
    want = _dict_closure(gens, conj, m)
    assert len(want) == order
    # cap = order: a closure exactly at the cap is accepted
    closure = subgroup_closure(gens, Zmod(m), conjugators=conj, cap=order)
    assert closure.dtype == np.int64 and np.array_equal(closure, want)


def test_closure_one_over_the_cap_raises():
    gens = generators_for(GroupSpec("linear-E", 2, Zmod(9)))
    with pytest.raises(RingError, match="closure cap 647 exceeded"):
        subgroup_closure(gens, Zmod(9), cap=647)


def test_closure_keys_overflow_guard():
    """Keys of n x n matrices need m**(n*n) < 2**63: Z/15 fits at size
    4 (-I has key 6.1e18 > 2**62), Z/17 does not."""
    minus_one = -np.eye(4, dtype=np.int64)
    closure = subgroup_closure([minus_one], Zmod(15))
    assert np.array_equal(closure, _dict_closure([minus_one], [], 15))
    assert closure[-1] > 2 ** 62
    with pytest.raises(RingError, match="overflow"):
        subgroup_closure([minus_one], Zmod(17))
    gens = generators_for(GroupSpec("symplectic-ESp", 4, Zmod(17)))
    with pytest.raises(RingError, match="overflow"):
        subgroup_closure(gens, Zmod(17))


def test_closure_of_conjugators_alone_is_trivial():
    R = Zmod(3)
    conj = generators_for(GroupSpec("symplectic-ESp", 4, R))
    closure = subgroup_closure([], R, conjugators=conj)
    assert np.array_equal(closure, _dict_closure([], conj, 3))
    assert len(closure) == 1
    minus_one = -np.eye(4, dtype=np.int64)  # central: conjugation fixes it
    closure = subgroup_closure([minus_one], R, conjugators=conj)
    assert np.array_equal(closure, _dict_closure([minus_one], conj, 3))
    assert len(closure) == 2


# -- the stabilizer chain ----------------------------------------------


def _normal_closure_inputs(m, size, p):
    R = Zmod(m)
    return (generators_for(GroupSpec("symplectic-ESp-relative", size, R,
                                     Ideal.principal(R, p))),
            generators_for(GroupSpec("symplectic-ESp", size, R)))


@pytest.mark.parametrize("p,k,size", [(3, 2, 4), (5, 2, 4), (3, 2, 6)])
def test_chain_order_is_the_congruence_kernel_order(p, k, size):
    """ESp(Z/p^k, (p)) is the mod-p congruence kernel of Sp_2r(Z/p^k),
    of order p^((k-1) r(2r+1)) for size 2r: an oracle that does not
    depend on any closure engine."""
    r = size // 2
    rel, conj = _normal_closure_inputs(p ** k, size, p)
    chain = orbits.StabilizerChain(rel, Zmod(p ** k), conjugators=conj,
                                   cap=10 ** 12)
    assert chain.order() == p ** ((k - 1) * r * (2 * r + 1))
    R = Zmod(p ** k)
    assert chain.order() == orbits.symplectic_kernel_order(
        size, R, Ideal.principal(R, p))


def test_chain_cap_is_a_bound_on_the_group_order():
    rel, conj = _normal_closure_inputs(9, 4, 3)
    chain = orbits.StabilizerChain(rel, Zmod(9), conjugators=conj,
                                   cap=3 ** 10)
    assert chain.order() == 3 ** 10
    with pytest.raises(RingError, match="closure cap 59048 exceeded"):
        orbits.StabilizerChain(rel, Zmod(9), conjugators=conj,
                               cap=3 ** 10 - 1)


def test_chain_membership_matches_dict_oracle():
    """Random products of ESp(Z/9) generators, sifted through the chain
    of the mod-3 congruence kernel and looked up in the dict BFS.  Some
    products are then multiplied by the linear E_13(3): = I mod 3 but
    not symplectic, so only the lower levels of the chain reject it."""
    m = 9
    rel, conj = _normal_closure_inputs(m, 4, 3)
    want = set(_dict_closure(rel, conj, m).tolist())
    chain = orbits.StabilizerChain(rel, Zmod(m), conjugators=conj)
    e13 = _word_array(GeneratorWord(Zmod(m), 4, [lin(1, 3, 3)]), m)
    rng = random.Random(11)
    verdicts = []
    for _ in range(2000):
        # half the samples use exponents in 3Z, which land in the kernel
        step = rng.choice([1, 3])
        x = np.eye(4, dtype=np.int64)
        for _ in range(rng.randrange(1, 7)):
            g = np.linalg.matrix_power(rng.choice(conj),
                                       step * rng.randrange(9 // step))
            x = (x @ g) % m
        if rng.randrange(5) == 0:
            x = (x @ e13) % m
        key = sum(int(a) * m ** k for k, a in enumerate(reversed(x.ravel())))
        assert chain.contains(x) == (key in want)
        verdicts.append(key in want)
    assert 400 <= sum(verdicts) <= 1600


def _assert_members_match_sift(chain, block):
    """``members`` on a block against the per-matrix ``_sift`` of the
    build; returns the verdicts."""
    want = [chain._sift(np.asarray(x, dtype=np.int64) % chain.m, 0) is None
            for x in block]
    got = chain.members(block)
    assert got.dtype == bool and got.shape == (len(block),)
    assert got.tolist() == want
    return want


def _last_row_changed(block, m, rng):
    """z @ x for each x of the block, z the identity with, on a coin, a
    random last row: row i of z @ x is row i of x for i < n - 1, so the
    block sifts as before down to the last level, where it may be
    rejected."""
    n = block.shape[1]
    z = np.tile(np.eye(n, dtype=np.int64), (len(block), 1, 1))
    coin = rng.integers(0, 2, len(block)).astype(bool)
    z[coin, -1] = rng.integers(0, m, (coin.sum(), n))
    return z @ block % m


@pytest.mark.parametrize("m,p,samples,cap", [(9, 3, 1000, 10 ** 6),
                                             (25, 5, 300, 10 ** 7)])
def test_chain_members_match_the_per_matrix_sift(m, p, samples, cap):
    """The kernel-test chain of ESp(Z/m, (p)) on its own sample block, on
    uniform random matrices and on samples whose last row is changed,
    which only the last level can reject."""
    rel, conj = _normal_closure_inputs(m, 4, p)
    chain = orbits.StabilizerChain(rel, Zmod(m), conjugators=conj, cap=cap)
    drawn = next(orbits._first_rowcol_samples(4, m, p, random.Random(0),
                                              samples))
    rng = np.random.default_rng(m)
    block = np.concatenate([drawn, rng.integers(0, m, (500, 4, 4)),
                            _last_row_changed(drawn[:500], m, rng)])
    want = _assert_members_match_sift(chain, block)
    assert all(want[:samples]) and not any(want[samples:samples + 500])
    assert 0 < sum(want[samples + 500:]) < 500
    for x, w in zip(block[::97], want[::97]):
        assert chain.contains(x) is w


def test_chain_members_over_keys_that_overflow_base_m():
    """The square-ideal-test chain over Z/100003 with the zero ideal is
    the trivial group, and m**4 > 2**63, so its rows have no base-m int64
    key; raw-byte keys take every row, the identity, random matrices and
    negative entries read mod m."""
    m = 100003
    R = Zmod(m)
    gens = word_table([[(i, j, 0)] for i, j in orbits._index_pairs(4)])
    chain = orbits.StabilizerChain(eval_table(gens, 4, m, SYMPLECTIC), R)
    assert chain.order() == 1
    with pytest.raises(RingError, match="overflow int64 keys"):
        orbits._key_powers(4, m)
    rng = np.random.default_rng(1)
    eye = np.eye(4, dtype=np.int64)
    block = np.concatenate([np.tile(eye, (3, 1, 1)), eye[None] - m,
                            rng.integers(0, m, (200, 4, 4)),
                            _last_row_changed(np.tile(eye, (50, 1, 1)), m,
                                              rng)])
    assert _assert_members_match_sift(chain, block)[:4] == [True] * 4


def test_chain_members_of_an_empty_block():
    rel, conj = _normal_closure_inputs(9, 4, 3)
    chain = orbits.StabilizerChain(rel, Zmod(9), conjugators=conj)
    got = chain.members(np.zeros((0, 4, 4), dtype=np.int64))
    assert got.dtype == bool and got.shape == (0,)


def test_chain_rejects_a_long_root_outside_the_kernel():
    R = Zmod(25)
    rel, conj = _normal_closure_inputs(25, 4, 5)
    chain = orbits.StabilizerChain(rel, R, conjugators=conj, cap=10 ** 7)
    assert not chain.contains(
        _word_array(GeneratorWord(R, 4, [se(1, 2, R.element(1))]), 25))
    assert chain.contains(
        _word_array(GeneratorWord(R, 4, [se(1, 2, R.element(5))]), 25))


# -- the kernel chain's stop at the closed-form order of Sp(R, I) -------


def _kernel_chain_inputs(desc, gen, size):
    """The ring, the ideal (gen), the relative triples and the ESp
    conjugators of a kernel-test chain."""
    R = parse_ring(desc)
    I = Ideal.principal(R, gen)
    return (R, I,
            generators_for(GroupSpec("symplectic-ESp-relative", size, R, I)),
            generators_for(GroupSpec("symplectic-ESp", size, R)))


def _no_full_build(monkeypatch):
    """Make the Schreier-Sims build raise: a chain built afterwards must
    have stopped at its closed-form order."""
    def full_build(*args):
        raise AssertionError("the chain fell back to the full build")
    monkeypatch.setattr(orbits.StabilizerChain, "_build", full_build)


_BOUND_CASES = [(desc, gen, size)
                for desc, gens in [("zmod:9", (1, 0, 3, 4)),
                                   ("zmod:15", (1, 0, 3, 5)),
                                   ("zmod:25", (1, 0, 5)),
                                   ("zmod:27", (1, 0, 3, 9, 6)),
                                   ("zmod:45", (1, 0, 3, 5, 9, 15)),
                                   ("gf:5", (1, 0))]
                for gen in gens for size in (2, 4, 6)]


@pytest.mark.parametrize("desc,gen,size", _BOUND_CASES)
def test_symplectic_kernel_order_is_the_full_chain_order(desc, gen, size):
    """The closed-form |Sp(R, I)| equals the order of the full
    Schreier-Sims chain of ESp(R, I), built without the ideal, in every
    case of order at most 10**7, and the chain given I has that order
    too.  The ideals 4 over Z/9 and 6 over Z/27 are R and (3) written
    with another generator.  Past the cap both chains run the full build
    and stop with one cap message."""
    R, I, rel, conj = _kernel_chain_inputs(desc, gen, size)
    bound = orbits.symplectic_kernel_order(size, R, I)
    if bound <= 10 ** 7:
        full = orbits.StabilizerChain(rel, R, conjugators=conj, cap=10 ** 7)
        assert full.order() == bound
        chain = orbits.StabilizerChain(rel, R, conjugators=conj,
                                       cap=10 ** 7, ideal=I)
        assert chain.order() == bound
        return
    messages = set()
    for ideal in (None, I):
        with pytest.raises(RingError, match="closure cap 1000 exceeded") \
                as err:
            orbits.StabilizerChain(rel, R, conjugators=conj, cap=10 ** 3,
                                   ideal=ideal)
        messages.add(str(err.value))
    assert len(messages) == 1


def test_symplectic_kernel_order_independent_constants():
    """|Sp_4(F_3)| = 51,840 (Z/15 with (5)), |Sp_4(F_5)| = 9,360,000,
    |SL_2(Z/9)| = 648, the trivial group for the zero ideal, and the
    level-j congruence kernels p^((k-j) n(2n+1)) of Sp_2n(Z/p^k)."""
    order = orbits.symplectic_kernel_order
    R = Zmod(15)
    assert order(4, R, Ideal.principal(R, 5)) == 51840
    assert order(4, GF(5), Ideal.full(GF(5))) == 9360000
    assert order(2, Zmod(9), Ideal.full(Zmod(9))) == 648
    assert order(6, Zmod(45), Ideal.zero(Zmod(45))) == 1
    R = Zmod(3 ** 5)
    for j in range(1, 6):
        assert order(6, R, Ideal.principal(R, 3 ** j)) == 3 ** ((5 - j) * 21)


_STOP_CASES = [("zmod:9", 1, 2), ("zmod:9", 3, 2), ("zmod:5", 1, 2),
               ("zmod:15", 1, 2), ("zmod:45", 3, 2), ("zmod:9", 1, 4),
               ("zmod:9", 3, 4), ("zmod:5", 1, 4), ("zmod:7", 1, 4),
               ("zmod:15", 5, 4), ("zmod:25", 5, 4), ("zmod:27", 3, 4),
               ("zmod:27", 9, 4), ("zmod:9", 3, 6), ("zmod:15", 5, 6),
               ("zmod:27", 9, 6), ("zmod:9", 0, 6)]


@pytest.mark.parametrize("desc,gen,size", _STOP_CASES)
def test_kernel_chain_stops_at_the_bound(desc, gen, size, monkeypatch):
    """The level orbits of the relative triples alone reach |Sp(R, I)|,
    with the cap at that order: no Schreier generator and no conjugate
    is sifted."""
    R, I, rel, conj = _kernel_chain_inputs(desc, gen, size)
    bound = orbits.symplectic_kernel_order(size, R, I)
    _no_full_build(monkeypatch)
    chain = orbits.StabilizerChain(rel, R, conjugators=conj, cap=bound,
                                   ideal=I)
    assert chain.order() == bound


def _random_products(gens, conj, m, rng, count):
    """Products of 1..6 random conjugates c s c^-1, s a generator and c
    a conjugator or the identity: members of the normal closure."""
    n = len(gens[0])
    conj = [(np.eye(n, dtype=np.int64),) * 2] + [
        (c, _inverse_by_powers(c, m)) for c in conj]
    out = []
    for _ in range(count):
        x = np.eye(n, dtype=np.int64)
        for _ in range(rng.randrange(1, 7)):
            c, c_inv = rng.choice(conj)
            x = x @ c % m @ gens[rng.randrange(len(gens))] % m @ c_inv % m
        out.append(x)
    return np.array(out)


def _shifted(block, shift, m, rng):
    """Each matrix with one random entry raised by ``shift``: still = 1
    mod I for shift in I, but as a rule no longer symplectic."""
    out = block.copy()
    for x in out:
        x[rng.randrange(len(x)), rng.randrange(len(x))] += shift
    return out % m


_MEMBER_CASES = [("zmod:9", 3, 4, 10 ** 6), ("zmod:25", 5, 4, 10 ** 7),
                 ("zmod:15", 5, 4, 10 ** 6), ("zmod:27", 9, 4, 10 ** 6),
                 ("zmod:45", 15, 4, 10 ** 6), ("gf:5", 1, 4, 10 ** 7),
                 ("zmod:15", 3, 4, 10 ** 7), ("zmod:45", 3, 2, 10 ** 6),
                 ("zmod:9", 3, 6, 10 ** 11)]


@pytest.mark.parametrize("desc,gen,size,cap", _MEMBER_CASES)
def test_stopped_chain_members_match_the_full_chain(desc, gen, size, cap,
                                                    monkeypatch):
    """The chain that stops at |Sp(R, I)| against the full Schreier-Sims
    chain, never against itself: the same orbit at every level, and the
    same verdicts on kernel-test sample blocks, random products of
    conjugated generators, uniform matrices and samples with one entry
    shifted by the ideal's generator."""
    R, I, rel, conj = _kernel_chain_inputs(desc, gen, size)
    m = R.m
    full = orbits.StabilizerChain(rel, R, conjugators=conj, cap=cap)
    _no_full_build(monkeypatch)
    chain = orbits.StabilizerChain(rel, R, conjugators=conj, cap=cap,
                                   ideal=I)
    assert chain.order() == full.order()
    assert [set(t) for t in chain._trans] == [set(t) for t in full._trans]
    rng, nprng = random.Random(m * size + gen), np.random.default_rng(gen)
    drawn = np.concatenate(list(orbits._first_rowcol_samples(
        size, m, I.modulus(), rng, 300)))
    block = np.concatenate([
        drawn, _random_products(rel, conj, m, rng, 200),
        nprng.integers(0, m, (300, size, size)),
        _shifted(drawn, I.modulus(), m, rng)])
    want = full.members(block)
    assert want[:500].all() and not want[500:800].any()
    assert not want[800:].all()
    assert chain.members(block).tolist() == want.tolist()


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_level_orbits_do_not_depend_on_the_block_size(chunk, monkeypatch):
    """The breadth-first search finds the same rows in the same order,
    with the same u, whatever its block of products (one frontier row
    per block at 1), so no block is skipped; and its level orbits are
    the full chain's."""
    R, I, rel, conj = _kernel_chain_inputs("zmod:25", 5, 4)

    def levels(chain):
        return [[(key, u.tobytes()) for key, (u, _) in trans.items()]
                for trans in chain._trans]
    full = orbits.StabilizerChain(rel, R, conjugators=conj, cap=10 ** 7)
    default = orbits.StabilizerChain(rel, R, conjugators=conj,
                                     cap=10 ** 7, ideal=I)
    monkeypatch.setattr(orbits, "CHUNK_ROWS", chunk)
    _no_full_build(monkeypatch)
    chain = orbits.StabilizerChain(rel, R, conjugators=conj, cap=10 ** 7,
                                   ideal=I)
    assert levels(chain) == levels(default)
    assert [set(t) for t in chain._trans] == [set(t) for t in full._trans]


def test_chain_off_the_symplectic_kernel_runs_the_full_build():
    """Given I, a chain whose group may leave Sp(R, I) is the full
    build's: a generator = 1 mod I that is not symplectic (E_13(3)) and
    a symplectic generator not = 1 mod I (se_12(1)) each give a group of
    order 3**11 over Z/9 with (3), and a conjugator that is not
    symplectic gives a normal closure past the cap, with the full
    build's message."""
    R, I, rel, conj = _kernel_chain_inputs("zmod:9", 3, 4)

    def word(atom):
        return _word_array(GeneratorWord(R, 4, [atom]), 9)
    for extra in (word(lin(1, 3, 3)), word(se(1, 2, 1))):
        gens = rel + [extra]
        full = orbits.StabilizerChain(gens, R)
        chain = orbits.StabilizerChain(gens, R, ideal=I)
        assert chain.order() == full.order() == 3 ** 11
        block = np.concatenate([[extra], _random_products(
            gens, [], 9, random.Random(1), 100)])
        assert chain.members(block).all()
    messages = set()
    for ideal in (None, I):
        with pytest.raises(RingError, match="closure cap 100000 exceeded") \
                as err:
            orbits.StabilizerChain(rel, R, cap=10 ** 5, ideal=ideal,
                                   conjugators=conj + [word(lin(1, 3, 1))])
        messages.add(str(err.value))
    assert len(messages) == 1


def test_chain_order_past_the_bound_raises(monkeypatch):
    """A bound below the product of the level orbits disproves the
    formula: RingError, not a chain."""
    monkeypatch.setattr(orbits, "symplectic_kernel_order",
                        lambda size, ring, ideal: 3 ** 9)
    R, I, rel, conj = _kernel_chain_inputs("zmod:9", 3, 4)
    with pytest.raises(RingError, match="chain order 59049 exceeds"):
        orbits.StabilizerChain(rel, R, conjugators=conj, ideal=I)


# -- the fast paths of the orbit engine against the slow oracles -------


@pytest.mark.parametrize("m,size,family,gen,relative", STRUCTURED)
def test_searchsorted_lookup_matches_bfs_oracle(m, size, family, gen,
                                                relative, monkeypatch):
    """With the table bound at 0 every image is found by searchsorted."""
    monkeypatch.setattr(orbits, "_TABLE_SLOTS", 0)
    test_partition_matches_bfs_oracle(m, size, family, gen, relative)


@pytest.mark.parametrize("seed", range(12))
def test_searchsorted_lookup_random_generators(seed, monkeypatch):
    monkeypatch.setattr(orbits, "_TABLE_SLOTS", 0)
    test_random_generators_match_bfs_oracle(seed)


def test_searchsorted_lookup_keeps_the_errors(monkeypatch):
    monkeypatch.setattr(orbits, "_TABLE_SLOTS", 0)
    test_generator_leaving_relative_universe_raises()
    test_singular_generator_raises()


def test_sparse_universe_allocates_no_table():
    """Um_8(Z/9, (3)) has 6,561 rows among 9**8 keys: a table of the
    key space would take 172 MB, so the partition looks images up by
    searchsorted and its peak stays far below that."""
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    universe = enumerate_unimodular(R, 8, I)
    gens = generators_for(GroupSpec("linear-E-relative", 8, R, I))
    tracemalloc.start()
    try:
        part = orbit_partition(universe, gens, ring=R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.orbit_count() == 1
    assert peak < 16 * 2 ** 20


def test_generator_of_another_size_raises():
    """Images come from the columns a generator changes, so a generator
    smaller than the rows must be refused, not read as a corner."""
    R = Zmod(3)
    universe = enumerate_unimodular(R, 3)
    for size in (2, 4):
        gens = generators_for(GroupSpec("linear-E", size, R))
        with pytest.raises(ValueError, match="generators must be 3 x 3"):
            orbit_partition(universe, gens, ring=R)


def _enumerate_by_loop(ring, n, ideal=None):
    """The former per-row enumeration, kept as the oracle: every
    candidate from itertools.product, its gcd with m by math.gcd, then
    a sort."""
    m = ring.m
    g = 1 if ideal is None else ideal.modulus()
    if g == 0:
        return [tuple([1] + [0] * (n - 1))]
    coords = range(0, m, g)
    rows = []
    for tail in product(coords, repeat=n - 1):
        for lead in coords:
            row = ((1 + lead) % m,) + tail
            acc = m
            for x in row:
                acc = math.gcd(acc, x)
            if acc == 1:
                rows.append(row)
    rows.sort()
    return rows


@pytest.mark.parametrize("m,n,ideal", [
    (9, 1, None), (9, 1, 3), (15, 1, 5), (9, 3, "zero"), (9, 3, "full"),
    (15, 4, 5), (15, 3, 3), (27, 4, 3), (27, 3, 9), (45, 3, 15), (9, 6, None),
    (9, 6, 3), (7, 2, None),
])
def test_enumeration_matches_product_loop(m, n, ideal):
    ring = Zmod(m)
    if ideal == "zero":
        ideal = Ideal.zero(ring)
    elif ideal == "full":
        ideal = Ideal.full(ring)
    elif ideal is not None:
        ideal = Ideal.principal(ring, ideal)
    got = enumerate_unimodular(ring, n, ideal)
    want = _enumerate_by_loop(ring, n, ideal)
    assert got.dtype == np.int64 and got.shape == (len(want), n)
    assert got.T.flags.c_contiguous
    assert list(map(tuple, got.tolist())) == want


def _spot_check_by_loop(universe, label, generators, m, trials, seed):
    """The former per-pair closedness check, on the BFS oracle's labels."""
    rng = random.Random(seed)
    universe = list(map(tuple, universe.tolist()))
    if not universe or not generators:
        return True
    for _ in range(trials):
        row = universe[rng.randrange(len(universe))]
        g = generators[rng.randrange(len(generators))]
        img = tuple(int(x) for x in (np.array(row) @ g) % m)
        if label.get(img) != label[row]:
            return False
    return True


def test_spot_check_closed_matches_per_pair_loop():
    """Closed, partly closed (a partition under four of the generators)
    and escaping cases, at several trial counts and seeds: the batched
    check agrees with the per-pair loop, and both verdicts occur."""
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    full = enumerate_unimodular(R, 3)
    rel = enumerate_unimodular(R, 3, I)
    erel = generators_for(GroupSpec("linear-E-relative", 3, R, I))
    e = generators_for(GroupSpec("linear-E", 3, R))
    verdicts = set()
    for universe, gens, checked in [(full, erel, erel), (full, erel[:4], erel),
                                    (full, [], e), (rel, erel, e),
                                    (rel, erel, [])]:
        part = orbit_partition(universe, gens, ring=R)
        label = _bfs_labels(universe, gens, 9)
        for trials in (0, 1, 4, 1000):
            for seed in range(8):
                want = _spot_check_by_loop(universe, label, checked, 9,
                                           trials, seed)
                assert part.spot_check_closed(checked, 9, trials, seed) \
                    == want
                verdicts.add(want)
    assert verdicts == {True, False}


def _random_first_rowcol_word(ring, size, ideal, rng):
    """The former per-word sample draw, kept as the oracle: six atoms,
    first-row (free args) or first-column (args in I), composed with
    their mod-I mirror unless I = R."""
    g = ideal.modulus()
    m = ring.m
    atoms = []
    for _ in range(6):
        j = rng.randrange(2, size + 1)
        if rng.randrange(2) and g:
            atoms.append(se(j, 1, ring.element(g * rng.randrange(m))))
        else:
            atoms.append(se(1, j, ring.element(rng.randrange(m))))
    if g == 1:
        return GeneratorWord(ring, size, atoms)
    mirror = []
    for a in reversed(atoms):
        rep = a.arg.value % (g or m)
        mirror.append(se(a.i, a.j, ring.element(-rep)))
    return GeneratorWord(ring, size, atoms + mirror)


def _exact(ring, size, atoms, family=SYMPLECTIC):
    """The word of each atom row, evaluated by ``GeneratorWord.eval``."""
    words = [GeneratorWord(ring, size, [GeneratorAtom(family, i, j, z)
                                        for i, j, z in row])
             for row in atoms.tolist()]
    return np.array([_word_array(w, ring.m) for w in words],
                    dtype=np.int64).reshape(len(atoms), size, size)


_SAMPLE_CASES = [(m, size, g) for m, gs in [(3, (0, 1)), (9, (0, 1, 3)),
                                            (15, (0, 1, 3, 5)),
                                            (25, (0, 1, 5)),
                                            (27, (0, 1, 3, 9))]
                 for size in (2, 4, 6) for g in gs]


@pytest.mark.parametrize("m,size,g", _SAMPLE_CASES)
def test_block_draw_matches_the_word_draw(m, size, g):
    """The block draw gives the oracle's atoms, word by word, and leaves
    the Random in the same state."""
    ring = Zmod(m)
    ideal = Ideal.principal(ring, g)
    block, loop = random.Random(m * size + g), random.Random(m * size + g)
    atoms = orbits._first_rowcol_atoms(size, m, g, block, 40)
    assert atoms.dtype == np.int64
    assert atoms.shape == (40, 6 if g == 1 else 12, 3)
    for row in atoms:
        word = _random_first_rowcol_word(ring, size, ideal, loop)
        assert [(a.i, a.j, a.arg.value) for a in word.atoms] == \
            [tuple(atom) for atom in row.tolist()]
    assert block.getstate() == loop.getstate()
    assert orbits._first_rowcol_atoms(size, m, g, block, 0).shape[0] == 0
    assert block.getstate() == loop.getstate()


def _random_atom_table(rng, count, length, size, m):
    """Atoms at every (i, j), i != j, long and short roots alike for the
    symplectic family; about one argument in four is zero."""
    pairs = [(i, j) for i in range(1, size + 1)
             for j in range(1, size + 1) if i != j]
    table = np.empty((count, length, 3), dtype=np.int64)
    for row in table:
        for atom in row:
            i, j = pairs[rng.randrange(len(pairs))]
            z = 0 if rng.randrange(4) == 0 else rng.randrange(m)
            atom[:] = (i, j, z)
    return table


@pytest.mark.parametrize("m", [3, 9, 15, 25, 27])
@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_atom_block_evaluation_matches_word_eval(m, size):
    """The batched evaluator against ``GeneratorWord.eval`` on random
    atom tables of each family, linear ones at the odd size ``size + 1``
    too: every root shape, zero arguments, words of 1, 6 and 12 atoms, a
    table of no words, and words of unequal length padded with
    zero-argument atoms into one table."""
    ring = Zmod(m)
    rng = random.Random(100 * m + size)
    for family, n in ((SYMPLECTIC, size), (LINEAR, size), (LINEAR, size + 1)):
        long_roots = short_roots = zeros = 0
        for length in (1, 6, 12):
            atoms = _random_atom_table(rng, 25, length, n, m)
            got = eval_table(atoms, n, m, family)
            assert got.dtype == np.int64 and got.shape == (25, n, n)
            assert np.array_equal(got, _exact(ring, n, atoms, family))
            i, j, z = atoms.reshape(-1, 3).T
            long_roots += np.count_nonzero(i == (j - 1 ^ 1) + 1)
            short_roots += np.count_nonzero(i != (j - 1 ^ 1) + 1)
            zeros += np.count_nonzero(z == 0)
        assert long_roots and zeros and bool(short_roots) == (n > 2)
        assert eval_table(atoms[:0], n, m, family).shape == (0, n, n)
        words = [row[:rng.randrange(1, 13)].tolist() for row in atoms]
        padded = word_table(words)
        assert padded.shape == (25, max(map(len, words)), 3)
        want = [_word_array(GeneratorWord(ring, n, [
            GeneratorAtom(family, i, j, z) for i, j, z in w]), m)
            for w in words]
        assert np.array_equal(eval_table(padded, n, m, family), want)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("m,size,g", [(3, 2, 0), (3, 4, 1), (9, 4, 3),
                                      (9, 6, 3), (15, 4, 5), (25, 2, 5),
                                      (27, 8, 9), (27, 4, 1)])
def test_sample_blocks_match_the_word_oracle(m, size, g, chunk, monkeypatch):
    """Drawn and evaluated block by block, the samples are the oracle's
    words evaluated exactly, in order, whatever the block size, and the
    Random ends in the same state."""
    monkeypatch.setattr(orbits, "CHUNK_ROWS", chunk)
    ring = Zmod(m)
    ideal = Ideal.principal(ring, g)
    block, loop = random.Random(size + g), random.Random(size + g)
    blocks = list(orbits._first_rowcol_samples(size, m, g, block, 30))
    assert all(1 <= len(b) <= chunk for b in blocks)
    got = np.concatenate(blocks)
    want = [_word_array(_random_first_rowcol_word(ring, size, ideal, loop), m)
            for _ in range(30)]
    assert np.array_equal(got, np.array(want))
    assert block.getstate() == loop.getstate()
    if g != 1:  # = identity mod I by construction
        assert (got % (g or m) == np.eye(size, dtype=np.int64) % (g or m)).all()


def _square_ideal_by_loop(ring, size, ideal, rng, samples):
    """The former per-sample draw of ``square_ideal_inclusion_test``,
    kept as the oracle: each conjugate se_kl(z) se_ij(ab) se_kl(-z) as a
    GeneratorWord, with its ``conjugate_square_ideal`` factorization or
    None where that has no split."""
    g, m = ideal.modulus(), ring.m
    pairs = list(permutations(range(1, size + 1), 2))
    for _ in range(samples):
        i, j = pairs[rng.randrange(len(pairs))]
        k, l = pairs[rng.randrange(len(pairs))]
        z = ring.element(rng.randrange(m))
        a = ring.element(g * rng.randrange(m))
        b = ring.element(g * rng.randrange(m))
        word = GeneratorWord(ring, size,
                             conjugate([se(k, l, z)], [se(i, j, a * b)]))
        res = None
        if not (i == sigma(j) and (k, l) == (j, i)):
            res = conjugate_square_ideal(ring, size, i, j, z, a, b, ideal,
                                         kl=(k, l))
        yield word, res


@pytest.mark.parametrize("chunk", [7, 4096])
@pytest.mark.parametrize("m,g,size", [(15, 5, 4), (27, 3, 4), (15, 3, 6),
                                      (9, 3, 2)])
def test_square_ideal_blocks_match_the_word_oracle(m, g, size, chunk,
                                                   monkeypatch):
    """The conjugates and the padded right-hand sides of the
    factorizations, evaluated block by block, are the oracle's words
    evaluated exactly, in order; the factored count agrees and the
    Random ends in the same state.  The right-hand sides have unequal
    lengths, so their tables are padded."""
    monkeypatch.setattr(orbits, "CHUNK_ROWS", chunk)
    ring = Zmod(m)
    ideal = Ideal.principal(ring, g)
    block, loop = random.Random(m + size), random.Random(m + size)
    blocks = list(orbits._square_ideal_samples(ring, size, ideal, block, 40))
    assert all(1 <= len(conj) <= chunk for conj, _, _ in blocks)
    oracle = list(_square_ideal_by_loop(ring, size, ideal, loop, 40))
    assert block.getstate() == loop.getstate()
    conj = np.concatenate([c for c, _, _ in blocks])
    assert np.array_equal(conj, [_word_array(w, m) for w, _ in oracle])
    factored = [res for _, res in oracle if res is not None]
    assert sum(count for _, _, count in blocks) == len(factored)
    assert all(res.certificate for res in factored)
    rhs = np.concatenate([r for _, r, _ in blocks])
    assert np.array_equal(rhs, [_word_array(res.rhs, m) for res in factored])
    if size > 2:
        assert len({len(res.rhs) for res in factored}) > 1
        assert (conj != np.eye(size, dtype=np.int64)).any(axis=(1, 2)).any()


def _wrong_value(ring, g, when=lambda z: True):
    """A planted ``square_ideal_atoms`` that adds g to the first
    argument (where ``when(z)``), reading an empty word as se_ij(0):
    still in I = (g), but a different word unless g = 0."""
    def mutant(_ring, size, i, j, z, a, b, kl):
        out = square_ideal_atoms(ring, size, i, j, z, a, b, kl)
        if not when(z):
            return out
        x, *rest = out or [se(i, j, ring.zero())]
        return [se(x.i, x.j, x.arg + ring.element(g)), *rest]
    return mutant


def _outside_ideal(ring, g):
    """A planted ``square_ideal_atoms`` that appends se_12(1) se_12(-1):
    the same word, with two arguments outside a proper ideal."""
    def mutant(*args):
        return square_ideal_atoms(*args) + [se(1, 2, ring.one()),
                                            se(1, 2, -ring.one())]
    return mutant


_MUTANTS = {
    "value": _wrong_value,
    "membership": _outside_ideal,
    "value-on-odd-z": partial(_wrong_value, when=lambda z: z.value % 2),
}


def _plant(monkeypatch, mutant):
    """``mutant`` in place of ``square_ideal_atoms``, for the table path
    and for ``conjugate_square_ideal`` alike."""
    monkeypatch.setattr(orbits, "square_ideal_atoms", mutant)
    monkeypatch.setattr(rewrite, "square_ideal_atoms", mutant)


@pytest.mark.parametrize("mutant", [None, *_MUTANTS])
@pytest.mark.parametrize("m,g,size", [(9, 3, 4), (15, 5, 4), (25, 5, 4),
                                      (27, 3, 4), (9, 3, 2), (9, 3, 6),
                                      (9, 0, 4)])
def test_table_certificate_matches_the_rewrite_result(m, g, size, mutant,
                                                      monkeypatch):
    """Sample by sample, the table path keeps a factorization iff
    ``conjugate_square_ideal`` certifies it: the tables kept are the
    oracle's certified right sides, in order, for the factorizations as
    built and for planted wrong ones (a wrong value, arguments outside
    I, a wrong value on odd z only)."""
    ring = Zmod(m)
    ideal = Ideal.principal(ring, g)
    if mutant:
        _plant(monkeypatch, _MUTANTS[mutant](ring, g))
    blocks = list(orbits._square_ideal_samples(ring, size, ideal,
                                               random.Random(m + size), 40))
    oracle = [res for _, res in _square_ideal_by_loop(
        ring, size, ideal, random.Random(m + size), 40) if res is not None]
    certified = [res for res in oracle if res.certificate]
    assert sum(count for _, _, count in blocks) == len(oracle)
    want = np.array([_word_array(res.rhs, m) for res in certified],
                    dtype=np.int64).reshape(-1, size, size)
    assert np.array_equal(np.concatenate([r for _, r, _ in blocks]), want)
    if mutant == "value-on-odd-z" and g:
        assert 0 < len(certified) < len(oracle)
    elif mutant == "membership" or (mutant and g):
        assert not certified
    else:  # as built, or a value shifted by g = 0
        assert len(certified) == len(oracle)


@pytest.mark.parametrize("mutant", ["value", "membership"])
def test_a_planted_wrong_factorization_fails_the_square_ideal_test(
        mutant, monkeypatch):
    """A factorization of the wrong value, or with arguments outside I,
    is not sifted: fewer factored members than factored samples, ok is
    false, and nothing raises."""
    R = Zmod(9)
    _plant(monkeypatch, _MUTANTS[mutant](R, 3))
    rep = square_ideal_inclusion_test(R, 4, Ideal.principal(R, 3), samples=40)
    assert rep["members"] == rep["samples"] == 40
    assert rep["factored_members"] < rep["factored"] and not rep["ok"]


def test_kernel_samples_stay_within_one_block():
    """20,000 samples over Z/3 at size 2 with the zero ideal are drawn
    and evaluated one block of CHUNK_ROWS words at a time: the traced
    peak stays well below the 5.8 MB that one (20000, 12, 3) int64
    atom table alone would take."""
    R = Zmod(3)
    whole_table = 20000 * 12 * 3 * 8
    tracemalloc.start()
    try:
        rep = kernel_membership_test(R, 2, Ideal.zero(R), samples=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["members"] == rep["samples"] == 20000
    assert peak < whole_table / 2


def test_kernel_test_overflow_guard_runs_before_any_draw(monkeypatch):
    """4 * (m-1)**2 >= 2**63 for m = 2**31 + 1: the chain refuses the
    ring before a single sample is drawn or evaluated."""
    def no_draw(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(orbits, "_first_rowcol_atoms", no_draw)
    R = Zmod(2 ** 31 + 1)
    with pytest.raises(RingError, match="overflow int64"):
        kernel_membership_test(R, 4, Ideal.full(R), samples=10)


def test_square_ideal_overflow_guard_runs_before_any_matrix(monkeypatch):
    """Z/(2**63 + 1) does not fit in int64: the chain's guard refuses the
    ring before an atom table is evaluated, while Z/100003 at size 4,
    whose products fit, still runs though its keys would not."""
    def no_eval(*args):
        raise AssertionError("an atom table was evaluated")
    with monkeypatch.context() as mp:
        mp.setattr(orbits, "eval_table", no_eval)
        R = Zmod(2 ** 63 + 1)
        with pytest.raises(RingError, match="4x4 products .* overflow int64"):
            square_ideal_inclusion_test(R, 4, Ideal.principal(R, 3), samples=5)
    R = Zmod(100003)
    rep = square_ideal_inclusion_test(R, 4, Ideal.zero(R), samples=5)
    assert rep["ok"] and rep["members"] == rep["factored_members"] == 5


@pytest.mark.parametrize("m", [2 ** 62 + 1, 2 ** 63 + 1])
def test_chain_overflow_guard_runs_before_conversion(m):
    """The chain, the closure and the partition refuse a modulus whose
    products (or keys) overflow int64 before they reduce their inputs
    mod m, which for m >= 2**63 would raise OverflowError instead of
    RingError."""
    with pytest.raises(RingError, match="overflow int64"):
        orbits.StabilizerChain([np.eye(4, dtype=np.int64)], Zmod(m))
    with pytest.raises(RingError, match="overflow int64"):
        subgroup_closure([np.eye(2, dtype=np.int64)], Zmod(m))
    with pytest.raises(RingError, match="overflow int64"):
        orbit_partition(np.array([[1, 0]]), [np.eye(2, dtype=np.int64)],
                        Zmod(m))


# -- the block-drawn samplers against their per-draw code -------------


def _first_rowcol_atoms_by_randrange(size, m, g, rng, count):
    """``orbits._first_rowcol_atoms`` as it drew before
    ``randbelow_block``, one ``randrange`` call per value, kept as the
    oracle."""
    out = np.empty((count, 6 if g == 1 else 12, 3), dtype=np.int64)
    draws = map(rng.randrange, cycle((2, 0, 0)), cycle((size + 1, 2, m)))
    out[:, :6] = np.fromiter(draws, np.int64, 18 * count).reshape(count, 6, 3)
    i, j, arg = out[:, :6].transpose(2, 0, 1)
    col = (j == 1) & (g != 0)
    arg[col] = arg[col] * g % m
    j[:] = np.where(col, 1, i)
    i[~col] = 1
    if g != 1:
        out[:, 6:] = out[:, 5::-1]
        out[:, 6:, 2] = -(out[:, 6:, 2] % (g or m)) % m
    return out


def _square_ideal_samples_by_choice(ring, size, ideal, rng, samples):
    """``orbits._square_ideal_samples`` as it drew before
    ``randbelow_block``, one ``choice`` or ``randrange`` call per value,
    kept as the oracle."""
    m, g = ring.m, ideal.modulus()
    pairs = orbits._index_pairs(size)
    for lo in range(0, samples, orbits.CHUNK_ROWS):
        draws = [(*rng.choice(pairs), *rng.choice(pairs), rng.randrange(m),
                  g * rng.randrange(m) % m, g * rng.randrange(m) % m)
                 for _ in range(min(orbits.CHUNK_ROWS, samples - lo))]
        conj = [[(k, l, z), (i, j, a * b % m), (k, l, -z % m)]
                for i, j, k, l, z, a, b in draws]
        split = np.array([not (i == sigma(j) and (k, l) == (j, i))
                          for i, j, k, l, *_ in draws], dtype=bool)
        words = [square_ideal_atoms(ring, size, i, j, *map(ring.element, zab),
                                    (k, l))
                 for i, j, k, l, *zab in compress(draws, split)]
        conj = eval_table(word_table(conj), size, m, SYMPLECTIC)
        rhs = eval_table(word_table(list(map(atom_rows, words))), size, m,
                         SYMPLECTIC)
        member = [all(ideal.contains(x.arg) for x in w) for w in words]
        equal = (rhs == conj[split]).all(axis=(1, 2))
        yield conj, rhs[equal & np.array(member, dtype=bool)], len(words)


# Z/9 with (3), Z/15 with (5), Z/27 with (3) and GF(5) with I = R
_DRAW_RINGS = [(Zmod(9), 3), (Zmod(15), 5), (Zmod(27), 3), (GF(5), 1)]


@pytest.mark.parametrize("size", [2, 4, 6])
@pytest.mark.parametrize("ring,g", _DRAW_RINGS)
def test_first_rowcol_atoms_match_the_randrange_draw(ring, g, size):
    """Equal atom tables and Random states; 300 words are 5,400 values,
    past one piece of the block draw."""
    for seed in range(4):
        for count in (0, 1, 37, 300):
            block, calls = random.Random(seed), random.Random(seed)
            got = orbits._first_rowcol_atoms(size, ring.m, g, block, count)
            want = _first_rowcol_atoms_by_randrange(size, ring.m, g, calls,
                                                    count)
            assert np.array_equal(got, want)
            assert block.getstate() == calls.getstate()


@pytest.mark.parametrize("chunk", [7, 4096])
@pytest.mark.parametrize("size", [2, 4, 6])
@pytest.mark.parametrize("ring,g", _DRAW_RINGS)
def test_square_ideal_samples_match_the_choice_draw(ring, g, size, chunk,
                                                    monkeypatch):
    """Equal conjugate and certified right-side blocks, factored counts
    and Random states, with blocks and draw pieces of 7 values and of
    4,096."""
    monkeypatch.setattr(orbits, "CHUNK_ROWS", chunk)
    monkeypatch.setattr("transvect.words.CHUNK_ROWS", chunk)
    ideal = Ideal.principal(ring, g)
    for seed in range(2):
        block, calls = random.Random(seed), random.Random(seed)
        got = list(orbits._square_ideal_samples(ring, size, ideal, block, 30))
        want = list(_square_ideal_samples_by_choice(ring, size, ideal, calls,
                                                    30))
        assert len(got) == len(want) == -(-30 // chunk)
        for (conj, rhs, count), (conj_w, rhs_w, count_w) in zip(got, want):
            assert np.array_equal(conj, conj_w)
            assert np.array_equal(rhs, rhs_w) and count == count_w
        assert block.getstate() == calls.getstate()
