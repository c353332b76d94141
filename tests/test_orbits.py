import random

import numpy as np
import pytest

from transvect import orbits
from transvect.orbits import (GroupSpec, check_dim0_transitivity,
                              check_orbit_equality, enumerate_unimodular,
                              generators_for, kernel_membership_test,
                              orbit_partition, square_ideal_inclusion_test,
                              subgroup_closure)
from transvect.rings import DescriptorError, Ideal, RingError, Zmod
from transvect.words import LINEAR, SYMPLECTIC, GeneratorWord, lin, se


def test_unimodular_counts():
    assert len(enumerate_unimodular(Zmod(3), 2)) == 8
    assert len(enumerate_unimodular(Zmod(9), 4)) == 6480
    I = Ideal.principal(Zmod(9), 3)
    assert len(enumerate_unimodular(Zmod(9), 4, I)) == 81


def test_unimodular_budget():
    with pytest.raises(RingError):
        enumerate_unimodular(Zmod(9), 8, budget=10 ** 6)


def test_generator_families():
    R = Zmod(3)
    lin_gens = generators_for(GroupSpec("linear-E", 2, R))
    assert len(lin_gens) == 2  # E_12(1), E_21(1)
    sp_gens = generators_for(GroupSpec("symplectic-ESp", 4, R))
    assert all(g.shape == (4, 4) for g in sp_gens)
    I = Ideal.principal(Zmod(9), 3)
    rel = generators_for(GroupSpec("symplectic-ESp-relative", 4, Zmod(9), I))
    assert rel  # deduplicated triple evaluations


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


def test_generators_accept_words_matrices_and_arrays():
    """Words, SquareMatrix evaluations and arrays (unreduced too) give
    the same partition and closure."""
    R = Zmod(5)
    words = [GeneratorWord(R, 2, [lin(1, 2, R.element(1))]),
             GeneratorWord(R, 2, [lin(2, 1, R.element(3))])]
    mats = [w.eval() for w in words]
    arrays = [np.array([[1, 6], [0, -4]]), np.array([[1, 0], [8, 1]])]
    universe = enumerate_unimodular(R, 2)
    parts = [orbit_partition(universe, gens, ring=R)
             for gens in (words, mats, arrays)]
    assert parts[0].label_of == parts[1].label_of == parts[2].label_of
    assert parts[0].orbit_count() == 1
    closures = [subgroup_closure(gens, R) for gens in (words, mats, arrays)]
    assert closures[0].keys() == closures[1].keys() == closures[2].keys()
    assert len(closures[0]) == 120  # |SL_2(F_5)|


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


def test_additive_reduction_gives_same_partition():
    """Single additive generator vs all ring elements: same orbits."""
    R = Zmod(5)
    universe = enumerate_unimodular(R, 2)
    reduced = generators_for(GroupSpec("linear-E", 2, R))
    full = []
    for i, j in ((1, 2), (2, 1)):
        for a in range(1, 5):
            full.append(GeneratorWord(R, 2, [lin(i, j, R.element(a))]).eval())
    p1 = orbit_partition(universe, reduced, ring=R)
    p2 = orbit_partition(universe, full, ring=R)
    assert p1.same_partition(p2)


def test_empty_generators_give_singletons():
    R = Zmod(3)
    universe = enumerate_unimodular(R, 2)
    part = orbit_partition(universe, [], ring=R)
    assert part.orbit_count() == len(universe)


def test_partition_chunk_independent():
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    universe = enumerate_unimodular(R, 4, I)
    gens = generators_for(GroupSpec("linear-E-relative", 4, R, I))
    p1 = orbit_partition(universe, gens, ring=R, chunk=4096)
    p2 = orbit_partition(universe, gens, ring=R, chunk=7)
    assert p1.same_partition(p2)


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


def test_spot_check_closed():
    R = Zmod(9)
    I = Ideal.principal(R, 3)
    universe = enumerate_unimodular(R, 4, I)
    gens = generators_for(GroupSpec("symplectic-ESp-relative", 4, R, I))
    part = orbit_partition(universe, gens, ring=R)
    assert part.spot_check_closed(gens, R.m, trials=500, seed=3)


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
        part = orbit_partition(universe, gens, ring=ring, chunk=chunk)
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
    with pytest.raises(RingError):
        orbit_partition(universe, [], ring=R, chunk=0)
    with pytest.raises(RingError, match="overflow"):
        orbit_partition([(0, 1)], [], ring=Zmod(3 ** 20))


def test_empty_universe_and_generators():
    R = Zmod(3)
    gens = generators_for(GroupSpec("linear-E", 2, R))
    for g in (gens, []):
        part = orbit_partition([], g, ring=R)
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
