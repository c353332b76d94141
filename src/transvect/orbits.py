"""Brute-force verification over finite rings Z/m.

Enumerates unimodular rows, computes orbit partitions under the
elementary linear / elementary symplectic groups and their relative
(ideal-congruence) subgroups, enumerates subgroup closures, and runs
the statistical kernel-membership and square-ideal inclusion checks.

Rows and matrices are carried as numpy integer arrays reduced mod m;
orbit labels are canonical (lexicographically least row per orbit), so
partitions are independent of generator order and worker chunking.
"""

import math
import random
from functools import partial
from itertools import product

import numpy as np

from .matrices import SquareMatrix, sigma
from .rewrite import conjugate_square_ideal
from .rings import DescriptorError, Ideal, RingError, Zmod, sample_element
from .words import (LINEAR, SYMPLECTIC, GeneratorAtom, GeneratorWord,
                    conjugation_triple, se)

# family -> (group it generates, kind), read only by GroupSpec
FAMILIES = {
    "linear-E": (LINEAR, "absolute"),
    "symplectic-ESp": (SYMPLECTIC, "absolute"),
    "linear-E-relative": (LINEAR, "relative"),
    "symplectic-ESp-relative": (SYMPLECTIC, "relative"),
    "first-rowcol-E1": (LINEAR, "first-rowcol"),
    "first-rowcol-ESp1": (SYMPLECTIC, "first-rowcol"),
}


class GroupSpec:
    """A named generator family over a finite Z/m ring.

    The family name decides, here and only here, the ``group``
    generated (LINEAR, or SYMPLECTIC, which needs an even size), its
    ``kind``, whether it needs an ideal, and ``universe_ideal``: I for a
    relative family, whose orbits live on Um(R, I), and None (Um(R))
    for the rest.  An absolute family's ``ideal`` is the full ideal,
    since E(R) = E(R, R).  A size or ideal that does not fit the family
    raises DescriptorError; a ring that is not Z/m raises RingError.
    """

    def __init__(self, family, size, ring, ideal=None):
        if family not in FAMILIES:
            raise RingError("unknown family %r" % (family,))
        if not isinstance(ring, Zmod):
            raise RingError("orbit engine requires a finite Z/m ring")
        self.group, self.kind = FAMILIES[family]
        if self.group == SYMPLECTIC and size % 2:
            raise DescriptorError("family %r needs an even size, got %d"
                                  % (family, size))
        if self.kind == "absolute":
            ideal = Ideal.full(ring)
        elif ideal is None:
            raise DescriptorError("family %r needs an ideal" % (family,))
        self.family = family
        self.size = size
        self.ring = ring
        self.ideal = ideal
        self.universe_ideal = ideal if self.kind == "relative" else None

    def __repr__(self):
        return "GroupSpec(%s, n=%d, %s, %s)" % (
            self.family, self.size, self.ring, self.ideal)


def _int_array(x, m):
    """A word, SquareMatrix or array over Z/m as an int64 array mod m."""
    if isinstance(x, GeneratorWord):
        x = x.eval()
    if isinstance(x, SquareMatrix):
        x = [[e.value for e in row] for row in x.rows]
    return np.asarray(x, dtype=np.int64) % m


def _mat_key(a):
    return a.tobytes()


def _inverse_mod(mat, m):
    """Inverse by cycling powers (finite ring, invertible matrix)."""
    eye = np.eye(mat.shape[0], dtype=np.int64)
    prev = eye
    cur = mat.copy()
    for _ in range(10 ** 5):
        if (cur == eye).all():
            return prev % m
        prev = cur
        cur = (cur @ mat) % m
    raise RingError("matrix order exceeded cap; not invertible?")


def enumerate_unimodular(ring, n, ideal=None, budget=10 ** 7):
    """All rows of Um_n(Z/m); with a proper ideal, only rows = e_1 mod I.

    A row is unimodular over Z/m iff gcd of its entries with m is 1.
    """
    if not isinstance(ring, Zmod):
        raise RingError("enumeration requires a finite Z/m ring")
    if n < 1:
        raise RingError("row length must be >= 1, got %d" % (n,))
    m = ring.m
    g = 1 if ideal is None else ideal.modulus()
    if g == 0:
        return [tuple([1] + [0] * (n - 1))]
    coords = range(0, m, g)
    if len(coords) ** n > budget:
        raise RingError("universe size %d exceeds budget %d"
                        % (len(coords) ** n, budget))
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


def _index_pairs(size):
    return [(i, j) for i in range(1, size + 1)
            for j in range(1, size + 1) if i != j]


def generators_for(spec):
    """Generator matrices for the family, additively reduced.

    With I = gZ/m the spec's ideal: absolute families (g = 1) use one
    atom per index pair and additive generator (atom args add in the
    same slot, so orbits are unaffected), and so do relative families
    with the full ideal; other relative families use all conjugation
    triples ge_ij(a) ge_ji(g) ge_ij(-a) with a over the whole ring;
    first-row/column families mix free first-row atoms with
    first-column atoms of argument g.
    """
    ring, size = spec.ring, spec.size
    atom = partial(GeneratorAtom, spec.group)
    g = spec.ideal.modulus()
    eye = np.eye(size, dtype=np.int64)
    out = []
    seen = set()

    def emit(atoms):
        mat = _int_array(GeneratorWord(ring, size, atoms), ring.m)
        key = _mat_key(mat)
        if key not in seen and not (mat == eye).all():
            seen.add(key)
            out.append(mat)

    if spec.kind == "first-rowcol":
        for j in range(2, size + 1):
            emit([atom(1, j, ring.one())])
            if g:
                emit([atom(j, 1, ring.element(g))])
    elif g == 1:
        for i, j in _index_pairs(size):
            emit([atom(i, j, ring.one())])
    elif g:
        x = ring.element(g)
        for i, j in _index_pairs(size):
            for a in range(ring.m):
                emit(conjugation_triple(spec.group, i, j, ring.element(a), x))
    return out


class OrbitPartition:
    """Partition of a row universe under right multiplication.

    ``label_of[row]`` is the lexicographically least row of its orbit,
    so two partitions agree iff the dicts are equal.
    """

    def __init__(self, universe, label_of, stats):
        self.universe = universe
        self.label_of = label_of
        self.stats = stats

    def orbit_count(self):
        return len(set(self.label_of.values()))

    def orbit_sizes(self):
        sizes = {}
        for lab in self.label_of.values():
            sizes[lab] = sizes.get(lab, 0) + 1
        return sorted(sizes.values(), reverse=True)

    def same_partition(self, other):
        return self.label_of == other.label_of

    def spot_check_closed(self, generators, m, trials=1000, seed=0):
        """Random (row, generator) pairs never escape their orbit."""
        rng = random.Random(seed)
        rows = self.universe
        if not rows or not generators:
            return True
        for _ in range(trials):
            row = rows[rng.randrange(len(rows))]
            g = generators[rng.randrange(len(generators))]
            img = tuple((np.array(row, dtype=np.int64) @ g) % m)
            if self.label_of[row] != self.label_of[img]:
                return False
        return True


def _neighbours(rows, keys, powers, g, m, chunk):
    """Index of ``row @ g`` for every row, ``chunk`` rows per matmul.

    Raises unless every image is a row and g permutes the rows.
    """
    n_rows = len(keys)
    nbr = np.empty(n_rows, dtype=np.int64)
    for lo in range(0, n_rows, chunk):
        img = ((rows[lo:lo + chunk] @ g) % m) @ powers
        pos = np.minimum(np.searchsorted(keys, img), n_rows - 1)
        miss = np.flatnonzero(keys[pos] != img)
        if miss.size:
            row = (rows[lo + miss[0]] @ g) % m
            raise RingError("generator left the universe at %r"
                            % (tuple(int(x) for x in row),))
        nbr[lo:lo + chunk] = pos
    hit = np.zeros(n_rows, dtype=bool)
    hit[nbr] = True
    if not hit.all():
        raise RingError("generator is not a permutation of the universe")
    return nbr


def _compress(parent):
    """Pointer jumping until every index points at its root."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent = up


def orbit_partition(universe, generators, ring, chunk=4096):
    """Orbits of a sorted row universe under the generated group.

    ``generators`` are numpy matrices (or SquareMatrix) over Z/m; m is
    read from ``ring``.  Rows are encoded as base-m int64 keys, most
    significant digit first, so key order is row order.  Each
    generator's neighbour array comes from one matmul and
    ``np.searchsorted`` per block of ``chunk`` rows and must be a
    permutation of the universe, so the orbits are the connected
    components of the neighbour graph and inverses are not needed.
    Components are found by min-label hooking with pointer jumping
    (Shiloach-Vishkin): each root is hooked to the smaller root, so the
    final root of an orbit is its least index, which is its least row.
    The chunk size only affects scheduling, never the partition.
    ``stats["frontier_sizes"]`` holds the live edge count of each
    hooking round, generator by generator.
    """
    if chunk < 1:
        raise RingError("chunk must be >= 1")
    m = ring.m
    gens = [_int_array(g, m) for g in generators]
    n_rows = len(universe)
    width = len(universe[0]) if universe else 0
    if m ** width >= 2 ** 63 or width * (m - 1) ** 2 >= 2 ** 63:
        raise RingError("rows of length %d over Z/%d overflow int64 keys"
                        % (width, m))
    rows = np.array(universe, dtype=np.int64).reshape(n_rows, width)
    powers = m ** np.arange(width - 1, -1, -1, dtype=np.int64)
    keys = rows @ powers
    if (rows < 0).any() or (rows >= m).any() or (np.diff(keys) <= 0).any():
        raise RingError("universe must be sorted distinct rows mod %d" % m)
    parent = np.arange(n_rows, dtype=np.int64)
    frontier_sizes = []
    for g in gens:
        a = np.arange(n_rows, dtype=np.int64)
        b = _neighbours(rows, keys, powers, g, m, chunk)
        # Edges stay live while their ends have different roots.
        while True:
            ra, rb = parent[a], parent[b]
            live = ra != rb
            if not live.any():
                break
            a, b, ra, rb = a[live], b[live], ra[live], rb[live]
            frontier_sizes.append(len(a))
            np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            parent = _compress(parent)
    roots = parent.tolist()
    label_of = {row: universe[r] for row, r in zip(universe, roots)}
    stats = {"multiplications": n_rows * len(gens),
             "frontier_sizes": frontier_sizes, "generators": len(gens)}
    return OrbitPartition(universe, label_of, stats)


def check_orbit_equality(ring, size, ideal=None, budget=10 ** 7, chunk=4096):
    """Compare Um(R, I) partitions under relative E and relative ESp.

    Both families share one universe, enumerated once.
    """
    if size < 4 or size % 2:
        raise RingError("orbit equality needs even size >= 4")
    if ideal is None:
        ideal = Ideal.full(ring)
    specs = [GroupSpec(family, size, ring, ideal)
             for family in ("linear-E-relative", "symplectic-ESp-relative")]
    universe = enumerate_unimodular(ring, size, specs[0].universe_ideal, budget)
    parts = []
    closed = True
    for spec in specs:
        gens = generators_for(spec)
        part = orbit_partition(universe, gens, ring, chunk)
        closed = part.spot_check_closed(gens, ring.m) and closed
        parts.append(part)
    lpart, spart = parts
    return {
        "ring": ring.descriptor(),
        "size": size,
        "ideal": ideal.descriptor(),
        "universe_size": len(universe),
        "linear_orbits": lpart.orbit_count(),
        "symplectic_orbits": spart.orbit_count(),
        "orbit_sizes": lpart.orbit_sizes(),
        "closed": closed,
        "equal": lpart.same_partition(spart),
    }


def check_dim0_transitivity(ring, size, ideal=None, budget=10 ** 7,
                            full_universe=False, chunk=4096):
    """Orbits under relative E(I) coincide with mod-I congruence classes.

    Over a finite (dimension zero) ring, two unimodular rows congruent
    mod I should lie in one relative orbit.  By default the universe is
    Um(R, I) (a single congruence class, so transitivity = one orbit);
    with ``full_universe`` the partition of all of Um(R) is compared
    against the mod-I congruence key.
    """
    if ideal is None:
        ideal = Ideal.full(ring)
    spec = GroupSpec("linear-E-relative", size, ring, ideal)
    universe = enumerate_unimodular(
        ring, size, None if full_universe else spec.universe_ideal, budget)
    part = orbit_partition(universe, generators_for(spec), ring, chunk)
    g = ideal.modulus()
    classes = {tuple(x % g for x in row) if g else row for row in universe}
    return {
        "ring": ring.descriptor(),
        "size": size,
        "ideal": ideal.descriptor(),
        "universe_size": len(universe),
        "orbit_count": part.orbit_count(),
        "congruence_classes": len(classes),
        "transitive": part.orbit_count() == len(classes),
    }


def subgroup_closure(generators, ring, conjugators=None, cap=10 ** 6):
    """BFS closure under multiplication (and conjugation, if given).

    Returns (elements dict key->numpy matrix).  With ``conjugators``
    the rounds interleave multiplication closure and conjugation by
    each conjugator until a fixed point: the normal closure inside the
    group the conjugators generate.
    """
    m = ring.m
    gens = [_int_array(g, m) for g in generators]
    conj = []
    for c in (conjugators or []):
        a = _int_array(c, m)
        conj.append((a, _inverse_mod(a, m)))
    n = gens[0].shape[0] if gens else (conj[0][0].shape[0] if conj else 1)
    eye = np.eye(n, dtype=np.int64)
    elements = {_mat_key(eye): eye}
    frontier = [eye]
    for g in gens:
        key = _mat_key(g)
        if key not in elements:
            elements[key] = g
            frontier.append(g)

    def absorb(batch, sink):
        for y in batch:
            key = _mat_key(y)
            if key not in elements:
                if len(elements) >= cap:
                    raise RingError("closure cap %d exceeded (partial size %d)"
                                    % (cap, len(elements)))
                elements[key] = y
                sink.append(y)

    while frontier:
        block = np.stack(frontier)
        nxt = []
        for g in gens:
            absorb((block @ g) % m, nxt)
        for c, cinv in conj:
            absorb((c @ block @ cinv) % m, nxt)
        frontier = nxt
    return elements


def _random_first_rowcol_word(ring, size, ideal, rng):
    """A random word of six atoms, first-row (free args) or first-column
    (args in I), composed with its mod-I mirror so that the evaluation
    is the identity modulo I by construction."""
    g = ideal.modulus()
    m = ring.m
    atoms = []
    for _ in range(6):
        j = rng.randrange(2, size + 1)
        if rng.randrange(2) and g:
            atoms.append(se(j, 1, ring.element(g * rng.randrange(m))))
        else:
            atoms.append(se(1, j, ring.element(rng.randrange(m))))
    mirror = []
    for a in reversed(atoms):
        rep = a.arg.value % (g if g > 1 else m)
        mirror.append(se(a.i, a.j, ring.element(-rep)))
    return GeneratorWord(ring, size, atoms + mirror)


def kernel_membership_test(ring, size, ideal, samples=1000, seed=0,
                           cap=10 ** 6):
    """Sampled check that first-row/column words trivial mod I land in
    the relative elementary symplectic group.

    Enumerates ESp(R, I) as the normal closure of the relative triples
    under conjugation by the absolute ESp generators (for I = R, ESp
    itself), then samples
    first-rowcol words whose evaluation is = identity mod I (by
    construction) and counts membership.
    """
    rel = generators_for(GroupSpec("symplectic-ESp-relative", size, ring, ideal))
    conj = generators_for(GroupSpec("symplectic-ESp", size, ring))
    closure = subgroup_closure(rel, ring, conjugators=conj, cap=cap)
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        word = _random_first_rowcol_word(ring, size, ideal, rng)
        if _mat_key(_int_array(word, ring.m)) in closure:
            hits += 1
    return {
        "ring": ring.descriptor(),
        "size": size,
        "ideal": ideal.descriptor(),
        "closure_size": len(closure),
        "samples": samples,
        "members": hits,
        "ok": 0 < hits == samples,
    }


def square_ideal_inclusion_test(ring, size, ideal, samples=200, seed=0,
                                cap=10 ** 6):
    """Sampled check of ESp(R, I^2) c ESp(I): conjugates of se_ij(ab)
    with a, b in I land in the closure of the I-argument atoms, and the
    explicit factorization agrees."""
    g = ideal.modulus()
    spec_pairs = _index_pairs(size)
    gens = [GeneratorWord(ring, size, [se(i, j, ring.element(g))])
            for i, j in spec_pairs]
    closure = subgroup_closure(gens, ring, cap=cap)
    rng = random.Random(seed)
    m = ring.m
    hits = 0
    factor_hits = 0
    factored = 0
    for _ in range(samples):
        i, j = spec_pairs[rng.randrange(len(spec_pairs))]
        k, l = spec_pairs[rng.randrange(len(spec_pairs))]
        z = ring.element(rng.randrange(m))
        a = ring.element(g * rng.randrange(m))
        b = ring.element(g * rng.randrange(m))
        alpha = GeneratorWord(ring, size, [se(k, l, z)])
        beta = GeneratorWord(ring, size, [se(i, j, a * b)])
        word = alpha * beta * alpha.inverse()
        if _mat_key(_int_array(word, m)) in closure:
            hits += 1
        # The explicit factorization covers every pair except a long
        # target opposite its conjugator (no split of this shape).
        if not (i == sigma(j) and (k, l) == (j, i)):
            res = conjugate_square_ideal(ring, size, i, j, z, a, b, ideal,
                                         kl=(k, l))
            factored += 1
            if res.certificate and _mat_key(_int_array(res.rhs, m)) in closure:
                factor_hits += 1
    return {
        "ring": ring.descriptor(),
        "size": size,
        "ideal": ideal.descriptor(),
        "closure_size": len(closure),
        "samples": samples,
        "members": hits,
        "factored": factored,
        "factored_members": factor_hits,
        "ok": 0 < hits == samples and factor_hits == factored,
    }
