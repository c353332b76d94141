"""Brute-force verification over finite rings Z/m.

Enumerates unimodular rows, computes orbit partitions under the
elementary linear / elementary symplectic groups and their relative
(ideal-congruence) subgroups, builds Schreier-Sims stabilizer chains
of generated subgroups and normal closures, and runs the statistical
kernel-membership and square-ideal inclusion checks, which sift their
samples through a chain, one block at a time, instead of listing the
group.

Rows and matrices are int64 arrays mod m, the only input the orbit
functions take.  Every word built here is a row of an int64 atom table
evaluated once by ``words.eval_table``: this module never applies an
atom itself.  A square-ideal factorization is certified by comparing
its table with its conjugate's.  A row is found by its base-m int64
key: in a direct-address table of row indices when the key space is
small, else by binary search.  A universe is one (N, n) int64 array
from enumeration to partition.  A generator changes a row's key by one
term per group of changed columns, each a function of the few digits
the group depends on, read from a table over those digits.  Orbit
labels are canonical (lexicographically least row per orbit), so
partitions are independent of generator order.  Given an ideal I, a
partition stops applying generators once its orbit count reaches the
number of classes mod I, after an exact check that every generator is
= 1 mod I and invertible.
"""

import random
from functools import cache, cached_property, lru_cache, partial, reduce
from itertools import compress, cycle
from math import gcd

import numpy as np

from .matrices import sigma
from .rewrite import square_ideal_atoms
from .rings import DescriptorError, Ideal, RingError, Zmod
from .words import (CHUNK_ROWS, LINEAR, SYMPLECTIC, atom_rows, eval_table,
                    word_table)

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


def _key_powers(width, m):
    """Place values of base-m int64 keys of ``width`` digits mod m, most
    significant first, so key order is lexicographic order; RingError
    if m**width overflows int64.  A key is ``digits @ powers``."""
    if m ** width >= 2 ** 63:
        raise RingError("%d digits over Z/%d overflow int64 keys" % (width, m))
    return m ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _row_keys(rows):
    """Exact lookup keys of the rows of a (k, n) int64 array, for any m:
    each row's raw bytes as one np.void, which sorting and
    ``np.searchsorted`` compare bytewise."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


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
    """All rows of Um_n(Z/m), sorted, as an (N, n) int64 array whose
    transpose is C-contiguous; with a proper ideal I = gZ/m, only rows
    = e_1 mod I.

    A row is unimodular over Z/m iff gcd of its entries with m is 1.
    Candidate rows are the numbers 0 .. k**n - 1, k = m/g, read as n
    base-k digits d: column 0 is 1 + g*d mod m, the others g*d.  The
    columns are built one at a time, first for the running gcd with m
    and then again for the rows that pass it.
    """
    if not isinstance(ring, Zmod):
        raise RingError("enumeration requires a finite Z/m ring")
    if n < 1:
        raise RingError("row length must be >= 1, got %d" % (n,))
    m = ring.m
    g = 1 if ideal is None else ideal.modulus()
    if g == 0:
        return np.eye(1, n, dtype=np.int64)
    k = m // g
    if k ** n > budget:
        raise RingError("universe size %d exceeds budget %d"
                        % (k ** n, budget))
    _key_powers(n, m)  # the keys' guard, before m is put in an array

    def column(idx, c):
        digit = idx // k ** (n - 1 - c) % k
        return (1 + g * digit) % m if c == 0 else g * digit

    idx = np.arange(k ** n, dtype=np.int64)
    acc = np.full(len(idx), m, dtype=np.int64)
    for c in range(n):
        acc = np.gcd(acc, column(idx, c))
    idx = idx[acc == 1]
    cols = [column(idx, c) for c in range(n)]
    order = np.lexsort(cols[::-1])
    return np.stack([col[order] for col in cols]).T


def _index_pairs(size):
    return [(i, j) for i in range(1, size + 1)
            for j in range(1, size + 1) if i != j]


def generators_for(spec):
    """Generator matrices for the family, additively reduced, as int64 arrays.

    With I = gZ/m the spec's ideal: absolute families (g = 1) use one
    atom per index pair and additive generator (atom args add in the
    same slot, so orbits are unaffected), and so do relative families
    with the full ideal; other relative families use all conjugation
    triples ge_ij(a) ge_ji(g) ge_ij(-a) with 0 <= a < m/g (a triple is
    I + g*P(a) for integer polynomials P, so it depends on a mod m/g);
    first-row/column families alternate free first-row atoms with
    first-column atoms of argument g.  The family is one atom table;
    identities (g = 0) and repeats are dropped, first ones kept in order.
    """
    size, m, g = spec.size, spec.ring.m, spec.ideal.modulus()
    powers = _key_powers(size, m)
    if spec.kind == "first-rowcol":
        words = [[atom] for j in range(2, size + 1)
                 for atom in ((1, j, 1), (j, 1, g))]
    elif g == 1:
        words = [[(i, j, 1)] for i, j in _index_pairs(size)]
    else:
        words = [[(i, j, a), (j, i, g), (i, j, -a % m)]
                 for i, j in _index_pairs(size) for a in range(m // (g or m))]
    mats = eval_table(word_table(words), size, m, spec.group)
    first = np.sort(np.unique(mats @ powers, axis=0, return_index=True)[1])
    moved = (mats[first] != np.eye(size, dtype=np.int64)).any(axis=(1, 2))
    return list(mats[first[moved]])


class OrbitPartition:
    """Partition of a row universe under right multiplication.

    ``universe`` is the (N, n) int64 array of sorted rows, ``keys``
    their base-m keys and ``root[i]`` the index of the least row of row
    i's orbit, so two partitions of one universe agree iff their roots
    are equal.  ``label_of[row]``, the least row of the orbit, is a dict
    of int tuples built on first read.
    """

    def __init__(self, universe, keys, root, stats):
        self.universe = universe
        self.keys = keys
        self.root = root
        self.stats = stats

    @cached_property
    def label_of(self):
        rows = list(map(tuple, self.universe.tolist()))
        return {row: rows[r] for row, r in zip(rows, self.root.tolist())}

    def orbit_count(self):
        return int(np.count_nonzero(self.root == np.arange(len(self.root))))

    def orbit_sizes(self):
        sizes = np.bincount(self.root)
        return sorted(sizes[sizes > 0].tolist(), reverse=True)

    def same_partition(self, other):
        return (np.array_equal(self.keys, other.keys)
                and np.array_equal(self.root, other.root))

    def spot_check_closed(self, generators, m, trials=1000, seed=0):
        """Random (row, generator) pairs never escape their orbit; an
        image outside the universe is an escape.  The pairs are drawn
        first, row then generator, and their images are one batched
        product."""
        rng = random.Random(seed)
        rows = self.universe
        if not len(rows) or not generators:
            return True
        bounds = (len(rows), len(generators)) * trials
        at, gi = np.fromiter(map(rng.randrange, bounds), np.int64,
                             len(bounds)).reshape(-1, 2).T
        gens = np.asarray(generators, dtype=np.int64) % m
        img = np.einsum("ti,tij->tj", rows[at], gens[gi]) % m
        pos = _search(self.keys, img @ _key_powers(rows.shape[1], m))
        return bool(((pos >= 0) & (self.root[pos] == self.root[at])).all())


# Largest key space m**width that orbit_partition indexes directly: a
# table of that many int32 row indices (16 MiB).  Larger key spaces,
# where the universe is a sparse subset, use np.searchsorted.
_TABLE_SLOTS = 2 ** 22


def _search(keys, img):
    """Index in the sorted ``keys`` of each key of ``img``, -1 for a key
    that is not there."""
    pos = np.minimum(np.searchsorted(keys, img), len(keys) - 1)
    return np.where(keys[pos] == img, pos, -1)


def _lookup(keys, slots):
    """``_search`` for image keys in 0 .. slots - 1: one read of a
    direct-address table of row indices while ``slots`` is at most
    _TABLE_SLOTS, else a binary search."""
    if slots > _TABLE_SLOTS:
        return partial(_search, keys)
    table = np.full(slots, -1, dtype=np.int32)
    table[keys] = np.arange(len(keys), dtype=np.int32)
    return table.__getitem__


def _digit_index(cols, m, deps):
    """Each row's base-m number over the digits ``deps`` (k of them),
    in the smallest unsigned dtype that holds m**k, when there are no
    more digit tuples than rows; else None, and a key change over
    ``deps`` is evaluated on the rows themselves."""
    k = len(deps)
    if m ** k > cols.shape[1]:
        return None
    index = _key_powers(k, m) @ cols[list(deps)]
    return index.astype(np.min_scalar_type(m ** k - 1))


def _key_reader(cols, powers, g, m, deps, cs, index, digit_tuples):
    """The key change of g's columns ``cs``, which depend on the digits
    ``deps``, as a function of a block of rows: the one formula
    ``powers[cs] @ (new[cs] - x[cs])`` with new = (g.T @ x) % m on
    x[deps], evaluated once on the digit tuples ``digit_tuples(k)``, k =
    len(deps), and read through ``index``, or, when ``index`` is None, on
    each block of rows."""
    here = [deps.index(c) for c in cs]
    mix = g.T[cs][:, deps]

    def change(x):
        return powers[cs] @ ((mix @ x) % m - x[here])
    if index is None:
        return lambda span: change(cols[list(deps), span])
    table = change(digit_tuples(len(deps)))
    return lambda span: table.take(index[span])


def _neighbours(cols, keys, powers, g, m, find, digit_index, digit_tuples,
                stats):
    """Index of ``row @ g`` for every row, CHUNK_ROWS rows at a time.

    Image column c is ``(g[deps, c] @ x[deps]) % m``, deps being c and
    the rows where g[:, c] differs from the identity.  The columns C
    that g changes and that share one deps add to the row's key
    ``powers[C] @ (new[C] - x[C])``, read by ``_key_reader`` from a table
    over ``digit_tuples(len(deps))`` through ``digit_index(deps)``, or
    evaluated on each block of rows when that index is None.  ``cols``
    holds the universe column-major (x[c] is column c); ``stats`` counts
    the changed columns by where their change was evaluated.  Raises
    unless every image is a row and g permutes the rows.
    """
    groups = {}
    for c, col in enumerate((g != np.eye(len(g), dtype=np.int64)).T.tolist()):
        if any(col):
            deps = tuple(r for r, moved in enumerate(col) if moved or r == c)
            groups.setdefault(deps, []).append(c)
    reads = []
    for deps, cs in groups.items():
        index = digit_index(deps)
        reads.append(_key_reader(cols, powers, g, m, deps, cs, index,
                                 digit_tuples))
        stats["row_columns" if index is None else "table_columns"] += len(cs)
    n_rows = len(keys)
    nbr = np.empty(n_rows, dtype=np.int64)
    for lo in range(0, n_rows, CHUNK_ROWS):
        span = slice(lo, lo + CHUNK_ROWS)
        img = keys[span].copy()
        for read in reads:
            img += read(span)
        pos = find(img)
        if pos.min() < 0:
            row = (cols[:, lo + np.argmax(pos < 0)] @ g) % m
            raise RingError("generator left the universe at %r"
                            % (tuple(int(x) for x in row),))
        nbr[span] = pos
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


def _congruent_units(gens, m, g):
    """Whether every generator x is = 1 mod I = gZ/m (each entry of x - 1
    divisible by g, by m for g = 0) and invertible: its integer
    determinant, exact by fraction-free (Bareiss) elimination on Python
    ints over the whole stack, up to sign, is a unit mod m."""
    a = np.stack(gens).astype(object)
    n, rows, prev = a.shape[1], np.arange(len(a)), 1
    if ((a - np.eye(n, dtype=np.int64)) % (g or m)).any():
        return False
    for k in range(n):
        pivot = a[:, k:, k] != 0
        if not pivot.any(axis=1).all():  # a zero determinant
            return False
        p = k + pivot.argmax(axis=1)
        a[rows, k], a[rows, p] = a[rows, p], a[rows, k]
        lead = a[:, k, k, None, None]
        a[:, k + 1:, k + 1:] = (a[:, k + 1:, k + 1:] * lead - a[:, k + 1:, k:k + 1]
                                * a[:, k:k + 1, k + 1:]) // prev
        prev = lead
    return all(gcd(d, m) == 1 for d in a[:, -1, -1])


def orbit_partition(universe, generators, ring, ideal=None):
    """Orbits of a sorted row universe under the generated group.

    ``universe`` is an (N, n) int array, as ``enumerate_unimodular``
    returns it, read column-major without a copy when its transpose is
    C-contiguous; ``generators`` are (n, n) integer arrays, read mod m =
    ``ring.m``.  ``_neighbours`` gives the index of each row's image
    under a generator, by its base-m key (see the module docstring).
    Each neighbour array must permute the universe, so the orbits are
    the connected components of the neighbour graph, found by min-label
    hooking with pointer jumping (Shiloach-Vishkin): an orbit's root is
    its least index, its least row.

    With ``ideal`` I the caller states that the universe is a union of
    whole sets Um(R) ∩ (class mod I), as ``enumerate_unimodular``
    returns Um(R) and Um(R, I), and that the generators should be = 1
    mod I; ``stats["classes"]`` counts the classes mod I among the rows.
    If every generator is exactly = 1 mod I and invertible
    (``_congruent_units``), each permutes every class, so the orbits
    refine the classes: hooking stops once the root count reaches the
    class count, and a generator left out could neither raise nor merge
    two orbits.  Otherwise every generator is applied.

    ``stats["generators_used"]`` counts the generators applied (with
    ``ideal`` only), ``multiplications`` is N times that many and
    ``frontier_sizes`` holds the live edge count of each hooking round;
    ``table_columns`` and ``row_columns`` count the changed columns whose
    key change was read from a digit table and evaluated on the rows.
    An empty universe maps nothing.
    """
    m = ring.m
    n_rows, width = universe.shape
    if width * (m - 1) ** 2 >= 2 ** 63:  # before m is put in an array
        raise RingError("rows of length %d over Z/%d overflow int64 products"
                        % (width, m))
    gens = [np.asarray(g, dtype=np.int64) % m for g in generators]
    cols = np.ascontiguousarray(universe.T)
    powers = _key_powers(width, m)
    keys = powers @ cols
    if (cols < 0).any() or (cols >= m).any() or (np.diff(keys) <= 0).any():
        raise RingError("universe must be sorted distinct rows mod %d" % m)
    if n_rows and any(g.shape != (width, width) for g in gens):
        raise ValueError("generators must be %d x %d to act on the rows"
                         % (width, width))
    find = _lookup(keys, m ** width)
    # At most width index arrays of at most 4 bytes a row (below 2**32
    # rows): half the universe's own 8 * width bytes a row.
    digit_index = lru_cache(width)(partial(_digit_index, cols, m))
    digit_tuples = cache(lambda k: np.indices((m,) * k).reshape(k, -1))
    index = np.arange(n_rows, dtype=np.int64)
    parent = index.copy()
    frontier_sizes = []
    sides = {"table_columns": 0, "row_columns": 0}
    bound = -1  # the class count, once stopping there is known to be safe
    if ideal is not None:
        d = ideal.modulus()  # I = dZ/m: count distinct base-d class keys
        key = reduce(lambda k, c: k * d + c % d, cols, 0) if d else index
        classes = int(np.count_nonzero(np.diff(np.sort(key)))) + (n_rows > 0)
        if n_rows and gens and _congruent_units(gens, m, d):
            bound = classes
    used = 0
    for g in gens if 0 < n_rows != bound else ():
        used += 1
        a = index
        b = _neighbours(cols, keys, powers, g, m, find, digit_index,
                        digit_tuples, sides)
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
        if bound >= 0 and np.count_nonzero(parent == index) == bound:
            break
    stats = {"multiplications": n_rows * used,
             "frontier_sizes": frontier_sizes, "generators": len(gens),
             **sides}
    if ideal is not None:
        stats.update(classes=classes, generators_used=used)
    return OrbitPartition(universe, keys, parent, stats)


def check_orbit_equality(ring, size, ideal=None, budget=10 ** 7):
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
        part = orbit_partition(universe, gens, ring, ideal)
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
                            full_universe=False):
    """Orbits under relative E(I) coincide with mod-I congruence classes.

    Over a finite (dimension zero) ring, two unimodular rows congruent
    mod I should lie in one relative orbit.  By default the universe is
    Um(R, I) (a single congruence class, so transitivity = one orbit);
    with ``full_universe`` the partition of all of Um(R) is compared
    against the mod-I congruence classes.  The partition is given I, so
    it counts those classes and stops once it reaches them.
    """
    if ideal is None:
        ideal = Ideal.full(ring)
    spec = GroupSpec("linear-E-relative", size, ring, ideal)
    universe = enumerate_unimodular(
        ring, size, None if full_universe else spec.universe_ideal, budget)
    part = orbit_partition(universe, generators_for(spec), ring, ideal)
    return {
        "ring": ring.descriptor(),
        "size": size,
        "ideal": ideal.descriptor(),
        "universe_size": len(universe),
        "orbit_count": part.orbit_count(),
        "congruence_classes": part.stats["classes"],
        "transitive": part.orbit_count() == part.stats["classes"],
    }


def _check_products(n, m):
    """RingError unless products of n x n matrices mod m fit in int64."""
    if n * (m - 1) ** 2 >= 2 ** 63:
        raise RingError("%dx%d products over Z/%d overflow int64" % (n, n, m))


def _matrix_size(generators, conjugators):
    """The common size n of two sequences of square integer arrays, read
    before any is converted (1 if both are empty)."""
    for mats in (generators, conjugators or ()):
        if len(mats):
            return len(mats[0])
    return 1


class StabilizerChain:
    """A base and strong generating set of a matrix group over Z/m
    (deterministic Schreier-Sims: Sims 1970; Seress, *Permutation Group
    Algorithms*, ch. 4).

    The group acts on rows by v -> v g, with base e_1, ..., e_n: a
    matrix is determined by the images of the base, which are its rows.
    Level i holds the strong generators that fix e_1..e_i, as (s, s^-1)
    pairs, and a transversal: a dict from each row of the orbit of
    e_(i+1) to (u, u^-1) with e_(i+1) u that row.  The build sifts one
    matrix at a time (``_sift``), since it needs the residue; once the
    chain is complete, ``members`` sifts a block of matrices down the
    levels together.  ``order`` is the product of the transversal
    lengths.  With ``conjugators`` the chain is the normal closure of
    the generators inside the group the conjugators generate.  The
    order of the partial chain only grows and never exceeds the group
    order, so it is checked against ``cap`` as it grows: RingError as
    soon as it passes ``cap``, that is, exactly when the group has more
    than ``cap`` elements.  The inverses of the generators and
    conjugators are computed once each, by powers; every other inverse
    is a product of inverses already known.
    """

    def __init__(self, generators, ring, conjugators=None, cap=10 ** 6):
        m, n = ring.m, _matrix_size(generators, conjugators)
        _check_products(n, m)
        gens = [np.asarray(g, dtype=np.int64) % m for g in generators]
        conj = [np.asarray(c, dtype=np.int64) % m for c in (conjugators or [])]
        self.m, self.n, self.cap = m, n, cap
        eye = np.eye(n, dtype=np.int64)
        self._strong = [[] for _ in range(n)]
        self._trans = [{eye[i].tobytes(): (eye, eye)} for i in range(n)]
        self._orbit = [[eye[i].tobytes()] for i in range(n)]
        self._done = [[0] for _ in range(n)]  # strong generators applied
        self._order = 1
        for g in gens:
            self._extend(g, _inverse_mod(g, m))
        conj = [(c, _inverse_mod(c, m)) for c in conj]
        top = self._strong[0]  # grows while it is read
        for s, s_inv in top:
            for c, c_inv in conj:
                self._extend(c @ s % m @ c_inv % m, c @ s_inv % m @ c_inv % m)

    def order(self):
        return self._order

    def contains(self, x):
        """Whether an integer array, read mod m, lies in the group."""
        return bool(self.members(np.asarray(x)[None])[0])

    def members(self, block):
        """Whether each matrix of a (k, n, n) integer array, read mod m,
        lies in the group, as k bools.  The block sifts one level at a
        time: its rows i are looked up among the level's sorted keys, a
        matrix whose row is not there is out, and the rest are divided
        by their u, gathered in one batched product.  A matrix that
        passes the last level is its u there, so it is in the group."""
        x = np.asarray(block, dtype=np.int64) % self.m
        alive = np.arange(len(x))
        for i, (keys, inverses) in enumerate(self._levels):
            pos = _search(keys, _row_keys(x[:, i]))
            found = pos >= 0
            x, alive, pos = x[found], alive[found], pos[found]
            if i + 1 < self.n:
                x = x @ inverses[pos] % self.m
        out = np.zeros(len(block), dtype=bool)
        out[alive] = True
        return out

    @cached_property
    def _levels(self):
        """Per level of the complete chain: its transversal rows as
        sorted ``_row_keys``, and the u^-1 stacked in the same order."""
        levels = []
        for i, trans in enumerate(self._trans):
            keys = _row_keys(np.stack([u[i] for u, _ in trans.values()]))
            order = np.argsort(keys)
            inverses = np.stack([u_inv for _, u_inv in trans.values()])
            levels.append((keys[order], inverses[order]))
        return levels

    def elements(self):
        """Every element, as an (order, n, n) array: the products
        u_(n-1) ... u_1 u_0 of one transversal element per level."""
        m = self.m
        out = None
        for trans in reversed(self._trans):
            level = np.stack([u for u, _ in trans.values()])
            out = level if out is None else (out[:, None] @ level) % m
            out = out.reshape(-1, self.n, self.n)
        return out

    def _sift(self, x, level):
        """None if x (fixing e_1..e_level) sifts to the identity from
        ``level``; else (residue, the transversal elements divided out,
        the level where it stopped)."""
        used = []
        for i in range(level, self.n):
            found = self._trans[i].get(x[i].tobytes())
            if found is None:
                return x, used, i
            if i == self.n - 1:  # x fixes e_1..e_(n-1): x is this u
                return None
            used.append(found[0])
            x = x @ found[1] % self.m

    def _extend(self, g, g_inv):
        """Add g, whose inverse is ``g_inv``, to the group."""
        stripped = self._sift(g, 0)
        if stripped is not None:
            self._add_residue(stripped, g_inv, 0)
            self._schreier_sims(stripped[2])

    def _add_residue(self, stripped, x_inv, first):
        """Add the residue of a failed sift, whose input had inverse
        ``x_inv``, to the strong generators of levels first..stopped."""
        y, used, stopped = stripped
        for u in used:
            x_inv = u @ x_inv % self.m
        for i in range(first, stopped + 1):
            self._strong[i].append((y, x_inv))

    def _schreier_sims(self, level):
        """Complete the chain from ``level`` up: every Schreier generator
        of every level sifts through the levels below it."""
        while level >= 0:
            stopped = self._level_pass(level)
            level = level - 1 if stopped is None else stopped

    def _level_pass(self, i):
        """Apply each strong generator of level i to each orbit point not
        yet done: a new image joins the orbit, a known one gives a
        Schreier generator u_p s u_(p s)^-1, sifted from level i + 1.
        Returns the level a residue stopped at, or None once every pair
        is done."""
        m = self.m
        strong, trans = self._strong[i], self._trans[i]
        orbit, done = self._orbit[i], self._done[i]
        k = 0
        while k < len(orbit):
            u, u_inv = trans[orbit[k]]
            while done[k] < len(strong):
                s, s_inv = strong[done[k]]
                done[k] += 1
                us = u @ s % m
                key = us[i].tobytes()
                known = trans.get(key)
                if known is None:
                    self._grow(i, key, (us, s_inv @ u_inv % m))
                    continue
                if i + 1 == self.n:  # fixes every base row: the identity
                    continue
                stripped = self._sift(us @ known[1] % m, i + 1)
                if stripped is not None:
                    self._add_residue(stripped, known[0] @ s_inv % m
                                      @ u_inv % m, i + 1)
                    return stripped[2]
            k += 1
        return None

    def _grow(self, i, key, coset):
        trans = self._trans[i]
        self._order = self._order // len(trans) * (len(trans) + 1)
        if self._order > self.cap:
            raise RingError("closure cap %d exceeded (partial size %d)"
                            % (self.cap, self._order))
        trans[key] = coset
        self._orbit[i].append(key)
        self._done[i].append(0)


def subgroup_closure(generators, ring, conjugators=None, cap=10 ** 6):
    """Every element of the generated group (with ``conjugators``: of
    the normal closure inside the group they generate), listed from its
    ``StabilizerChain``.

    Returns a sorted, distinct int64 numpy array of matrix keys: an
    n x n matrix has key sum(a_k * m**(n*n - 1 - k)) over its row-major
    entries a_k mod m, so membership is one ``np.searchsorted``.  The
    keys need m**(n*n) < 2**63, else RingError; a group of more than
    ``cap`` elements raises RingError.
    """
    n = _matrix_size(generators, conjugators)
    powers = _key_powers(n * n, ring.m)  # before a chain hits the cap
    chain = StabilizerChain(generators, ring, conjugators, cap)
    return np.sort(chain.elements().reshape(-1, n * n) @ powers)


def _first_rowcol_atoms(size, m, g, rng, count):
    """``count`` random first-row/column words over Z/m with I = gZ/m,
    as a (count, L, 3) int64 array of atoms (i, j, arg mod m), 1-based
    as for ``se``.  Each of the first six atoms draws j in 2..size, a
    coin and r in 0..m-1 from ``rng``, in that order: a first-column
    atom se_j1(g*r) on heads when g != 0, else a first-row atom
    se_1j(r).  The word is then composed with its mod-I mirror, the six
    atoms in reverse with arguments -(arg mod (g or m)), so that it is
    = identity mod I by construction (L = 12); for I = R the mirror
    would cancel the atoms exactly, so the six stand alone (L = 6)."""
    out = np.empty((count, 6 if g == 1 else 12, 3), dtype=np.int64)
    draws = map(rng.randrange, cycle((2, 0, 0)), cycle((size + 1, 2, m)))
    out[:, :6] = np.fromiter(draws, np.int64, 18 * count).reshape(count, 6, 3)
    # views of the first six atoms, which hold the draws (j, coin, r)
    # until they are rewritten in place
    i, j, arg = out[:, :6].transpose(2, 0, 1)
    col = (j == 1) & (g != 0)  # heads: a first-column atom
    arg[col] = arg[col] * g % m
    j[:] = np.where(col, 1, i)
    i[~col] = 1
    if g != 1:
        out[:, 6:] = out[:, 5::-1]
        out[:, 6:, 2] = -(out[:, 6:, 2] % (g or m)) % m
    return out


def _first_rowcol_samples(size, m, g, rng, samples):
    """The evaluated sample words of ``_first_rowcol_atoms``, drawn in
    order from ``rng``, as (k, n, n) blocks of at most CHUNK_ROWS."""
    for lo in range(0, samples, CHUNK_ROWS):
        count = min(CHUNK_ROWS, samples - lo)
        yield eval_table(_first_rowcol_atoms(size, m, g, rng, count), size, m,
                         SYMPLECTIC)


def kernel_membership_test(ring, size, ideal, samples=1000, seed=0,
                           cap=10 ** 6):
    """Sampled check that first-row/column words trivial mod I land in
    the relative elementary symplectic group.

    Builds a stabilizer chain of ESp(R, I), the normal closure of the
    relative triples under conjugation by the absolute ESp generators
    (for I = R, ESp itself), then samples first-rowcol words whose
    evaluation is = identity mod I (by construction).  The samples are
    drawn as int64 atom blocks of at most CHUNK_ROWS words, each block
    is evaluated by batched column operations, and the block is sifted
    through the chain at once by ``StabilizerChain.members``.  The
    chain's int64 overflow guard runs before any sample is drawn.
    ``closure_size`` is the order of ESp(R, I).
    """
    rel = generators_for(GroupSpec("symplectic-ESp-relative", size, ring, ideal))
    conj = generators_for(GroupSpec("symplectic-ESp", size, ring))
    chain = StabilizerChain(rel, ring, conjugators=conj, cap=cap)
    rng = random.Random(seed)
    blocks = _first_rowcol_samples(size, ring.m, ideal.modulus(), rng, samples)
    hits = sum(int(chain.members(block).sum()) for block in blocks)
    return {
        "ring": ring.descriptor(),
        "size": size,
        "ideal": ideal.descriptor(),
        "closure_size": chain.order(),
        "samples": samples,
        "members": hits,
        "ok": 0 < hits == samples,
    }


def _square_ideal_samples(ring, size, ideal, rng, samples):
    """Per block of at most CHUNK_ROWS samples, drawn in order from
    ``rng``: the conjugates se_kl(z) se_ij(ab) se_kl(-z), a, b in I, and
    the right sides of their certified factorizations, each evaluated
    once as one atom table, and how many were factored: all but a long
    target opposite its conjugator (no split of that shape).  As in a
    RewriteResult, a factorization is certified if its table equals its
    conjugate's (exact: entries mod m fit in int64) and every argument
    passes ``Ideal.contains``."""
    m, g = ring.m, ideal.modulus()
    pairs = _index_pairs(size)
    for lo in range(0, samples, CHUNK_ROWS):
        draws = [(*rng.choice(pairs), *rng.choice(pairs), rng.randrange(m),
                  g * rng.randrange(m) % m, g * rng.randrange(m) % m)
                 for _ in range(min(CHUNK_ROWS, samples - lo))]
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


def square_ideal_inclusion_test(ring, size, ideal, samples=200, seed=0,
                                cap=10 ** 6):
    """Sampled check of ESp(R, I^2) c ESp(I): conjugates of se_ij(ab)
    with a, b in I land in the group of the atoms se_ij(g), and their
    factorization agrees; ``closure_size`` is that group's order.  The
    chain's int64 overflow guard runs before any matrix is built."""
    g = ideal.modulus()
    _check_products(size, ring.m)
    gens = word_table([[(i, j, g)] for i, j in _index_pairs(size)])
    chain = StabilizerChain(eval_table(gens, size, ring.m, SYMPLECTIC), ring,
                            cap=cap)
    rng = random.Random(seed)
    hits = factored = factor_hits = 0
    for conj, rhs, count in _square_ideal_samples(ring, size, ideal, rng,
                                                  samples):
        hits += int(chain.members(conj).sum())
        factor_hits += int(chain.members(rhs).sum())
        factored += count
    return {
        "ring": ring.descriptor(),
        "size": size,
        "ideal": ideal.descriptor(),
        "closure_size": chain.order(),
        "samples": samples,
        "members": hits,
        "factored": factored,
        "factored_members": factor_hits,
        "ok": 0 < hits == samples and factor_hits == factored,
    }
