"""Generator atoms and words: elementary matrices, relative generators,
rho/mu transvection matrices and their generator decompositions, and
Bass symplectic transvections for free modules.

How an atom acts is written here only: on rows of ring elements
(``GeneratorWord.eval``) and on int64 atom tables over Z/m (``eval_table``).
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import islice

import numpy as np

from .matrices import SquareMatrix, dot, row_times, sigma, standard_form
from .rings import RingElement, RingError, Zmod


LINEAR = "linear"
SYMPLECTIC = "symplectic"

# Rows per int64 block: of a generator's image in the orbit engine and
# of the sampled decompositions; no result depends on it.
CHUNK_ROWS = 4096


class GeneratorAtom(namedtuple("GeneratorAtom", "family i j arg")):
    """One elementary generator ge_ij(arg) of either family."""

    __slots__ = ()

    def __new__(cls, family, i, j, arg):
        if family not in (LINEAR, SYMPLECTIC):
            raise RingError("unknown family %r" % (family,))
        if i == j or i < 1 or j < 1:
            raise RingError("bad indices (%d, %d)" % (i, j))
        return super().__new__(cls, family, i, j, arg)

    def inverse(self):
        return GeneratorAtom(self.family, self.i, self.j, -self.arg)

    def transpose(self):
        """Formal transpose: ge_ij(z)^t = ge_ji(z) in both families."""
        return GeneratorAtom(self.family, self.j, self.i, self.arg)

    def entries(self, ring, size):
        """[(a, b, z), ...], 0-based, with the atom = I + sum z*e_ab; a
        short symplectic root adds the mirror entry to its own."""
        if max(self.i, self.j) > size:
            raise RingError("atom indices exceed size %d" % size)
        z = ring.element(self.arg)
        out = [(self.i - 1, self.j - 1, z)]
        if self.family == SYMPLECTIC:
            if size % 2 == 1:
                raise RingError("symplectic atoms need even size")
            if self.i != sigma(self.j):
                s = -z if (self.i + self.j) % 2 == 0 else z
                out.append((sigma(self.j) - 1, sigma(self.i) - 1, s))
        return out

    def matrix(self, ring, size):
        """The atom as a dense matrix.

        Words never multiply these: ``GeneratorWord.eval`` applies each
        atom as a column operation.  This is the dense reference that
        tests compare the row/column operations against.
        """
        rows = identity_rows(ring, size)
        for a, b, z in self.entries(ring, size):
            rows[a][b] = z
        return SquareMatrix.from_rows(ring, rows)

    def __repr__(self):
        fam = "E" if self.family == LINEAR else "se"
        return "%s_%d,%d(%r)" % (fam, self.i, self.j, self.arg)


def lin(i, j, arg):
    return GeneratorAtom(LINEAR, i, j, arg)


def se(i, j, arg):
    return GeneratorAtom(SYMPLECTIC, i, j, arg)


# -- the evaluation kernel: atoms as row and column operations --------
# Right-multiplying by I + z*e_ab adds z * column a to column b, left-
# multiplying adds z * row b to row a: O(n) ring operations, not O(n^3).
# No entry of an atom reads the line another writes, so they apply in turn.


def identity_rows(ring, size):
    """A mutable identity matrix: a list of row lists."""
    one, zero = ring.one(), ring.zero()
    return [[one if r == c else zero for c in range(size)] for r in range(size)]


def act_on_columns(rows, entries):
    """rows <- rows * (I + sum z*e_ab), in place."""
    for a, b, z in entries:
        if z.is_zero():
            continue
        for row in rows:
            x = row[a]
            if not x.is_zero():
                row[b] = row[b] + x * z


def act_on_rows(rows, entries):
    """rows <- (I + sum z*e_ab) * rows, in place."""
    for a, b, z in entries:
        if z.is_zero():
            continue
        src, dst = rows[b], rows[a]
        for c, x in enumerate(src):
            if not x.is_zero():
                dst[c] = dst[c] + z * x


def word_table(words):
    """Lists of atoms (i, j, arg mod m) as one (S, L, 3) int64 table, L
    the longest length: shorter words end in (1, 2, 0), the identity."""
    length = max(map(len, words), default=0)
    return np.array([w + [(1, 2, 0)] * (length - len(w)) for w in words],
                    dtype=np.int64).reshape(len(words), length, 3)


def fits_table(ring):
    """Whether ``ring`` is a Z/m whose ``eval_table`` entries fit int64."""
    return isinstance(ring, Zmod) and ring.m * (ring.m - 1) < 2 ** 63


def eval_table(atoms, size, m, family):
    """The words of an (S, L, 3) table of atoms (i, j, arg mod m) of
    ``family`` as an (S, n, n) int64 array mod m, by the rule of
    ``GeneratorAtom.entries`` and ``act_on_columns``: right-multiplying
    by I + z*e_ab adds z * column a to column b, and a short symplectic
    root (i != sigma(j)) also applies its mirror entry (sigma(j),
    sigma(i)), with sign -z when i + j is even.  An atom of argument 0
    pads a word.  Entries stay below (m-1) + (m-1)**2."""
    if family == SYMPLECTIC and size % 2:
        raise RingError("symplectic atoms need even size")
    out = np.tile(np.eye(size, dtype=np.int64), (len(atoms), 1, 1))
    s = np.arange(len(atoms))
    for i, j, z in atoms.transpose(1, 2, 0):
        a, b = i - 1, j - 1  # 0-based, where sigma is x ^ 1
        entries = [(a, b, z)]
        if family == SYMPLECTIC:
            mirror_z = np.where((i + j) % 2, z, -z % m) * (a != b ^ 1)
            entries.append((b ^ 1, a ^ 1, mirror_z))
        for src, dst, w in entries:
            out[s, :, dst] = (out[s, :, dst] + w[:, None] * out[s, :, src]) % m
    return out


def randbelow_block(rng, bounds, count):
    """``[rng._randbelow(n) for n in cycle(bounds)][:count]``, the values
    of the ``randrange`` and ``choice`` calls it replaces, as an int64
    array, leaving ``rng`` as those calls would: each keeps the top
    n.bit_length() bits of successive 32-bit Mersenne Twister words until
    they are below n.  Pieces of whole cycles, at most CHUNK_ROWS values,
    are decoded from ``rng.randbytes`` (twice the words if they run out);
    a bound outside 1 .. 2**32 - 1 raises ValueError before any draw."""
    bounds = list(bounds)
    if not bounds or not all(0 < n < 2 ** 32 for n in bounds):
        raise ValueError("bounds must be in 1 .. 2**32 - 1, got %r" % (bounds,))
    c = len(bounds)
    shifts = np.array([32 - n.bit_length() for n in bounds], dtype=np.uint32)
    limits = [n << int(s) for n, s in zip(bounds, shifts)]  # accept w < limit
    mean = sum(2 ** n.bit_length() / n for n in bounds) / c  # words a value
    out, step = np.empty(count, dtype=np.int64), max(1, CHUNK_ROWS // c) * c
    for lo in range(0, count, step):
        k, state = min(step, count - lo), rng.getstate()
        words = int(mean * 1.1 * k) + 64
        while True:
            w = np.frombuffer(rng.randbytes(4 * words), dtype="<u4")
            rng.setstate(state)
            pos = _draw_positions(w, limits, k)
            if pos.flat[k - 1] <= words:
                break
            words *= 2
        rng.getrandbits(32 * int(pos.flat[k - 1]))
        out[lo:lo + k] = (w.take(pos - 1, mode="clip") >> shifts).ravel()[:k]
    return out


def _draw_positions(w, limits, k):
    """One past the word of each of the first k draws (len(w) + 1 past
    the end) as a (cycles, slots) array, slot i taking the first word
    below limits[i].  A cycle maps its first word to the one after its
    last draw; the cycle starts are that map's powers of 0, by doubling."""
    end = len(w)
    rows, whole = [], np.arange(end + 2)
    for limit in limits:
        hits = np.append(np.flatnonzero(w < limit), end)
        rows.append(np.append(np.repeat(hits + 1, np.diff(hits, prepend=-1)),
                              end + 1))
        whole = rows[-1][whole]
    starts = np.zeros(1, dtype=np.int64)
    while len(starts) * len(limits) < k:
        starts, whole = np.append(starts, whole[starts]), whole[whole]
    pos = np.empty((-(-k // len(limits)), len(limits)), dtype=np.int64)
    starts = starts[:len(pos)]
    for i, nxt in enumerate(rows):
        pos[:, i] = starts = nxt[starts]
    return pos


class GeneratorWord:
    """Ordered list of atoms over a fixed ring and matrix size.

    Every atom's argument is an element of ``ring``: an int or an
    element of a polynomial ring's base ring is lifted once, here, and
    an element of another ring raises RingError.  Whether a word lies
    in a relative group is read from its atoms by ``check_relative``.
    """

    __slots__ = ("ring", "size", "atoms")

    def __init__(self, ring, size, atoms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "atoms", tuple(
            a if isinstance(a.arg, RingElement) and a.arg.ring is ring
            else GeneratorAtom(a.family, a.i, a.j, ring.element(a.arg))
            for a in atoms))

    def __setattr__(self, *a):
        raise AttributeError("GeneratorWord is immutable")

    def eval(self):
        """The product of the atoms, left to right, by column operations."""
        rows = identity_rows(self.ring, self.size)
        for atom in self.atoms:
            act_on_columns(rows, atom.entries(self.ring, self.size))
        return SquareMatrix.from_rows(self.ring, rows)

    def congruence(self, phi):
        """eval(self)^t * phi * eval(self), by row and column operations."""
        return self._act(phi, GeneratorAtom.transpose)

    def similarity(self, mat):
        """eval(self)^-1 * mat * eval(self), by row and column operations."""
        return self._act(mat, GeneratorAtom.inverse)

    def _act(self, mat, left):
        """left(A_k)...left(A_1) * mat * A_1...A_k for the atoms A_i."""
        if not isinstance(mat, SquareMatrix) or mat.ring is not self.ring \
                or mat.n != self.size:
            raise RingError("matrix shape/ring mismatch")
        rows = [list(r) for r in mat.rows]
        for atom in self.atoms:
            act_on_columns(rows, atom.entries(self.ring, self.size))
            act_on_rows(rows, left(atom).entries(self.ring, self.size))
        return SquareMatrix.from_rows(self.ring, rows)

    def inverse(self):
        return GeneratorWord(self.ring, self.size, inverse_atoms(self.atoms))

    def shifted(self, k):
        """The same atoms on indices k+1..k+size: eval() is I_k perp
        eval(self).  A symplectic atom keeps its mirror only for even k."""
        if k % 2 and any(a.family == SYMPLECTIC for a in self.atoms):
            raise RingError("a symplectic word shifts by an even k only")
        return GeneratorWord(self.ring, self.size + k, [
            GeneratorAtom(a.family, a.i + k, a.j + k, a.arg) for a in self.atoms])

    def __len__(self):
        return len(self.atoms)

    def check_relative(self, ideal=None):
        """Check that each block of three atoms is a conjugation triple
        ge_ij(a) ge_ji(x) ge_ij(-a), with every core x in ``ideal`` when
        one is given; returns True or raises."""
        atoms = self.atoms
        if len(atoms) % 3:
            raise RingError("atom block %d is not a conjugation triple"
                            % (len(atoms) // 3,))
        for k in range(0, len(atoms), 3):
            g1, g2, g3 = atoms[k:k + 3]
            if not ((g1.i, g1.j) == (g3.i, g3.j) == (g2.j, g2.i)
                    and g1.arg == -g3.arg and g1.family == g2.family == g3.family):
                raise RingError("atom block %d is not a conjugation triple" % (k // 3,))
            if ideal is not None and not ideal.contains(g2.arg):
                raise RingError("triple core %r not in %s" % (g2.arg, ideal))
        return True

    def __repr__(self):
        return "Word[%s]" % "; ".join(repr(a) for a in self.atoms)


# -- the word algebra on lists of atoms -------------------------------
# Words are built as atom lists; a GeneratorWord wraps one for evaluation.


def inverse_atoms(atoms):
    """The atoms of the inverse word: reversed, each atom inverted."""
    return [x.inverse() for x in reversed(atoms)]


def commutator(x, y):
    """The atoms of [x, y] = x y x^-1 y^-1."""
    return [*x, *y, *inverse_atoms(x), *inverse_atoms(y)]


def conjugate(g, h):
    """The atoms of g h g^-1."""
    return [*g, *h, *inverse_atoms(g)]


def atom_rows(atoms):
    """Z/m atoms as (i, j, arg mod m) rows of an atom table."""
    return [(x.i, x.j, x.arg.value) for x in atoms]


def conjugation_triple(family, i, j, a, x):
    """The atoms of ge_ij(a) ge_ji(x) ge_ij(-a)."""
    return conjugate([GeneratorAtom(family, i, j, a)],
                     [GeneratorAtom(family, j, i, x)])


def relative_generator(ring, family, size, i, j, a, x, ideal):
    """Conjugation triple ge_ij(a) ge_ji(x) ge_ij(-a), x in I."""
    word = GeneratorWord(ring, size, conjugation_triple(
        family, i, j, ring.element(a), ring.element(x)))
    word.check_relative(ideal)
    return word


# -- rho / mu transvection matrices ----------------------------------


def _as_row(ring, q):
    return [ring.element(x) for x in q]


def _rho_mu(ring, q, phi, r, corner):
    """Identity of size 2n+2 with corner entry (r, 1-r), row r tail
    -+q*phi and column 1-r tail q^t: rho for r = 1, mu for r = 0."""
    q = _as_row(ring, q)
    m = phi.n
    if len(q) != m:
        raise RingError("q must have length %d" % m)
    rows = identity_rows(ring, m + 2)
    rows[r][1 - r] = corner
    for c, qphi in enumerate(row_times(q, phi)):
        rows[r][c + 2] = -qphi if r else qphi
        rows[c + 2][1 - r] = q[c]
    return SquareMatrix.from_rows(ring, rows)


def _rho_mu_table(q, t, psi, m, r):
    """``_rho_mu`` for rho (r = 1, t = alpha) or mu (r = 0, t = beta)
    over Z/m, one per row of the (S, 2n) int64 array q, psi an int64
    array.  Each product q_k psi_kc is reduced before the sum."""
    qpsi = (q[:, :, None] * psi % m).sum(axis=1) % m
    out = np.tile(np.eye(q.shape[1] + 2, dtype=np.int64), (len(q), 1, 1))
    out[:, r, 1 - r] = t if r else -t % m
    out[:, r, 2:] = -qpsi % m if r else qpsi
    out[:, 2:, 1 - r] = q
    return out


def rho_matrix(ring, q, alpha, phi):
    """Block matrix [[1,0,0],[alpha,1,-q*phi],[q^t,0,I]] of size 2n+2."""
    return _rho_mu(ring, q, phi, 1, ring.element(alpha))


def mu_matrix(ring, q, beta, phi):
    """Block matrix [[1,-beta,q*phi],[0,1,0],[0,q^t,I]] of size 2n+2."""
    return _rho_mu(ring, q, phi, 0, -ring.element(beta))


def hyperbolic_defect(ring, q):
    """h(q) = sum q_{2k-1} q_{2k}: the cross-term a generator product
    accumulates; see PAPER_ERRATA for why the decompositions need it."""
    q = _as_row(ring, q)
    acc = ring.zero()
    for k in range(0, len(q), 2):
        acc = acc + q[k] * q[k + 1]
    return acc


def _rho_atoms(ring, q, alpha):
    q = _as_row(ring, q)
    return [se(2, 1, ring.element(alpha) + hyperbolic_defect(ring, q)),
            *(se(i, 1, x) for i, x in enumerate(q, start=3))]


def _mu_atoms(ring, q, beta):
    q = _as_row(ring, q)
    return [se(1, 2, hyperbolic_defect(ring, q) - ring.element(beta)),
            *(se(1, i, -q[sigma(i - 2) - 1] if i % 2 else q[sigma(i - 2) - 1])
              for i in range(3, len(q) + 3))]


def decompose_rho(ring, q, alpha):
    """Generator word evaluating to rho_matrix(q, alpha, psi_n).

    First factor se_21(alpha + h(q)); the plain se_21(alpha) of the
    source display fails by the hyperbolic cross-term (see errata).
    """
    return GeneratorWord(ring, len(q) + 2, _rho_atoms(ring, q, alpha))


def decompose_mu(ring, q, beta):
    """Generator word evaluating to mu_matrix(q, beta, psi_n)."""
    return GeneratorWord(ring, len(q) + 2, _mu_atoms(ring, q, beta))


def decomposition_counts(ring, n, samples):
    """(rho passed, mu passed) over the samples (q, alpha, beta): how many
    decompose_rho / decompose_mu words evaluate to rho_matrix(q, alpha,
    psi_n) / mu_matrix(q, beta, psi_n).  Over a Z/m that ``fits_table``,
    per block of ``CHUNK_ROWS`` samples each family's atom rows are one
    int64 table written by ``_rho_mu_rows``, evaluated by ``eval_table``
    and compared row by row with ``_rho_mu_table``; other rings evaluate
    each sample's two words."""
    psi = standard_form(ring, n)
    ok = [0, 0]
    if not fits_table(ring):
        for q, al, be in samples:
            ok[0] += decompose_rho(ring, q, al).eval() == \
                rho_matrix(ring, q, al, psi)
            ok[1] += decompose_mu(ring, q, be).eval() == \
                mu_matrix(ring, q, be, psi)
        return tuple(ok)
    m, size = ring.m, 2 * n + 2
    psi = np.array([[x.value for x in row] for row in psi.rows],
                   dtype=np.int64).reshape(2 * n, 2 * n)
    samples = iter(samples)
    while block := list(islice(samples, CHUNK_ROWS)):
        vals = np.array([[x.value for x in _as_row(ring, (*q, al, be))]
                         for q, al, be in block], dtype=np.int64)
        for f, (table, r) in enumerate(zip(_rho_mu_rows(vals, m), (1, 0))):
            words = eval_table(table, size, m, SYMPLECTIC)
            closed = _rho_mu_table(vals[:, :-2], vals[:, -1 - r], psi, m, r)
            ok[f] += int((words == closed).all(axis=(1, 2)).sum())
    return tuple(ok)


def _rho_mu_rows(vals, m):
    """The atom tables of ``_rho_atoms`` and ``_mu_atoms`` over Z/m, one
    word per row (q, alpha, beta) of the int64 array ``vals``, written
    from the values with one h(q) per sample: rho is se_21(alpha + h(q))
    then se_i1(q_(i-2)), mu is se_12(h(q) - beta) then se_1i(+-q_k), k
    the partner sigma(i - 2) of i - 2 and the sign - for odd i."""
    q, count, k = vals[:, :-2], len(vals), vals.shape[1] - 2
    h = (q[:, 0::2] * q[:, 1::2] % m).sum(axis=1) % m
    rho = np.empty((count, k + 1, 3), dtype=np.int64)
    mu = np.empty((count, k + 1, 3), dtype=np.int64)
    rho[:, 0, :2], rho[:, 0, 2] = (2, 1), (vals[:, -2] + h) % m
    mu[:, 0, :2], mu[:, 0, 2] = (1, 2), (h - vals[:, -1]) % m
    rho[:, 1:, 0] = mu[:, 1:, 1] = np.arange(3, k + 3)
    rho[:, 1:, 1] = mu[:, 1:, 0] = 1
    rho[:, 1:, 2] = q
    partner = np.arange(k) ^ 1  # sigma on 0-based indices
    mu[:, 1:, 2] = q[:, partner] * np.where(np.arange(k) % 2, 1, -1) % m
    return rho, mu


# -- Bass symplectic transvections -----------------------------------


def _pairing(ring, u, v, phi):
    """<u, v> = u phi v^t."""
    return dot(row_times(u, phi), v, ring)


def bass_symplectic_transvection(ring, u, v, alpha, phi):
    """(I - v^t u phi - u^t v phi)(I - alpha u^t u phi); needs <u,v> = 0."""
    u = _as_row(ring, u)
    v = _as_row(ring, v)
    if not _pairing(ring, u, v, phi).is_zero():
        raise RingError("Bass transvection requires <u, v> = 0")
    m = phi.n
    alpha = ring.element(alpha)

    def outer_phi(a, b):
        # matrix a^t * (b phi)
        bphi = row_times(b, phi)
        return SquareMatrix(ring, [[a[r] * bphi[c] for c in range(m)] for r in range(m)])

    eye = SquareMatrix.identity(ring, m)
    first = eye - outer_phi(v, u) - outer_phi(u, v)
    second = eye - outer_phi(u, u) * alpha
    return first * second


def _transvection_action(ring, q, t, phi, point, r):
    """rho (r = 1) or mu (r = 0): coordinate r of (a, b) moves by
    +-(t * fixed - <p,q>), fixed being the other, and p += fixed * q."""
    a, b, p = point
    ab = [ring.element(a), ring.element(b)]
    p, q = _as_row(ring, p), _as_row(ring, q)
    fixed = ab[1 - r]
    shift = ring.element(t) * fixed - _pairing(ring, q, p, phi)
    ab[r] = ab[r] + (shift if r else -shift)
    return (ab[0], ab[1], tuple(pc + fixed * qc for pc, qc in zip(p, q)))


def transvection_action_rho(ring, q, alpha, phi, point):
    """Def-style map (a, b, p) -> (a, b - <p,q> + alpha a, p + a q)
    with the pairing convention <p, q> = q phi p^t."""
    return _transvection_action(ring, q, alpha, phi, point, 1)


def transvection_action_mu(ring, q, beta, phi, point):
    """Def-style map (a, b, p) -> (a + <p,q> - beta b, b, p + b q),
    same pairing convention."""
    return _transvection_action(ring, q, beta, phi, point, 0)


# -- serialization ----------------------------------------------------


def word_to_json(word):
    return json.dumps([
        {"fam": "L" if a.family == LINEAR else "S", "i": a.i, "j": a.j,
         "arg": a.arg.ring.to_json(a.arg)}
        for a in word.atoms])


def word_from_json(ring, size, text):
    atoms = []
    for rec in json.loads(text):
        fam = LINEAR if rec["fam"] == "L" else SYMPLECTIC
        atoms.append(GeneratorAtom(fam, rec["i"], rec["j"],
                                   ring.from_json(rec["arg"])))
    return GeneratorWord(ring, size, atoms)
