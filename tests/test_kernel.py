"""Differential tests: the row/column-operation kernel against dense
products of ``GeneratorAtom.matrix()`` factors and evaluated words."""

import random
import zlib

import pytest

from transvect.matrices import SquareMatrix, row_times
from transvect.rewrite import _neg, atom_root, comm_word
from transvect.rings import RingError, parse_ring
from transvect.words import GeneratorWord, act_on_rows, lin, se

RINGS = ["zmod:9", "gf:5", "dyadic", "poly:dyadic:a,b", "poly:zmod:9:X"]
CASES = [(desc, fam, size) for desc in RINGS for fam in ("linear", "symplectic")
         for size in range(2, 9) if fam == "linear" or size % 2 == 0]


def _random_atoms(ring, family, size, rng, length):
    atom = lin if family == "linear" else se
    out = []
    for _ in range(length):
        i, j = rng.sample(range(1, size + 1), 2)
        # zero arguments exercise the kernel's skip path
        arg = ring.zero() if rng.randrange(5) == 0 else ring.sample(rng)
        out.append(atom(i, j, arg))
    return out


def _dense_product(ring, size, atoms):
    out = SquareMatrix.identity(ring, size)
    for a in atoms:
        out = out * a.matrix(ring, size)
    return out


def _seed(*parts):
    return zlib.crc32(repr(parts).encode())


@pytest.mark.parametrize("desc,family,size", CASES)
def test_eval_matches_dense_product(desc, family, size):
    ring = parse_ring(desc)
    rng = random.Random(_seed(desc, family, size))
    for length in (0, 1, 2, 5, 9):
        atoms = _random_atoms(ring, family, size, rng, length)
        word = GeneratorWord(ring, size, atoms)
        assert word.eval() == _dense_product(ring, size, atoms)


@pytest.mark.parametrize("desc,family,size", CASES)
def test_row_operation_matches_dense_left_product(desc, family, size):
    ring = parse_ring(desc)
    rng = random.Random(_seed("rows", desc, family, size))
    for _ in range(4):
        mat = _dense_product(ring, size,
                             _random_atoms(ring, family, size, rng, 4))
        atom = _random_atoms(ring, family, size, rng, 1)[0]
        rows = [list(r) for r in mat.rows]
        act_on_rows(rows, atom.inverse().entries(ring, size))
        assert SquareMatrix(ring, rows) == atom.inverse().matrix(ring, size) * mat


@pytest.mark.parametrize("desc", RINGS)
@pytest.mark.parametrize("size", [4, 6])
def test_peeled_commutator_matches_dense_product(desc, size):
    """comm_word evaluates [g, h] by the kernel and peels it by row
    operations; the atoms it returns must multiply out, densely, to the
    dense commutator."""
    ring = parse_ring(desc)
    rng = random.Random(_seed("peel", desc, size))
    n = size // 2
    done = 0
    while done < 6:
        g, h = _random_atoms(ring, "symplectic", size, rng, 2)
        if atom_root(g.i, g.j, n) == _neg(atom_root(h.i, h.j, n)):
            continue
        dense = _dense_product(ring, size, [g, h, g.inverse(), h.inverse()])
        peeled = comm_word(ring, size, g, h)
        assert _dense_product(ring, size, peeled) == dense
        done += 1


def _one_block(mat, k):
    """I_k perp mat, entry by entry."""
    ring, n = mat.ring, mat.n + k
    rows = [[ring.one() if r == c else ring.zero() for c in range(n)]
            for r in range(n)]
    for r in range(k, n):
        for c in range(k, n):
            rows[r][c] = mat[r - k, c - k]
    return SquareMatrix(ring, rows)


@pytest.mark.parametrize("desc,family,size", CASES)
def test_shifted_word_is_identity_perp_word(desc, family, size):
    ring = parse_ring(desc)
    rng = random.Random(_seed("shift", desc, family, size))
    for k in (1, 2, 3):
        for length in (0, 1, 3, 7):
            word = GeneratorWord(ring, size,
                                 _random_atoms(ring, family, size, rng, length))
            if family == "symplectic" and k % 2 and length:
                # an odd shift would move a short root's mirror off sigma
                with pytest.raises(RingError):
                    word.shifted(k)
                continue
            shifted = word.shifted(k)
            assert shifted.size == size + k
            assert shifted.eval() == _one_block(word.eval(), k)


def _random_matrix(ring, size, rng):
    return SquareMatrix(ring, [[ring.sample(rng) for _ in range(size)]
                               for _ in range(size)])


def _words(ring, family, size, rng):
    """Words of every test length, plain and shifted into ``size``."""
    shifts = (0, 1) if family == "linear" else (0, 2)
    for k in shifts:
        if size - k < 2:
            continue
        for length in (0, 1, 2, 5, 9):
            atoms = _random_atoms(ring, family, size - k, rng, length)
            yield GeneratorWord(ring, size - k, atoms).shifted(k)


@pytest.mark.parametrize("desc,family,size", CASES)
def test_congruence_matches_dense_product(desc, family, size):
    ring = parse_ring(desc)
    rng = random.Random(_seed("congruence", desc, family, size))
    for word in _words(ring, family, size, rng):
        phi = _random_matrix(ring, size, rng)
        big = word.eval()
        assert word.congruence(phi) == big.transpose() * phi * big


@pytest.mark.parametrize("desc,family,size", CASES)
def test_similarity_matches_dense_product(desc, family, size):
    ring = parse_ring(desc)
    rng = random.Random(_seed("similarity", desc, family, size))
    for word in _words(ring, family, size, rng):
        mat = _random_matrix(ring, size, rng)
        assert word.similarity(mat) == word.inverse().eval() * mat * word.eval()


def test_word_action_rejects_another_ring_or_size():
    ring = parse_ring("zmod:9")
    word = GeneratorWord(ring, 3, [lin(1, 2, ring.element(4))])
    for mat in (SquareMatrix.identity(ring, 4),
                SquareMatrix.identity(parse_ring("gf:5"), 3)):
        with pytest.raises(RingError):
            word.congruence(mat)
        with pytest.raises(RingError):
            word.similarity(mat)


@pytest.mark.parametrize("desc", RINGS)
@pytest.mark.parametrize("size", [1, 2, 5])
def test_row_times_matches_entry_sum(desc, size):
    ring = parse_ring(desc)
    rng = random.Random(_seed("row", desc, size))
    mat = _random_matrix(ring, size, rng)
    q = [ring.sample(rng) for _ in range(size)]
    expected = []
    for c in range(size):
        acc = ring.zero()
        for r in range(size):
            acc = acc + q[r] * mat[r, c]
        expected.append(acc)
    assert row_times(q, mat) == expected


def test_row_times_coerces_and_checks_length():
    ring = parse_ring("zmod:9")
    mat = SquareMatrix(ring, [[1, 2], [3, 4]])
    assert row_times([1, 1], mat) == [ring.element(4), ring.element(6)]
    for q in ([1], [1, 2, 3]):
        with pytest.raises(RingError):
            row_times(q, mat)
