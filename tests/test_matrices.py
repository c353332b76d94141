import random

import pytest

from transvect.matrices import (SquareMatrix, determinant, is_alternating,
                                is_symplectic, matrix_from_json,
                                matrix_to_json, pfaffian, sigma,
                                standard_form)
from transvect.rings import GF, RingError, Zmod
from transvect.words import GeneratorWord, se


def test_sigma_involution():
    for i in range(1, 9):
        assert sigma(sigma(i)) == i
        assert abs(sigma(i) - i) == 1


def test_standard_form_shape():
    R = Zmod(9)
    psi = standard_form(R, 2)
    assert is_alternating(psi)
    assert pfaffian(psi) == R.one()
    assert psi[0, 1] == R.one() and psi[1, 0] == -R.one()


def test_pfaffian_squares_to_determinant():
    R = GF(5)
    rng = random.Random(4)
    for _ in range(25):
        n = 4
        entries = [[R.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = R.element(rng.randrange(5))
                entries[i][j] = v
                entries[j][i] = -v
        mat = SquareMatrix(R, entries)
        assert pfaffian(mat) * pfaffian(mat) == determinant(mat)


def test_symplectic_atoms_preserve_form():
    R = Zmod(9)
    psi = standard_form(R, 2)
    rng = random.Random(0)
    for _ in range(40):
        i, j = rng.sample(range(1, 5), 2)
        mat = se(i, j, R.element(rng.randrange(9))).matrix(R, 4)
        assert is_symplectic(mat, psi)


def test_word_eval_inverse():
    R = Zmod(25)
    w = GeneratorWord(R, 4, [se(1, 3, R.element(2)), se(2, 1, R.element(7))])
    assert GeneratorWord(R, 4, [*w.atoms, *w.inverse().atoms]
                         ).eval().is_identity()


def test_matrix_json_roundtrip():
    R = Zmod(9)
    psi = standard_form(R, 2)
    again = matrix_from_json(matrix_to_json(psi))
    assert again == psi


def test_non_square_rejected():
    with pytest.raises(RingError):
        SquareMatrix(Zmod(5), [[1, 2], [3]])
