import random

import pytest

from congsub.matgroup import (
    GeneratorWord,
    IDENTITY,
    Mat2,
    NEG_IDENTITY,
    PSL_IDENTITY,
    PSL_S,
    PSL_U,
    PslElement,
    S,
    T,
    U,
    distinct_primes,
    index_formula,
    invert_psl,
    is_member,
    matrix_to_word,
    normalize_psl,
    psl_index_formula,
    word_to_matrix,
)


def test_determinant_enforced():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Mat2(2, 0, 0, 1)


def test_matrix_algebra():
    assert S * S == NEG_IDENTITY
    assert U * U * U == NEG_IDENTITY
    assert S * U == T
    assert S.inv() * S == IDENTITY
    assert T.inv() == Mat2(1, -1, 0, 1)


def test_psl_sign_canonical():
    assert PslElement(S) == PslElement(S.neg())
    assert hash(PslElement(U)) == hash(PslElement(U.neg()))
    assert PslElement(NEG_IDENTITY).is_identity()
    assert (PSL_S * PSL_S).is_identity()
    assert (PSL_U * PSL_U * PSL_U).is_identity()


def test_normalize_psl():
    assert normalize_psl("SS") == ""
    assert normalize_psl("UUU") == ""
    assert normalize_psl("UU") == "u"
    assert normalize_psl("uu") == "U"
    assert normalize_psl("Uu") == ""
    assert normalize_psl("SUuS") == ""
    # idempotent
    for w in ("SUSU", "uSuS", "SUUS"):
        assert normalize_psl(normalize_psl(w)) == normalize_psl(w)


def test_word_inverse():
    w = GeneratorWord("SUSu")
    prod = (w * w.inverse()).normalize()
    assert prod.letters == ""
    assert invert_psl("SU") == "uS"


def test_word_alphabet_checked():
    with pytest.raises(ValueError):
        GeneratorWord("ST")


def test_word_matrix_basics():
    assert word_to_matrix("") == PSL_IDENTITY
    assert word_to_matrix("S") == PSL_S
    assert matrix_to_word(PSL_IDENTITY).letters == ""
    assert matrix_to_word(PSL_S).letters == "S"
    assert word_to_matrix("SU") == PslElement(T)


def test_round_trip_seeded():
    rng = random.Random(7)
    for _ in range(300):
        w = "".join(rng.choice("SUu") for _ in range(rng.randint(0, 40)))
        x = word_to_matrix(w)
        back = matrix_to_word(x)
        assert word_to_matrix(back.letters) == x
        # conversion agrees with free-product normalization of the input
        assert word_to_matrix(normalize_psl(w)) == x


def test_membership():
    assert is_member(2, 1, NEG_IDENTITY)
    assert not is_member(4, 1, NEG_IDENTITY)
    assert is_member(2, 2, Mat2(1, 2, 2, 5))
    assert not is_member(2, 2, T)
    assert is_member(2, 1, T * T)
    with pytest.raises(ValueError):
        is_member(4, 3, IDENTITY)  # n must divide m


def test_distinct_primes():
    assert distinct_primes(1) == []
    assert distinct_primes(12) == [2, 3]
    assert distinct_primes(7) == [7]
    assert distinct_primes(60) == [2, 3, 5]


def test_index_formula_values():
    assert index_formula(1, 1) == 1
    assert index_formula(2, 1) == 3
    assert index_formula(4, 4) == 48
    assert index_formula(4, 2) == 24
    assert index_formula(6, 2) == 48
    assert index_formula(10, 10) == 720


def test_psl_index_values():
    # division by 2 exactly when -I is not in the subgroup (m >= 3)
    assert psl_index_formula(2, 1) == 3
    assert psl_index_formula(2, 2) == 6
    assert psl_index_formula(3, 3) == 12
    assert psl_index_formula(4, 4) == 24
    assert psl_index_formula(4, 2) == 12
