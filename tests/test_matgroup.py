"""The package's letters, membership and index formulas, and the PSL2(Z)
reference in ``psl_words`` that the other tests check the package
against."""
import ast
import random
from pathlib import Path

import pytest

import psl_words
from congsub.matgroup import (
    _LETTER_MATRIX,
    NEG_IDENTITY,
    _check_psl_word,
    distinct_primes,
    index_formula,
    invert_psl,
    is_member,
    psl_index_formula,
)
from psl_words import (
    IDENTITY,
    PSL_IDENTITY,
    PSL_S,
    PSL_U,
    Mat2,
    PslElement,
    S,
    T,
    U,
    matrix_to_word,
    normalize_psl,
    word_to_matrix,
)


def test_package_letters_are_the_references_s_u_and_u_squared():
    reference = {"S": PSL_S, "U": PSL_U, "u": PSL_U * PSL_U}
    assert _LETTER_MATRIX.keys() == reference.keys()
    for x, quadruple in _LETTER_MATRIX.items():
        assert PslElement(Mat2(*quadruple)) == reference[x], x


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse(Path(psl_words.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert not [name for name in imported if name.startswith(("congsub", "."))], imported


def test_determinant_enforced():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)
    with pytest.raises(ValueError, match=r"^determinant must be 1, got 2$"):
        Mat2(2, 0, 0, 1)


def test_matrix_algebra():
    assert S * S == IDENTITY.neg()
    assert U * U * U == IDENTITY.neg()
    assert S * U == T
    assert S.inv() * S == IDENTITY
    assert T.inv() == Mat2(1, -1, 0, 1)


def test_psl_sign_canonical():
    assert PslElement(S) == PslElement(S.neg())
    assert hash(PslElement(U)) == hash(PslElement(U.neg()))
    assert PslElement(IDENTITY.neg()).is_identity()
    assert (PSL_S * PSL_S).is_identity()
    assert (PSL_U * PSL_U * PSL_U).is_identity()


def test_reference_values_compare_by_their_fields():
    for make in (lambda: Mat2(2, 1, 1, 1), lambda: PslElement(Mat2(-1, 0, -3, -1))):
        x, y = make(), make()
        assert x is not y and x == y and not x != y and hash(x) == hash(y)
    assert Mat2(2, 1, 1, 1) != Mat2(1, 1, 0, 1)
    assert Mat2(1, 0, 0, 1) != (1, 0, 0, 1)
    assert PslElement(Mat2(0, 1, -1, 0)) == PslElement(Mat2(0, -1, 1, 0))
    assert repr(Mat2(2, 1, 1, 1)) == "Mat2(a=2, b=1, c=1, d=1)"
    assert repr(PslElement(Mat2(-1, 0, 0, -1))) == "PslElement(rep=Mat2(a=1, b=0, c=0, d=1))"


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
    w = "SUSu"
    assert normalize_psl(w + invert_psl(w)) == ""
    assert invert_psl("SU") == "uS"


def _invert_psl_reference(letters):
    # letter by letter through the inverse map, the form invert_psl had
    # before it moved to str.translate
    return "".join({"S": "S", "U": "u", "u": "U"}[x] for x in reversed(letters))


def test_invert_psl_matches_the_letterwise_reference():
    rng = random.Random(11)
    for _ in range(2000):
        w = "".join(rng.choice("SUu") for _ in range(rng.randint(0, 40)))
        assert invert_psl(w) == _invert_psl_reference(w)


def test_word_alphabet_checked():
    for read in (_check_psl_word, word_to_matrix):
        with pytest.raises(ValueError, match=r"^letters \{'T'\} not in the PSL alphabet$"):
            read("ST")


def test_word_matrix_basics():
    assert word_to_matrix("") == PSL_IDENTITY
    assert word_to_matrix("S") == PSL_S
    assert matrix_to_word(PSL_IDENTITY) == ""
    assert matrix_to_word(PSL_S) == "S"
    assert word_to_matrix("SU") == PslElement(T)


def test_round_trip_seeded():
    rng = random.Random(7)
    for _ in range(300):
        w = "".join(rng.choice("SUu") for _ in range(rng.randint(0, 40)))
        x = word_to_matrix(w)
        back = matrix_to_word(x)
        assert word_to_matrix(back) == x
        # conversion agrees with free-product normalization of the input
        assert word_to_matrix(normalize_psl(w)) == x


def test_membership():
    assert is_member(2, 1, NEG_IDENTITY)
    assert not is_member(4, 1, NEG_IDENTITY)
    assert is_member(2, 2, (1, 2, 2, 5))
    assert not is_member(2, 2, (1, 1, 0, 1))  # T
    assert is_member(2, 1, (1, 2, 0, 1))  # T^2
    with pytest.raises(ValueError):
        is_member(4, 3, (1, 0, 0, 1))  # n must divide m


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
