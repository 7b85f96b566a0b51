"""PSL2(Z) words, congruence membership and the index formulas.

A 2x2 integer matrix (a b; c d) is the quadruple (a, b, c, d); the
package builds no other matrix type.  PSL words are strings over the
finite-order generators S (order 2 in PSL) and U (order 3 in PSL) and
u = U^2 = U^-1.
"""
from __future__ import annotations


# The letters' matrices, each the sign of its PSL2(Z) class whose first
# nonzero entry is positive, so u is U^2 only up to sign.
_LETTER_MATRIX = {"S": (0, 1, -1, 0), "U": (0, 1, -1, -1), "u": (1, 1, -1, 0)}
_PSL_INVERSE = {"S": "S", "U": "u", "u": "U"}
_PSL_INVERT = str.maketrans(_PSL_INVERSE)
NEG_IDENTITY = (-1, 0, 0, -1)


def _check_psl_word(word: str):
    """Raises ``ValueError`` unless word is over 'S', 'U' and 'u'."""
    bad = set(word) - _PSL_INVERSE.keys()
    if bad:
        raise ValueError("letters %r not in the PSL alphabet" % bad)


def invert_psl(letters: str) -> str:
    return letters[::-1].translate(_PSL_INVERT)


def distinct_primes(m: int) -> list[int]:
    """Distinct prime divisors of m >= 1, ascending."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def _check_pair(m: int, n: int):
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m % n != 0:
        raise ValueError("n must divide m (got m=%d, n=%d)" % (m, n))


def is_member(m: int, n: int, x: tuple[int, int, int, int]) -> bool:
    """Membership of x = (a, b, c, d) in the congruence subgroup with top
    row constrained mod m and bottom row constrained mod n."""
    _check_pair(m, n)
    a, b, c, d = x
    return (a - 1) % m == 0 and b % m == 0 and c % n == 0 and (d - 1) % n == 0


def index_formula(m: int, n: int) -> int:
    """Index in SL2(Z): n * m^2 * prod_{p | m} (1 - p^-2), exact: the
    integer n * m^2 * prod (p^2 - 1) // prod p^2."""
    _check_pair(m, n)
    num, den = n * m * m, 1
    for p in distinct_primes(m):
        num, den = num * (p * p - 1), den * p * p
    if num % den:
        raise RuntimeError("index of Gamma(%d,%d) is not an integer: %d/%d" % (m, n, num, den))
    return num // den


def psl_index_formula(m: int, n: int) -> int:
    """Index of the projective image in PSL2(Z).

    Equals the SL index when -I lies in the subgroup (i.e. m | 2, so the
    subgroup maps 2:1 onto its image) and half of it otherwise (the
    projection is injective on the subgroup for m >= 3).
    """
    _check_pair(m, n)
    idx = index_formula(m, n)
    if is_member(m, n, NEG_IDENTITY):
        return idx
    if idx % 2:
        raise RuntimeError("odd SL index %d of Gamma(%d,%d) without -I" % (idx, m, n))
    return idx // 2
