"""Exact arithmetic in SL2(Z) and PSL2(Z).

Matrices are unbounded-integer 2x2 of determinant 1.  PSL2(Z) elements are
canonical representatives of {M, -M}.  Words over the finite-order
generators S (order 2 in PSL) and U (order 3 in PSL) are normalized in
the free product Z/2 * Z/3 and converted to matrices.
"""
from __future__ import annotations


class Mat2:
    """2x2 integer matrix (a b; c d) with determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError("determinant must be 1, got %d" % (a * d - b * c))
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other):
        if other.__class__ is not Mat2:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "Mat2(a=%r, b=%r, c=%r, d=%r)" % (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def neg(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self):
        return "(%d %d; %d %d)" % self.entries()


IDENTITY = Mat2(1, 0, 0, 1)
S = Mat2(0, 1, -1, 0)
U = Mat2(0, -1, 1, 1)       # S*U = T, U has order 6 in SL, 3 in PSL
T = Mat2(1, 1, 0, 1)
NEG_IDENTITY = Mat2(-1, 0, 0, -1)


class PslElement:
    """Element of PSL2(Z): pair {M, -M} with a canonical sign.

    The representative is normalized so that the first nonzero entry in
    scan order (a, b, c, d) is positive.  Canonicalization happens at
    construction, so equal projective classes compare and hash equal.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: Mat2):
        for e in (rep.a, rep.b, rep.c, rep.d):
            if e:
                self.rep = rep if e > 0 else rep.neg()
                return
        self.rep = rep

    def __eq__(self, other):
        if other.__class__ is not PslElement:
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash((self.rep,))

    def __repr__(self):
        return "PslElement(rep=%r)" % (self.rep,)

    def __mul__(self, other: "PslElement") -> "PslElement":
        return PslElement(self.rep * other.rep)

    def inv(self) -> "PslElement":
        return PslElement(self.rep.inv())

    def is_identity(self) -> bool:
        return self.rep == IDENTITY

    def __str__(self):
        return "[%s]" % self.rep


PSL_IDENTITY = PslElement(IDENTITY)
PSL_S = PslElement(S)
PSL_U = PslElement(U)

# PSL words use the letters 'S', 'U' and 'u' (= U^2 = U^-1).
_PSL_LETTERS = {"S": PSL_S, "U": PSL_U, "u": PSL_U * PSL_U}
_PSL_INVERSE = {"S": "S", "U": "u", "u": "U"}
_PSL_INVERT = str.maketrans(_PSL_INVERSE)


def _check_psl_word(word: str):
    """Raises ``ValueError`` unless word is over 'S', 'U' and 'u'."""
    bad = set(word) - _PSL_INVERSE.keys()
    if bad:
        raise ValueError("letters %r not in the PSL alphabet" % bad)


def normalize_psl(letters: str) -> str:
    """Normal form in the free product <S | S^2> * <U | U^3>.

    Iteratively removes S*S, U*u, u*U and rewrites U*U -> u, u*u -> U, so
    the empty string is returned exactly for words trivial in the free
    product.
    """
    out: list[str] = []
    for x in letters:
        while out:
            y = out[-1]
            if y == "S" and x == "S":
                out.pop()
                x = ""
                break
            if y in "Uu" and x in "Uu":
                out.pop()
                if y == x:
                    # U*U -> u, u*u -> U; may combine further with new top
                    x = "u" if x == "U" else "U"
                    continue
                x = ""  # U*u or u*U cancels
                break
            break
        if x:
            out.append(x)
    return "".join(out)


def invert_psl(letters: str) -> str:
    return letters[::-1].translate(_PSL_INVERT)


def word_to_matrix(w: str) -> PslElement:
    """Left-to-right product of generator representatives, canonicalized."""
    _check_psl_word(w)
    acc = PSL_IDENTITY
    for x in w:
        acc = acc * _PSL_LETTERS[x]
    return acc


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


def is_member(m: int, n: int, x: Mat2) -> bool:
    """Membership in the congruence subgroup with top row constrained mod m
    and bottom row constrained mod n."""
    _check_pair(m, n)
    return (
        (x.a - 1) % m == 0
        and x.b % m == 0
        and x.c % n == 0
        and (x.d - 1) % n == 0
    )


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
