"""Exact arithmetic in SL2(Z) and PSL2(Z).

Matrices are unbounded-integer 2x2 of determinant 1.  PSL2(Z) elements are
canonical representatives of {M, -M}.  Words over the finite-order
generators S (order 2 in PSL) and U (order 3 in PSL) are converted to and
from matrices; the conversion to words runs a Euclidean reduction on the
bottom row using the translation T = S*U.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix (a b; c d) with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(
                "determinant must be 1, got %d"
                % (self.a * self.d - self.b * self.c)
            )

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


@dataclass(frozen=True)
class PslElement:
    """Element of PSL2(Z): pair {M, -M} with a canonical sign.

    The representative is normalized so that the first nonzero entry in
    scan order (a, b, c, d) is positive.  Canonicalization happens at
    construction, so equal projective classes compare and hash equal.
    """

    rep: Mat2

    def __post_init__(self):
        m = self.rep
        for e in m.entries():
            if e > 0:
                break
            if e < 0:
                object.__setattr__(self, "rep", m.neg())
                break

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


@dataclass(frozen=True)
class GeneratorWord:
    """Word over the PSL generator alphabet 'S', 'U', 'u'."""

    letters: str

    def __post_init__(self):
        bad = set(self.letters) - set(_PSL_INVERSE)
        if bad:
            raise ValueError("letters %r not in the PSL alphabet" % bad)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "GeneratorWord") -> "GeneratorWord":
        return GeneratorWord(self.letters + other.letters)

    def normalize(self) -> "GeneratorWord":
        return GeneratorWord(normalize_psl(self.letters))

    def inverse(self) -> "GeneratorWord":
        return GeneratorWord(invert_psl(self.letters))


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
    return "".join(_PSL_INVERSE[x] for x in reversed(letters))


def word_to_matrix(w: GeneratorWord | str) -> PslElement:
    """Left-to-right product of generator representatives, canonicalized."""
    letters = w.letters if isinstance(w, GeneratorWord) else w
    acc = PSL_IDENTITY
    for x in letters:
        acc = acc * _PSL_LETTERS[x]
    return acc


def matrix_to_word(x: PslElement) -> GeneratorWord:
    """Express a PSL2(Z) element as a word in S and U.

    Euclidean reduction on the bottom row peels off factors T^q * S until
    the matrix is triangular, i.e. a power of T; the SL letters are then
    replaced by T = S*U and T^-1 = u*S and the word is normalized.
    """
    n = x.rep
    chunks: list[str] = []
    while n.c != 0:
        q = n.a // n.c
        chunks.append(_t_power_psl(q))
        chunks.append("S")
        # split off the left factor T^q * S
        r, s = n.a - q * n.c, n.b - q * n.d
        n = Mat2(-n.c, -n.d, r, s)
    # n is now +-(1 k; 0 1)
    k = n.b if n.a == 1 else -n.b
    chunks.append(_t_power_psl(k))
    return GeneratorWord(normalize_psl("".join(chunks)))


def _t_power_psl(q: int) -> str:
    if q >= 0:
        return "SU" * q
    return "uS" * (-q)


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
    """Index in SL2(Z): n * m^2 * prod_{p | m} (1 - p^-2), exact."""
    _check_pair(m, n)
    acc = Fraction(n * m * m)
    for p in distinct_primes(m):
        acc *= 1 - Fraction(1, p * p)
    assert acc.denominator == 1
    return int(acc)


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
    assert idx % 2 == 0
    return idx // 2
