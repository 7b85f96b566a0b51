"""The PSL2(Z) reference the tests check the package's matrices against.

It keeps its own matrix types, its own literal S and U, the word reader
``word_to_matrix``, the free-product normal form ``normalize_psl`` and
its inverse ``matrix_to_word``, which the tests use to build inputs and
to check round trips.  It imports nothing from ``congsub``, so a test
that compares the package's matrices with words multiplied out here
shares no letter table with the package.
"""


class Mat2:
    """2x2 integer matrix (a b; c d) with determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a * d - b * c != 1:
            raise ValueError("determinant must be 1, got %d" % (a * d - b * c))
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other):
        if other.__class__ is not Mat2:
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return "Mat2(a=%r, b=%r, c=%r, d=%r)" % self.entries()

    def __mul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self):
        return Mat2(self.d, -self.b, -self.c, self.a)

    def neg(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


IDENTITY = Mat2(1, 0, 0, 1)
S = Mat2(0, 1, -1, 0)
U = Mat2(0, -1, 1, 1)  # S*U = T, U has order 6 in SL, 3 in PSL
T = Mat2(1, 1, 0, 1)


class PslElement:
    """Element of PSL2(Z): pair {M, -M} with a canonical sign.

    The representative is normalized so that the first nonzero entry in
    scan order (a, b, c, d) is positive, so equal projective classes
    compare and hash equal.
    """

    __slots__ = ("rep",)

    def __init__(self, rep):
        e = next(e for e in rep.entries() if e)  # determinant 1: not all zero
        self.rep = rep if e > 0 else rep.neg()

    def __eq__(self, other):
        if other.__class__ is not PslElement:
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash((self.rep,))

    def __repr__(self):
        return "PslElement(rep=%r)" % (self.rep,)

    def __mul__(self, other):
        return PslElement(self.rep * other.rep)

    def inv(self):
        return PslElement(self.rep.inv())

    def is_identity(self):
        return self.rep == IDENTITY


PSL_IDENTITY = PslElement(IDENTITY)
PSL_S = PslElement(S)
PSL_U = PslElement(U)
LETTERS = {"S": PSL_S, "U": PSL_U, "u": PSL_U * PSL_U}


def word_to_matrix(w):
    """Left-to-right product of the letters of w, canonicalized."""
    bad = set(w) - LETTERS.keys()
    if bad:
        raise ValueError("letters %r not in the PSL alphabet" % bad)
    acc = PSL_IDENTITY
    for x in w:
        acc = acc * LETTERS[x]
    return acc


def normalize_psl(letters):
    """Normal form in the free product <S | S^2> * <U | U^3>.

    Iteratively removes S*S, U*u, u*U and rewrites U*U -> u, u*u -> U, so
    the empty string is returned exactly for words trivial in the free
    product.
    """
    out = []
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


def matrix_to_word(x):
    """Express a PSL2(Z) element as a word in S and U.

    Euclidean reduction on the bottom row peels off factors T^q * S until
    the matrix is triangular, i.e. a power of T; the SL letters are then
    replaced by T = S*U and T^-1 = u*S and the word is normalized.
    """
    n = x.rep
    chunks = []
    while n.c != 0:
        q = n.a // n.c
        chunks.append(t_power(q))
        chunks.append("S")
        # split off the left factor T^q * S
        r, s = n.a - q * n.c, n.b - q * n.d
        n = Mat2(-n.c, -n.d, r, s)
    # n is now +-(1 k; 0 1)
    k = n.b if n.a == 1 else -n.b
    chunks.append(t_power(k))
    return normalize_psl("".join(chunks))


def t_power(q):
    """T^q = (SU)^q as a PSL word."""
    if q >= 0:
        return "SU" * q
    return "uS" * (-q)
