"""Words for PSL2(Z) matrices: the inverse of ``congsub.matgroup.word_to_matrix``
that the tests use to build inputs and to check round trips.  The package
itself only ever reads words into matrices.
"""
from congsub.matgroup import Mat2, normalize_psl


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
