"""A finite presentation of the special automorphism group Aut+(F2) of
the rank-2 free group, and Reidemeister-Schreier rewriting of stabilizer
subgroups through it.

Aut+(F2), the automorphisms of determinant +1, is the braid group B4
modulo its center (Dyer, Formanek & Grossman, Arch. Math. 38, 1982), on
the braid generators

    t1 : x -> x,      y -> y x
    t2 : x -> x y^-1, y -> y
    t3 : x -> x,      y -> x y

with the relators [t1, t3], t1 t2 t1 = t2 t1 t2, t2 t3 t2 = t3 t2 t3 and
(t1 t2 t3)^4.  Here it is presented on a = t1 and d = t1 t2 t3, the
rotation x -> y^-1, y -> x, by the classical two-generator presentation
of B4 (Coxeter & Moser, *Generators and Relations for Discrete Groups*,
ch. 6) with its center d^4 killed:

    Aut+(F2) = < a, d | [a, d^2 a d^-2],  (a d)^3,  d^4 >.

The relators hold in Aut+(F2), which is checked exactly at build time,
so a -> t1, d -> t1 t2 t3 is a homomorphism from this group to
B4/Z(B4).  It has an inverse.  Put b = d a d^-1 and c = d^2 a d^-2.

1. In the free group, (d a)^3 = d (a b c) d^2, and (d a)^3 =
   d (a d)^3 d^-1.  So (a d)^3 = 1 and d^4 = 1 give a b c = d^-3 = d.
2. Then b = d a d^-1 = a b (c a c^-1) b^-1 a^-1 = a b a b^-1 a^-1, by
   [a, c] = 1.  So b a b = a b a.
3. Conjugating by d gives c b c = b c b.

So t1 -> a, t2 -> b, t3 -> c respects the four relators of B4/Z(B4),
with (a b c)^4 = d^4.  It sends t1 t2 t3 to a b c = d, and in B4
d t1 d^-1 = t2 and d^2 t1 d^-2 = t3, so the two maps are inverse to each
other on generators (each step is checked in the tests).

The route needs a generator only through its action on a pair (images
of x and y) by precomposition, so each generator and its inverse is
written once, as a map of pairs over a group's product and inverse
(``pair_maps``).  Over F2, with free reduction, the maps evaluate token
words for the build-time relator check; over a Cayley table they step
the orbit of generating pairs.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from .cosets import orbit_table
from .fingroups import Epimorphism, FiniteGroup, _check_epimorphism
from .rewriting import relation_rows

# --- free group words on x (=1) and y (=2); negatives are inverses ---

Fword = tuple[int, ...]

X: Fword = (1,)
Y: Fword = (2,)


def free_reduce(word: Iterable[int]) -> Fword:
    """Free reduction of a word of nonzero signed letters (-a inverts a)."""
    out: list[int] = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def w_inv(w: Fword) -> Fword:
    return tuple(-a for a in reversed(w))


# --- the presentation generators a = t1 and d = t1 t2 t3 ---

GENS = ("t1", "d")

Token = tuple[str, int]  # generator name, exponent +1 / -1
TokenWord = tuple[Token, ...]

AUT_ID: tuple[Fword, Fword] = (X, Y)


def pair_maps(mul, inv) -> dict:
    """Each generator and its inverse as a map of pairs (p, q), the images
    of x and y, over a group's product mul and inverse inv.

    An automorphism f acts on a pair by precomposition, so the map of a
    token sends the pair of f to the pair of f followed by the token:
    t1 (x -> x, y -> y x) sends (p, q) to (p, q p), and d (x -> y^-1,
    y -> x) sends it to (q^-1, p).
    """
    return {
        ("t1", 1): lambda s: (s[0], mul(s[1], s[0])),
        ("t1", -1): lambda s: (s[0], mul(s[1], inv(s[0]))),
        ("d", 1): lambda s: (inv(s[1]), s[0]),
        ("d", -1): lambda s: (s[1], inv(s[0])),
    }


_FREE_MAPS = pair_maps(lambda u, v: free_reduce(u + v), w_inv)


def evaluate(word: TokenWord) -> tuple[Fword, Fword]:
    """The automorphism a token word names, as its images of x and y."""
    pair = AUT_ID
    for token in word:
        pair = _FREE_MAPS[token](pair)
    return pair


Presentation = namedtuple("Presentation", "relators")


@lru_cache(maxsize=None)
def presentation() -> Presentation:
    """Finite presentation of Aut+(F2) on t1 and d: 2 generators, 3
    relators.  Build fails loudly if any relator is not the identity
    automorphism."""
    a, d = ("t1", 1), ("d", 1)
    ai, di = ("t1", -1), ("d", -1)
    relators = (
        (a, d, d, a, di, di, ai, d, d, ai, di, di),
        (a, d) * 3,
        (d,) * 4,
    )
    for rel in relators:
        if evaluate(rel) != AUT_ID:
            raise RuntimeError("unsound relator: %r" % (rel,))
    return Presentation(relators)


class PairTable(namedtuple("PairTable", "n forward")):
    """Coset table of the special stabilizer inside Aut+(F2): states are
    the generating pairs (images of x and y) in the Aut+(F2)-orbit of the
    base pair, columns the presentation generators acting by
    precomposition.  forward maps each generator to its column; the
    states are numbered breadth-first in generator order, which fixes the
    spanning tree."""

    __slots__ = ()


def signed_coset_table(g: FiniteGroup, pi0: Epimorphism) -> PairTable:
    """The orbit table of the generating pair pi0 under Aut+(F2).

    Every generator has determinant +1, so the stabilizer of pi0 under
    this action is the special stabilizer itself; its index is
    ``orbit_stabilizer(g, pi0).aut_plus_index``.
    """
    _check_epimorphism(g, pi0)
    table = g.table
    maps = pair_maps(lambda v, w: table[v][w], g.inverse.__getitem__)
    states, forward = orbit_table((pi0.gx, pi0.gy), {name: maps[name, 1] for name in GENS})
    return PairTable(len(states), forward)


def stabilizer_relation_rows(
    g: FiniteGroup, pi0: Epimorphism
) -> tuple[list[dict[int, int]], int]:
    """Abelianized Reidemeister-Schreier data for the special stabilizer.

    Returns sparse exponent-sum rows ({column: nonzero sum}) over the
    n_syms non-tree Schreier generators of the stabilizer of the pair
    pi0, and n_syms, read off the orbit table by ``relation_rows``: one
    row per state for the commutator, one per cycle of t1 d and of d for
    the two powers (t1 d)^3 and d^4, zero rows dropped.
    """
    return relation_rows(signed_coset_table(g, pi0).forward, presentation().relators)
