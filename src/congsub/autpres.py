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


# --- automorphisms as (image of x, image of y) ---

Aut = tuple[Fword, Fword]

AUT_ID: Aut = (X, Y)


def a_apply(f: Aut, w: Fword) -> Fword:
    """Image of the word w under the automorphism f."""
    wx, wy = f
    parts: list[int] = []
    for a in w:
        img = wx if abs(a) == 1 else wy
        parts.extend(img if a > 0 else w_inv(img))
    return free_reduce(parts)


def a_compose(f: Aut, g: Aut) -> Aut:
    """f after g."""
    return (a_apply(f, g[0]), a_apply(f, g[1]))


# --- presentation generators: a = t1 and d = t1 t2 t3 ---

GENS = ("t1", "d")

GEN_AUT: dict[str, Aut] = {
    "t1": ((1,), (2, 1)),
    "d": ((-2,), (1,)),
}
# each generator's explicit inverse
GEN_AUT_INV: dict[str, Aut] = {
    "t1": ((1,), (2, -1)),
    "d": ((2,), (-1,)),
}

Token = tuple[str, int]  # generator name, exponent +1 / -1
TokenWord = tuple[Token, ...]


def evaluate(word: TokenWord) -> Aut:
    f = AUT_ID
    for name, e in word:
        f = a_compose(f, (GEN_AUT if e == 1 else GEN_AUT_INV)[name])
    return f


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


# --- action of the presentation generators on generating pairs ---

def _eval_in_group(g: FiniteGroup, w: Fword, gx: int, gy: int) -> int:
    acc = 0
    for a in w:
        v = gx if abs(a) == 1 else gy
        if a < 0:
            v = g.inv(v)
        acc = g.mul(acc, v)
    return acc


def _state_action(g: FiniteGroup, name: str):
    wx, wy = GEN_AUT[name]

    def step(state):
        gx, gy = state
        return (_eval_in_group(g, wx, gx, gy), _eval_in_group(g, wy, gx, gy))

    return step


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
    states, forward = orbit_table(
        (pi0.gx, pi0.gy), {name: _state_action(g, name) for name in GENS}
    )
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
