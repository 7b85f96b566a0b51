"""A finite presentation of the special automorphism group Aut+(F2) of
the rank-2 free group, and Reidemeister-Schreier rewriting of stabilizer
subgroups through it.

Aut+(F2), the automorphisms of determinant +1, is the braid group B4
modulo its center (Dyer, Formanek & Grossman, Arch. Math. 38, 1982).  So
it has the presentation of B4 on three generators with the center's
generator (t1 t2 t3)^4 killed:

    [t1, t3],  t1 t2 t1 = t2 t1 t2,  t2 t3 t2 = t3 t2 t3,  (t1 t2 t3)^4

where the braid generators act as the automorphisms

    t1 : x -> x,      y -> y x
    t2 : x -> x y^-1, y -> y
    t3 : x -> x,      y -> x y

The relators hold in Aut+(F2), which is checked exactly at build time,
and t1, t2, t3 generate Aut+(F2): the conjugations by x and by y, the
rotation x -> y^-1, y -> x and the order-6 element x -> y^-1, y -> x y,
which together generate it, are words of length 2 to 6 in them (checked
in the tests).  So they define a surjection from B4/Z(B4) onto Aut+(F2).
Aut(F2) is residually finite (Baumslag 1963), so its finitely generated
subgroup Aut+(F2) is Hopfian (Mal'cev 1940); as B4/Z(B4) is isomorphic to
it, that surjection is an isomorphism.
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


# --- presentation generators: the braid generators of B4 ---

GENS = ("t1", "t2", "t3")

GEN_AUT: dict[str, Aut] = {
    "t1": ((1,), (2, 1)),
    "t2": ((1, -2), (2,)),
    "t3": ((1,), (1, 2)),
}
# each generator's explicit inverse
GEN_AUT_INV: dict[str, Aut] = {
    "t1": ((1,), (2, -1)),
    "t2": ((1, 2), (2,)),
    "t3": ((1,), (-1, 2)),
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
    """Finite presentation of Aut+(F2) as B4/Z(B4): 3 generators, 4
    relators.  Build fails loudly if any relator is not the identity
    automorphism."""
    t1, t2, t3 = ("t1", 1), ("t2", 1), ("t3", 1)
    t1i, t2i, t3i = ("t1", -1), ("t2", -1), ("t3", -1)
    relators = (
        (t1, t3, t1i, t3i),
        (t1, t2, t1, t2i, t1i, t2i),
        (t2, t3, t2, t3i, t2i, t3i),
        (t1, t2, t3) * 4,
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
    row per (relator, state) for the three relators that are no powers,
    and one per cycle of t1 t2 t3 for (t1 t2 t3)^4, zero rows dropped.
    """
    return relation_rows(signed_coset_table(g, pi0).forward, presentation().relators)
