"""A finite presentation of the special automorphism group Aut+(F2) of
the rank-2 free group, and Reidemeister-Schreier rewriting of stabilizer
subgroups through it.

The group of automorphisms acting trivially on the abelianization is
inner for rank 2, free on the conjugations by the two basis letters.  The
automorphisms of determinant +1 therefore form an extension of SL2(Z) by
that free group, and a presentation can be assembled mechanically: take
the amalgam presentation Z/4 *_{Z/2} Z/6 of SL2(Z) (the determinant +1
part of the GL2(Z) amalgam of dihedral groups of order 8 and 12 glued
over a Klein four-group), lift each relator to an explicit automorphism,
and express the resulting inner automorphism as a word in the two basic
conjugations.  Every relator produced this way is verified to evaluate
to the identity automorphism, exactly, at build time.

Generators of the presentation, all of determinant +1:

    ax, ay : conjugation by x, by y
    s      : x -> y^-1, y -> x         (the order-4 rotation)
    b      : order-6 element with b^3 = s^2
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain

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


def w_mul(*ws: Fword) -> Fword:
    return free_reduce(chain.from_iterable(ws))


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


def conjugation_by(w: Fword) -> Aut:
    return (w_mul(w, X, w_inv(w)), w_mul(w, Y, w_inv(w)))


def find_conjugator(f: Aut) -> Fword | None:
    """The unique w with f = conjugation by w, or None if f is not inner.

    Writing w = p * x^k with p not ending in a power of x, the image of x
    is exactly p x p^-1, which pins down p; k is then read off from the
    image of y.
    """
    wx, wy = f
    if len(wx) % 2 == 0 or wx[len(wx) // 2] != 1:
        return None
    p = wx[: len(wx) // 2]
    v = w_mul(w_inv(p), wy, p)  # should be x^k y x^-k
    ys = [i for i, a in enumerate(v) if abs(a) == 2]
    if len(ys) != 1 or v[ys[0]] != 2:
        return None
    k = ys[0]
    if v != (1,) * k + (2,) + (-1,) * k and v != (-1,) * k + (2,) + (1,) * k:
        return None
    if k and v[0] == -1:
        k = -k
    w = w_mul(p, (1,) * k if k >= 0 else (-1,) * (-k))
    if conjugation_by(w) != f:
        return None
    return w


# --- presentation generators ---

GENS = ("ax", "ay", "s", "b")

_P: Aut = (Y, X)
_O: Aut = (w_inv(X), Y)
_R: Aut = (w_mul(X, Y), Y)
_R_INV: Aut = (w_mul(X, w_inv(Y)), Y)

GEN_AUT: dict[str, Aut] = {
    "ax": conjugation_by(X),
    "ay": conjugation_by(Y),
    "s": a_compose(_P, _O),
    # b = P O P R^-1 P, an order-6 element with b^3 = s^2
    "b": a_compose(a_compose(a_compose(a_compose(_P, _O), _P), _R_INV), _P),
}
# each generator's explicit inverse
GEN_AUT_INV: dict[str, Aut] = {
    "ax": conjugation_by(w_inv(X)),
    "ay": conjugation_by(w_inv(Y)),
    "s": a_compose(_O, _P),
    "b": a_compose(a_compose(a_compose(a_compose(_P, _R), _P), _O), _P),
}

Token = tuple[str, int]  # generator name, exponent +1 / -1
TokenWord = tuple[Token, ...]


def token_aut(tok: Token) -> Aut:
    name, e = tok
    return (GEN_AUT if e == 1 else GEN_AUT_INV)[name]


def evaluate(word: TokenWord) -> Aut:
    f = AUT_ID
    for tok in word:
        f = a_compose(f, token_aut(tok))
    return f


def _tok_inv(word: TokenWord) -> TokenWord:
    return tuple((name, -e) for name, e in reversed(word))


def _alpha_word(w: Fword) -> TokenWord:
    """Conjugation by w as a word in ax, ay."""
    return tuple(("ax" if abs(a) == 1 else "ay", 1 if a > 0 else -1) for a in w)


def _pow(name: str, k: int) -> TokenWord:
    e = 1 if k >= 0 else -1
    return ((name, e),) * abs(k)


Presentation = namedtuple("Presentation", "relators")


@lru_cache(maxsize=None)
def presentation() -> Presentation:
    """Finite presentation of Aut+(F2): 4 generators, 7 relators.

    Quotient relators (images generate SL2(Z) with the amalgam relations
    s^4, b^6, s^2 b^-3) are corrected by the inner word each lift
    evaluates to; conjugation relators express how s and b move the
    basic conjugations around.  Build fails loudly if any candidate
    relator is not the identity automorphism.
    """
    relators: list[TokenWord] = []
    quotient_relators: list[TokenWord] = [
        _pow("s", 4),
        _pow("b", 6),
        _pow("s", 2) + _pow("b", -3),
    ]
    for word in quotient_relators:
        f = evaluate(word)
        w = find_conjugator(f)
        if w is None:
            raise RuntimeError("lifted relator is not inner: %r" % (word,))
        relators.append(word + _tok_inv(_alpha_word(w)))
    for q in ("s", "b"):
        for name, base in (("ax", X), ("ay", Y)):
            target = a_apply(GEN_AUT[q], base)
            word = ((q, 1), (name, 1), (q, -1)) + _tok_inv(_alpha_word(target))
            relators.append(word)
    for rel in relators:
        if evaluate(rel) != AUT_ID:
            raise RuntimeError("unsound relator: %r" % (rel,))
    return Presentation(tuple(relators))


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
    pi0, one row per (relator, state) with the zero rows dropped, and
    n_syms, read off the orbit table by ``relation_rows``.
    """
    return relation_rows(signed_coset_table(g, pi0).forward, presentation().relators)
