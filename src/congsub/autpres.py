"""A finite presentation of the rank-2 free group's automorphism group,
and Reidemeister-Schreier rewriting of stabilizer subgroups through it.

The group of automorphisms acting trivially on the abelianization is
inner for rank 2, free on the conjugations by the two basis letters.  The
full automorphism group is therefore an extension of GL2(Z) by that free
group, and a presentation can be assembled mechanically: take the
classical amalgam presentation of GL2(Z) (dihedral of order 8 and
dihedral of order 12 glued over a Klein four-group), lift each relator to
an explicit automorphism, and express the resulting inner automorphism as
a word in the two basic conjugations.  Every relator produced this way is
verified to evaluate to the identity automorphism, exactly, at build
time.

Generators of the presentation:

    ax, ay : conjugation by x, by y (determinant +1)
    s      : x -> y^-1, y -> x         (the order-4 rotation, det +1)
    b      : order-6 element with b^3 = s^2 (det +1)
    j      : x -> y, y -> x            (the basis swap, det -1)
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .cosets import orbit_table
from .fingroups import Epimorphism, FiniteGroup
from .rewriting import exponent_sums, free_reduce, rewrite_relators

# --- free group words on x (=1) and y (=2); negatives are inverses ---

Fword = tuple[int, ...]

X: Fword = (1,)
Y: Fword = (2,)


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


def a_det(f: Aut) -> int:
    """Determinant of the abelianized action."""
    a = sum(1 if v == 1 else -1 for v in f[0] if abs(v) == 1)
    c = sum(1 if v == 2 else -1 for v in f[0] if abs(v) == 2)
    b = sum(1 if v == 1 else -1 for v in f[1] if abs(v) == 1)
    d = sum(1 if v == 2 else -1 for v in f[1] if abs(v) == 2)
    return a * d - b * c


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

GENS = ("ax", "ay", "s", "b", "j")

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
    "j": _P,
}

Token = tuple[str, int]  # generator name, exponent +1 / -1
TokenWord = tuple[Token, ...]


@lru_cache(maxsize=None)
def _gen_aut_inv(name: str) -> Aut:
    # each generator has an explicit inverse
    if name == "ax":
        return conjugation_by(w_inv(X))
    if name == "ay":
        return conjugation_by(w_inv(Y))
    if name == "s":
        return a_compose(_O, _P)
    if name == "b":
        return a_compose(a_compose(a_compose(a_compose(_P, _R), _P), _O), _P)
    if name == "j":
        return _P
    raise ValueError(name)


def token_aut(tok: Token) -> Aut:
    name, e = tok
    return GEN_AUT[name] if e == 1 else _gen_aut_inv(name)


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


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[TokenWord, ...]


@lru_cache(maxsize=None)
def presentation() -> Presentation:
    """Finite presentation of the full automorphism group.

    Quotient relators (images generate GL2(Z) with the amalgam relations
    s^4, b^6, s^2 b^-3, j^2, (js)^2, (jb)^2) are corrected by the inner
    word each lift evaluates to; conjugation relators express how s, b, j
    move the basic conjugations around.  Build fails loudly if any
    candidate relator is not the identity automorphism.
    """
    relators: list[TokenWord] = []
    quotient_relators: list[TokenWord] = [
        _pow("s", 4),
        _pow("b", 6),
        _pow("s", 2) + _pow("b", -3),
        _pow("j", 2),
        (("j", 1), ("s", 1)) * 2,
        (("j", 1), ("b", 1)) * 2,
    ]
    for word in quotient_relators:
        f = evaluate(word)
        w = find_conjugator(f)
        if w is None:
            raise RuntimeError("lifted relator is not inner: %r" % (word,))
        relators.append(word + _tok_inv(_alpha_word(w)))
    for q in ("s", "b", "j"):
        for name, base in (("ax", X), ("ay", Y)):
            target = a_apply(GEN_AUT[q], base)
            word = ((q, 1), (name, 1), (q, -1)) + _tok_inv(_alpha_word(target))
            relators.append(word)
    for rel in relators:
        if evaluate(rel) != AUT_ID:
            raise RuntimeError("unsound relator: %r" % (rel,))
    return Presentation(GENS, tuple(relators))


# --- action of the presentation generators on signed generator pairs ---

def _eval_in_group(g: FiniteGroup, w: Fword, gx: int, gy: int) -> int:
    acc = 0
    for a in w:
        v = gx if abs(a) == 1 else gy
        if a < 0:
            v = g.inv(v)
        acc = g.mul(acc, v)
    return acc


def _state_action(g: FiniteGroup, name: str):
    aut = GEN_AUT[name]
    det = a_det(aut)

    def step(state):
        gx, gy, sign = state
        return (
            _eval_in_group(g, aut[0], gx, gy),
            _eval_in_group(g, aut[1], gx, gy),
            sign * det,
        )

    return step


@dataclass(frozen=True)
class SignedTable:
    """Coset table of the special stabilizer inside the full automorphism
    group: states are signed generator pairs, columns the presentation
    generators."""

    n: int
    forward: dict[str, tuple[int, ...]]
    tree: frozenset[tuple[int, str]]  # non-root states' discovery edges (state, gen)


def signed_coset_table(g: FiniteGroup, pi0: Epimorphism) -> SignedTable:
    if len(g.closure((pi0.gx, pi0.gy))) != g.order:
        raise ValueError("pi0 is not an epimorphism onto the group")
    states, forward, tree = orbit_table(
        (pi0.gx, pi0.gy, 1), {name: _state_action(g, name) for name in GENS}
    )
    return SignedTable(len(states), forward, frozenset(tree))


def stabilizer_relation_rows(
    g: FiniteGroup, pi0: Epimorphism
) -> tuple[list[dict[int, int]], int]:
    """Abelianized Reidemeister-Schreier data for the special stabilizer.

    Returns sparse exponent-sum rows ({column: nonzero sum}) over the
    n_syms non-tree Schreier generators of the stabilizer of the signed
    pair, one row per (relator, coset) with the zero rows dropped, and
    n_syms.
    """
    table = signed_coset_table(g, pi0)
    edges, words = rewrite_relators(table.forward, table.tree, presentation().relators)
    return [row for row in exponent_sums(words) if row], len(edges)
