"""The former presentations of Aut(F2) and Aut+(F2): the oracles that the
tests hold the two-generator presentation of ``congsub.autpres`` against.

Aut+(F2) = B4/Z(B4) on the braid generators t1, t2, t3 with the 4
relators [t1, t3], t1 t2 t1 (t2 t1 t2)^-1, t2 t3 t2 (t3 t2 t3)^-1 and
(t1 t2 t3)^4 (Dyer, Formanek & Grossman 1982).  Its coset table is the
orbit of (pi0, +1) under t1, t2, t3.

Aut(F2) = <ax, ay, s, b, j> with 12 relators: the lifts of the GL2(Z)
amalgam relations s^4, b^6, s^2 b^-3, j^2, (js)^2, (jb)^2, each corrected
by the inner automorphism it evaluates to, and the conjugation relators
of s, b and j on ax and ay.  The 7 relators free of j present Aut+(F2) on
ax, ay, s, b.  The coset table of Aut(F2) is the orbit of the signed
state (pi0, +1), where a generator multiplies the sign by its
determinant; the stabilizer of that state is again the special
stabilizer.  Relation rows come from the word-level rewriter of
``rewriting_reference``, so the oracles share no generators, relators or
rewriting code with the package's route.
"""
from functools import lru_cache

from congsub.abelianize import _sparse_smith
from congsub.cosets import orbit_table
from rewriting_reference import reference_relation_rows

# free group words on x (=1) and y (=2), negatives inverses; an
# automorphism is its pair of images of x and y.  The package's words
# are not imported, so the oracles share no word code with the route.
X, Y = (1,), (2,)
AUT_ID = (X, Y)


def free_reduce(word):
    out = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def w_inv(w):
    return tuple(-a for a in reversed(w))


def a_apply(f, w):
    """Image of the word w under the automorphism f."""
    wx, wy = f
    parts = []
    for a in w:
        img = wx if abs(a) == 1 else wy
        parts.extend(img if a > 0 else w_inv(img))
    return free_reduce(parts)


def a_compose(f, g):
    """f after g."""
    return (a_apply(f, g[0]), a_apply(f, g[1]))


def eval_in_group(g, w, gx, gy):
    """The word w evaluated in g at x = gx, y = gy."""
    acc = 0
    for a in w:
        v = gx if abs(a) == 1 else gy
        if a < 0:
            v = g.inv(v)
        acc = g.mul(acc, v)
    return acc


def w_mul(*ws):
    return free_reduce(a for w in ws for a in w)


def conjugation_by(w):
    return (w_mul(w, X, w_inv(w)), w_mul(w, Y, w_inv(w)))


def find_conjugator(f):
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


def a_det(f):
    """Determinant of the abelianized action."""
    a = sum(1 if v == 1 else -1 for v in f[0] if abs(v) == 1)
    c = sum(1 if v == 2 else -1 for v in f[0] if abs(v) == 2)
    b = sum(1 if v == 1 else -1 for v in f[1] if abs(v) == 1)
    d = sum(1 if v == 2 else -1 for v in f[1] if abs(v) == 2)
    return a * d - b * c


# each generator with its explicit inverse
REF_AUT = {
    "ax": (conjugation_by(X), conjugation_by(w_inv(X))),
    "ay": (conjugation_by(Y), conjugation_by(w_inv(Y))),
    # the order-4 rotation
    "s": (((-2,), (1,)), ((2,), (-1,))),
    # an order-6 element with b^3 = s^2
    "b": (((-2,), (1, 2)), ((2, 1), (-1,))),
    # the basis swap x <-> y, of determinant -1: it lies outside Aut+(F2)
    "j": (((2,), (1,)), ((2,), (1,))),
}
SIGNED_GENS = tuple(REF_AUT)

# the braid generators of B4, each with its explicit inverse
BRAID_AUT = {
    "t1": (((1,), (2, 1)), ((1,), (2, -1))),
    "t2": (((1, -2), (2,)), ((1, 2), (2,))),
    "t3": (((1,), (1, 2)), ((1,), (-1, 2))),
}


def ref_evaluate(word, auts=REF_AUT):
    f = AUT_ID
    for name, e in word:
        f = a_compose(f, auts[name][e == -1])
    return f


def tok_inv(word):
    return tuple((name, -e) for name, e in reversed(word))


def tok_reduce(word):
    """Free reduction of a token word."""
    out = []
    for name, e in word:
        if out and out[-1] == (name, -e):
            out.pop()
        else:
            out.append((name, e))
    return tuple(out)


def braid_relators():
    """The 4 relators of B4/Z(B4) on t1, t2, t3."""
    t1, t2, t3 = ("t1", 1), ("t2", 1), ("t3", 1)
    t1i, t2i, t3i = ("t1", -1), ("t2", -1), ("t3", -1)
    relators = (
        (t1, t3, t1i, t3i),
        (t1, t2, t1, t2i, t1i, t2i),
        (t2, t3, t2, t3i, t2i, t3i),
        (t1, t2, t3) * 4,
    )
    assert all(ref_evaluate(rel, BRAID_AUT) == AUT_ID for rel in relators)
    return relators


def alpha_word(w):
    """Conjugation by w as a word in ax, ay."""
    return tuple(("ax" if abs(a) == 1 else "ay", 1 if a > 0 else -1) for a in w)


def power(name, k):
    return ((name, 1 if k >= 0 else -1),) * abs(k)


@lru_cache(maxsize=None)
def signed_relators():
    quotient = [
        power("s", 4),
        power("b", 6),
        power("s", 2) + power("b", -3),
        power("j", 2),
        (("j", 1), ("s", 1)) * 2,
        (("j", 1), ("b", 1)) * 2,
    ]
    relators = []
    for word in quotient:
        w = find_conjugator(ref_evaluate(word))
        assert w is not None
        relators.append(word + tok_inv(alpha_word(w)))
    for q in ("s", "b", "j"):
        for name, base in (("ax", X), ("ay", Y)):
            target = a_apply(REF_AUT[q][0], base)
            relators.append(((q, 1), (name, 1), (q, -1)) + tok_inv(alpha_word(target)))
    assert all(ref_evaluate(rel) == AUT_ID for rel in relators)
    return tuple(relators)


def special_relators():
    """The 7 relators of Aut+(F2) on ax, ay, s, b: those free of j."""
    return tuple(rel for rel in signed_relators() if all(name != "j" for name, _ in rel))


def _signed_step(g, aut):
    det = a_det(aut)

    def step(state):
        gx, gy, sign = state
        return (
            eval_in_group(g, aut[0], gx, gy),
            eval_in_group(g, aut[1], gx, gy),
            sign * det,
        )

    return step


def signed_abelianization(g, pi0):
    """The special stabilizer's abelianization through the signed orbit,
    and the number of signed states."""
    states, forward = orbit_table(
        (pi0.gx, pi0.gy, 1), {name: _signed_step(g, REF_AUT[name][0]) for name in SIGNED_GENS}
    )
    rows, n_syms = reference_relation_rows(forward, signed_relators())
    return _sparse_smith(rows, n_syms), len(states)


def special_abelianization(g, pi0):
    """The special stabilizer's abelianization through the orbit of
    (pi0, +1) under ax, ay, s, b, where the sign stays +1, and the 7
    relators free of j."""
    steps = {name: _signed_step(g, REF_AUT[name][0]) for name in SIGNED_GENS if name != "j"}
    _, forward = orbit_table((pi0.gx, pi0.gy, 1), steps)
    rows, n_syms = reference_relation_rows(forward, special_relators())
    return _sparse_smith(rows, n_syms)


def braid_abelianization(g, pi0):
    """The special stabilizer's abelianization through the orbit of
    (pi0, +1) under t1, t2, t3, where the sign stays +1, and the 4
    relators of B4/Z(B4)."""
    steps = {name: _signed_step(g, aut) for name, (aut, _) in BRAID_AUT.items()}
    _, forward = orbit_table((pi0.gx, pi0.gy, 1), steps)
    rows, n_syms = reference_relation_rows(forward, braid_relators())
    return _sparse_smith(rows, n_syms)
