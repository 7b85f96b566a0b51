"""Finite groups as Cayley tables and the automorphism action on
epimorphism pairs.

An epimorphism from the rank-2 free group onto a finite group G is an
ordered pair of generators of G.  The basic Nielsen moves act on such
pairs by precomposition; tracking the determinant of the abelianized
action singles out the special (determinant +1) stabilizer, whose index
and Schreier generator words are computed by plain orbit BFS.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .cosets import CosetTable, DEFAULT_CEILING, enumerate_cosets, orbit_table
from .matgroup import Mat2, PslElement, matrix_to_word

MAX_GROUP_ORDER = 120


class GroupTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group with a full Cayley table; element 0 is the identity."""

    tag: str
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    names: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self.inverse[x]

    def conj(self, x: int, y: int) -> int:
        """x * y * x^-1"""
        return self.mul(self.mul(x, y), self.inv(x))

    def closure(self, elements: tuple[int, ...]) -> frozenset[int]:
        seen = {0, *elements}
        queue = deque(seen)
        while queue:
            x = queue.popleft()
            for g in elements:
                y = self.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    def commutator_subgroup(self) -> frozenset[int]:
        comms = tuple(
            sorted(
                {
                    self.mul(self.mul(x, y), self.inv(self.mul(y, x)))
                    for x in range(self.order)
                    for y in range(self.order)
                }
            )
        )
        return self.closure(comms)

    def is_perfect(self) -> bool:
        return len(self.commutator_subgroup()) == self.order

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != 0:
            y = self.mul(y, x)
            k += 1
        return k


def _build(tag, elements, mul, namer):
    """Cayley table from an explicit element list; verifies the axioms."""
    if len(elements) > MAX_GROUP_ORDER:
        raise GroupTooLargeError(
            "group of order %d exceeds cap %d" % (len(elements), MAX_GROUP_ORDER)
        )
    index = {e: i for i, e in enumerate(elements)}
    k = len(elements)
    table = [[0] * k for _ in range(k)]
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            table[i][j] = index[mul(x, y)]
    inverse = [0] * k
    for i in range(k):
        for j in range(k):
            if table[i][j] == 0:
                inverse[i] = j
                break
        else:
            raise ValueError("element %d has no inverse" % i)
    g = FiniteGroup(
        tag,
        tuple(tuple(r) for r in table),
        tuple(inverse),
        tuple(namer(e) for e in elements),
    )
    _check_axioms(g)
    return g


def _check_axioms(g: FiniteGroup):
    k = g.order
    if any(g.mul(0, x) != x or g.mul(x, 0) != x for x in range(k)):
        raise ValueError("identity axiom fails")
    for x in range(k):
        for y in range(k):
            for z in range(k):
                if g.mul(g.mul(x, y), z) != g.mul(x, g.mul(y, z)):
                    raise ValueError("associativity fails at %s" % ((x, y, z),))


def cyclic(m: int) -> FiniteGroup:
    """Z/m; element i is the residue i."""
    if m < 1:
        raise ValueError("m must be positive")
    return _build("cyclic:%d" % m, list(range(m)), lambda x, y: (x + y) % m, str)


def abelian(m: int, n: int) -> FiniteGroup:
    """Z/m x Z/n; element (i, j) has index i*n + j (lexicographic)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    elems = [(i, j) for i in range(m) for j in range(n)]
    return _build(
        "abelian:%d,%d" % (m, n),
        elems,
        lambda x, y: ((x[0] + y[0]) % m, (x[1] + y[1]) % n),
        lambda e: "(%d,%d)" % e,
    )


def dihedral(r: int) -> FiniteGroup:
    """Dihedral group of order 2r: rotations first (f=0), then reflections."""
    if r < 1:
        raise ValueError("r must be positive")
    elems = [(f, i) for f in (0, 1) for i in range(r)]

    # (f, i) is s^f r^i with r^i s = s r^-i
    def mul2(x, y):
        f1, i1 = x
        f2, i2 = y
        return ((f1 + f2) % 2, ((i1 if f2 == 0 else -i1) + i2) % r)

    return _build(
        "dihedral:%d" % r, elems, mul2, lambda e: "sr^%d" % e[1] if e[0] else "r^%d" % e[1]
    )


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def symmetric(s: int) -> FiniteGroup:
    """Symmetric group on s points; permutation tuples, lexicographic."""
    if not 1 <= s <= 5:
        raise ValueError("s must be in 1..5")
    import itertools

    elems = sorted(itertools.permutations(range(s)))
    return _build("sym:%d" % s, elems, _perm_mul, str)


def alternating(s: int) -> FiniteGroup:
    """Alternating group on s points, s in 4..5."""
    if not 3 <= s <= 5:
        raise ValueError("s must be in 3..5")
    import itertools

    def parity(p):
        inv = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
        return inv % 2

    elems = sorted(p for p in itertools.permutations(range(s)) if parity(p) == 0)
    return _build("alt:%d" % s, elems, _perm_mul, str)


def quaternion() -> FiniteGroup:
    """Quaternion group of order 8; elements (sign, axis) for ±1,±i,±j,±k."""
    elems = [(s, a) for a in range(4) for s in (0, 1)]
    # basis multiplication: (axis, axis) -> (sign, axis)
    basis = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
    }

    def mul(x, y):
        s, a = basis[(x[1], y[1])]
        return ((x[0] + y[0] + s) % 2, a)

    names = {0: "1", 1: "i", 2: "j", 3: "k"}
    return _build(
        "quaternion",
        elems,
        mul,
        lambda e: ("-" if e[0] else "") + names[e[1]],
    )


def from_permutations(cycle_specs: str) -> FiniteGroup:
    """Group generated by permutations in cycle notation.

    Example: "(1 2)(3 4),(1 2 3)" (generators comma-separated; points
    are 1-based).
    """
    gens = []
    points = 1
    for spec in cycle_specs.split(","):
        cycles = re.findall(r"\(([^)]*)\)", spec)
        if not cycles and spec.strip():
            raise ValueError("bad cycle notation %r" % spec)
        moves = {}
        for cyc in cycles:
            pts = [int(v) for v in cyc.split()]
            if len(set(pts)) != len(pts):
                raise ValueError("repeated point in cycle %r" % cyc)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                if a - 1 in moves:
                    raise ValueError("point %d moved twice" % a)
                moves[a - 1] = b - 1
        if moves:
            points = max(points, max(moves) + 1)
        gens.append(moves)
    perms = [tuple(g.get(i, i) for i in range(points)) for g in gens]
    ident = tuple(range(points))
    seen = {ident}
    queue = deque([ident])
    while queue:
        p = queue.popleft()
        for q in perms:
            r = _perm_mul(p, q)
            if r not in seen:
                if len(seen) >= MAX_GROUP_ORDER:
                    raise GroupTooLargeError("permutation group exceeds cap")
                seen.add(r)
                queue.append(r)
    elems = [ident] + sorted(seen - {ident})
    return _build("perm:%s" % cycle_specs, elems, _perm_mul, str)


_SPEC_BUILDERS: dict[str, Callable[[str], FiniteGroup]] = {
    "cyclic": lambda arg: cyclic(int(arg)),
    "abelian": lambda arg: abelian(*(int(v) for v in arg.split(","))),
    "dihedral": lambda arg: dihedral(int(arg)),
    "sym": lambda arg: symmetric(int(arg)),
    "alt": lambda arg: alternating(int(arg)),
    "quaternion": lambda arg: quaternion(),
    "perm": from_permutations,
}


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build a group from the mini-language, e.g. "cyclic:6" or "perm:(1 2),(1 2 3)"."""
    head, _, arg = spec.partition(":")
    builder = _SPEC_BUILDERS.get(head)
    if builder is None:
        raise ValueError(
            "unknown group spec %r (want one of %s)"
            % (spec, ", ".join(sorted(_SPEC_BUILDERS)))
        )
    return builder(arg)


class Epimorphism(NamedTuple):
    gx: int
    gy: int


class SignedEpi(NamedTuple):
    gx: int
    gy: int
    sign: int


def epi_set(g: FiniteGroup) -> list[Epimorphism]:
    """All ordered generating pairs, in lexicographic element order."""
    return [
        Epimorphism(x, y)
        for x in range(g.order)
        for y in range(g.order)
        if len(g.closure((x, y))) == g.order
    ]


# Nielsen moves on generator pairs (by precomposition), the determinant of
# the abelianized action, and that abelianized action itself as a column-
# convention integer matrix.
AUT_LETTERS = "PORr"
_AUT_INVERSE = {"P": "P", "O": "O", "R": "r", "r": "R"}
AUT_DET = {"P": -1, "O": -1, "R": 1, "r": 1}
AUT_RHO = {
    "P": (0, 1, 1, 0),
    "O": (-1, 0, 0, 1),
    "R": (1, 0, 1, 1),
    "r": (1, 0, -1, 1),
}


def invert_aut_word(word: str) -> str:
    return "".join(_AUT_INVERSE[x] for x in reversed(word))


def act(g: FiniteGroup, letter: str, s: SignedEpi) -> SignedEpi:
    """Apply one Nielsen move to a signed pair."""
    gx, gy, sign = s
    if letter == "P":
        return SignedEpi(gy, gx, -sign)
    if letter == "O":
        return SignedEpi(g.inv(gx), gy, -sign)
    if letter == "R":
        return SignedEpi(g.mul(gx, gy), gy, sign)
    if letter == "r":
        return SignedEpi(g.mul(gx, g.inv(gy)), gy, sign)
    raise ValueError("unknown generator letter %r" % letter)


def act_word(g: FiniteGroup, word: str, s: SignedEpi) -> SignedEpi:
    for letter in word:
        s = act(g, letter, s)
    return s


def rho_image(word: str) -> tuple[int, int, int, int]:
    """Abelianized action of a word in the Nielsen moves (det ±1)."""
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        e, f, gg, h = AUT_RHO[letter]
        a, b, c, d = a * e + b * gg, a * f + b * h, c * e + d * gg, c * f + d * h
    return (a, b, c, d)


def rho_det(mat: tuple[int, int, int, int]) -> int:
    return mat[0] * mat[3] - mat[1] * mat[2]


def rho_psl(word: str) -> PslElement:
    """Projective image of a determinant +1 word."""
    mat = rho_image(word)
    if rho_det(mat) != 1:
        raise ValueError("word has determinant -1")
    return PslElement(Mat2(*mat))


@dataclass(frozen=True)
class OrbitStabilizer:
    """Orbit of a signed pair under the Nielsen moves, with stabilizer data.

    signed_orbit_size is the index of the special stabilizer in the full
    automorphism group; halving it gives the index in the special
    automorphism group.  sign_mixing records whether some word returns to
    the starting pair with flipped sign (equivalently, whether the plain
    stabilizer contains determinant -1 elements).
    """

    signed_orbit_size: int
    epi_orbit_size: int
    aut_plus_index: int
    sign_mixing: bool
    stabilizer_words: tuple[str, ...]


def orbit_stabilizer(g: FiniteGroup, pi0: Epimorphism) -> OrbitStabilizer:
    if len(g.closure((pi0.gx, pi0.gy))) != g.order:
        raise ValueError("pi0 is not an epimorphism onto the group")
    states, columns, tree = orbit_table(
        SignedEpi(pi0.gx, pi0.gy, 1),
        {x: (lambda s, x=x: act(g, x, s)) for x in AUT_LETTERS},
    )
    words = [""] * len(states)
    for i, x in tree:
        words[columns[x][i]] = words[i] + x
    tree_edges = set(tree)
    stab: list[str] = []
    seen_words = set()
    for i, word in enumerate(words):
        for x in AUT_LETTERS:
            if (i, x) not in tree_edges:
                w = word + x + invert_aut_word(words[columns[x][i]])
                if w not in seen_words:
                    seen_words.add(w)
                    stab.append(w)
    signed = len(states)
    epis = len({(s.gx, s.gy) for s in states})
    if signed % 2 != 0:
        raise RuntimeError("signed orbit size must be even")
    return OrbitStabilizer(
        signed_orbit_size=signed,
        epi_orbit_size=epis,
        aut_plus_index=signed // 2,
        sign_mixing=(signed == 2 * epis),
        stabilizer_words=tuple(stab),
    )


def stabilizer_image_table(
    g: FiniteGroup,
    pi0: Epimorphism,
    orbit: OrbitStabilizer | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> CosetTable:
    """Coset table of the projective image of the special stabilizer.

    The stabilizer's Schreier generator words are pushed through the
    abelianized action into PSL2(Z) (all have determinant +1), converted
    to generator words, and enumerated by Todd-Coxeter.
    """
    if orbit is None:
        orbit = orbit_stabilizer(g, pi0)
    elements = []
    seen = set()
    for w in orbit.stabilizer_words:
        p = rho_psl(w)
        if not p.is_identity() and p not in seen:
            seen.add(p)
            elements.append(p)
    return enumerate_cosets([matrix_to_word(p) for p in elements], ceiling)
