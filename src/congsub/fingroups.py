"""Finite groups as Cayley tables and the automorphism action on
epimorphism pairs.

An epimorphism from the rank-2 free group onto a finite group G is an
ordered pair of generators of G.  The basic Nielsen moves act on such
pairs by precomposition; tracking the determinant of the abelianized
action singles out the special (determinant +1) stabilizer, whose index
and Schreier generator words are computed by plain orbit BFS.
"""
from __future__ import annotations

import functools
import itertools
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

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
        """Subgroup generated by ``elements``.

        Breadth-first from the identity, one layer at a time: each layer
        is mapped through the table row of every generator (left
        multiplication), so no product is formed one call at a time.
        """
        rows = [self.table[g].__getitem__ for g in set(elements)]
        seen = {0}
        layer = seen
        while layer:
            reached = set()
            for row in rows:
                reached.update(map(row, layer))
            layer = reached - seen
            seen |= layer
        return frozenset(seen)

    def commutator_subgroup(self) -> frozenset[int]:
        table, inverse = self.table, self.inverse
        comms = set()
        # [x, y] = (x y)(y x)^-1, with y x read down column x
        for row_x, col_x in zip(table, zip(*table)):
            comms.update(table[xy][inverse[yx]] for xy, yx in zip(row_x, col_x))
        return self.closure(tuple(sorted(comms)))

    def is_perfect(self) -> bool:
        return len(self.commutator_subgroup()) == self.order

    def element_order(self, x: int) -> int:
        return len(self._powers(x))

    def _powers(self, x: int) -> list[int]:
        """The cyclic subgroup <x>, as 1, x, x^2, ... in order."""
        table = self.table
        powers, y = [0], x
        while y != 0:
            powers.append(y)
            y = table[y][x]
        return powers


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
    inverse = []
    for i, row in enumerate(table):
        if 0 not in row:
            raise RuntimeError("element %d has no inverse" % i)
        inverse.append(row.index(0))
    g = FiniteGroup(
        tag,
        tuple(tuple(r) for r in table),
        tuple(inverse),
        tuple(namer(e) for e in elements),
    )
    _check_axioms(g)
    return g


def _check_axioms(g: FiniteGroup):
    """Identity and full |G|^3 associativity check of the Cayley table.

    Every group builder multiplies elements of an actual group, so a
    failure here is a fault in the builder, not in its input: it raises
    RuntimeError, naming the first failing (x, y, z) in lexicographic
    order.  Associativity is checked for one x at a time over all (y, z):
    with the rows as byte strings (element indices fit in a byte, since
    MAX_GROUP_ORDER <= 256), x (y z) is the whole table translated by the
    row of x, and (x y) z is the rows of the products x y, concatenated.
    """
    table = g.table
    k = len(table)
    if table[0] != tuple(range(k)) or any(row[0] != x for x, row in enumerate(table)):
        raise RuntimeError("identity axiom fails")
    rows = [bytes(row) for row in table]
    whole = b"".join(rows)
    for x, row_x in enumerate(rows):
        xy_z = b"".join(map(rows.__getitem__, row_x))
        x_yz = whole.translate(row_x.ljust(256, b"\0"))
        if xy_z != x_yz:
            p = next(p for p, (a, b) in enumerate(zip(xy_z, x_yz)) if a != b)
            raise RuntimeError("associativity fails at %s" % ((x,) + divmod(p, k),))


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
    elems = sorted(itertools.permutations(range(s)))
    return _build("sym:%d" % s, elems, _perm_mul, str)


def alternating(s: int) -> FiniteGroup:
    """Alternating group on s points, s in 4..5."""
    if not 3 <= s <= 5:
        raise ValueError("s must be in 3..5")
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
            if any(v < 1 for v in pts):
                raise ValueError("points are 1-based, got cycle %r" % cyc)
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


def _ints(arg: str, count: int) -> list[int]:
    """The ``count`` comma-separated integers of a spec argument."""
    values = arg.split(",") if arg else []
    if len(values) != count:
        raise ValueError("want %d integer argument(s), got %r" % (count, arg))
    return [int(v) for v in values]


_SPEC_BUILDERS: dict[str, Callable[[str], FiniteGroup]] = {
    "cyclic": lambda arg: cyclic(*_ints(arg, 1)),
    "abelian": lambda arg: abelian(*_ints(arg, 2)),
    "dihedral": lambda arg: dihedral(*_ints(arg, 1)),
    "sym": lambda arg: symmetric(*_ints(arg, 1)),
    "alt": lambda arg: alternating(*_ints(arg, 1)),
    "quaternion": lambda arg: quaternion(*_ints(arg, 0)),
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


def _generating_pairs(g: FiniteGroup) -> Iterator[Epimorphism]:
    """Ordered generating pairs, lazily, in lexicographic element order.

    <x, y> depends only on the cyclic subgroups <x> and <y>, so one
    closure is computed per unordered pair of cyclic subgroups, the first
    time a pair of elements meets it.
    """
    k = g.order
    cyclic_id: list[int] = []
    generator_of: list[int] = []
    ids: dict[frozenset[int], int] = {}
    for x in range(k):
        c = ids.setdefault(frozenset(g._powers(x)), len(ids))
        if c == len(generator_of):
            generator_of.append(x)
        cyclic_id.append(c)
    generates: dict[tuple[int, int], bool] = {}
    for x in range(k):
        cx = cyclic_id[x]
        for y in range(k):
            cy = cyclic_id[y]
            key = (cx, cy) if cx <= cy else (cy, cx)
            ok = generates.get(key)
            if ok is None:
                pair = (generator_of[key[0]], generator_of[key[1]])
                ok = generates[key] = len(g.closure(pair)) == k
            if ok:
                yield Epimorphism(x, y)


def epi_set(g: FiniteGroup, limit: int | None = None) -> list[Epimorphism]:
    """All ordered generating pairs, in lexicographic element order; only
    the first ``limit`` of them when a limit is given.

    Exact: <x, y> is computed once per unordered pair of cyclic subgroups
    (<x>, <y>) rather than once per pair of elements.
    """
    return list(itertools.islice(_generating_pairs(g), limit))


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


def _rho_mul(m, n):
    a, b, c, d = m
    e, f, gg, h = n
    return (a * e + b * gg, a * f + b * h, c * e + d * gg, c * f + d * h)


def _rho_inv(m):
    """Inverse of a determinant ±1 integer matrix."""
    a, b, c, d = m
    det = a * d - b * c
    return (det * d, -det * b, -det * c, det * a)


def rho_image(word: str) -> tuple[int, int, int, int]:
    """Abelianized action of a word in the Nielsen moves (det ±1)."""
    return functools.reduce(_rho_mul, map(AUT_RHO.__getitem__, word), (1, 0, 0, 1))


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
    stabilizer contains determinant -1 elements).  stabilizer_rho holds
    the distinct abelianized actions of the stabilizer words, in order of
    first occurrence.
    """

    signed_orbit_size: int
    epi_orbit_size: int
    aut_plus_index: int
    sign_mixing: bool
    stabilizer_words: tuple[str, ...]
    stabilizer_rho: tuple[tuple[int, int, int, int], ...]


def orbit_stabilizer(g: FiniteGroup, pi0: Epimorphism) -> OrbitStabilizer:
    if len(g.closure((pi0.gx, pi0.gy))) != g.order:
        raise ValueError("pi0 is not an epimorphism onto the group")
    states, columns, tree = orbit_table(
        SignedEpi(pi0.gx, pi0.gy, 1),
        {x: (lambda s, x=x: act(g, x, s)) for x in AUT_LETTERS},
    )
    # tree word and its abelianized action per state, built along the tree
    words = [""] * len(states)
    mats = [(1, 0, 0, 1)] * len(states)
    for i, x in tree:
        j = columns[x][i]
        words[j] = words[i] + x
        mats[j] = _rho_mul(mats[i], AUT_RHO[x])
    # One word per non-tree edge (i, x), and no two alike: the tree words
    # are prefix-closed and words[i] + x is not one of them, so it is not
    # a prefix of another edge's word words[i'] + x' + ... either.
    tree_edges = set(tree)
    stab: list[str] = []
    stab_rho: dict[tuple[int, int, int, int], None] = {}
    for i, word in enumerate(words):
        for x in AUT_LETTERS:
            if (i, x) not in tree_edges:
                j = columns[x][i]
                stab.append(word + x + invert_aut_word(words[j]))
                # rho is a homomorphism: rho(w) = M_i rho(x) M_j^-1
                stab_rho[_rho_mul(_rho_mul(mats[i], AUT_RHO[x]), _rho_inv(mats[j]))] = None
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
        stabilizer_rho=tuple(stab_rho),
    )


def stabilizer_image_table(
    g: FiniteGroup,
    pi0: Epimorphism,
    orbit: OrbitStabilizer | None = None,
    ceiling: int = DEFAULT_CEILING,
) -> CosetTable:
    """Coset table of the projective image of the special stabilizer.

    The images of the stabilizer's Schreier generators under the
    abelianized action (all of determinant +1) are taken into PSL2(Z),
    converted to generator words, and enumerated by Todd-Coxeter.
    """
    if orbit is None:
        orbit = orbit_stabilizer(g, pi0)
    elements = []
    seen = set()
    for mat in orbit.stabilizer_rho:
        p = PslElement(Mat2(*mat))
        if not p.is_identity() and p not in seen:
            seen.add(p)
            elements.append(p)
    return enumerate_cosets([matrix_to_word(p) for p in elements], ceiling)
