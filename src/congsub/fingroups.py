"""Finite groups as Cayley tables and the automorphism action on
epimorphism pairs.

An epimorphism from the rank-2 free group onto a finite group G is an
ordered pair of generators of G, and automorphisms of F2 act on such
pairs by precomposition.  Modulo simultaneous conjugation and inversion
the action of Aut+(F2) factors through PSL2(Z), so one breadth-first
orbit of pair classes gives both the coset table of the special
(determinant +1) stabilizer's image in PSL2(Z) and, by counting, its
index in Aut+(F2).
"""
from __future__ import annotations

import itertools
import re
from collections import deque, namedtuple
from collections.abc import Callable, Iterator
from operator import itemgetter

from .cosets import _checked, orbit_table

MAX_GROUP_ORDER = 120


class GroupTooLargeError(ValueError):
    pass


class FiniteGroup:
    """Finite group with a full Cayley table; element 0 is the identity."""

    __slots__ = ("tag", "table", "inverse")

    def __init__(self, tag: str, table: tuple[tuple[int, ...], ...], inverse: tuple[int, ...]):
        self.tag, self.table, self.inverse = tag, table, inverse

    def __eq__(self, other):
        if other.__class__ is not FiniteGroup:
            return NotImplemented
        return (self.tag, self.table, self.inverse) == (other.tag, other.table, other.inverse)

    def __hash__(self):
        return hash((self.tag, self.table, self.inverse))

    def __repr__(self):
        return "FiniteGroup(tag=%r, table=%r, inverse=%r)" % (self.tag, self.table, self.inverse)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self.inverse[x]

    def closure(self, elements: tuple[int, ...]) -> frozenset[int]:
        """Subgroup H generated by ``elements``, as left cosets c B of a
        cyclic subgroup B (Dimino's method): B is the largest <s> over the
        generators s and the product of the first two, and a product c of
        a generator and a coset representative outside the cosets found
        so far adds c B, read off the table row of c.  Past |G|/2, H is G
        by Lagrange, so only a proper subgroup is listed in full."""
        table = self.table
        gens = [s for s in dict.fromkeys(elements) if s]
        seeds = gens + [table[gens[0]][gens[1]]] if len(gens) > 1 else gens
        b = max(map(self._powers, seeds), key=len, default=[0])
        seen, reps, k = set(b), [0], len(table)
        for r in reps:
            for s in gens:
                c = table[s][r]
                if c not in seen:
                    seen.update(map(table[c].__getitem__, b))
                    if 2 * len(seen) > k:
                        return frozenset(range(k))
                    reps.append(c)
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

    def _powers(self, x: int) -> list[int]:
        """The cyclic subgroup <x>, as 1, x, x^2, ... in order."""
        table = self.table
        powers, y = [0], x
        while y != 0:
            powers.append(y)
            y = table[y][x]
        return powers


def _check_order(order: int, formula: str | None = None) -> None:
    """Refuse a group over MAX_GROUP_ORDER; each builder calls this with
    the order its parameters give, before any element is listed."""
    if order > MAX_GROUP_ORDER:
        raise GroupTooLargeError(
            "group of order %s exceeds cap %d" % (formula or order, MAX_GROUP_ORDER)
        )


def _check_factorial_order(s: int, halve: bool) -> None:
    """_check_order for s! (s!/2 if ``halve``).

    The factorial is multiplied only until it passes the cap: once k! does
    for some k < s, s!/2 >= (k+1)!/2 >= k! does too, and the order is named
    by its formula, so sym:1000000 costs nothing.
    """
    order = 1
    for k in range(2, s + 1):
        order *= k
        if order > MAX_GROUP_ORDER and k < s:
            _check_order(order, "%d!%s" % (s, "/2" if halve else ""))
    _check_order(order // 2 if halve else order)


def _build(tag, elements, mul):
    """Cayley table from an explicit element list, of at most
    MAX_GROUP_ORDER elements; verifies the axioms.  Row x is ``mul``
    mapped over the pairs (x, y), y in the list, and each product is
    looked up in the index with one more map, at C level."""
    index = {e: i for i, e in enumerate(elements)}.__getitem__
    k = len(elements)
    return _group(tag, tuple(
        tuple(map(index, map(mul, itertools.repeat(x, k), elements))) for x in elements
    ))


def _build_perms(tag, perms):
    """``_build(tag, perms, _perm_mul)`` for a list of permutation tuples,
    read by columns: x y is ``itemgetter(*y)(x)``, so column y is one
    itemgetter mapped over the list and no product is a Python call."""
    if len(perms[0]) == 1:  # itemgetter of one index returns the image, not a tuple
        return _build(tag, perms, _perm_mul)
    index = {e: i for i, e in enumerate(perms)}.__getitem__
    return _group(tag, tuple(zip(*[map(index, map(itemgetter(*y), perms)) for y in perms])))


def _group(tag, table):
    """The group of a Cayley table, once the inverses are read off and
    the axioms checked."""
    inverse = []
    for i, row in enumerate(table):
        if 0 not in row:
            raise RuntimeError("element %d has no inverse" % i)
        inverse.append(row.index(0))
    g = FiniteGroup(tag, table, tuple(inverse))
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
    _check_order(m)
    return _group("cyclic:%d" % m, tuple(_rotations(m, 0)))


def abelian(m: int, n: int) -> FiniteGroup:
    """Z/m x Z/n; element (i, j) has index i*n + j (lexicographic)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    _check_order(m * n)
    # row (i, j) runs over the blocks a = i, i + 1, ... (mod m) of n
    # indices each, and rotates every block by j
    blocks = [_rotations(n, a * n) for a in range(m)]
    return _group("abelian:%d,%d" % (m, n), tuple(
        tuple(itertools.chain.from_iterable(blocks[a][j] for a in rot))
        for rot in _rotations(m, 0) for j in range(n)
    ))


def dihedral(r: int) -> FiniteGroup:
    """Dihedral group of order 2r: rotations first (f=0), then reflections."""
    if r < 1:
        raise ValueError("r must be positive")
    _check_order(2 * r)
    # (f, i) is s^f r^i, index f r + i, with r^i s = s r^-i: row (f, i) is
    # the rotation by i of its own half, then the rotation by -i of the other
    halves = (_rotations(r, 0), _rotations(r, r))
    return _group("dihedral:%d" % r, tuple(
        halves[f][i] + halves[1 - f][-i % r] for f in (0, 1) for i in range(r)
    ))


def _rotations(k: int, start: int) -> list[tuple[int, ...]]:
    """The k rotations of start, ..., start + k - 1: rotation i begins at
    start + i, so rotation i of 0..k-1 is row i of the table of Z/k."""
    return [
        tuple(range(start + i, start + k)) + tuple(range(start, start + i)) for i in range(k)
    ]


def _perm_mul(p, q):
    return tuple(map(p.__getitem__, q))


def symmetric(s: int) -> FiniteGroup:
    """Symmetric group on s points; permutation tuples, lexicographic."""
    if s < 1:
        raise ValueError("s must be positive")
    _check_factorial_order(s, halve=False)
    elems = sorted(itertools.permutations(range(s)))
    return _build_perms("sym:%d" % s, elems)


def alternating(s: int) -> FiniteGroup:
    """Alternating group on s points, s >= 3."""
    if s < 3:
        raise ValueError("s must be at least 3")
    _check_factorial_order(s, halve=True)

    def parity(p):
        inv = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
        return inv % 2

    elems = sorted(p for p in itertools.permutations(range(s)) if parity(p) == 0)
    return _build_perms("alt:%d" % s, elems)


def quaternion() -> FiniteGroup:
    """Quaternion group of order 8; elements (sign, axis) for ±1,±i,±j,±k."""
    _check_order(8)
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

    return _build("quaternion", elems, mul)


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
    return _build_perms("perm:%s" % cycle_specs, elems)


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


Epimorphism = namedtuple("Epimorphism", "gx gy")


def _check_epimorphism(g: FiniteGroup, pi0: Epimorphism) -> None:
    """Refuse a pair that is not two elements of g generating it: bad
    input, a ValueError, raised before any closure.  An entry that is not
    an int is no element index either."""
    if not all(isinstance(v, int) and 0 <= v < g.order for v in (pi0.gx, pi0.gy)):
        raise ValueError("pi0 has an element index outside 0..%d" % (g.order - 1))
    if len(g.closure((pi0.gx, pi0.gy))) != g.order:
        raise ValueError("pi0 is not an epimorphism onto the group")


def _generating_pairs(g: FiniteGroup) -> Iterator[Epimorphism]:
    """Ordered generating pairs, lazily, in lexicographic element order.

    <x, y> depends only on the cyclic subgroups <x> and <y>, so whether
    they generate is kept in a table indexed by pairs of cyclic
    subgroups.  The first time a pair of elements meets an unknown entry,
    its closure H is computed; a generating pair is found as soon as H
    passes |G|/2, while a proper H is listed in full.  When H is proper,
    no pair of cyclic subgroups inside H generates, so all of them are
    marked at once and none is closed again.
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
    nc = len(generator_of)
    generates: list[list[bool | None]] = [[None] * nc for _ in range(nc)]
    for x in range(k):
        cx = cyclic_id[x]
        row = generates[cx]
        for y in range(k):
            cy = cyclic_id[y]
            ok = row[cy]
            if ok is None:
                h = g.closure((generator_of[cx], generator_of[cy]))
                ok = len(h) == k
                if ok:
                    row[cy] = generates[cy][cx] = True
                else:
                    inside = [c for c in range(nc) if generator_of[c] in h]
                    for c in inside:
                        row_c = generates[c]
                        for d in inside:
                            row_c[d] = False
            if ok:
                yield Epimorphism(x, y)


def epi_set(g: FiniteGroup, limit: int | None = None) -> list[Epimorphism]:
    """All ordered generating pairs, in lexicographic element order; only
    the first ``limit`` of them when a limit is given.

    Exact: <x, y> is computed at most once per unordered pair of cyclic
    subgroups (<x>, <y>), and not at all for a pair inside a proper
    subgroup already found.  Each closure is a coset enumeration over a
    cyclic subgroup, stopped once it passes |G|/2 (FiniteGroup.closure).
    """
    return list(itertools.islice(_generating_pairs(g), limit))


# The lifts of PSL2(Z)'s generators S and U to Aut+(F2) that the image
# orbit steps by, acting on a generating pair (x, y) by precomposition:
# S is x -> y^-1, y -> x and U is x -> y, y -> x^-1 y.  Their abelianized
# column matrices are, up to sign, the letters S and U of
# matgroup._LETTER_MATRIX, the letters of every other PSL2(Z) coset table.
LIFTS: dict[str, Callable[[FiniteGroup, int, int], tuple[int, int]]] = {
    "S": lambda g, x, y: (g.inverse[y], x),
    "U": lambda g, x, y: (y, g.table[g.inverse[x]][y]),
}


class OrbitStabilizer(namedtuple(
    "OrbitStabilizer", "signed_orbit_size epi_orbit_size aut_plus_index sign_mixing image_table"
)):
    """Orbit sizes of a generating pair under Aut(F2), and the coset table
    of the projective image of its special stabilizer.

    The special stabilizer is the group of determinant +1 automorphisms
    fixing the pair.  signed_orbit_size is its index in Aut(F2), and
    aut_plus_index, half of it, its index in Aut+(F2).  sign_mixing
    records whether some determinant -1 automorphism fixes the pair
    too, and epi_orbit_size counts the pairs in the Aut(F2)-orbit.
    image_table is the action of S and U on the cosets of the special
    stabilizer's image in PSL2(Z).
    """

    __slots__ = ()


def orbit_stabilizer(g: FiniteGroup, pi0: Epimorphism) -> OrbitStabilizer:
    """Orbit data of pi0, from one breadth-first orbit of pair classes.

    Precomposing a pair with an inner automorphism of F2 conjugates it by
    an element of G, and precomposing it with x -> x^-1, y -> y^-1 (whose
    abelianized matrix is -I) inverts it.  Together these generate the
    kernel of Aut+(F2) -> PSL2(Z), so PSL2(Z) acts on the classes of
    pairs modulo simultaneous conjugation and inversion, and the orbit of
    pi0's class under ``LIFTS`` is the coset action of the image of the
    special stabilizer.  A class is keyed by its least pair.

    The sizes follow from the k classes of the orbit: G/Z(G) acts freely
    on pairs by conjugation, and inversion doubles a class (eps = 2)
    unless the inverted pair is a conjugate (eps = 1), so the
    Aut+(F2)-orbit of pi0 has |G/Z(G)| * k * eps pairs.  The swap x <-> y has
    determinant -1, and the Aut(F2)-orbit is the Aut+(F2)-orbit exactly
    when the swapped pair's class is in the orbit.
    """
    _check_epimorphism(g, pi0)
    table, inverse = g.table, g.inverse
    # x -> a x a^-1, one map per element of G/Z(G)
    inner = {tuple(table[ax][inverse[a]] for ax in row) for a, row in enumerate(table)}

    def key(x, y):
        xi, yi = inverse[x], inverse[y]
        return min(min((c[x], c[y]), (c[xi], c[yi])) for c in inner)

    states, columns = orbit_table(
        key(*pi0), {name: (lambda p, f=f: key(*f(g, *p))) for name, f in LIFTS.items()}
    )
    image = _checked(columns["S"], columns["U"], "image table of %s" % g.tag)
    x, y = pi0
    eps = 1 if (inverse[x], inverse[y]) in {(c[x], c[y]) for c in inner} else 2
    aut_plus = len(inner) * image.n * eps
    sign_mixing = key(y, x) in states
    return OrbitStabilizer(
        signed_orbit_size=2 * aut_plus,
        epi_orbit_size=aut_plus if sign_mixing else 2 * aut_plus,
        aut_plus_index=aut_plus,
        sign_mixing=sign_mixing,
        image_table=image,
    )
