"""Coset tables for finite-index subgroups of PSL2(Z).

Two independent constructions are provided: Todd-Coxeter enumeration over
the presentation <S, U | S^2, U^3> from subgroup generator words, and the
explicit congruence action.  In the latter a coset of the (m, n) subgroup
is its key: the first matrix row mod m and the second row mod n, up to a
common sign.  The subgroup's elements +-(1 0; g 1), n | g, act on the
left by adding multiples of n times the first row to the second, which is
exactly what the key forgets, and S and U act on the key row by row from
the right.  The key is packed into one integer: a row (a, b) mod q is
coded a*q + b and the key is (row 1's code)*n^2 + (row 2's code), which
orders the keys as the tuples (a, b, c, d) are ordered.  The two
constructions are compared in the tests (``test_enumerate_agrees_with_oracle``)
and in the benchmark's ``table`` job; no command of the package runs
Todd-Coxeter.  The pair-orbit table of the Aut+(F2) route and the image
orbit of generating pairs come from the breadth-first orbit function
``orbit_table``; the congruence action walks the same breadth-first order
in its own loop, with the S and U steps on the packed keys written out.

Every table is valid by construction: ``CosetTable`` refuses columns with
an image outside 0..n-1, with S^2 or U^3 not the identity, or not
standard (C. C. Sims, *Computation with Finitely Presented Groups*, 1994):
scanning the states in order and their columns in order, each state met
first carries the next number.  ``tree_flags`` is the one walk that checks
the numbering; it marks the edges of the spanning tree the numbering
defines, and the edges it leaves unmarked are the Schreier generators.
Standard tables are isomorphic fixing 0 exactly when equal.  A table the
package builds that is refused is an internal fault (``RuntimeError``).
"""
from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Sequence
from operator import itemgetter

from .matgroup import _check_pair, _check_psl_word

DEFAULT_CEILING = 10**6


class CosetCeilingError(RuntimeError):
    """Raised when a coset count passes its ceiling: in Todd-Coxeter
    enumeration, which may mean infinite index or a ceiling set too low,
    and in the CLI's ``--ceiling`` check of a congruence table's size,
    made before the table is built.
    """


class CosetTable:
    """Complete action of S and U on right cosets; coset 0 is the subgroup.

    The constructor raises ``ValueError`` unless the columns form a valid
    table, checking in this order: equal nonzero lengths, every image in
    0..n-1, S^2 = 1, U^3 = 1, and the numbering standard and transitive
    (``tree_flags``, whose flags it drops), so every table in existence
    is valid.  An involution and a map of order 3 of 0..n-1 are
    permutations.  u2, the action of U^2 = U^-1, is derived from u; it
    and the products S^2 and U^3 are formed by ``itemgetter`` at C
    level.  Equality and hash read s and u only."""

    __slots__ = ("s", "u", "u2")

    def __init__(self, s: tuple[int, ...], u: tuple[int, ...]):
        n = len(s)
        if len(u) != n or n == 0:
            raise ValueError("malformed table")
        if min(s) < 0 or min(u) < 0 or max(s) >= n or max(u) >= n:
            raise ValueError("images are not in 0..%d" % (n - 1))
        self.s, self.u = s, u
        if n == 1:  # itemgetter of one index returns the image, not a tuple
            self.u2 = (0,)
        else:
            self.u2 = u2 = itemgetter(*u)(u)
            identity = tuple(range(n))
            if itemgetter(*s)(s) != identity:
                raise ValueError("S^2 is not the identity")
            if itemgetter(*u2)(u) != identity:
                raise ValueError("U^3 is not the identity")
        tree_flags((s, u))

    def __eq__(self, other):
        if other.__class__ is not CosetTable:
            return NotImplemented
        return (self.s, self.u) == (other.s, other.u)

    def __hash__(self):
        return hash((self.s, self.u))

    def __repr__(self):
        return "CosetTable(s=%r, u=%r)" % (self.s, self.u)

    @property
    def n(self) -> int:
        return len(self.s)

    def column(self, letter: str) -> tuple[int, ...]:
        """The action of one PSL letter ('S', 'U' or 'u' = U^-1) on all cosets."""
        if letter == "S":
            return self.s
        if letter == "U":
            return self.u
        if letter == "u":
            return self.u2
        raise ValueError("unknown letter %r" % letter)

    def serialize(self) -> str:
        lines = ["cosets %d" % self.n]
        for i in range(self.n):
            lines.append("%d %d %d" % (i, self.s[i], self.u[i]))
        return "\n".join(lines) + "\n"


def tables_isomorphic(t1: CosetTable, t2: CosetTable) -> bool:
    """Base-point-preserving equivalence of two tables: equality, since
    each numbering is standard."""
    return t1 == t2


def orbit_table(
    start: Hashable, steps: dict[str, Callable[[Hashable], Hashable]]
) -> tuple[list[Hashable], dict[str, tuple[int, ...]]]:
    """Breadth-first orbit of a hashable state under named step functions.

    ``steps`` maps generator names to functions state -> state, and its
    order is the order in which each state's neighbours are explored.
    Returns the states in discovery order and one column per name
    (column ``name`` holds the index of ``step(states[i])`` at position
    i; a permutation when the steps are bijections of the orbit).  The
    numbering is standard, so ``tree_flags`` reads the discovery tree off
    the columns.
    """
    index = {start: 0}
    states = [start]
    columns: dict[str, list[int]] = {name: [] for name in steps}
    i = 0
    while i < len(states):
        state = states[i]
        for name, step in steps.items():
            nxt = step(state)
            j = index.get(nxt)
            if j is None:
                j = len(states)
                index[nxt] = j
                states.append(nxt)
            columns[name].append(j)
        i += 1
    return states, {name: tuple(col) for name, col in columns.items()}


def tree_flags(cols: Sequence[tuple[int, ...]]) -> bytearray:
    """One flag per edge (state, column), state-major in column order, set
    on the n - 1 edges of the breadth-first spanning tree from state 0:
    an edge into the first state not yet reached is a tree edge.  Raises
    ``ValueError`` if the states are not numbered breadth-first in column
    order or the action is not transitive."""
    flags = bytearray(len(cols) * len(cols[0]))
    reached, edge = 1, 0
    for c in range(len(cols[0])):
        if c == reached:
            raise ValueError("action is not transitive")
        for col in cols:
            d = col[c]
            if d >= reached:
                if d > reached:
                    raise ValueError("states are not numbered breadth-first from state 0")
                flags[edge] = 1
                reached += 1
            edge += 1
    return flags


def _row_actions(q: int) -> tuple[list[int], list[int], list[int]]:
    """S, U and negation on the rows (a, b) mod q, each row coded a*q + b:
    S sends (a, b) to (-b, a), U sends it to (b, b - a).  For each a the
    codes of the images of the rows (a, b), b = 0..q-1, under each map
    are at most two arithmetic progressions in b, split where a residue
    wraps mod q, so they are written as ranges."""
    s, u, neg = [], [], []
    qq, step = q * q, q + 1
    for a in range(q):
        # S: a, then (q - b) * q + a for b = 1..q-1
        s.append(a)
        s.extend(range(qq - q + a, a, -q))
        # U: b * (q + 1) + q - a while b < a, then b * (q + 1) - a
        u.extend(range(q - a, a * step, step))
        u.extend(range(a * q, qq + q - a, step))
        # negation: base, then base + q - b for b = 1..q-1
        base = -a % q * q
        neg.append(base)
        neg.extend(range(base + q - 1, base, -1))
    return s, u, neg


def congruence_table(m: int, n: int) -> CosetTable:
    """Coset table of the projective congruence subgroup for (m, n).

    The state of the coset of (a b; c d) is its key: the rows (a, b) mod
    m and (c, d) mod n, under the smaller of the two signs.  The key is a
    coset invariant: left multiplication by +-(1 0; g 1) with n | g keeps
    the first row and adds g * (first row) to the second, so the key does
    not change; and two matrices with one key differ by such a factor,
    because the first row is primitive mod m, so a second row with the
    same determinant differs from it by a multiple of the first row,
    which vanishes mod n only for a multiple of n.  S and U act on the
    rows from the right: S sends (a, b) to (-b, a) and U sends it to
    (b, b - a).  The key is one integer, ((a*m + b)*n + c)*n + d for the
    reduced entries: b < m and c*n + d < n^2, so the code orders keys as
    the tuples (a, b, c, d) are ordered, and the smaller code is the
    smaller sign.  S, U and negation act on the row codes through three
    lists per modulus, written as ranges by ``_row_actions`` on each
    call and shared when n == m.  Needs no generator words at all, which is
    what makes it an independent oracle for the Todd-Coxeter path.
    """
    _check_pair(m, n)
    s_m, u_m, neg_m = _row_actions(m)
    s_n, u_n, neg_n = (s_m, u_m, neg_m) if n == m else _row_actions(n)
    nn = n * n
    r1, r2 = 1 % m * m, 1 % n
    start = min(r1 * nn + r2, neg_m[r1] * nn + neg_n[r2])
    # breadth-first from the subgroup's key, as orbit_table walks, with the
    # S and U steps written out: per-state step calls cost about two
    # fifths of the table's build time
    states = [start]
    index = {start: 0}
    get = index.get
    s_col: list[int] = []
    u_col: list[int] = []
    for k in states:
        r1, r2 = divmod(k, nn)
        a, b = s_m[r1], s_n[r2]
        x, y = a * nn + b, neg_m[a] * nn + neg_n[b]
        if y < x:
            x = y
        j = get(x)
        if j is None:
            j = index[x] = len(states)
            states.append(x)
        s_col.append(j)
        a, b = u_m[r1], u_n[r2]
        x, y = a * nn + b, neg_m[a] * nn + neg_n[b]
        if y < x:
            x = y
        j = get(x)
        if j is None:
            j = index[x] = len(states)
            states.append(x)
        u_col.append(j)
    del states, index, get  # freed before the table's check allocates
    return _checked(tuple(s_col), tuple(u_col), "congruence table (%d, %d)" % (m, n))


def _checked(s: tuple[int, ...], u: tuple[int, ...], source: str) -> CosetTable:
    """``CosetTable(s, u)`` for columns built by the package: columns it
    refuses are an internal fault, so its ``ValueError`` is raised as
    ``RuntimeError``."""
    try:
        return CosetTable(s, u)
    except ValueError as exc:
        raise RuntimeError("%s: %s" % (source, exc)) from exc


# --- Todd-Coxeter enumeration over <S, U | S^2, U^3> ---

_RELATORS = ("SS", "UUU")


class _Enumerator:
    """HLT state: three flat columns, the images of every coset under S,
    U and u = U^-1 (``None`` where undefined), and the union-find forest
    ``p`` of coincidences, p[i] <= i, so a coset is live exactly when
    p[i] == i.  A word is scanned in its code, one (column, inverse
    column) pair per letter; S^2 and U^3 are coded once."""

    def __init__(self, ceiling: int):
        self.ceiling = ceiling
        self.cols: tuple[list[int | None], ...] = ([None], [None], [None])
        s, u, u2 = self.cols
        self.pairs = {"S": (s, s), "U": (u, u2), "u": (u2, u)}
        self.relators = [self.code(r) for r in _RELATORS]
        self.p = [0]

    def code(self, word: str) -> list[tuple[list[int | None], list[int | None]]]:
        return [self.pairs[x] for x in word]

    def rep(self, k: int) -> int:
        l = k
        p = self.p
        while p[l] != l:
            l = p[l]
        while p[k] != l:
            p[k], k = l, p[k]
        return l

    def define(self, alpha: int, col: list[int | None], inv: list[int | None]):
        beta = len(self.p)
        if beta >= self.ceiling:
            raise CosetCeilingError(
                "enumeration exceeded %d cosets: possible infinite index "
                "or ceiling too low" % self.ceiling
            )
        for c in self.cols:
            c.append(None)
        self.p.append(beta)
        col[alpha] = beta
        inv[beta] = alpha

    def merge(self, k: int, l: int, queue: deque):
        k, l = self.rep(k), self.rep(l)
        if k != l:
            if k > l:
                k, l = l, k
            self.p[l] = k
            queue.append(l)

    def coincidence(self, alpha: int, beta: int):
        queue: deque = deque()
        self.merge(alpha, beta, queue)
        while queue:
            g = queue.popleft()
            for col, inv in self.pairs.values():
                d = col[g]
                if d is None:
                    continue
                inv[d] = None
                mu, nu = self.rep(g), self.rep(d)
                t = col[mu]
                if t is not None:
                    self.merge(nu, t, queue)
                else:
                    t = inv[nu]
                    if t is not None:
                        self.merge(mu, t, queue)
                    else:
                        col[mu] = nu
                        inv[nu] = mu

    def scan_and_fill(self, alpha: int, code: list[tuple[list[int | None], list[int | None]]]):
        f, i = alpha, 0
        b, j = alpha, len(code) - 1
        while True:
            while i <= j:
                e = code[i][0][f]
                if e is None:
                    break
                f = e
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                e = code[j][1][b]
                if e is None:
                    break
                b = e
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            col, inv = code[i]
            if j == i:
                col[f] = b
                inv[b] = f
                return
            self.define(f, col, inv)


def enumerate_cosets(
    subgroup_generators: list[str],
    ceiling: int = DEFAULT_CEILING,
) -> CosetTable:
    """Todd-Coxeter (HLT) coset enumeration for a subgroup of PSL2(Z).

    The generators are scanned at coset 0, then S^2 and U^3 at every
    live coset in order, defining cosets as the scans need them and
    merging coincidences.  The caller is responsible for the subgroup
    having finite index; the ceiling aborts runaway enumerations.  A
    generator word with a letter outside 'S', 'U', 'u' raises
    ``ValueError``.
    """
    enum = _Enumerator(ceiling)
    for w in subgroup_generators:
        _check_psl_word(w)
        if w:
            enum.scan_and_fill(0, enum.code(w))
    p = enum.p
    alpha = 0
    while alpha < len(p):
        for rel in enum.relators:
            if p[alpha] != alpha:
                break
            enum.scan_and_fill(alpha, rel)
        alpha += 1
    return _standardize(enum)


def _standardize(enum: _Enumerator) -> CosetTable:
    """Renumber the live cosets breadth-first from 0 in generator order
    S < U.  Every coset is first resolved to its live representative,
    in one pass since p[i] <= i."""
    p = enum.p
    for i, k in enumerate(p):
        p[i] = p[k]
    s_col, u_col, _ = enum.cols
    new: list[int | None] = [None] * len(p)
    new[0] = 0
    order = [0]
    for c in order:
        for d in (p[s_col[c]], p[u_col[c]]):
            if new[d] is None:
                new[d] = len(order)
                order.append(d)
    if len(order) != sum(k == i for i, k in enumerate(p)):
        raise RuntimeError("incomplete table after enumeration")
    s = tuple(new[p[s_col[c]]] for c in order)
    u = tuple(new[p[u_col[c]]] for c in order)
    return _checked(s, u, "Todd-Coxeter table")
