"""Coset tables for finite-index subgroups of PSL2(Z).

Two independent constructions are provided: Todd-Coxeter enumeration over
the presentation <S, U | S^2, U^3> from subgroup generator words, and the
explicit congruence action (reduction of matrix rows mod m and mod n).
Agreement of the two is the main internal cross-check.  The congruence
action, the signed-orbit table of the Aut(F2) route and the stabilizer
orbit all come from the one breadth-first builder ``orbit_table``.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

from .matgroup import GeneratorWord, _check_pair

DEFAULT_CEILING = 10**6


class CosetCeilingError(RuntimeError):
    """Raised when coset enumeration exceeds its coset-count ceiling.

    Indicates possible infinite index, or a ceiling set too low.
    """


@dataclass(frozen=True)
class CosetTable:
    """Complete action of S and U on right cosets; coset 0 is the subgroup."""

    s: tuple[int, ...]
    u: tuple[int, ...]
    provenance: str = "enumerated"
    u2: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u2", tuple(self.u[self.u[i]] for i in range(len(self.u))))

    @property
    def n(self) -> int:
        return len(self.s)

    def apply(self, coset: int, letter: str) -> int:
        if letter == "S":
            return self.s[coset]
        if letter == "U":
            return self.u[coset]
        if letter == "u":
            return self.u2[coset]
        raise ValueError("unknown letter %r" % letter)

    def trace(self, coset: int, word: GeneratorWord | str) -> int:
        letters = word.letters if isinstance(word, GeneratorWord) else word
        for x in letters:
            coset = self.apply(coset, x)
        return coset

    def validate(self):
        n = self.n
        if len(self.u) != n or n == 0:
            raise ValueError("malformed table")
        dom = list(range(n))
        if sorted(self.s) != dom or sorted(self.u) != dom:
            raise ValueError("actions are not permutations")
        if any(self.s[self.s[i]] != i for i in dom):
            raise ValueError("S^2 is not the identity")
        if any(self.u[self.u2[i]] != i for i in dom):
            raise ValueError("U^3 is not the identity")
        # transitivity
        seen = {0}
        queue = deque([0])
        while queue:
            c = queue.popleft()
            for d in (self.s[c], self.u[c]):
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
        if len(seen) != n:
            raise ValueError("action is not transitive")

    def serialize(self) -> str:
        lines = ["cosets %d" % self.n]
        for i in range(self.n):
            lines.append("%d %d %d" % (i, self.s[i], self.u[i]))
        return "\n".join(lines) + "\n"


def deserialize_table(text: str, provenance: str = "enumerated") -> CosetTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "cosets":
        raise ValueError("missing 'cosets N' header")
    n = int(head[1])
    s = [0] * n
    u = [0] * n
    for ln in lines[1 : n + 1]:
        i, si, ui = (int(v) for v in ln.split())
        s[i], u[i] = si, ui
    t = CosetTable(tuple(s), tuple(u), provenance)
    t.validate()
    return t


def tables_isomorphic(t1: CosetTable, t2: CosetTable) -> bool:
    """Base-point-preserving equivalence, by simultaneous BFS from coset 0."""
    if t1.n != t2.n:
        return False
    mapping = {0: 0}
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for letter in "SU":
            d1 = t1.apply(c, letter)
            d2 = t2.apply(mapping[c], letter)
            if d1 in mapping:
                if mapping[d1] != d2:
                    return False
            else:
                mapping[d1] = d2
                queue.append(d1)
    return len(set(mapping.values())) == t1.n


def orbit_table(
    start: Hashable, steps: dict[str, Callable[[Hashable], Hashable]]
) -> tuple[list[Hashable], dict[str, tuple[int, ...]], list[tuple[int, str]]]:
    """Breadth-first orbit of a hashable state under named step functions.

    ``steps`` maps generator names to functions state -> state, and its
    order is the order in which each state's neighbours are explored.
    Returns the states in discovery order, one column per name (column
    ``name`` holds the index of ``step(states[i])`` at position i; a
    permutation when the steps are bijections of the orbit) and the
    discovery edges (i, name) in discovery order, which form a spanning
    tree rooted at state 0.
    """
    index = {start: 0}
    states = [start]
    columns: dict[str, list[int]] = {name: [] for name in steps}
    tree: list[tuple[int, str]] = []
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
                tree.append((i, name))
            columns[name].append(j)
        i += 1
    return states, {name: tuple(col) for name, col in columns.items()}, tree


def congruence_table(m: int, n: int) -> CosetTable:
    """Coset table of the projective congruence subgroup for (m, n).

    A coset is the subgroup's image mod m (together with its negatives)
    multiplied by a representative in SL2(Z/m); its state is the least
    element of that product.  Needs no generator words at all, which is
    what makes it an independent oracle for the Todd-Coxeter path.
    """
    _check_pair(m, n)
    if m == 1:
        return CosetTable((0,), (0,), "congruence-action")

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            (a * e + b * g) % m,
            (a * f + b * h) % m,
            (c * e + d * g) % m,
            (c * f + d * h) % m,
        )

    # image of the subgroup in SL2(Z/m), closed under negation
    stab = set()
    for gamma in range(0, m, n):
        stab.add((1, 0, gamma, 1))
        stab.add((m - 1, 0, (-gamma) % m, m - 1))

    def coset(x):
        return min(mul(h, x) for h in stab)

    s_mat = (0, 1, (-1) % m, 0)
    u_mat = (0, (-1) % m, 1, 1)
    _, cols, _ = orbit_table(
        coset((1, 0, 0, 1)),
        {"S": lambda x: coset(mul(x, s_mat)), "U": lambda x: coset(mul(x, u_mat))},
    )
    t = CosetTable(cols["S"], cols["U"], "congruence-action")
    t.validate()
    return t


# --- Todd-Coxeter enumeration over <S, U | S^2, U^3> ---

_COLS = {"S": 0, "U": 1, "u": 2}
_INV_COL = (0, 2, 1)  # S <-> S, U <-> u
_RELATORS = ("SS", "UUU")


class _Enumerator:
    def __init__(self, ceiling: int):
        self.ceiling = ceiling
        self.table: list[list[int | None]] = [[None, None, None]]
        self.p = [0]  # union-find; p[i] <= i, rep is fixed point

    def rep(self, k: int) -> int:
        l = k
        p = self.p
        while p[l] != l:
            l = p[l]
        while p[k] != l:
            p[k], k = l, p[k]
        return l

    def define(self, alpha: int, col: int):
        if len(self.table) >= self.ceiling:
            raise CosetCeilingError(
                "enumeration exceeded %d cosets: possible infinite index "
                "or ceiling too low" % self.ceiling
            )
        beta = len(self.table)
        self.table.append([None, None, None])
        self.p.append(beta)
        self.table[alpha][col] = beta
        self.table[beta][_INV_COL[col]] = alpha

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
            for col in range(3):
                d = self.table[g][col]
                if d is None:
                    continue
                self.table[d][_INV_COL[col]] = None
                mu, nu = self.rep(g), self.rep(d)
                t = self.table[mu][col]
                if t is not None:
                    self.merge(nu, t, queue)
                else:
                    t = self.table[nu][_INV_COL[col]]
                    if t is not None:
                        self.merge(mu, t, queue)
                    else:
                        self.table[mu][col] = nu
                        self.table[nu][_INV_COL[col]] = mu

    def scan_and_fill(self, alpha: int, word: str):
        cols = [_COLS[x] for x in word]
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][_INV_COL[cols[j]]] is not None:
                b = self.table[b][_INV_COL[cols[j]]]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][_INV_COL[cols[i]]] = f
                return
            self.define(f, cols[i])


def enumerate_cosets(
    subgroup_generators: list[GeneratorWord | str],
    ceiling: int = DEFAULT_CEILING,
) -> CosetTable:
    """Todd-Coxeter (HLT) coset enumeration for a subgroup of PSL2(Z).

    The caller is responsible for the subgroup having finite index; the
    ceiling aborts runaway enumerations.
    """
    enum = _Enumerator(ceiling)
    for w in subgroup_generators:
        letters = w.letters if isinstance(w, GeneratorWord) else w
        if letters:
            enum.scan_and_fill(0, letters)
    alpha = 0
    while alpha < len(enum.table):
        if enum.rep(alpha) == alpha:
            for rel in _RELATORS:
                enum.scan_and_fill(alpha, rel)
                if enum.rep(alpha) != alpha:
                    break
        alpha += 1
    return _standardize(enum)


def _standardize(enum: _Enumerator) -> CosetTable:
    """Renumber live cosets by BFS from 0 in generator order S < U."""
    live_next = {}
    for alpha in range(len(enum.table)):
        if enum.rep(alpha) == alpha:
            row = enum.table[alpha]
            live_next[alpha] = (enum.rep(row[0]), enum.rep(row[1]))
    order = {enum.rep(0): 0}
    queue = deque([enum.rep(0)])
    while queue:
        c = queue.popleft()
        for d in live_next[c]:
            if d not in order:
                order[d] = len(order)
                queue.append(d)
    if len(order) != len(live_next):
        raise RuntimeError("incomplete table after enumeration")
    n = len(order)
    s = [0] * n
    u = [0] * n
    for old, new in order.items():
        s[new] = order[live_next[old][0]]
        u[new] = order[live_next[old][1]]
    t = CosetTable(tuple(s), tuple(u), "enumerated")
    t.validate()
    return t
