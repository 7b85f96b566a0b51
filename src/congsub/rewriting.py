"""Reidemeister-Schreier machinery over PSL2(Z) coset tables.

Given a complete coset table this module produces a prefix-closed Schreier
transversal, a reduced Schreier generating set, a rewritten subgroup
presentation, and the free-product decomposition data (free rank plus the
counts of order-2 and order-3 factors, read off from fixed points of the
S and U actions).  The relator rewriter ``rewrite_relators`` and
``free_reduce`` work over any table of named permutation columns; the
Aut(F2) route uses them too.
"""
from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from fractions import Fraction

from .cosets import CosetTable
from .matgroup import (
    GeneratorWord,
    PslElement,
    invert_psl,
    normalize_psl,
    word_to_matrix,
)


def transversal(t: CosetTable) -> tuple[str, ...]:
    """BFS Schreier transversal, one PSL word per coset, prefix-closed.

    Edges are explored in the fixed order S < U < U^2 so the result is
    deterministic for a given table.
    """
    return transversal_with_tree(t)[0]


def transversal_with_tree(
    t: CosetTable,
) -> tuple[tuple[str, ...], frozenset[tuple[int, str]]]:
    """Transversal plus the set of (coset, generator) pairs its tree uses.

    A tree edge explored via the letter u (= U^-1) consumes the pair
    (target, 'U'); every tree edge consumes exactly one pair, so the raw
    Schreier generator count is 2*n - (n - 1).
    """
    words: list[str | None] = [None] * t.n
    words[0] = ""
    tree: set[tuple[int, str]] = set()
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for letter in "SUu":
            d = t.apply(c, letter)
            if words[d] is None:
                words[d] = words[c] + letter
                tree.add((d, "U") if letter == "u" else (c, letter))
                queue.append(d)
    return tuple(words), frozenset(tree)  # type: ignore[arg-type]


def _schreier_word(t: CosetTable, tr, coset: int, letter: str) -> str:
    return normalize_psl(tr[coset] + letter + invert_psl(tr[t.apply(coset, letter)]))


def schreier_generators(t: CosetTable) -> list[tuple[GeneratorWord, PslElement]]:
    """Reduced Schreier generating set for the subgroup at coset 0.

    Raw Schreier generators t_c * a * t_{c*a}^-1 over a in {S, U} are
    thinned using the ambient torsion: the two generators of an S-orbit of
    size 2 are mutually inverse (one is kept), and the three generators
    around a U-orbit of size 3 multiply to 1 (the last nontrivial one is
    dropped).  Fixed points contribute the torsion generators themselves.
    For torsion-free subgroups the result is a free basis.
    """
    tr = transversal(t)
    gens: list[str] = []
    for c in range(t.n):
        d = t.s[c]
        if d == c:
            gens.append(_schreier_word(t, tr, c, "S"))
        elif c < d:
            w = _schreier_word(t, tr, c, "S")
            if w:
                gens.append(w)
    seen = set()
    for c in range(t.n):
        if c in seen:
            continue
        orbit = [c, t.u[c], t.u2[c]]
        seen.update(orbit)
        if orbit[1] == c:
            gens.append(_schreier_word(t, tr, c, "U"))
            continue
        words = [_schreier_word(t, tr, e, "U") for e in orbit]
        nontrivial = [w for w in words if w]
        if len(nontrivial) == 3:
            nontrivial = nontrivial[:2]
        elif len(nontrivial) == 2:
            nontrivial = nontrivial[:1]
        elif len(nontrivial) == 1:
            # forced identity: the other two edges are in the tree
            if not word_to_matrix(nontrivial[0]).is_identity():
                raise RuntimeError("corrupted table: non-closing U-orbit")
            nontrivial = []
        gens.extend(nontrivial)
    out = []
    for w in gens:
        elem = word_to_matrix(w)
        if t.trace(0, w) != 0:
            raise RuntimeError("Schreier generator does not fix coset 0")
        out.append((GeneratorWord(w), elem))
    return out


@dataclass(frozen=True)
class KuroshDecomposition:
    """Free-product shape of a finite-index subgroup of PSL2(Z).

    free_rank free generators, f2 factors of order 2 and f3 factors of
    order 3; each finite factor is witnessed by a fixed coset and the
    transversal word conjugating the ambient torsion element into the
    subgroup.
    """

    free_rank: int
    f2: int
    f3: int
    witnesses_order2: tuple[tuple[int, str], ...]
    witnesses_order3: tuple[tuple[int, str], ...]


def kurosh_decompose(t: CosetTable) -> KuroshDecomposition:
    """Fixed-point counts plus Euler-characteristic bookkeeping.

    The free rank k satisfies k = 1 + i/6 - f2/2 - 2*f3/3 for a subgroup
    of index i; a non-integral or negative value means the table is
    corrupted, and is raised loudly.
    """
    tr = transversal(t)
    fixed_s = [c for c in range(t.n) if t.s[c] == c]
    fixed_u = [c for c in range(t.n) if t.u[c] == c]
    f2, f3 = len(fixed_s), len(fixed_u)
    k = 1 + Fraction(t.n, 6) - Fraction(f2, 2) - Fraction(2 * f3, 3)
    if k.denominator != 1 or k < 0:
        raise RuntimeError(
            "Euler identity violated (index %d, f2=%d, f3=%d): k=%s"
            % (t.n, f2, f3, k)
        )
    return KuroshDecomposition(
        free_rank=int(k),
        f2=f2,
        f3=f3,
        witnesses_order2=tuple((c, tr[c]) for c in fixed_s),
        witnesses_order3=tuple((c, tr[c]) for c in fixed_u),
    )


def is_free(t: CosetTable) -> bool:
    return all(t.s[c] != c for c in range(t.n)) and all(
        t.u[c] != c for c in range(t.n)
    )


def free_rank(t: CosetTable) -> int:
    """Rank of a torsion-free subgroup; rejects subgroups with torsion."""
    if not is_free(t):
        raise ValueError("subgroup has torsion; no free rank")
    dec = kurosh_decompose(t)
    assert dec.free_rank == 1 + t.n // 6
    return dec.free_rank


# S^2 and U^3 as words of (generator, exponent) tokens
AMBIENT_RELATORS = ((("S", 1),) * 2, (("U", 1),) * 3)


@dataclass(frozen=True)
class SubgroupPresentation:
    """Presentation on the nontrivial Schreier generators.

    witnesses[i] is the ambient word for generator i; relators are tuples
    of nonzero signed 1-based generator indices (+k for g_{k-1}, -k for
    its inverse).
    """

    witnesses: tuple[GeneratorWord, ...]
    relators: tuple[tuple[int, ...], ...]

    @property
    def n_generators(self) -> int:
        return len(self.witnesses)

    def serialize(self) -> str:
        lines = ["gens %d" % self.n_generators]
        lines.extend(w.letters for w in self.witnesses)
        lines.append("relators %d" % len(self.relators))
        for rel in self.relators:
            lines.append(
                " ".join(
                    "g%d" % (k - 1) if k > 0 else "g%d^-1" % (-k - 1) for k in rel
                )
            )
        return "\n".join(lines) + "\n"


def free_reduce(word: Iterable[int]) -> tuple[int, ...]:
    """Free reduction of a word of nonzero signed letters (-a inverts a)."""
    out: list[int] = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def rewrite_relators(
    columns: dict[str, tuple[int, ...]],
    tree: Collection[tuple[int, str]],
    relators: Iterable[tuple[tuple[str, int], ...]],
) -> tuple[list[tuple[int, str]], list[tuple[int, ...]]]:
    """Reidemeister-Schreier rewriting of relators through a coset table.

    ``columns`` maps each generator name to its permutation of the states,
    ``tree`` holds the (state, name) edges of a spanning tree and
    ``relators`` are words of (name, +1/-1) tokens.  The non-tree edges
    are the Schreier generators, numbered from 1 state-major in column
    order.  Returns those edges and, relator by relator and for every
    start state, the relator read from that state as a freely reduced
    word of signed generator numbers.
    """
    n = len(next(iter(columns.values())))
    symbol: dict[tuple[int, str], int] = {}
    for c in range(n):
        for name in columns:
            if (c, name) not in tree:
                symbol[(c, name)] = len(symbol) + 1
    inverse = {}
    for name, col in columns.items():
        back = [0] * n
        for src, dst in enumerate(col):
            back[dst] = src
        inverse[name] = back
    words = []
    for rel in relators:
        for c in range(n):
            cur = c
            out = []
            for name, e in rel:
                if e == 1:
                    k = symbol.get((cur, name), 0)
                    cur = columns[name][cur]
                else:
                    cur = inverse[name][cur]
                    k = -symbol.get((cur, name), 0)
                if k:
                    out.append(k)
            if cur != c:
                raise RuntimeError("relator %r does not close at state %d" % (rel, c))
            words.append(free_reduce(out))
    return list(symbol), words


def exponent_rows(words: Iterable[tuple[int, ...]], n: int) -> list[list[int]]:
    """Exponent sums of words of signed 1-based generator numbers, one row
    of n columns per word."""
    rows = []
    for word in words:
        row = [0] * n
        for k in word:
            row[abs(k) - 1] += 1 if k > 0 else -1
        rows.append(row)
    return rows


def _relator_key(rel: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form under cyclic rotation and inversion, for dedup."""
    variants = []
    inv = tuple(-k for k in reversed(rel))
    for w in (rel, inv):
        for i in range(len(w)):
            variants.append(w[i:] + w[:i])
    return min(variants)


def subgroup_presentation(t: CosetTable) -> SubgroupPresentation:
    """Reidemeister-Schreier rewriting of the ambient relator conjugates.

    Every non-tree edge of the transversal's tree starts as a generator
    and S^2, U^3 are read from every coset; the Tietze pass then deletes
    the edges whose Schreier word is trivial (they fall to relators of
    length 1) and merges pairs tied by relators of length 2.  Witness
    words are computed for the surviving generators only.
    """
    tr, tree = transversal_with_tree(t)
    edges, words = rewrite_relators({"S": t.s, "U": t.u}, tree, AMBIENT_RELATORS)
    survivors, relators = _eliminate_short_relators(len(edges), words)
    witnesses = tuple(
        GeneratorWord(_schreier_word(t, tr, *edges[k - 1])) for k in survivors
    )
    relators.sort(key=lambda r: (len(r), r))
    return SubgroupPresentation(witnesses, tuple(relators))


def _is_short(rel: tuple[int, ...]) -> bool:
    """Length 1, or length 2 over two distinct generators."""
    return len(rel) <= 2 and len({abs(k) for k in rel}) == len(rel)


def _eliminate_short_relators(
    n_generators: int, words: list[tuple[int, ...]]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Tietze elimination using relators of length 1 and mixed length 2.

    A relator g = 1 deletes the generator outright; a relator relating two
    distinct generators identifies one with (the inverse of) the other and
    the higher-numbered one is dropped.  Torsion relators g^2, g^3 are
    left alone, so the Kurosh shape stays visible in the presentation.
    The earliest short relator is used first, and relators equal up to
    rotation and inversion are kept once, the earliest.  An occurrence
    index re-reads only the relators that hold the eliminated generator;
    they are rewritten at once, so no chain of substitutions builds up.
    Returns the surviving generators (1-based, ascending) and the
    relators renumbered over them.
    """
    rels: list[tuple[int, ...] | None] = [None] * len(words)
    holder: dict[tuple[int, ...], int] = {}  # relator key -> index holding it
    occurs: list[set[int]] = [set() for _ in range(n_generators + 1)]
    short: list[int] = []  # heap of indices of short relators, maybe stale

    def drop(i: int) -> None:
        for k in rels[i]:
            occurs[abs(k)].discard(i)
        del holder[_relator_key(rels[i])]
        rels[i] = None

    def place(i: int, rel: tuple[int, ...]) -> None:
        """Store rel at i unless it is empty or an earlier relator has its key."""
        if not rel:
            return
        key = _relator_key(rel)
        j = holder.get(key, i)
        if j < i:
            return
        if j > i:
            drop(j)
        holder[key] = i
        rels[i] = rel
        for k in rel:
            occurs[abs(k)].add(i)
        if _is_short(rel):
            heapq.heappush(short, i)

    for i, word in enumerate(words):
        place(i, word)
    alive = [True] * (n_generators + 1)
    while short:
        rel = rels[heapq.heappop(short)]
        if rel is None or not _is_short(rel):
            continue
        if len(rel) == 1:
            victim, repl = abs(rel[0]), ()
        else:
            a, b = sorted(rel, key=abs)
            # g_|b|^sign(b) = g_a^{-sign(a)}
            victim = abs(b)
            repl = (-a,) if b > 0 else (a,)
        sub = {victim: repl, -victim: tuple(-k for k in repl)}
        alive[victim] = False
        touched = sorted(occurs[victim])
        rewritten = []
        for j in touched:
            rewritten.append(free_reduce(x for k in rels[j] for x in sub.get(k, (k,))))
            drop(j)
        for j, rel in zip(touched, rewritten):
            place(j, rel)
    survivors = [k for k in range(1, n_generators + 1) if alive[k]]
    number = {k: i + 1 for i, k in enumerate(survivors)}
    relators = [
        tuple(number[k] if k > 0 else -number[-k] for k in rel)
        for rel in rels
        if rel is not None
    ]
    return survivors, relators


def abelianized_relation_matrix(p: SubgroupPresentation) -> list[list[int]]:
    """Exponent-sum rows of the relators, one column per generator."""
    return exponent_rows(p.relators, p.n_generators)
