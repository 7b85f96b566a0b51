"""Reidemeister-Schreier machinery over PSL2(Z) coset tables.

Given a complete coset table this module produces a prefix-closed Schreier
transversal, a rewritten subgroup presentation whose witnesses are the
reduced Schreier generating set, and the free-product decomposition data
(free rank plus the counts of order-2 and order-3 factors, read off from
fixed points of the S and U actions).  The relator rewriter
``rewrite_relators`` and ``free_reduce`` work over any table of named
permutation columns; the Aut(F2) route uses them too.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from fractions import Fraction

from .cosets import CosetTable
from .matgroup import (
    _PSL_INVERSE,
    _PSL_LETTERS,
    IDENTITY,
    GeneratorWord,
    PslElement,
    invert_psl,
    normalize_psl,
)

_LETTER_MATRIX = {x: p.rep for x, p in _PSL_LETTERS.items()}


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

    The witnesses of ``subgroup_presentation(t)``, each paired with its
    matrix: k + f2 + f3 words for a subgroup F_k * (Z/2)^f2 * (Z/3)^f3,
    so for torsion-free subgroups the result is a free basis.  The
    witness of the edge (c, x) is tr[c] x tr[x(c)]^-1, so its matrix is
    M[c] * x * M[x(c)]^-1, where M[c] is the matrix of the transversal
    word of coset c, built once per coset from the word's prefix.
    """
    tr, edges, _ = _reduced_schreier(t)
    # the words are prefix-closed: M[c] = M[parent] * (last letter), shorter words first
    mats = [IDENTITY] * t.n
    for c in sorted(range(1, t.n), key=lambda c: len(tr[c])):
        last = tr[c][-1]
        mats[c] = mats[t.apply(c, _PSL_INVERSE[last])] * _LETTER_MATRIX[last]
    out = []
    for c, x in edges:
        w = GeneratorWord(_schreier_word(t, tr, c, x))
        if t.trace(0, w) != 0:
            raise RuntimeError("Schreier generator does not fix coset 0")
        out.append((w, PslElement(mats[c] * _LETTER_MATRIX[x] * mats[t.apply(c, x)].inv())))
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
    if dec.free_rank != 1 + t.n // 6:
        raise RuntimeError(
            "free rank %d of a torsion-free table of index %d is not 1 + i/6"
            % (dec.free_rank, t.n)
        )
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


def exponent_sums(words: Iterable[tuple[int, ...]]) -> list[dict[int, int]]:
    """Exponent sums of words of signed 1-based generator numbers, one
    sparse row {0-based column: nonzero sum} per word."""
    rows = []
    for word in words:
        sums: dict[int, int] = {}
        for k in word:
            j = abs(k) - 1
            sums[j] = sums.get(j, 0) + (1 if k > 0 else -1)
        rows.append({j: v for j, v in sums.items() if v})
    return rows


def subgroup_presentation(t: CosetTable) -> SubgroupPresentation:
    """Reidemeister-Schreier rewriting of the ambient relator conjugates.

    Every non-tree edge of the transversal's tree starts as a generator
    and S^2, U^3 are read from every coset.  Each generator occurs only in
    the relators read around its own S- or U-orbit, and those are
    rotations of one word of length at most 3, so the Tietze pass deletes
    one generator per orbit of size 2 or 3 and the other rotations reduce
    to the empty word.  What is left is k + f2 + f3 generators and only
    the torsion relators g^2 (one per fixed point of S) and g^3 (one per
    fixed point of U).  Witness words are computed for the surviving
    generators only.
    """
    tr, edges, relators = _reduced_schreier(t)
    witnesses = tuple(GeneratorWord(_schreier_word(t, tr, c, x)) for c, x in edges)
    relators.sort(key=lambda r: (len(r), r))
    return SubgroupPresentation(witnesses, tuple(relators))


def _reduced_schreier(
    t: CosetTable,
) -> tuple[tuple[str, ...], list[tuple[int, str]], list[tuple[int, ...]]]:
    """The transversal, the non-tree edges (coset, letter) that survive
    the Tietze pass, and the relators renumbered over them."""
    tr, tree = transversal_with_tree(t)
    edges, words = rewrite_relators({"S": t.s, "U": t.u}, tree, AMBIENT_RELATORS)
    survivors, relators = _eliminate_short_relators(len(edges), words)
    return tr, [edges[k - 1] for k in survivors], relators


def _eliminate_short_relators(
    n_generators: int, words: list[tuple[int, ...]]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Tietze elimination through relators of length at most 3 over
    distinct generators.

    The relators are scanned once, in order.  A short relator is rotated
    so that its highest generator v comes last, rest * v^e = 1, and v is
    replaced by rest^-1 (e = +1) or by rest (e = -1) in every relator
    that holds it, found through an occurrence index.  Over
    <S, U | S^2, U^3> the relators that share a generator are rotations
    of one word, so the substitution reduces them all to the empty word
    and no relator becomes short after the scan has passed it.  Torsion
    relators g^2, g^3 are left alone, so the Kurosh shape stays visible
    in the presentation.  Returns the surviving generators (1-based,
    ascending) and the nonempty relators renumbered over them.
    """
    rels = list(words)
    occurs: list[set[int]] = [set() for _ in range(n_generators + 1)]
    for i, rel in enumerate(rels):
        for k in rel:
            occurs[abs(k)].add(i)
    alive = [True] * (n_generators + 1)
    for i in range(len(rels)):
        rel = rels[i]
        if not 0 < len(rel) <= 3 or len({abs(k) for k in rel}) < len(rel):
            continue
        top = max(range(len(rel)), key=lambda p: abs(rel[p]))
        *rest, last = rel[top + 1 :] + rel[: top + 1]
        victim = abs(last)
        repl = tuple(rest) if last < 0 else tuple(-k for k in reversed(rest))
        sub = {victim: repl, -victim: tuple(-k for k in reversed(repl))}
        alive[victim] = False
        for j in occurs[victim]:
            rels[j] = free_reduce(x for k in rels[j] for x in sub.get(k, (k,)))
            for k in rels[j]:
                occurs[abs(k)].add(j)
    survivors = [k for k in range(1, n_generators + 1) if alive[k]]
    number = {k: i + 1 for i, k in enumerate(survivors)}
    relators = [
        tuple(number[k] if k > 0 else -number[-k] for k in rel) for rel in rels if rel
    ]
    return survivors, relators


def abelianized_relation_matrix(p: SubgroupPresentation) -> list[list[int]]:
    """Exponent-sum rows of the relators, one dense row with a column per
    generator."""
    rows = []
    for sums in exponent_sums(p.relators):
        row = [0] * p.n_generators
        for j, v in sums.items():
            row[j] = v
        rows.append(row)
    return rows
