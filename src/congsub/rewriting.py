"""Reidemeister-Schreier machinery over PSL2(Z) coset tables.

Given a complete coset table this module produces a prefix-closed Schreier
transversal, a subgroup presentation whose witnesses are the reduced
Schreier generating set, and the free-product decomposition data (free
rank plus the counts of order-2 and order-3 factors, read off from fixed
points of the S and U actions).  The presentation is read off the S- and
U-cycles by a rule read at each coset: a non-tree edge occurs only in
the rewritten S^2 or U^3 read around its own cycle, so Tietze elimination
would drop the highest-numbered non-tree edge of each cycle of length 2
or 3 and keep each edge at a fixed point with the relator g^2 or g^3.  A
non-tree edge (c, x) off a fixed point is thus kept exactly when another
coset of its x-cycle is off the tree and higher.  Transversal words are
in normal form in Z/2 * Z/3, so a witness tr[c] x tr[x(c)]^-1 is reduced
only where its parts meet; the witnesses' matrices are read off the tree
walk that builds the transversal, with no witness word built
(``schreier_matrices``, which the hall route reads).  The relator
rewriter ``relation_rows`` works over any table of named permutation
columns numbered breadth-first, reading the spanning tree off the
numbering, and returns the abelianized relation rows only, reading a
relator that is a proper power once per cycle of its root; the Aut+(F2)
route uses it.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from operator import ne

from .cosets import CosetTable, tree_flags
from .matgroup import _LETTER_MATRIX, _PSL_INVERSE, invert_psl


def transversal(t: CosetTable) -> tuple[str, ...]:
    """BFS Schreier transversal, one PSL word per coset, prefix-closed.

    Edges are explored in the fixed order S < U < U^2 so the result is
    deterministic for a given table.  Each word is in normal form: it
    never contains SS, UU, Uu, uU or uu, because S^2 and U^3 close in
    every table, so the coset each such pair would reach was discovered
    by a shorter word.  Every coset is reached, since a table is
    transitive.
    """
    return _schreier_tree(t)[0]


def _schreier_tree(
    t: CosetTable,
) -> tuple[tuple[str, ...], dict[str, bytearray], list[int]]:
    """The transversal, its tree and the cosets in the order the walk
    discovered them, each after its parent.  The tree is one flag per
    coset and generator ('S', 'U') set at each tree edge: a coset
    discovered by S or U from c consumes the pair at c, one found by
    u = U^-1 consumes its own U pair.  The table is transitive, so every
    word is set."""
    words: list[str | None] = [None] * t.n
    words[0] = ""
    in_s, in_u = bytearray(t.n), bytearray(t.n)
    steps = (("S", t.s, in_s, False), ("U", t.u, in_u, False), ("u", t.u2, in_u, True))
    queue = [0]
    for c in queue:  # the list grows as it is read: a FIFO without pops
        for letter, col, flags, at_target in steps:
            d = col[c]
            if words[d] is None:
                words[d] = words[c] + letter
                flags[d if at_target else c] = 1
                queue.append(d)
    return tuple(words), {"S": in_s, "U": in_u}, queue  # type: ignore[return-value]


def _join(p: str, q: str) -> str:
    """Normal form of the product of two PSL words in normal form.

    Only the junction reduces: SS and Uu/uU cancel, and a UU or uu left
    there merges into one letter, after which the neighbours of that
    letter are S or nothing.  The normal form in Z/2 * Z/3 is unique, so
    this equals the free-product normal form of p + q.
    """
    i, j = len(p), 0
    while i and j < len(q):
        pair = p[i - 1] + q[j]
        if pair in ("SS", "Uu", "uU"):
            i -= 1
            j += 1
        elif pair in ("UU", "uu"):
            return p[: i - 1] + ("u" if pair == "UU" else "U") + q[j + 1 :]
        else:
            break
    return p[:i] + q[j:]


def _schreier_word(tr, coset: int, letter: str, target: int) -> str:
    """The witness tr[coset] letter tr[target]^-1 of the edge from coset to
    target = letter(coset), in normal form.

    Transversal words and their inverses are in normal form, so the
    product is reduced only at its two junctions.
    """
    return _join(_join(tr[coset], letter), invert_psl(tr[target]))


def schreier_matrices(
    t: CosetTable,
) -> tuple[tuple[str, ...], list[tuple[int, str]], list[tuple[int, int, int, int]]]:
    """The transversal, the edges (c, x) that ``subgroup_presentation``
    keeps as generators, and the matrix of each edge's witness
    tr[c] x tr[x(c)]^-1, as an integer quadruple (a, b, c, d) of
    determinant 1 and in the sign the letters' matrices give it.

    The matrix is M[c] * x * M[x(c)]^-1, where M[c], the matrix of the
    transversal word of coset c, is M[parent] * (last letter), built in
    the order the tree walk discovered the cosets, parents first.  The
    letters' matrices are read from ``_LETTER_MATRIX`` at each call, and
    every product, of the transversal and of the generators, has its
    determinant checked: one other than 1 is an internal fault and
    raises ``RuntimeError``.  No witness word is built.
    """
    tr, edges, _, order = _reduced_schreier(t)
    letter = _LETTER_MATRIX
    cols = {x: t.column(x) for x in _PSL_INVERSE}
    mats = [(1, 0, 0, 1)] * t.n
    for c in order[1:]:
        last = tr[c][-1]
        mats[c] = _product(mats[cols[_PSL_INVERSE[last]][c]], letter[last])
    gens = []
    for c, x in edges:
        a, b, cc, d = mats[cols[x][c]]
        gens.append(_product(_product(mats[c], letter[x]), (d, -b, -cc, a)))
    return tr, edges, gens


def schreier_generators(
    t: CosetTable,
) -> list[tuple[str, tuple[int, int, int, int]]]:
    """Reduced Schreier generating set for the subgroup at coset 0.

    The witnesses of ``subgroup_presentation(t)``, each a PSL word paired
    with its quadruple from ``schreier_matrices`` in the sign built there:
    k + f2 + f3 words for a subgroup F_k * (Z/2)^f2 * (Z/3)^f3, so for
    torsion-free subgroups the result is a free basis.  Each witness is
    walked through the table and must fix coset 0; one that moves it is
    an internal fault and raises ``RuntimeError``.
    """
    tr, edges, mats = schreier_matrices(t)
    cols = {x: t.column(x) for x in _PSL_INVERSE}
    gens = []
    for (c, x), g in zip(edges, mats):
        w = _schreier_word(tr, c, x, cols[x][c])
        d = 0
        for y in w:
            d = cols[y][d]
        if d != 0:
            raise RuntimeError("Schreier generator does not fix coset 0")
        gens.append((w, g))
    return gens


def _product(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two 2x2 integer matrices given as (a, b, c, d);
    raises ``RuntimeError`` unless its determinant is 1."""
    a, b, c, d = p
    e, f, g, h = q
    r = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    det = r[0] * r[3] - r[1] * r[2]
    if det != 1:
        raise RuntimeError("Schreier matrix: determinant must be 1, got %d" % det)
    return r


class KuroshDecomposition(namedtuple(
    "KuroshDecomposition", "free_rank f2 f3 witnesses_order2 witnesses_order3"
)):
    """Free-product shape of a finite-index subgroup of PSL2(Z).

    free_rank free generators, f2 factors of order 2 and f3 factors of
    order 3; each finite factor is witnessed by a fixed coset and the
    transversal word conjugating the ambient torsion element into the
    subgroup, a tuple of (coset, word) pairs per order.
    """

    __slots__ = ()


def kurosh_decompose(t: CosetTable) -> KuroshDecomposition:
    """Fixed-point counts plus Euler-characteristic bookkeeping.

    The free rank k satisfies k = 1 + i/6 - f2/2 - 2*f3/3 for a subgroup
    of index i; a non-integral or negative value means the table is
    corrupted, and is raised loudly.
    """
    fixed_s = [c for c, d in enumerate(t.s) if d == c]
    fixed_u = [c for c, d in enumerate(t.u) if d == c]
    f2, f3 = len(fixed_s), len(fixed_u)
    k6 = 6 + t.n - 3 * f2 - 4 * f3  # 6k
    if k6 % 6 or k6 < 0:
        raise RuntimeError(
            "Euler identity violated (index %d, f2=%d, f3=%d): 6k=%d"
            % (t.n, f2, f3, k6)
        )
    tr = transversal(t) if fixed_s or fixed_u else ()  # words read at fixed cosets only
    return KuroshDecomposition(
        free_rank=k6 // 6,
        f2=f2,
        f3=f3,
        witnesses_order2=tuple((c, tr[c]) for c in fixed_s),
        witnesses_order3=tuple((c, tr[c]) for c in fixed_u),
    )


def is_free(t: CosetTable) -> bool:
    """No coset is fixed by S or by U."""
    return all(map(ne, t.s, range(t.n))) and all(map(ne, t.u, range(t.n)))


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


class SubgroupPresentation(namedtuple("SubgroupPresentation", "witnesses relators")):
    """Presentation on the nontrivial Schreier generators.

    witnesses[i] is the ambient PSL word (a str) for generator i;
    relators are tuples of nonzero signed 1-based generator indices (+k
    for g_{k-1}, -k for its inverse).
    """

    __slots__ = ()

    @property
    def n_generators(self) -> int:
        return len(self.witnesses)


def relation_rows(
    columns: dict[str, tuple[int, ...]],
    relators: Iterable[tuple[tuple[str, int], ...]],
) -> tuple[list[dict[int, int]], int]:
    """Abelianized Reidemeister-Schreier rewriting through a coset table.

    ``columns`` maps each generator name to its permutation of the states,
    numbered breadth-first from state 0, and ``relators`` are words of
    (name, +1/-1) tokens.  The Schreier generators are the edges that the
    numbering walk ``tree_flags`` leaves off the tree, numbered
    state-major in column order, 0 on the tree; a token is read with two
    list lookups.  Each relator is read straight into its exponent sums,
    which free reduction would not change, so no word is built.  A
    relator that is a proper power v^k (v its shortest root) read from c
    and from v(c) walks the same closed path, started at another point,
    so its rows are equal (Magnus, Karrass & Solitar, *Combinatorial
    Group Theory*, 1966): it is read from the lowest state of each cycle
    of v only, walking v k times and marking each state it starts v at.
    Closing at c, it closes at every state of that cycle.  A relator that
    is no power is read from every state.  Returns the nonzero rows
    ({0-based generator: sum}, in order of first occurrence,
    relator-major) and the number of generators.  Columns not so
    numbered, or a relator that does not close, are an internal fault
    and raise ``RuntimeError``.
    """
    cols = list(columns.values())
    try:
        flags = tree_flags(cols)
    except ValueError as exc:
        raise RuntimeError("coset table: %s" % exc) from exc
    n, k = len(cols[0]), len(cols)
    number = [0] * len(flags)
    n_syms = 0
    for e, tree in enumerate(flags):
        if not tree:
            n_syms += 1
            number[e] = n_syms
    # per token (name, e): the column it moves by and the number of the
    # edge it crosses, indexed by the state it leaves
    steps = {}
    for i, (name, col) in enumerate(columns.items()):
        symbol = number[i::k]
        back = sorted(range(n), key=col.__getitem__)
        steps[name, 1] = (col, symbol, 1)
        steps[name, -1] = (back, [symbol[src] for src in back], -1)
    rows = []
    for rel in relators:
        # rel = root^reps, the root its shortest rotation period (1 if empty)
        p = next((p for p in range(1, len(rel) + 1) if rel == rel[p:] + rel[:p]), 1)
        root, reps = [steps[tok] for tok in rel[:p]], len(rel) // p
        done = bytearray(n)
        for c in range(n):
            if done[c]:
                continue
            cur = c
            sums: dict[int, int] = {}
            for _ in range(reps):
                done[cur] = 1
                for col, symbol, e in root:
                    j = symbol[cur]
                    cur = col[cur]
                    if j:
                        sums[j] = sums.get(j, 0) + e
            if cur != c:
                raise RuntimeError("relator %r does not close at state %d" % (rel, c))
            row = {j - 1: v for j, v in sums.items() if v}
            if row:
                rows.append(row)
    return rows, n_syms


def subgroup_presentation(t: CosetTable) -> SubgroupPresentation:
    """Reidemeister-Schreier presentation, read off the S- and U-cycles.

    Rewriting S^2 and U^3 from every coset gives one generator per
    non-tree edge (c, x) of the transversal's tree, numbered
    coset-major with S before U, and relators in which each generator
    occurs only within the relators read around its own x-cycle.  Those
    are the rotations of one word over the cycle's non-tree edges, of
    length at most 3 and with distinct letters unless the cycle is a
    fixed point.  So a Tietze elimination through them deletes exactly
    the highest-numbered non-tree edge of each cycle of length 2 or 3
    and reduces the other rotations to the empty word, while a fixed
    point c of S (of U) keeps its generator with the relator g^2 (g^3).
    The presentation is therefore written down directly: k + f2 + f3
    generators, the squares and then the cubes in generator order.
    Witness words are computed for the kept generators only.
    """
    tr, edges, relators, _ = _reduced_schreier(t)
    cols = {x: t.column(x) for x in "SU"}
    witnesses = tuple(_schreier_word(tr, c, x, cols[x][c]) for c, x in edges)
    return SubgroupPresentation(witnesses, tuple(relators))


def _reduced_schreier(
    t: CosetTable,
) -> tuple[tuple[str, ...], list[tuple[int, str]], list[tuple[int, ...]], list[int]]:
    """The transversal, the non-tree edges (coset, letter) that the
    presentation keeps as generators, its torsion relators over them and
    the tree walk's discovery order.

    S^2 and U^3 close in every table, so the x-cycle of a coset c has
    length 1 or the order of x.  A fixed point of S (of U) is kept with
    its relator g^2 (g^3).  Otherwise (c, x) is kept when it is off the
    tree and another coset of its cycle, s(c) for S and u(c) or u^2(c)
    for U, is off the tree and higher: that drops exactly the highest
    non-tree coset of each cycle.  Cosets are scanned in increasing
    order, S before U.
    """
    tr, tree, order = _schreier_tree(t)
    in_s, in_u = tree["S"], tree["U"]
    s_col, u_col, u2_col = t.s, t.u, t.u2
    edges: list[tuple[int, str]] = []
    squares: list[tuple[int, ...]] = []
    cubes: list[tuple[int, ...]] = []
    for c in range(t.n):
        d = s_col[c]
        if d == c:
            edges.append((c, "S"))
            squares.append((len(edges),) * 2)
        elif not in_s[c] and d > c and not in_s[d]:
            edges.append((c, "S"))
        d, e = u_col[c], u2_col[c]
        if d == c:
            edges.append((c, "U"))
            cubes.append((len(edges),) * 3)
        elif not in_u[c] and (d > c and not in_u[d] or e > c and not in_u[e]):
            edges.append((c, "U"))
    return tr, edges, squares + cubes, order


def abelianized_relation_matrix(p: SubgroupPresentation) -> list[list[int]]:
    """Exponent-sum rows of the relators, one dense row with a column per
    generator."""
    rows = []
    for rel in p.relators:
        row = [0] * p.n_generators
        for k in rel:
            row[abs(k) - 1] += 1 if k > 0 else -1
        rows.append(row)
    return rows
