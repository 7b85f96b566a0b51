"""Smith normal form over the integers and the abelianization pipelines.

Three routes produce invariants of finitely generated abelian groups:

* ``hall_abelianization`` assembles the relation matrix coming from how
  the free generators of a congruence subgroup conjugate the two basic
  inner automorphisms (their abelianized images only depend on the matrix
  entries), for torsion-free congruence parameters;
* ``full_abelianization`` rewrites the finite presentation of Aut+(F2)
  through the coset table of a stabilizer, the Aut+(F2)-orbit of a
  generating pair (this is the route that also covers the non-free
  exceptional cases);
* ``image_abelianization`` abelianizes the projective image subgroup of
  PSL2(Z), which suffices to certify infinite abelianization for every
  non-perfect target group.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import gcd

from . import autpres, fingroups, rewriting
from .cosets import CosetTable, congruence_table
from .fingroups import Epimorphism, FiniteGroup
from .matgroup import (
    _check_pair,
    distinct_primes,
    index_formula,
    is_member,
    NEG_IDENTITY,
)


class AbelianInvariants(namedtuple("AbelianInvariants", "torsion free_rank")):
    """Canonical form of a finitely generated abelian group.

    torsion is the chain of invariant factors d1 | d2 | ... (each >= 2);
    free_rank counts the infinite cyclic summands.
    """

    __slots__ = ()

    def __new__(cls, torsion: tuple[int, ...], free_rank: int):
        if any(d < 2 for d in torsion) or free_rank < 0:
            raise ValueError("invalid invariants")
        for d1, d2 in zip(torsion, torsion[1:]):
            if d2 % d1 != 0:
                raise ValueError("torsion is not a divisibility chain")
        return super().__new__(cls, torsion, free_rank)

    def __str__(self):
        parts = ["Z/%d" % d for d in self.torsion]
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        return " x ".join(parts) if parts else "trivial"

    def to_dict(self):
        return {"torsion": list(self.torsion), "free_rank": self.free_rank}


def smith_invariants(rows: list[list[int]], n_generators: int) -> AbelianInvariants:
    """Invariant factors of the cokernel of an integer relation matrix.

    Rows are relations, given as dense lists, and columns are the
    n_generators abelian generators.  The rows are made sparse and passed
    to ``_sparse_smith``, the one kernel: unit-pivot elimination taking
    a shortest row from a bucket queue by row length, then full
    elementary reduction of the small dense residue, all over unbounded
    integers.
    """
    sparse: list[dict[int, int]] = []
    for r in rows:
        if len(r) != n_generators:
            raise ValueError("row length does not match generator count")
        cols = list(compress(range(n_generators), r))
        if cols:
            sparse.append({j: r[j] for j in cols})
    return _sparse_smith(sparse, n_generators)


def _sparse_smith(rows: list[dict[int, int]], n_cols: int) -> AbelianInvariants:
    """Invariant factors of the cokernel of sparse rows ({column: entry}).

    Unit-pivot elimination after Havas, Holt & Rees (Recognizing badly
    presented Z-modules, 1993): a ±1 entry clears its column from every
    other row and removes its row and column.  The rows wait in a bucket
    queue by length, the degree lists of minimum-degree ordering (George
    & Liu, 1981): ``buckets[k]`` holds the queued rows of length k, and
    no queued row is shorter than ``low``.  At the start only the rows
    with a unit are queued.  A row popped from the lowest nonempty
    bucket pivots on its unit entry whose column the fewest rows hold; a
    popped row with no unit leaves the queue.  Each row a pivot rewrites
    moves to the bucket of its new length, or leaves the queue once
    empty, so a row without a unit rejoins only when a pivot rewrites
    it.  Columns that no live row holds join the free rank, and only
    the residue (live rows x columns that still occur) goes to
    ``_dense_smith_diagonal``.  The rows are consumed.  Every builder of
    sparse rows drops zeros, so a stored 0 is an internal fault
    (RuntimeError), as are a rank above ``n_cols`` and torsion that is
    not a divisibility chain.
    """
    if not all(map(all, map(dict.values, rows))):
        raise RuntimeError("a sparse row stores a zero")
    holders: dict[int, set[int]] = {}  # column -> indices of the rows holding it
    for i, r in enumerate(rows):
        for j in r:
            holders.setdefault(j, set()).add(i)
    buckets: list[set[int]] = [set() for _ in range(max(map(len, rows), default=0) + 1)]
    for i, r in enumerate(rows):
        if 1 in r.values() or -1 in r.values():
            buckets[len(r)].add(i)
    live = [True] * len(rows)
    eliminated = 0
    low = 1
    while low < len(buckets):
        if not buckets[low]:
            low += 1
            continue
        pi = buckets[low].pop()
        prow = rows[pi]
        units = [j for j, v in prow.items() if v == 1 or v == -1]
        if not units:
            continue
        pj = min(units, key=lambda j: len(holders[j]))
        pv = prow[pj]
        live[pi] = False
        eliminated += 1
        rest = [(j, v) for j, v in prow.items() if j != pj]
        for j, _ in rest:
            holders[j].discard(pi)
        touched = holders.pop(pj)
        touched.discard(pi)
        for i in touched:
            r = rows[i]
            buckets[len(r)].discard(i)  # a no-op unless i is queued
            factor = r.pop(pj) * pv  # multiply by pv = divide by ±1
            for j, v in rest:
                new = r.get(j, 0) - factor * v
                if new:
                    if j not in r:
                        holders[j].add(i)
                    r[j] = new
                else:
                    del r[j]
                    holders[j].discard(i)
            k = len(r)
            if k:
                while k >= len(buckets):  # fill-in past every length so far
                    buckets.append(set())
                buckets[k].add(i)
                if k < low:
                    low = k
    occurring = sorted(j for j, held in holders.items() if held)
    col_pos = {j: k for k, j in enumerate(occurring)}
    dense = []
    for i, r in enumerate(rows):
        if live[i] and r:
            row = [0] * len(occurring)
            for j, v in r.items():
                row[col_pos[j]] = v
            dense.append(row)
    diag = _dense_smith_diagonal(dense, len(occurring))
    torsion = _fix_divisibility([d for d in diag if d > 1])
    torsion = [d for d in torsion if d > 1]
    rank = eliminated + len(diag)
    if rank > n_cols:  # a kernel fault, not invalid input
        raise RuntimeError("Smith rank %d exceeds %d columns" % (rank, n_cols))
    try:
        return AbelianInvariants(tuple(torsion), n_cols - rank)
    except ValueError as exc:  # so is torsion that is no chain
        raise RuntimeError("Smith torsion %r: %s" % (tuple(torsion), exc)) from exc


def _dense_smith_diagonal(m: list[list[int]], n_cols: int) -> list[int]:
    """Nonzero diagonal entries after full elementary reduction."""
    m = [row[:] for row in m]
    diag: list[int] = []
    rows, cols = len(m), n_cols
    r0, c0 = 0, 0
    while r0 < rows and c0 < cols:
        # pivot: minimal nonzero absolute value in the active block
        best = None
        for i in range(r0, rows):
            for j in range(c0, cols):
                v = m[i][j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        bi, bj, _ = best
        m[r0], m[bi] = m[bi], m[r0]
        for row in m:
            row[c0], row[bj] = row[bj], row[c0]
        p = m[r0][c0]
        clean = True
        for i in range(r0 + 1, rows):
            q = m[i][c0] // p
            if q:
                for j in range(c0, cols):
                    m[i][j] -= q * m[r0][j]
            if m[i][c0]:
                clean = False
        for j in range(c0 + 1, cols):
            q = m[r0][j] // p
            if q:
                for i in range(r0, rows):
                    m[i][j] -= q * m[i][c0]
            if m[r0][j]:
                clean = False
        if not clean:
            continue  # smaller remainders appeared; repick the pivot
        diag.append(abs(p))
        r0 += 1
        c0 += 1
    return diag


def _fix_divisibility(ds: list[int]) -> list[int]:
    ds = list(ds)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return sorted(ds)


def free_rank_formula(m: int, n: int) -> int:
    """1 + n*m^2/12 * prod (1 - p^-2), exact (the free-rank closed form).

    The index is divisible by 12 for every free pair (m >= 3, (m, n) not
    (3, 1)), the only pairs ``predicted_invariants`` passes, so a remainder
    is an internal fault (RuntimeError), not a usage error."""
    v = index_formula(m, n)
    if v % 12 != 0:
        raise RuntimeError("rank formula is not integral for (%d, %d)" % (m, n))
    return 1 + v // 12


def predicted_invariants(m: int, n: int) -> AbelianInvariants:
    """Closed-form abelianization of the special stabilizer for the
    abelian target Z/m x Z/n (n | m).

    For the three small exceptional parameter pairs the values differ
    from the generic pattern G x Z^rank and are pinned separately.
    """
    _check_pair(m, n)
    if m == 1:
        raise ValueError("the target group must be nontrivial")
    if (m, n) == (2, 1):
        return AbelianInvariants((2, 4), 1)
    if (m, n) == (3, 1):
        return AbelianInvariants((3, 3), 1)
    if (m, n) == (2, 2):
        return AbelianInvariants((2, 2, 2), 2)
    torsion = tuple(d for d in (n, m) if d > 1)
    return AbelianInvariants(torsion, free_rank_formula(m, n))


def lift_to_sl(
    g: tuple[int, int, int, int], m: int, n: int
) -> tuple[int, int, int, int]:
    """The sign of the determinant-1 matrix g = (a, b, c, d) that lies in
    the congruence subgroup (m, n); unique for m >= 3.  Its caller passes
    Schreier generators of a table it built, so a matrix neither sign of
    which lies there is an internal fault."""
    if is_member(m, n, g):
        return g
    neg = tuple(-e for e in g)
    if is_member(m, n, neg):
        return neg
    raise RuntimeError("(%d %d; %d %d) does not lift into the subgroup (%d, %d)" % (*g, m, n))


def hall_abelianization(m: int, n: int) -> AbelianInvariants:
    """Abelianization from the free-generator relation matrix.

    Requires the congruence subgroup to be free: m >= 3 and (m, n) not
    (3, 1).  Free generators come from the coset table, as the matrices
    of the reduced Schreier generators read off its tree walk, each
    lifted by sign into Gamma(m, n); each generator (a b; c d)
    contributes the rows (a-1, -c, 0...) and (-b, d-1, 0...) over the
    generators (conj-x, conj-y, gen_1, ..., gen_r).

    The r generator columns are zero, so each adds one free summand, and
    the rows live in Z^2.  They are folded into the Hermite basis of
    their lattice (``_hermite_basis``) by unimodular row operations,
    which keep the lattice and so the cokernel; the Smith kernel gets
    that basis of at most two rows, not the 2r rows.

    Every generator lies in Gamma(m, n), so each row lies in the lattice
    <(m, 0), (0, n)>.  The rows are the generators' alone, with no row
    (m, 0) or (0, n) appended, so the SNF returns Z/n x Z/m x Z^r
    (trivial factors dropped) only if they span that whole lattice: a
    wrong or missing generator shows as a coarser torsion.
    """
    _check_pair(m, n)
    if m < 3 or (m, n) == (3, 1):
        raise ValueError(
            "relation-matrix route needs a free congruence subgroup; "
            "(%d, %d) is excluded" % (m, n)
        )
    return _hall_invariants(congruence_table(m, n), m, n)


def _hall_invariants(t: CosetTable, m: int, n: int) -> AbelianInvariants:
    """The relation-matrix route of ``hall_abelianization`` on the built
    congruence table t of (m, n).

    The generators' matrices are read off the Schreier tree walk by
    ``rewriting.schreier_matrices`` as integer quadruples, and each is
    lifted by sign into Gamma(m, n); no witness word is built.  Their
    rows alone are folded one by one into the Hermite basis of the
    lattice they span, and only that basis goes to ``smith_invariants``:
    the folding is a sequence of unimodular row operations, so the
    cokernel is the one of all the rows.  Its torsion is Z/n x Z/m only
    where the rows span <(m, 0), (0, n)>."""
    if not rewriting.is_free(t):
        raise RuntimeError("expected a torsion-free table for (%d, %d)" % (m, n))
    _, _, gens = rewriting.schreier_matrices(t)
    inv = smith_invariants(_hermite_basis(_hall_rows(gens, m, n)), 2)
    # the r generator columns are all zero: each adds one free summand
    return AbelianInvariants(inv.torsion, inv.free_rank + len(gens))


def _hall_rows(gens, m: int, n: int):
    """The rows (a-1, -c) and (-b, d-1) of each generator as
    ``lift_to_sl`` lifts it."""
    for g in gens:
        a, b, c, d = lift_to_sl(g, m, n)
        yield a - 1, -c
        yield -b, d - 1


def _hermite_basis(rows) -> list[list[int]]:
    """The Hermite basis [[p, q], [0, r]] of the lattice in Z^2 spanned
    by the rows (x, y): p >= 0, r >= 0, and 0 <= q < r when r > 0.

    The basis is kept as rows are read (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, section 2.4).  A row with x != 0 meets
    (p, q) in the extended Euclidean algorithm on the first entries;
    every step subtracts a multiple of one row from the other or swaps
    them, so each is a unimodular row operation and keeps the lattice.
    The leftover (0, y) then joins (0, r) as (0, gcd(r, y)).  A zero
    row of the basis stands for no relation."""
    p = q = r = 0
    for x, y in rows:
        while x:
            if p:
                k = x // p
                x, y = x - k * p, y - k * q
            if x:  # a nonzero remainder: it becomes the pivot row
                p, q, x, y = x, y, p, q
        if y:
            r = gcd(r, y)
    if p < 0:
        p, q = -p, -q
    if r:
        q %= r
    return [[p, q], [0, r]]


def full_abelianization(
    g: FiniteGroup, pi0: Epimorphism | None = None
) -> AbelianInvariants:
    """Abelianization of the special stabilizer, by rewriting the
    presentation of Aut+(F2) through the orbit table of the pair pi0."""
    if pi0 is None:
        pi0 = _default_epi(g)
    rows, n_syms = autpres.stabilizer_relation_rows(g, pi0)
    return _sparse_smith(rows, n_syms)


def image_abelianization(
    g: FiniteGroup, pi0: Epimorphism | None = None
) -> AbelianInvariants:
    """Abelianization of the projective image of the special stabilizer."""
    if pi0 is None:
        pi0 = _default_epi(g)
    t = fingroups.orbit_stabilizer(g, pi0).image_table
    pres = rewriting.subgroup_presentation(t)
    return smith_invariants(
        rewriting.abelianized_relation_matrix(pres), pres.n_generators
    )


def _default_epi(g: FiniteGroup) -> Epimorphism:
    """The first generating pair, ``epi_set(g)[0]``, without listing the rest."""
    epis = fingroups.epi_set(g, limit=1)
    if not epis:
        raise ValueError("group %s is not 2-generated" % g.tag)
    return epis[0]


class PerfectGroupError(ValueError):
    """The infinite-abelianization certificate does not cover perfect groups."""


Verdict = namedtuple("Verdict", "image_invariants certified")


def infinite_abelianization_verdict(
    g: FiniteGroup, pi0: Epimorphism | None = None
) -> Verdict:
    """Certify that the special stabilizer has infinite abelianization.

    Works by abelianizing the projective image in PSL2(Z), which the
    stabilizer's abelianization surjects onto; a positive free rank there
    is a certificate.  Perfect groups are rejected: the certificate is
    only guaranteed to exist for non-perfect targets.
    """
    if g.is_perfect():
        raise PerfectGroupError(
            "group %s is perfect: out of certificate scope" % g.tag
        )
    inv = image_abelianization(g, pi0)
    return Verdict(inv, inv.free_rank >= 1)


class SlStructure(namedtuple(
    "SlStructure", "contains_minus_identity is_free structure free_rank abelianization"
)):
    """Structure of the congruence subgroup at the matrix (not projective)
    level, tracking the central element of order 2 when present."""

    __slots__ = ()


def sl_level_structure(m: int, n: int) -> SlStructure:
    _check_pair(m, n)
    t = congruence_table(m, n)
    if not rewriting.is_free(t):
        raise ValueError(
            "projective image has torsion for (%d, %d); no free/central "
            "splitting to report" % (m, n)
        )
    rank = rewriting.free_rank(t)
    if is_member(m, n, NEG_IDENTITY):
        return SlStructure(
            True,
            False,
            "free x central Z/2",
            rank,
            AbelianInvariants((2,), rank),
        )
    return SlStructure(False, True, "free", rank, AbelianInvariants((), rank))


def satoh_crosscheck(m: int) -> tuple[bool, AbelianInvariants]:
    """Cross-check of Satoh's kernel abelianization at level (m, m).

    Returns the relation-matrix invariants and whether they are torsion
    (m, m) with the free rank of the projective congruence subgroup; for
    prime m the free rank is additionally checked against
    1 + m^3 (1 - m^-2) / 12.  The congruence table is built once and
    serves both sides.
    """
    if m < 3:
        raise ValueError("needs m >= 3")
    t = congruence_table(m, m)
    inv = _hall_invariants(t, m, m)
    ok = inv.torsion == (m, m) and inv.free_rank == rewriting.free_rank(t)
    if ok and distinct_primes(m) == [m]:
        ok = inv.free_rank == 1 + (m**3 - m) // 12
    return ok, inv
