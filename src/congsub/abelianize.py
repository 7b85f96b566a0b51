"""Smith normal form over the integers and the abelianization pipelines.

Three routes produce invariants of finitely generated abelian groups:

* ``hall_abelianization`` assembles the relation matrix coming from how
  the free generators of a congruence subgroup conjugate the two basic
  inner automorphisms (their abelianized images only depend on the matrix
  entries), for torsion-free congruence parameters;
* ``full_abelianization`` rewrites the finite presentation of the whole
  automorphism group through the signed-orbit coset table of a stabilizer
  (this is the route that also covers the non-free exceptional cases);
* ``image_abelianization`` abelianizes the projective image subgroup of
  PSL2(Z), which suffices to certify infinite abelianization for every
  non-perfect target group.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import autpres, fingroups, rewriting
from .cosets import congruence_table
from .fingroups import Epimorphism, FiniteGroup
from .matgroup import (
    Mat2,
    _check_pair,
    distinct_primes,
    index_formula,
    is_member,
    NEG_IDENTITY,
)


@dataclass(frozen=True)
class AbelianInvariants:
    """Canonical form of a finitely generated abelian group.

    torsion is the chain of invariant factors d1 | d2 | ... (each >= 2);
    free_rank counts the infinite cyclic summands.
    """

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        if any(d < 2 for d in self.torsion) or self.free_rank < 0:
            raise ValueError("invalid invariants")
        for d1, d2 in zip(self.torsion, self.torsion[1:]):
            if d2 % d1 != 0:
                raise ValueError("torsion is not a divisibility chain")

    def __str__(self):
        parts = ["Z/%d" % d for d in self.torsion]
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        return " x ".join(parts) if parts else "trivial"

    def to_dict(self):
        return {"torsion": list(self.torsion), "free_rank": self.free_rank}


def smith_invariants(rows: list[list[int]], n_generators: int) -> AbelianInvariants:
    """Invariant factors of the cokernel of an integer relation matrix.

    Rows are relations, columns the n_generators abelian generators.
    Elementary row/column reduction over unbounded integers; a sparse
    pass clears ±1 pivots first so large rewritten presentations stay
    cheap.
    """
    sparse: list[dict[int, int]] = []
    for r in rows:
        if len(r) != n_generators:
            raise ValueError("row length does not match generator count")
        d = {j: v for j, v in enumerate(r) if v}
        if d:
            sparse.append(d)
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(sparse):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    dead_rows: set[int] = set()
    unit_cols: list[int] = []
    while True:
        pivot = None
        for i, r in enumerate(sparse):
            if i in dead_rows:
                continue
            for j, v in r.items():
                if v in (1, -1):
                    pivot = (i, j, v)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj, pv = pivot
        prow = sparse[pi]
        for i in list(col_rows.get(pj, ())):
            if i == pi or i in dead_rows:
                continue
            factor = sparse[i][pj] * pv  # multiply by pv = divide by ±1
            for j, v in prow.items():
                new = sparse[i].get(j, 0) - factor * v
                if new:
                    sparse[i][j] = new
                    col_rows.setdefault(j, set()).add(i)
                else:
                    sparse[i].pop(j, None)
                    col_rows.get(j, set()).discard(i)
        dead_rows.add(pi)
        unit_cols.append(pj)
    live_cols = sorted(set(range(n_generators)) - set(unit_cols))
    col_pos = {j: k for k, j in enumerate(live_cols)}
    dense = []
    for i, r in enumerate(sparse):
        if i in dead_rows:
            continue
        row = [0] * len(live_cols)
        for j, v in r.items():
            row[col_pos[j]] = v
        if any(row):
            dense.append(row)
    diag = _dense_smith_diagonal(dense, len(live_cols))
    torsion = _fix_divisibility([d for d in diag if d > 1])
    torsion = [d for d in torsion if d > 1]
    free = len(live_cols) - len(diag)
    return AbelianInvariants(tuple(torsion), free)


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
    """1 + n*m^2/12 * prod (1 - p^-2), exact (the free-rank closed form)."""
    v = index_formula(m, n)
    if v % 12 != 0:
        raise ValueError("rank formula is not integral for (%d, %d)" % (m, n))
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


def lift_to_sl(p, m: int, n: int) -> Mat2:
    """The representative of a projective class lying in the congruence
    subgroup; unique for m >= 3."""
    for cand in (p.rep, p.rep.neg()):
        if is_member(m, n, cand):
            return cand
    raise ValueError("element does not lift into the subgroup")


def hall_abelianization(m: int, n: int) -> AbelianInvariants:
    """Abelianization from the free-generator relation matrix.

    Requires the congruence subgroup to be free: m >= 3 and (m, n) not
    (3, 1).  Free generators come from the coset table; each generator
    (a b; c d) contributes the rows (a-1, -c, 0...) and (-b, d-1, 0...)
    over the generators (conj-x, conj-y, gen_1, ..., gen_r), together
    with the derived rows m*conj-x = 0 and n*conj-y = 0.
    """
    _check_pair(m, n)
    if m < 3 or (m, n) == (3, 1):
        raise ValueError(
            "relation-matrix route needs a free congruence subgroup; "
            "(%d, %d) is excluded" % (m, n)
        )
    t = congruence_table(m, n)
    if not rewriting.is_free(t):
        raise RuntimeError("expected a torsion-free table for (%d, %d)" % (m, n))
    gens = rewriting.schreier_generators(t)
    rows = [[m, 0], [0, n]]
    for _, p in gens:
        mat = lift_to_sl(p, m, n)
        rows.append([mat.a - 1, -mat.c])
        rows.append([-mat.b, mat.d - 1])
    # the r generator columns are all zero: each adds one free summand
    inv = smith_invariants(rows, 2)
    return AbelianInvariants(inv.torsion, inv.free_rank + len(gens))


def full_abelianization(
    g: FiniteGroup, pi0: Epimorphism | None = None
) -> AbelianInvariants:
    """Abelianization of the special stabilizer, by rewriting the ambient
    presentation through the signed-orbit coset table."""
    if pi0 is None:
        pi0 = _default_epi(g)
    rows, n_syms = autpres.stabilizer_relation_rows(g, pi0)
    return smith_invariants(rows, n_syms)


def image_abelianization(
    g: FiniteGroup, pi0: Epimorphism | None = None
) -> AbelianInvariants:
    """Abelianization of the projective image of the special stabilizer."""
    if pi0 is None:
        pi0 = _default_epi(g)
    t = fingroups.stabilizer_image_table(g, pi0)
    pres = rewriting.subgroup_presentation(t)
    return smith_invariants(
        rewriting.abelianized_relation_matrix(pres), pres.n_generators
    )


def _default_epi(g: FiniteGroup) -> Epimorphism:
    epis = fingroups.epi_set(g)
    if not epis:
        raise ValueError("group %s is not 2-generated" % g.tag)
    return epis[0]


class PerfectGroupError(ValueError):
    """The infinite-abelianization certificate does not cover perfect groups."""


@dataclass(frozen=True)
class Verdict:
    image_invariants: AbelianInvariants
    free_rank: int
    certified: bool


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
    return Verdict(inv, inv.free_rank, inv.free_rank >= 1)


@dataclass(frozen=True)
class SlStructure:
    """Structure of the congruence subgroup at the matrix (not projective)
    level, tracking the central element of order 2 when present."""

    contains_minus_identity: bool
    is_free: bool
    structure: str
    free_rank: int
    abelianization: AbelianInvariants


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


def satoh_crosscheck(m: int) -> bool:
    """Cross-check of Satoh's kernel abelianization at level (m, m).

    True iff the relation-matrix route yields torsion (m, m) with the
    free rank of the projective congruence subgroup; for prime m the free
    rank is additionally checked against 1 + m^3 (1 - m^-2) / 12.
    """
    if m < 3:
        raise ValueError("needs m >= 3")
    inv = hall_abelianization(m, m)
    expected_rank = rewriting.free_rank(congruence_table(m, m))
    ok = inv.torsion == (m, m) and inv.free_rank == expected_rank
    if ok and distinct_primes(m) == [m]:
        ok = inv.free_rank == 1 + (m**3 - m) // 12
    return ok
