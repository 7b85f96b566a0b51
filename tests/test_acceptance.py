"""Acceptance suite: one check per headline claim, one PASS/FAIL line each.

Run with -s to see the per-criterion lines; each criterion is also a
hard assertion, so the suite fails loudly on any mismatch.
"""
import random
import time

from congsub import autpres
from congsub.abelianize import (
    AbelianInvariants,
    full_abelianization,
    hall_abelianization,
    infinite_abelianization_verdict,
    predicted_invariants,
    satoh_crosscheck,
    sl_level_structure,
    smith_invariants,
)
from congsub.cosets import congruence_table, enumerate_cosets
from congsub.fingroups import (
    abelian,
    alternating,
    cyclic,
    dihedral,
    epi_set,
    quaternion,
    symmetric,
)
from congsub.matgroup import psl_index_formula
from congsub.rewriting import free_rank, is_free, kurosh_decompose
from psl_words import Mat2, PslElement, matrix_to_word, word_to_matrix


def report(number, label, ok, elapsed=None):
    tail = "" if elapsed is None else "  (%.2fs)" % elapsed
    print("ACCEPTANCE %2d %s: %s%s" % (number, "PASS" if ok else "FAIL", label, tail))
    assert ok, label


def pairs(lo, hi):
    for m in range(lo, hi + 1):
        for n in range(1, m + 1):
            if m % n == 0:
                yield m, n


def test_01_index_formula():
    start = time.monotonic()
    ok = all(congruence_table(m, n).n == psl_index_formula(m, n) for m, n in pairs(1, 10))
    elapsed = time.monotonic() - start
    report(1, "coset counts match the index formula for all m <= 10", ok and elapsed < 5, elapsed)


def test_02_freeness_and_rank():
    start = time.monotonic()
    ok = True
    for m, n in pairs(3, 10):
        if (m, n) == (3, 1):
            continue
        t = congruence_table(m, n)
        sl_index = psl_index_formula(m, n) * 2  # -I absent for m >= 3
        ok = ok and is_free(t) and free_rank(t) == 1 + sl_index // 12
    elapsed = time.monotonic() - start
    report(2, "freeness and rank formula for 3 <= m <= 10", ok and elapsed < 10, elapsed)


def test_03_prime_level_ranks():
    ok = free_rank(congruence_table(2, 2)) == 2
    for p, rank in [(3, 3), (5, 11), (7, 29)]:
        ok = ok and free_rank(congruence_table(p, p)) == rank
    report(3, "level-2 rank 2 and prime-level ranks 3, 11, 29", ok)


def test_04_decompositions():
    d1 = kurosh_decompose(congruence_table(2, 1))
    lower = enumerate_cosets(
        [
            matrix_to_word(PslElement(Mat2(1, 1, 0, 1))),
            matrix_to_word(PslElement(Mat2(1, -1, 2, -1))),
        ]
    )
    d2 = kurosh_decompose(lower)
    d3 = kurosh_decompose(congruence_table(3, 1))
    ok = (
        (d1.free_rank, d1.f2, d1.f3) == (1, 1, 0)
        and (d2.free_rank, d2.f2, d2.f3) == (1, 1, 0)
        and (d3.free_rank, d3.f2, d3.f3) == (1, 0, 1)
    )
    report(4, "free product shapes Z * Z/2 (index 3, both triangular types) and Z * Z/3", ok)


def test_05_level_two_sl_structure():
    s = sl_level_structure(2, 2)
    ok = (
        s.contains_minus_identity
        and s.structure == "free x central Z/2"
        and s.free_rank == 2
        and s.abelianization == AbelianInvariants((2,), 2)
    )
    report(5, "level-2 matrix group is free-of-rank-2 x central Z/2", ok)


def test_06_main_formula_grid():
    start = time.monotonic()
    ok = True
    for m, n in pairs(3, 8):
        if (m, n) == (3, 1):
            continue
        ok = ok and hall_abelianization(m, n) == predicted_invariants(m, n)
    elapsed = time.monotonic() - start
    report(6, "relation-matrix abelianization matches closed form for 3 <= m <= 8", ok and elapsed < 60, elapsed)


def test_07_exceptional_cases():
    ok = (
        full_abelianization(cyclic(2)) == AbelianInvariants((2, 4), 1)
        and full_abelianization(cyclic(3)) == AbelianInvariants((3, 3), 1)
        and full_abelianization(abelian(2, 2)) == AbelianInvariants((2, 2, 2), 2)
    )
    report(7, "exceptional abelianizations for Z/2, Z/3, Z/2 x Z/2", ok)


def test_08_infinite_abelianization_certificates():
    groups = [symmetric(3), dihedral(4), dihedral(5), quaternion(), alternating(4), dihedral(6)]
    ok = all(infinite_abelianization_verdict(g).image_invariants.free_rank >= 1 for g in groups)
    report(8, "infinite abelianization certified for S3, D4, D5, Q8, A4, D6", ok)


def test_09_dihedral_formula():
    ok = True
    for r in (3, 4, 5, 6):
        want = AbelianInvariants((2,), 2 if r % 2 else 3)
        ok = ok and full_abelianization(dihedral(r)) == want
    report(9, "dihedral abelianization Z/2 x Z^2 (r odd) and Z/2 x Z^3 (r even)", ok)


def test_10_satoh_cross_check():
    ok = all(satoh_crosscheck(m)[0] for m in (3, 4, 5))
    for p, rank in [(3, 3), (5, 11)]:
        ok = ok and hall_abelianization(p, p).free_rank == rank == 1 + (p**3 - p) // 12
    report(10, "level-(m,m) kernel abelianization cross-check for m = 3, 4, 5", ok)


def test_11_property_suites():
    ok = True
    # Euler identity holds on every constructed table (raised loudly otherwise)
    for m, n in pairs(1, 10):
        t = congruence_table(m, n)
        d = kurosh_decompose(t)
        ok = ok and 6 * d.free_rank == 6 + t.n - 3 * d.f2 - 4 * d.f3
    # word/matrix round trip on 1000 seeded elements
    rng = random.Random(20260826)
    for _ in range(1000):
        w = "".join(rng.choice("SUu") for _ in range(rng.randint(0, 50)))
        x = word_to_matrix(w)
        ok = ok and word_to_matrix(matrix_to_word(x)) == x
    # Smith normal form vs brute-force cokernel oracle, 200 seeded matrices
    from test_abelianize import cokernel_order_statistics, determinant
    from math import gcd

    rng = random.Random(424242)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        det = abs(determinant(rows))
        if det == 0 or det > 10_000 or det**n > 25_000:
            continue
        inv = smith_invariants(rows, n)
        order, stats = cokernel_order_statistics(rows, n, det)
        prod = 1
        for t in inv.torsion:
            prod *= t
        ok = ok and inv.free_rank == 0 and prod == order
        for e, count in stats.items():
            expected = 1
            for t in inv.torsion:
                expected *= gcd(e, t)
            ok = ok and count == expected
        checked += 1
    # relator soundness on all test groups
    pres = autpres.presentation()
    for g in (cyclic(2), cyclic(3), abelian(2, 2), symmetric(3), dihedral(4), quaternion()):
        maps = autpres.pair_maps(g.mul, g.inv)
        steps = {name: maps[name, 1] for name in autpres.GENS}
        states = [(pi.gx, pi.gy) for pi in epi_set(g)]
        for rel in pres.relators:
            for state in states:
                cur = state
                for name, e in rel:
                    if e == 1:
                        cur = steps[name](cur)
                    else:
                        prev = cur
                        nxt = steps[name](prev)
                        while nxt != cur:
                            prev, nxt = nxt, steps[name](nxt)
                        cur = prev
                ok = ok and cur == state
    report(11, "property suites: Euler identity, round trips, SNF oracle, relator soundness", ok)
