import itertools
import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from congsub import abelianize, autpres
from congsub.abelianize import (
    AbelianInvariants,
    PerfectGroupError,
    _dense_smith_diagonal,
    _hermite_basis,
    _sparse_smith,
    _fix_divisibility,
    free_rank_formula,
    full_abelianization,
    hall_abelianization,
    image_abelianization,
    infinite_abelianization_verdict,
    predicted_invariants,
    satoh_crosscheck,
    sl_level_structure,
    smith_invariants,
)
from congsub.cosets import congruence_table
from congsub.fingroups import (
    abelian,
    alternating,
    cyclic,
    dihedral,
    Epimorphism,
    epi_set,
    orbit_stabilizer,
    parse_group_spec,
    quaternion,
    symmetric,
)
from congsub.matgroup import is_member
from congsub.rewriting import schreier_generators, schreier_matrices
from psl_words import word_to_matrix


def test_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants((1,), 0)
    with pytest.raises(ValueError):
        AbelianInvariants((4, 2), 0)  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianInvariants((), -1)


def test_invariants_str():
    assert str(AbelianInvariants((), 0)) == "trivial"
    assert str(AbelianInvariants((2, 4), 1)) == "Z/2 x Z/4 x Z^1"
    assert str(AbelianInvariants((), 3)) == "Z^3"
    assert AbelianInvariants((2,), 1).to_dict() == {"torsion": [2], "free_rank": 1}


def test_smith_diagonal_cases():
    assert smith_invariants([[2, 0], [0, 0]], 2) == AbelianInvariants((2,), 1)
    assert smith_invariants([], 3) == AbelianInvariants((), 3)
    assert smith_invariants([[4, 0], [0, 2]], 2) == AbelianInvariants((2, 4), 0)
    assert smith_invariants([[1, 0], [0, 1]], 2) == AbelianInvariants((), 0)


def test_smith_rejects_ragged_rows():
    with pytest.raises(ValueError):
        smith_invariants([[1, 2, 3]], 2)


def test_sparse_smith_refuses_a_stored_zero():
    # its builders drop zeros; a stored one used to end in a KeyError from del r[j]
    with pytest.raises(RuntimeError, match="a sparse row stores a zero"):
        _sparse_smith([{0: 1, 1: 0}, {0: 1, 2: 5, 3: 7}], 4)


def divisors(n):
    return [e for e in range(1, n + 1) if n % e == 0]


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def determinant(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return det3(m)


def cokernel_order_statistics(rows, n, d):
    """Brute force: enumerate (Z/d)^n modulo the row span.

    Returns (order of the cokernel, {e: number of elements killed by e})
    for each divisor e of d.  Valid whenever d * Z^n lies in the row
    lattice, e.g. d = |det| for a full-rank square matrix.
    """
    span = {tuple(0 for _ in range(n))}
    frontier = list(span)
    gens = [tuple(v % d for v in row) for row in rows]
    while frontier:
        x = frontier.pop()
        for gvec in gens:
            y = tuple((xi + gi) % d for xi, gi in zip(x, gvec))
            if y not in span:
                span.add(y)
                frontier.append(y)
    total = d**n
    order = total // len(span)
    stats = {}
    for e in divisors(d):
        killed = sum(
            1
            for x in itertools.product(range(d), repeat=n)
            if tuple(e * xi % d for xi in x) in span
        )
        stats[e] = killed // len(span)
    return order, stats


def test_smith_against_brute_force_oracle():
    rng = random.Random(2026)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = abs(determinant(rows))
        if d == 0 or d > 10_000 or d**n > 25_000:
            continue
        inv = smith_invariants(rows, n)
        assert inv.free_rank == 0
        prod = 1
        for t in inv.torsion:
            prod *= t
        order, stats = cokernel_order_statistics(rows, n, d)
        assert prod == order == d
        for e, count in stats.items():
            expected = 1
            for t in inv.torsion:
                expected *= gcd(e, t)
            assert count == expected, (rows, e)
        checked += 1


def test_smith_invariant_under_unimodular_scrambling():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 5)
        diag = [rng.choice([0, 0, 1, 2, 3, 4, 6, 12]) for _ in range(n)]
        rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        want = smith_invariants(rows, n)
        for _ in range(rng.randint(5, 30)):
            if n < 2:
                break
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            if rng.random() < 0.5:
                for k in range(n):
                    rows[i][k] += c * rows[j][k]
            else:
                for k in range(n):
                    rows[k][i] += c * rows[k][j]
        assert smith_invariants(rows, n) == want


@st.composite
def integer_matrices(draw):
    """0-8 rows x 1-8 columns, entries in -6..6; zero rows and columns
    are drawn on purpose."""
    n_rows = draw(st.integers(0, 8))
    n_cols = draw(st.integers(1, 8))
    entry = st.integers(-6, 6)
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    for i in draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=2)):
        if i < n_rows:
            rows[i] = [0] * n_cols
    for j in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    return rows, n_cols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(integer_matrices())
def test_smith_against_sympy_invariant_factors(matrix):
    rows, n = matrix
    assert smith_invariants(rows, n) == sympy_invariants(rows, n)


def sympy_invariants(rows, n):
    """The cokernel of the rows over n columns, by sympy's invariant factors."""
    # sympy's diagonal has min(rows, n) entries, 0s and 1s included
    diag = [abs(int(d)) for d in invariant_factors(Matrix(len(rows), n, sum(rows, [])), domain=ZZ)]
    assert len(diag) == min(len(rows), n)
    return AbelianInvariants(
        tuple(sorted(d for d in diag if d > 1)), n - sum(1 for d in diag if d)
    )


@st.composite
def two_column_rows(draw):
    """0-10 rows (x, y) with entries in -40..40: zero rows, rows (0, y)
    and rows whose first entries have either sign and share factors
    with the others often, but not always."""
    entry = st.integers(-40, 40)
    row = st.one_of(st.just((0, 0)), st.tuples(st.just(0), entry), st.tuples(entry, entry))
    return draw(st.lists(row, max_size=10))


def in_lattice(row, basis):
    """Whether the row (x, y) lies in the lattice of the Hermite basis
    [[p, q], [0, r]]."""
    (p, q), (_, r) = basis
    x, y = row
    if p:
        k, x = divmod(x, p)
        y -= k * q
    return x == 0 and (y % r == 0 if r else y == 0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(two_column_rows())
@example([])
@example([(0, 0), (0, -6), (0, 4)])
@example([(-4, 3), (6, 1)])
@example([(4, 1), (6, 0), (0, 5)])
def test_hermite_basis_spans_the_lattice_of_its_rows(rows):
    basis = _hermite_basis(iter(rows))
    (p, q), (zero, r) = basis
    assert zero == 0 and p >= 0 and r >= 0
    if r:
        assert 0 <= q < r
    elif not p:
        assert q == 0
    # every row lies in the basis's lattice, and the two lattices have
    # the same rank and cokernel order, so they are equal
    assert all(in_lattice(row, basis) for row in rows)
    assert sympy_invariants(basis, 2) == sympy_invariants([list(row) for row in rows], 2)


def _scramble(rows, n, rng, operations):
    """Random sparse unimodular row and column operations (in place)."""
    for _ in range(operations):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            for k in range(n):
                rows[i][k] += c * rows[j][k]
        else:
            for row in rows:
                row[i] += c * row[j]


def test_smith_markowitz_path_at_size():
    # a 300 x 300 diagonal, scrambled and permuted: hundreds of unit pivots
    # whose row lengths and column counts change under the elimination
    rng = random.Random(2027)
    n = 300
    diag = [rng.choice([1] * 12 + [0, 2, 4, 12]) for _ in range(n)]
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    _scramble(rows, n, rng, 600)
    rng.shuffle(rows)
    order = list(range(n))
    rng.shuffle(order)
    rows = [[row[j] for j in order] for row in rows]
    assert sum(1 for row in rows for v in row if v) > 2 * n
    # 2 | 4 | 12, so the sorted entries above 1 already form the chain
    want = AbelianInvariants(tuple(sorted(d for d in diag if d > 1)), diag.count(0))
    assert smith_invariants(rows, n) == want


def test_smith_agrees_with_dense_reduction_alone():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(10, 30)
        diag = [rng.choice([0, 1, 1, 1, 2, 3, 6]) for _ in range(n)]
        rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        _scramble(rows, n, rng, 3 * n)
        rows.extend([rng.choice((0, 0, 0, 2, -3)) for _ in range(n)] for _ in range(rng.randint(0, 5)))
        assert smith_invariants(rows, n) == _dense_invariants(rows, n)


def _dense_invariants(rows, n):
    """The oracle that skips the unit pivots: full elementary reduction
    of the whole dense matrix."""
    diag = _dense_smith_diagonal(rows, n)
    torsion = tuple(d for d in _fix_divisibility([d for d in diag if d > 1]) if d > 1)
    return AbelianInvariants(torsion, n - len(diag))


def _densified(rows, n):
    return [[r.get(j, 0) for j in range(n)] for r in rows]


@pytest.mark.parametrize("spec", ["cyclic:4", "abelian:2,2", "sym:3", "quaternion", "dihedral:4"])
def test_sparse_smith_matches_the_dense_oracle_on_relation_rows(spec):
    g = parse_group_spec(spec)
    for pi0 in base_points(g):
        rows, n = autpres.stabilizer_relation_rows(g, pi0)
        want = _dense_invariants(_densified(rows, n), n)
        assert _sparse_smith(rows, n) == want, (spec, pi0)


@pytest.fixture
def residues(monkeypatch):
    """The dense residues that ``_sparse_smith`` hands on, in call order."""
    seen = []
    dense = abelianize._dense_smith_diagonal

    def spy(m, n_cols):
        seen.append([row[:] for row in m])
        return dense(m, n_cols)

    monkeypatch.setattr(abelianize, "_dense_smith_diagonal", spy)
    return seen


def test_rows_leave_and_rejoin_the_bucket_queue(residues):
    # Rows by length: a = {0: 1} pivots first and takes the last unit
    # of r, which moves from bucket 3 to bucket 2 and, popped there with
    # no unit, leaves the queue.  p and e are equal up to sign, so
    # whichever of them pivots first empties the other.  q pivots last
    # (on column 2 or 1, both held twice), and r comes back with a unit
    # in bucket 3, below q's bucket 4.  Columns 3, 6 and 7 are empty.
    # Every row pivots or empties, so the residue is empty.
    a = {0: 1}
    r = {0: 1, 1: 3, 2: 2}
    q = {2: 1, 1: 1, 5: 2, 4: 2}
    p = {8: 1, 9: 2}
    e = {8: -1, 9: -2}
    rows = [a, r, q, p, e]
    want = _dense_invariants(_densified(rows, 10), 10)
    assert want == AbelianInvariants((), 6)
    assert _sparse_smith(rows, 10) == want
    assert residues == [[]]


def test_rows_without_a_unit_go_straight_to_the_residue(monkeypatch, residues):
    # hall's rows at (7, 7): multiples of 7 from each generator in
    # Gamma(7, 7), so no entry is a unit
    handed = []
    sparse_smith = abelianize._sparse_smith

    def spy(rows, n_cols):
        handed.extend(dict(r) for r in rows)
        return sparse_smith(rows, n_cols)

    monkeypatch.setattr(abelianize, "_sparse_smith", spy)
    assert smith_invariants(word_rows(7, 7), 2) == AbelianInvariants((7, 7), 0)
    assert len(handed) > 2 and not any(v in (1, -1) for r in handed for v in r.values())
    assert residues == [_densified(handed, 2)]


def test_free_rank_formula():
    assert free_rank_formula(4, 1) == 2
    assert free_rank_formula(4, 4) == 5
    assert free_rank_formula(6, 1) == 3
    assert free_rank_formula(5, 5) == 11


def test_predicted_special_cases():
    assert predicted_invariants(2, 1) == AbelianInvariants((2, 4), 1)
    assert predicted_invariants(3, 1) == AbelianInvariants((3, 3), 1)
    assert predicted_invariants(2, 2) == AbelianInvariants((2, 2, 2), 2)
    assert predicted_invariants(4, 1) == AbelianInvariants((4,), 2)
    assert predicted_invariants(4, 2) == AbelianInvariants((2, 4), 3)
    with pytest.raises(ValueError):
        predicted_invariants(1, 1)


def test_hall_requires_torsion_free_parameters():
    for m, n in [(2, 1), (2, 2), (3, 1)]:
        with pytest.raises(ValueError):
            hall_abelianization(m, n)


def word_matrices(m, n):
    """hall's generator matrices, rebuilt from the Schreier words: each
    word multiplied out letter by letter, apart from the tree walk's
    matrices, and lifted by sign into Gamma(m, n)."""
    matrices = []
    for word, _ in schreier_generators(congruence_table(m, n)):
        x = word_to_matrix(word).rep.entries()
        if not is_member(m, n, x):
            x = tuple(-e for e in x)
        assert is_member(m, n, x), (m, n, word)
        matrices.append(x)
    return matrices


def relation_rows(m, n, matrices):
    """The rows [a-1, -c] and [-b, d-1] of each matrix."""
    rows = []
    for a, b, c, d in matrices:
        rows += [[a - 1, -c], [-b, d - 1]]
    return rows


def word_rows(m, n):
    """hall's relation rows, rebuilt from the Schreier words."""
    return relation_rows(m, n, word_matrices(m, n))


def test_hall_hands_smith_the_hermite_basis_of_its_schreier_words(monkeypatch):
    # the basis is the same for any generators of Gamma(m, n), so the
    # lifted matrices pin the generators, and the basis must span the
    # lattice of their rows; no row (m, 0) or (0, n) is handed on, but
    # the generators' rows span both
    handed, lifted = [], []
    smith, lift = abelianize.smith_invariants, abelianize.lift_to_sl

    def smith_spy(rows, n_cols):
        handed.append(([list(r) for r in rows], n_cols))
        return smith(rows, n_cols)

    def lift_spy(g, m, n):
        lifted.append(lift(g, m, n))
        return lifted[-1]

    monkeypatch.setattr(abelianize, "smith_invariants", smith_spy)
    monkeypatch.setattr(abelianize, "lift_to_sl", lift_spy)
    pairs = [(m, n) for m in range(3, 25) for n in divisors(m) if (m, n) != (3, 1)]
    assert len(pairs) == 80
    for m, n in pairs:
        handed.clear()
        lifted.clear()
        assert hall_abelianization(m, n) == predicted_invariants(m, n), (m, n)
        matrices = word_matrices(m, n)
        assert lifted == matrices, (m, n)
        rows = relation_rows(m, n, matrices)
        [(basis, n_cols)] = handed
        assert n_cols == 2 and len(basis) == 2, (m, n)
        assert all(in_lattice(row, basis) for row in rows), (m, n)
        assert in_lattice((m, 0), basis) and in_lattice((0, n), basis), (m, n)
        assert sympy_invariants(basis, 2) == sympy_invariants(rows, 2), (m, n)


def test_hall_catches_generators_that_do_not_span(monkeypatch):
    # a planted fault: every generator but the first lifts to the identity,
    # so only the first one's rows are left.  Rows (5, 0) and (0, 5)
    # appended to them would still give the torsion Z/5 x Z/5, so the
    # route hands on the generators' rows alone
    lift = abelianize.lift_to_sl
    lifted = []

    def planted(g, m, n):
        lifted.append(g)
        return lift(g, m, n) if len(lifted) == 1 else (1, 0, 0, 1)

    monkeypatch.setattr(abelianize, "lift_to_sl", planted)
    assert str(hall_abelianization(5, 5)) == "Z/5 x Z^12"
    assert str(predicted_invariants(5, 5)) == "Z/5 x Z/5 x Z^11"
    # the same planted rows with (5, 0) and (0, 5) appended hide the fault
    lifted.clear()
    _, _, gens = schreier_matrices(congruence_table(5, 5))
    rows = [[5, 0], [0, 5]] + [list(row) for row in abelianize._hall_rows(gens, 5, 5)]
    assert smith_invariants(rows, 2) == AbelianInvariants((5, 5), 0)


def test_hall_matches_prediction():
    for m in range(3, 8):
        for n in divisors(m):
            if (m, n) == (3, 1):
                continue
            assert hall_abelianization(m, n) == predicted_invariants(m, n), (m, n)


def abelian_types(max_order):
    for m in range(2, max_order + 1):
        for n in divisors(m):
            if m * n <= max_order:
                yield m, n


def base_points(g):
    """The first, middle and last pi0 of epi_set(g)."""
    epis = epi_set(g)
    return epis[0], epis[len(epis) // 2], epis[-1]


def test_full_matches_prediction_for_abelian_targets():
    for m, n in abelian_types(16):
        g = cyclic(m) if n == 1 else abelian(m, n)
        for pi0 in base_points(g):
            assert full_abelianization(g, pi0) == predicted_invariants(m, n), (m, n, pi0)


def test_full_dihedral_values():
    for r in (3, 4, 5, 6):
        g = dihedral(r)
        for pi0 in base_points(g):
            inv = full_abelianization(g, pi0)
            assert inv == AbelianInvariants((2,), 2 if r % 2 else 3), (r, pi0)


def test_full_and_image_routes_for_sym4():
    """Pinned full abelianizations of non-abelian targets (alt:5 at the
    default pi0 only: it takes about a second); the full abelianization
    surjects onto the image's, so the image's free rank is no larger."""
    pinned = [
        (symmetric(4), AbelianInvariants((), 6), True),
        (alternating(4), AbelianInvariants((), 3), True),
        (quaternion(), AbelianInvariants((4,), 2), True),
        (alternating(5), AbelianInvariants((), 17), False),
    ]
    for g, want, every_base_point in pinned:
        for pi0 in base_points(g) if every_base_point else (None,):
            assert full_abelianization(g, pi0) == want, (g.tag, pi0)
        assert image_abelianization(g).free_rank <= want.free_rank, g.tag


def test_image_abelianization_level_two():
    inv = image_abelianization(cyclic(2))
    assert inv == AbelianInvariants((2,), 1)


def test_verdicts_non_perfect_groups():
    specs = [
        "cyclic:2", "cyclic:3", "cyclic:4", "abelian:2,2", "cyclic:6",
        "sym:3", "dihedral:4", "dihedral:5", "quaternion", "alt:4",
        "dihedral:6", "abelian:4,2", "sym:4", "dihedral:12",
        "perm:(1 2 3 4 5 6 7 8),(2 8)(3 7)(4 6)",  # D8, order 16
        "abelian:4,4", "cyclic:24",
    ]
    for spec in specs:
        g = parse_group_spec(spec)
        assert g.order <= 24
        v = infinite_abelianization_verdict(g)
        assert v.certified and v.image_invariants.free_rank >= 1, spec


def test_verdict_rejects_perfect():
    with pytest.raises(PerfectGroupError):
        infinite_abelianization_verdict(alternating(5))


def test_sl_level_two_structure():
    s = sl_level_structure(2, 2)
    assert s.contains_minus_identity
    assert not s.is_free
    assert s.structure == "free x central Z/2"
    assert s.free_rank == 2
    assert s.abelianization == AbelianInvariants((2,), 2)


def test_sl_level_without_center():
    s = sl_level_structure(4, 4)
    assert s.is_free and s.structure == "free" and s.free_rank == 5
    assert s.abelianization == AbelianInvariants((), 5)


def test_sl_level_rejects_torsion():
    with pytest.raises(ValueError):
        sl_level_structure(2, 1)


def test_satoh():
    for m in (3, 4, 5):
        ok, inv = satoh_crosscheck(m)
        assert ok and inv == hall_abelianization(m, m)
    with pytest.raises(ValueError):
        satoh_crosscheck(2)


@pytest.mark.parametrize("route", [full_abelianization, image_abelianization, orbit_stabilizer])
def test_a_pair_that_does_not_generate_is_refused(route):
    # (2, 2) generates the subgroup of order 2 of Z/4
    with pytest.raises(ValueError, match="^pi0 is not an epimorphism onto the group$"):
        route(cyclic(4), Epimorphism(2, 2))


@pytest.mark.parametrize(
    "route",
    [full_abelianization, image_abelianization, orbit_stabilizer, autpres.signed_coset_table],
)
@pytest.mark.parametrize("pair", [(-1, 1), (6, 0), (0, 6), (1.0, 2), (2, 1.0)])
def test_an_element_index_outside_the_group_is_refused(route, pair, monkeypatch):
    # a negative index would read the Cayley table from its end, a float
    # would reach it as a bad index, and the pair is refused before any
    # closure is taken
    g = symmetric(3)
    monkeypatch.setattr(type(g), "closure", lambda *_: pytest.fail("closure taken"))
    with pytest.raises(ValueError, match="^pi0 has an element index outside 0\\.\\.5$"):
        route(g, Epimorphism(*pair))
