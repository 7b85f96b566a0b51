import itertools
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from congsub import cosets
from congsub.abelianize import _sparse_smith, smith_invariants
from congsub.autpres import signed_coset_table
from congsub.cosets import (
    CosetTable,
    congruence_table,
    enumerate_cosets,
    orbit_table,
    tables_isomorphic,
    tree_flags,
)
from congsub.fingroups import epi_set, parse_group_spec
from congsub.matgroup import invert_psl
from congsub.rewriting import (
    _reduced_schreier,
    _schreier_tree,
    abelianized_relation_matrix,
    free_rank,
    is_free,
    kurosh_decompose,
    relation_rows,
    schreier_generators,
    subgroup_presentation,
    transversal,
)
from coset_helpers import trace
from psl_words import Mat2, PslElement, matrix_to_word, normalize_psl, word_to_matrix
from rewriting_reference import assert_read_once_per_root_cycle, reference_tree_edges

# S^2 and U^3 as words of (generator, exponent) tokens
S_SQUARED = (("S", 1),) * 2
U_CUBED = (("U", 1),) * 3


def tree_pairs(t):
    """The (coset, generator) pairs that the transversal's tree uses."""
    flags = _schreier_tree(t)[1]
    return frozenset((c, x) for x, f in flags.items() for c in range(t.n) if f[c])


def reference_reduced_schreier(t):
    """The reduced Schreier edges and relators by the per-coset rule: walk
    each coset's S- and U-cycle from that coset, and keep a non-tree edge
    unless its coset is the highest non-tree coset on the cycle."""
    tree = tree_pairs(t)
    edges, squares, cubes = [], [], []
    for c in range(t.n):
        for x, col, order, torsion in (("S", t.s, 2, squares), ("U", t.u, 3, cubes)):
            cycle = [c]
            for _ in range(order - 1):
                cycle.append(col[cycle[-1]])
            if cycle[1] == c:
                edges.append((c, x))
                torsion.append((len(edges),) * order)
            elif (c, x) not in tree and c != max(d for d in cycle if (d, x) not in tree):
                edges.append((c, x))
    return edges, squares + cubes


def assert_matches_reference(t):
    """``_reduced_schreier`` keeps the reference's edges and relators, and
    each witness, reduced at its junctions, is the full normal form."""
    tr, edges, relators, _ = _reduced_schreier(t)
    assert (edges, relators) == reference_reduced_schreier(t)
    for w, (c, x) in zip(subgroup_presentation(t).witnesses, edges, strict=True):
        d = t.column(x)[c]
        assert w == normalize_psl(tr[c] + x + invert_psl(tr[d]))


def lower_triangular_table():
    """Index-3 subgroup with c even: the mirror image of the unipotent case."""
    gens = [
        matrix_to_word(PslElement(Mat2(1, 1, 0, 1))),
        matrix_to_word(PslElement(Mat2(1, -1, 2, -1))),
    ]
    return enumerate_cosets(gens)


def test_transversal_prefix_closed():
    for m, n in [(2, 2), (3, 3), (4, 2)]:
        t = congruence_table(m, n)
        tr = transversal(t)
        assert tr[0] == ""
        words = set(tr)
        for w in tr:
            assert w[:-1] in words
        # each word reaches its own coset
        for c, w in enumerate(tr):
            assert trace(t, 0, w) == c


PAIRS_TO_24 = [(m, n) for m in range(1, 25) for n in range(1, m + 1) if m % n == 0]


def test_reduced_schreier_matches_the_per_coset_rule():
    assert len(PAIRS_TO_24) == 84
    for m, n in PAIRS_TO_24 + [(31, 31), (48, 48)]:
        assert_matches_reference(congruence_table(m, n))


def test_tree_edge_count():
    for m, n in [(2, 1), (3, 3), (5, 5)]:
        t = congruence_table(m, n)
        assert len(tree_pairs(t)) == t.n - 1


def relabel(columns, p):
    """The same action with state i renamed p[i]."""
    new = {}
    for name, col in columns.items():
        out = [0] * len(col)
        for i, j in enumerate(col):
            out[p[i]] = p[j]
        new[name] = tuple(out)
    return new


def assert_tree_flags_contract(columns, relabellings):
    """tree_flags sets n - 1 of its k n flags, state-major in column
    order, on exactly the breadth-first tree's edges, so the other
    (k - 1) n + 1 edges are the Schreier generators; and a transitive
    action has no nontrivial automorphism fixing state 0, so each
    nontrivial relabelling fixing state 0 is refused."""
    n, names = len(next(iter(columns.values()))), list(columns)
    flags = tree_flags(list(columns.values()))
    assert len(flags) == len(names) * n and sum(flags) == n - 1
    tree = {(e // len(names), names[e % len(names)]) for e, f in enumerate(flags) if f}
    assert tree == reference_tree_edges(columns)
    for p in relabellings:
        if list(p) != list(range(n)):
            with pytest.raises(ValueError, match="^states are not numbered breadth-first"):
                tree_flags(list(relabel(columns, p).values()))


def test_schreier_generators_fix_base_coset():
    for m, n in [(2, 1), (3, 1), (4, 2), (6, 3), (9, 9), (12, 4)]:
        t = congruence_table(m, n)
        for word, _ in schreier_generators(t):
            assert trace(t, 0, word) == 0


@pytest.mark.parametrize("m,n", PAIRS_TO_24)
def test_schreier_matrices_multiply_out_their_words(m, n):
    # the reference's word_to_matrix multiplies each witness out letter by
    # letter, apart from the transversal's integer quadruples
    for word, g in schreier_generators(congruence_table(m, n)):
        assert word_to_matrix(word) == PslElement(Mat2(*g))


def test_schreier_rank_level_two():
    t = congruence_table(2, 2)
    gens = schreier_generators(t)
    assert len(gens) == 2
    assert is_free(t) and free_rank(t) == 2


def test_free_ranks_small_primes():
    # rank 1 + p^3 (1 - p^-2) / 12 at prime level
    for p, rank in [(3, 3), (5, 11), (7, 29)]:
        assert free_rank(congruence_table(p, p)) == rank


def test_rank_matches_generator_count():
    for m, n in [(4, 1), (4, 4), (5, 1), (6, 2)]:
        t = congruence_table(m, n)
        assert len(schreier_generators(t)) == free_rank(t)


def test_kurosh_unipotent_level_two():
    d = kurosh_decompose(congruence_table(2, 1))
    assert (d.free_rank, d.f2, d.f3) == (1, 1, 0)
    coset, w = d.witnesses_order2[0]
    elt = word_to_matrix(w) * word_to_matrix("S") * word_to_matrix(w).inv()
    assert (elt * elt).is_identity() and not elt.is_identity()


def test_kurosh_lower_triangular_level_two():
    d = kurosh_decompose(lower_triangular_table())
    assert (d.free_rank, d.f2, d.f3) == (1, 1, 0)


def test_kurosh_unipotent_level_three():
    d = kurosh_decompose(congruence_table(3, 1))
    assert (d.free_rank, d.f2, d.f3) == (1, 0, 1)
    coset, w = d.witnesses_order3[0]
    elt = word_to_matrix(w) * word_to_matrix("U") * word_to_matrix(w).inv()
    assert (elt * elt * elt).is_identity() and not elt.is_identity()


def test_free_rank_rejects_torsion():
    with pytest.raises(ValueError):
        free_rank(congruence_table(2, 1))


def test_presentation_free_case():
    p = subgroup_presentation(congruence_table(2, 2))
    assert p.n_generators == 2
    assert p.relators == ()


def test_presentation_whole_group():
    p = subgroup_presentation(congruence_table(1, 1))
    assert p.n_generators == 2
    assert sorted(len(r) for r in p.relators) == [2, 3]


def test_presentation_with_order_two_factor():
    p = subgroup_presentation(lower_triangular_table())
    assert p.n_generators == 2
    assert len(p.relators) == 1 and len(p.relators[0]) == 2
    # abelianization Z x Z/2
    inv = smith_invariants(abelianized_relation_matrix(p), p.n_generators)
    assert inv.torsion == (2,) and inv.free_rank == 1


def test_presentation_with_order_three_factor():
    p = subgroup_presentation(congruence_table(3, 1))
    inv = smith_invariants(abelianized_relation_matrix(p), p.n_generators)
    assert inv.torsion == (3,) and inv.free_rank == 1


def test_relator_witnesses_evaluate_trivially():
    for table in (congruence_table(1, 1), congruence_table(3, 1), lower_triangular_table()):
        p = subgroup_presentation(table)
        for rel in p.relators:
            acc = word_to_matrix("")
            for k in rel:
                w = p.witnesses[abs(k) - 1]
                elem = word_to_matrix(w)
                acc = acc * (elem if k > 0 else elem.inv())
            assert acc.is_identity()


@st.composite
def transitive_columns(draw):
    """The orbit of point 0 under a random involution s and a random u
    with u^3 = 1 on at most 40 points, as the S and U columns of a
    transitive coset table.

    s and u have few fixed points, so the orbit is usually large."""
    n = draw(st.integers(1, 40))
    p = draw(st.permutations(range(n)))
    q = draw(st.permutations(range(n)))
    s, u = list(range(n)), list(range(n))
    for i in range(0, 2 * max(0, n // 2 - draw(st.integers(0, 2))), 2):
        s[p[i]], s[p[i + 1]] = p[i + 1], p[i]
    for i in range(0, 3 * max(0, n // 3 - draw(st.integers(0, 2))), 3):
        u[q[i]], u[q[i + 1]], u[q[i + 2]] = q[i + 1], q[i + 2], q[i]
    _, columns = orbit_table(0, {"S": s.__getitem__, "U": u.__getitem__})
    return columns["S"], columns["U"]


def transitive_tables():
    return transitive_columns().map(lambda columns: CosetTable(*columns))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(transitive_tables())
def test_presentation_has_kurosh_shape(t):
    p = subgroup_presentation(t)
    d = kurosh_decompose(t)
    assert p.n_generators == d.free_rank + d.f2 + d.f3
    squares = [r for r in p.relators if len(r) == 2 and r[0] == r[1] > 0]
    cubes = [r for r in p.relators if len(r) == 3 and r[0] == r[1] == r[2] > 0]
    assert (len(squares), len(cubes)) == (d.f2, d.f3) and len(p.relators) == d.f2 + d.f3
    assert len({r[0] for r in p.relators}) == len(p.relators)
    matrices = [word_to_matrix(w) for w in p.witnesses]
    for rel in p.relators:
        acc = word_to_matrix("")
        for k in rel:
            acc = acc * (matrices[k - 1] if k > 0 else matrices[-k - 1].inv())
        assert acc.is_identity()
    words = [w for w, _ in schreier_generators(t)]
    assert all(trace(t, 0, w) == 0 for w in words)
    assert tables_isomorphic(t, enumerate_cosets(words))
    assert_matches_reference(t)
    # oracle: the unreduced Reidemeister-Schreier presentation, S^2 and U^3
    # rewritten once per S- and U-cycle, has the same abelianization
    rows, n_syms = relation_rows({"S": t.s, "U": t.u}, (S_SQUARED, U_CUBED))
    unreduced = _sparse_smith(rows, n_syms)
    assert unreduced == smith_invariants(abelianized_relation_matrix(p), p.n_generators)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(transitive_tables())
def test_relation_rows_match_the_word_reference(t):
    # rows summed straight off the table equal the exponent sums of the
    # rewritten, freely reduced words, in the same key order, read once
    # per S-cycle for S^2 and once per U-cycle for U^3; the reference
    # reads every coset, and each other coset's row equals its cycle's
    # first row
    columns = {"S": t.s, "U": t.u}
    rows, n_syms = relation_rows(columns, (S_SQUARED, U_CUBED))
    assert n_syms == t.n + 1
    assert_read_once_per_root_cycle(columns, (S_SQUARED, U_CUBED), rows, n_syms)


@pytest.mark.parametrize("m,n,word,x,order", [(2, 1, S_SQUARED, "S", 2), (3, 1, U_CUBED, "U", 3)])
def test_a_fixed_point_keeps_its_row_read_once(m, n, word, x, order):
    # at a fixed point c of x the loop (c, x) is off the tree, and x^order
    # read there gives the row {j: order} for its number j
    t = congruence_table(m, n)
    columns = {"S": t.s, "U": t.u}
    col = columns[x]
    (c,) = [c for c in range(t.n) if col[c] == c]
    tree = reference_tree_edges(columns)
    edges = [(d, name) for d in range(t.n) for name in columns if (d, name) not in tree]
    j = edges.index((c, x))
    rows, _ = relation_rows(columns, [word])
    assert rows.count({j: order}) == 1
    # at most one row per x-cycle
    assert len(rows) <= len({min(c, col[c], col[col[c]]) for c in range(t.n)}) < t.n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(transitive_tables())
def test_transversal_words_are_normal_forms(t):
    # the witnesses are reduced only at their junctions because of this
    assert all(normalize_psl(w) == w for w in transversal(t))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(transitive_tables())
def test_discovery_order_puts_each_parent_first(t):
    # schreier_matrices builds M[c] from the matrix of c's parent, the
    # coset its transversal word's prefix reaches, along this order
    tr, _, order = _schreier_tree(t)
    assert order[0] == 0 and sorted(order) == list(range(t.n))
    seen = {0}
    for c in order[1:]:
        assert trace(t, 0, tr[c][:-1]) in seen
        seen.add(c)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(transitive_tables())
def test_schreier_matrices_are_their_witnesses(t):
    # the matrices are built along the transversal tree; the reference's
    # word_to_matrix multiplies each witness out letter by letter
    for word, g in schreier_generators(t):
        assert word_to_matrix(word) == PslElement(Mat2(*g))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(transitive_tables(), st.data())
def test_non_tree_edges_reads_the_breadth_first_tree(t, data):
    # the non-tree edges are the ones tree_flags leaves unset
    p = [0] + data.draw(st.permutations(range(1, t.n)))
    assert_tree_flags_contract({"S": t.s, "U": t.u}, [p])


@pytest.mark.parametrize("spec", ["cyclic:2", "sym:3", "dihedral:4"])
def test_non_tree_edges_of_pair_orbit_tables(spec):
    g = parse_group_spec(spec)
    table = signed_coset_table(g, epi_set(g)[0])
    # every transposition of two states other than 0
    swaps = []
    for i, j in itertools.combinations(range(1, table.n), 2):
        p = list(range(table.n))
        p[i], p[j] = j, i
        swaps.append(p)
    assert_tree_flags_contract(table.forward, swaps)


def test_rewriting_refuses_renumbered_columns():
    t = congruence_table(3, 3)
    columns = relabel({"S": t.s, "U": t.u}, [0, 2, 1] + list(range(3, t.n)))
    with pytest.raises(RuntimeError, match="^coset table: states are not numbered breadth-first"):
        relation_rows(columns, (S_SQUARED, U_CUBED))


@st.composite
def corrupt_columns(draw):
    """Random S and U columns on at most 8 points with images in -1..n,
    not necessarily bijective, with every point reachable from 0 along a
    chain of S- or U-steps."""
    n = draw(st.integers(1, 8))
    s = draw(st.lists(st.integers(-1, n), min_size=n, max_size=n))
    u = draw(st.lists(st.integers(-1, n), min_size=n, max_size=n))
    chain = [0] + draw(st.permutations(range(1, n)))
    for a, b in zip(chain, chain[1:]):
        (s if draw(st.booleans()) else u)[a] = b
    return tuple(s), tuple(u)


@st.composite
def orbit_columns(draw):
    """The orbit of point 0 under two random permutations of at most 6
    points: bijective and numbered breadth-first, with S^2 or U^3 often
    not the identity."""
    n = draw(st.integers(1, 6))
    s, u = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    _, columns = orbit_table(0, {"S": s.__getitem__, "U": u.__getitem__})
    return columns["S"], columns["U"]


@st.composite
def renumbered_columns(draw):
    """Transitive columns with the states other than 0 renamed at random:
    a valid action, usually not numbered breadth-first."""
    s, u = draw(transitive_columns())
    columns = relabel({"S": s, "U": u}, [0] + draw(st.permutations(range(1, len(s)))))
    return columns["S"], columns["U"]


def reference_accepts(s, u):
    """The table contract by brute force: S and U are permutations of
    0..n-1 with S^2 = U^3 = 1, and a breadth-first search from 0 that
    explores S before U numbers every state as it is already numbered."""
    dom = list(range(len(s)))
    if not dom or sorted(s) != dom or sorted(u) != dom:
        return False
    if any(s[s[i]] != i or u[u[u[i]]] != i for i in dom):
        return False
    order, queue = {0: 0}, deque([0])
    while queue:
        c = queue.popleft()
        for col in (s, u):
            if col[c] not in order:
                order[col[c]] = len(order)
                queue.append(col[c])
    return all(order.get(i) == i for i in dom)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(corrupt_columns(), orbit_columns(), transitive_columns(), renumbered_columns()))
def test_construction_accepts_exactly_the_valid_columns(columns):
    # the construction raises ValueError and nothing else on invalid
    # columns, so no reader meets an invalid table
    try:
        t = CosetTable(*columns)
    except ValueError:
        assert not reference_accepts(*columns)
    else:
        assert reference_accepts(*columns)
        assert _reduced_schreier(t)[1:3] == reference_reduced_schreier(t)


def _planted(monkeypatch, s, u):
    """Make the package's own table builders produce the columns (s, u)."""
    real = cosets.CosetTable
    monkeypatch.setattr(cosets, "CosetTable", lambda _s, _u: real(s, u))


@pytest.mark.parametrize("build", [subgroup_presentation, schreier_generators])
def test_unclosed_relator_is_an_internal_error(build, monkeypatch):
    # U swaps the two cosets, so U^3 does not close at coset 0: the
    # columns are refused as they are built, before the reader runs
    _planted(monkeypatch, (1, 0), (1, 0))
    with pytest.raises(ValueError, match="^U\\^3 is not the identity$"):
        build(CosetTable((1, 0), (1, 0)))
    with pytest.raises(RuntimeError, match="^congruence table \\(2, 1\\): U\\^3 is not the identity$"):
        build(congruence_table(2, 1))
    with pytest.raises(RuntimeError, match="^Todd-Coxeter table: U\\^3 is not the identity$"):
        build(enumerate_cosets(["S", "U"]))


@pytest.mark.parametrize("build", [subgroup_presentation, schreier_generators])
def test_unreachable_coset_is_an_internal_error(build, monkeypatch):
    # both cosets are fixed by S and U, so coset 1 is not reached from 0
    _planted(monkeypatch, (0, 1), (0, 1))
    with pytest.raises(ValueError, match="^action is not transitive$"):
        build(CosetTable((0, 1), (0, 1)))
    with pytest.raises(RuntimeError, match="^congruence table \\(2, 1\\): action is not transitive$"):
        build(congruence_table(2, 1))
    with pytest.raises(RuntimeError, match="^Todd-Coxeter table: action is not transitive$"):
        build(enumerate_cosets(["S", "U"]))


def test_free_presentations_keep_no_relator():
    for m, n in [(13, 13), (24, 12)]:
        t = congruence_table(m, n)
        p = subgroup_presentation(t)
        assert p.relators == ()
        assert p.n_generators == free_rank(t)
