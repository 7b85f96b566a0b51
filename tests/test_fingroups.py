import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from congsub.abelianize import _default_epi
from congsub.cosets import congruence_table, tables_isomorphic
from congsub.fingroups import (
    Epimorphism,
    GroupTooLargeError,
    SignedEpi,
    _build,
    abelian,
    act_word,
    alternating,
    cyclic,
    dihedral,
    epi_set,
    from_permutations,
    invert_aut_word,
    orbit_stabilizer,
    parse_group_spec,
    quaternion,
    rho_det,
    rho_image,
    rho_psl,
    stabilizer_image_table,
    symmetric,
)
from congsub.matgroup import Mat2, PslElement


def test_constructor_orders():
    assert cyclic(5).order == 5
    assert abelian(4, 2).order == 8
    assert dihedral(6).order == 12
    assert symmetric(4).order == 24
    assert alternating(4).order == 12
    assert quaternion().order == 8


def test_order_cap():
    with pytest.raises(GroupTooLargeError):
        cyclic(500)


def test_element_orders():
    q = quaternion()
    orders = sorted(q.element_order(x) for x in range(q.order))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    d = dihedral(4)
    assert sorted(d.element_order(x) for x in range(d.order)) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_perfect_detection():
    assert alternating(5).is_perfect()
    assert not alternating(4).is_perfect()
    assert not symmetric(3).is_perfect()


def test_commutator_subgroup_sizes():
    assert len(symmetric(3).commutator_subgroup()) == 3
    assert len(quaternion().commutator_subgroup()) == 2
    assert len(abelian(4, 2).commutator_subgroup()) == 1


def test_from_permutations():
    g = from_permutations("(1 2),(1 2 3)")
    assert g.order == 6
    assert not g.is_perfect()


def test_parse_group_spec():
    assert parse_group_spec("cyclic:6").order == 6
    assert parse_group_spec("abelian:2,2").order == 4
    assert parse_group_spec("dihedral:5").order == 10
    assert parse_group_spec("sym:3").order == 6
    assert parse_group_spec("alt:5").order == 60
    assert parse_group_spec("quaternion").order == 8
    assert parse_group_spec("perm:(1 2)(3 4),(1 2 3)").order == 12
    with pytest.raises(ValueError):
        parse_group_spec("nosuch:1")


def test_epi_counts():
    assert len(epi_set(cyclic(2))) == 3
    assert len(epi_set(abelian(2, 2))) == 6
    assert len(epi_set(symmetric(3))) == 18
    assert epi_set(cyclic(1)) != []


def test_epi_set_deterministic():
    assert epi_set(symmetric(3)) == epi_set(symmetric(3))


def test_rho_images():
    assert rho_image("R") == (1, 0, 1, 1)
    assert rho_det(rho_image("P")) == -1
    assert rho_det(rho_image("O")) == -1
    assert rho_det(rho_image("Rr")) == 1
    assert rho_psl("Rr").is_identity()
    with pytest.raises(ValueError):
        rho_psl("P")  # determinant -1 has no image in PSL


def test_act_word_inverse():
    g = symmetric(3)
    s = SignedEpi(epi_set(g)[0].gx, epi_set(g)[0].gy, 1)
    for w in ("PR", "ORr", "RrOP"):
        assert act_word(g, invert_aut_word(w), act_word(g, w, s)) == s


def test_orbit_sizes_abelian():
    orb = orbit_stabilizer(cyclic(2), epi_set(cyclic(2))[0])
    assert orb.signed_orbit_size == 6
    assert orb.epi_orbit_size == 3
    assert orb.aut_plus_index == 3
    orb = orbit_stabilizer(abelian(2, 2), epi_set(abelian(2, 2))[0])
    assert orb.aut_plus_index == 6


def test_orbit_transitive_on_epis():
    # every epimorphism is reached: the orbit covers the full epi set
    g = symmetric(3)
    orb = orbit_stabilizer(g, epi_set(g)[0])
    assert orb.epi_orbit_size == len(epi_set(g))


def test_stabilizer_words_fix_basepoint():
    g = dihedral(4)
    pi0 = epi_set(g)[0]
    orb = orbit_stabilizer(g, pi0)
    base = SignedEpi(pi0.gx, pi0.gy, 1)
    for w in orb.stabilizer_words[:25]:
        assert act_word(g, w, base) == base
        assert rho_det(rho_image(w)) == 1


def test_stabilizer_image_matches_congruence_oracle():
    # base the stabilizer at the standard epimorphism x -> (1, 0),
    # y -> (0, 1); other base points give conjugate subgroups whose
    # tables agree only up to relocating the base coset
    for g, pi0, (m, n) in [
        (cyclic(2), Epimorphism(1, 0), (2, 1)),
        (abelian(2, 2), Epimorphism(2, 1), (2, 2)),
        (cyclic(3), Epimorphism(1, 0), (3, 1)),
        (cyclic(4), Epimorphism(1, 0), (4, 1)),
        (abelian(4, 2), Epimorphism(2, 1), (4, 2)),
    ]:
        assert pi0 in epi_set(g)
        t = stabilizer_image_table(g, pi0)
        assert tables_isomorphic(t, congruence_table(m, n)), (m, n)


# --- planted failures of the Cayley-table checks ---

# smallest non-associative loop: a Latin square of order 5 with identity 0
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def _from_table(table):
    return _build("planted", list(range(len(table))), lambda x, y: table[x][y], str)


def _first_non_associative_triple(table):
    """Reference: the first failing (x, y, z) in lexicographic order, by brute force."""
    k = len(table)
    for x, y, z in itertools.product(range(k), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return (x, y, z)
    return None


def test_non_associative_loop_is_rejected_at_the_first_triple():
    triple = _first_non_associative_triple(LOOP5)
    assert triple == (1, 1, 2)
    with pytest.raises(RuntimeError, match=r"associativity fails at \(1, 1, 2\)$"):
        _from_table(LOOP5)


def test_broken_identity_is_rejected():
    z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert _from_table(z3).order == 3
    with pytest.raises(RuntimeError, match="identity axiom fails"):
        _from_table(((0, 2, 1), (1, 2, 0), (2, 0, 1)))
    with pytest.raises(RuntimeError, match="identity axiom fails"):
        _from_table(((0, 1, 2), (2, 1, 0), (1, 0, 2)))


def test_row_without_inverse_is_rejected():
    with pytest.raises(RuntimeError, match="element 1 has no inverse"):
        _from_table(((0, 1, 2), (1, 1, 2), (2, 0, 1)))


@st.composite
def unital_tables(draw):
    """Tables with identity 0 and a 0 in every row: they reach the
    associativity check, which nearly all of them fail."""
    k = draw(st.integers(2, 7))
    table = [list(range(k))]
    for x in range(1, k):
        row = [x] + draw(st.lists(st.integers(0, k - 1), min_size=k - 1, max_size=k - 1))
        if 0 not in row:
            row[draw(st.integers(1, k - 1))] = 0
        table.append(row)
    return tuple(map(tuple, table))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(unital_tables())
def test_associativity_check_names_the_triple_loops_first_failure(table):
    triple = _first_non_associative_triple(table)
    if triple is None:
        assert _from_table(table).table == table
    else:
        with pytest.raises(RuntimeError, match=r"associativity fails at \(%d, %d, %d\)$" % triple):
            _from_table(table)


def test_from_permutations_points_are_one_based():
    with pytest.raises(ValueError, match="1-based"):
        from_permutations("(0 1)")


# --- epi_set against a brute force ---

@functools.lru_cache(maxsize=None)
def _brute_force_epis(table):
    """Every (x, y) whose plain set BFS under right multiplication reaches
    the whole table."""
    k = len(table)
    epis = []
    for x, y in itertools.product(range(k), repeat=2):
        seen, queue = {0}, [0]
        for s in queue:
            for t in (table[s][x], table[s][y]):
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        if len(seen) == k:
            epis.append(Epimorphism(x, y))
    return epis


def _cycle_notation(perm):
    cycles, done = [], set()
    for start in range(len(perm)):
        if start in done or perm[start] == start:
            continue
        cycle, p = [], start
        while p not in done:
            done.add(p)
            cycle.append(str(p + 1))
            p = perm[p]
        cycles.append("(%s)" % " ".join(cycle))
    return "".join(cycles)


permutations_of_at_most_5 = st.integers(1, 5).flatmap(lambda n: st.permutations(range(n)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(permutations_of_at_most_5, permutations_of_at_most_5)
def test_epi_set_matches_brute_force(p, q):
    g = from_permutations("%s,%s" % (_cycle_notation(p), _cycle_notation(q)))
    epis = epi_set(g)
    assert epis == _brute_force_epis(g.table)
    assert epi_set(g, limit=3) == epis[:3]


VERDICT_GROUPS = [
    "cyclic:2", "cyclic:3", "cyclic:4", "abelian:2,2", "cyclic:6",
    "sym:3", "dihedral:4", "quaternion", "cyclic:12", "alt:4",
    "dihedral:6", "abelian:4,2",
]


@pytest.mark.parametrize("spec", VERDICT_GROUPS + ["sym:4", "dihedral:12"])
def test_default_epi_is_the_first_epimorphism(spec):
    g = parse_group_spec(spec)
    assert _default_epi(g) == epi_set(g)[0]


def test_stabilizer_rho_is_rho_of_the_words():
    for g in (symmetric(3), dihedral(4), quaternion(), alternating(4)):
        orb = orbit_stabilizer(g, epi_set(g)[-1])
        # one word per non-tree edge of the orbit graph, all distinct
        assert len(set(orb.stabilizer_words)) == 3 * orb.signed_orbit_size + 1
        images = [rho_image(w) for w in orb.stabilizer_words]
        assert list(orb.stabilizer_rho) == list(dict.fromkeys(images))
