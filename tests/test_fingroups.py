import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from congsub import matgroup
from congsub.abelianize import _default_epi
from congsub.cosets import (
    CosetTable,
    congruence_table,
    enumerate_cosets,
    orbit_table,
    tables_isomorphic,
    tree_flags,
)
from congsub.fingroups import (
    LIFTS,
    Epimorphism,
    FiniteGroup,
    GroupTooLargeError,
    _build,
    abelian,
    alternating,
    cyclic,
    dihedral,
    epi_set,
    from_permutations,
    orbit_stabilizer,
    parse_group_spec,
    quaternion,
    symmetric,
)
from psl_words import Mat2, PslElement, matrix_to_word


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
    orders = sorted(len(q._powers(x)) for x in range(q.order))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    d = dihedral(4)
    assert sorted(len(d._powers(x)) for x in range(d.order)) == [1, 2, 2, 2, 2, 2, 4, 4]


# --- the index-arithmetic Cayley tables against products of elements ---

def _product_table(elements, mul):
    """Cayley table over the index of each element in the list."""
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[mul(x, y)] for y in elements) for x in elements)


def test_cyclic_tables_match_the_residue_sums():
    for m in range(1, 25):
        assert cyclic(m).table == _product_table(list(range(m)), lambda x, y: (x + y) % m), m


def test_abelian_tables_match_the_pair_sums():
    for m in range(1, 121):
        for n in range(1, 120 // m + 1):
            elems = [(i, j) for i in range(m) for j in range(n)]
            want = _product_table(
                elems, lambda x, y: ((x[0] + y[0]) % m, (x[1] + y[1]) % n)
            )
            assert abelian(m, n).table == want, (m, n)


def test_dihedral_tables_match_the_reflection_products():
    for r in range(1, 61):
        elems = [(f, i) for f in (0, 1) for i in range(r)]

        # (f, i) is s^f r^i with r^i s = s r^-i
        def mul2(x, y):
            f1, i1 = x
            f2, i2 = y
            return ((f1 + f2) % 2, ((i1 if f2 == 0 else -i1) + i2) % r)

        assert dihedral(r).table == _product_table(elems, mul2), r


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


# --- the oracle for orbit_stabilizer: the signed orbit under the Nielsen
# moves, its stabilizer words and their abelianized images, and
# Todd-Coxeter on those images ---

class SignedEpi(NamedTuple):
    gx: int
    gy: int
    sign: int


# Nielsen moves on generator pairs (by precomposition), the determinant of
# the abelianized action, and that abelianized action itself as a column-
# convention integer matrix (a, b, c, d).
AUT_LETTERS = "PORr"
_AUT_INVERSE = {"P": "P", "O": "O", "R": "r", "r": "R"}
AUT_RHO = {
    "P": (0, 1, 1, 0),
    "O": (-1, 0, 0, 1),
    "R": (1, 0, 1, 1),
    "r": (1, 0, -1, 1),
}


def invert_aut_word(word: str) -> str:
    return "".join(_AUT_INVERSE[x] for x in reversed(word))


def act(g: FiniteGroup, letter: str, s: SignedEpi) -> SignedEpi:
    """Apply one Nielsen move to a signed pair."""
    gx, gy, sign = s
    if letter == "P":
        return SignedEpi(gy, gx, -sign)
    if letter == "O":
        return SignedEpi(g.inv(gx), gy, -sign)
    if letter == "R":
        return SignedEpi(g.mul(gx, gy), gy, sign)
    if letter == "r":
        return SignedEpi(g.mul(gx, g.inv(gy)), gy, sign)
    raise ValueError("unknown generator letter %r" % letter)


def act_word(g: FiniteGroup, word: str, s: SignedEpi) -> SignedEpi:
    for letter in word:
        s = act(g, letter, s)
    return s


def _rho_mul(m, n):
    a, b, c, d = m
    e, f, gg, h = n
    return (a * e + b * gg, a * f + b * h, c * e + d * gg, c * f + d * h)


def _rho_inv(m):
    """Inverse of a determinant ±1 integer matrix."""
    a, b, c, d = m
    det = a * d - b * c
    return (det * d, -det * b, -det * c, det * a)


def rho_image(word: str) -> tuple[int, int, int, int]:
    """Abelianized action of a word in the Nielsen moves (det ±1)."""
    return functools.reduce(_rho_mul, map(AUT_RHO.__getitem__, word), (1, 0, 0, 1))


def rho_det(mat: tuple[int, int, int, int]) -> int:
    return mat[0] * mat[3] - mat[1] * mat[2]


def rho_psl(word: str) -> PslElement:
    """Projective image of a determinant +1 word."""
    mat = rho_image(word)
    if rho_det(mat) != 1:
        raise ValueError("word has determinant -1")
    return PslElement(Mat2(*mat))


@dataclass(frozen=True)
class SignedOrbit:
    """The sizes of ``OrbitStabilizer``, counted on the orbit itself, with
    one stabilizer word per non-tree edge and the distinct abelianized
    images of those words, in order of first occurrence."""

    signed_orbit_size: int
    epi_orbit_size: int
    aut_plus_index: int
    sign_mixing: bool
    stabilizer_words: tuple[str, ...]
    stabilizer_rho: tuple[tuple[int, int, int, int], ...]


def signed_orbit(g: FiniteGroup, pi0: Epimorphism) -> SignedOrbit:
    """Orbit of the signed pair (pi0, +1) under the Nielsen moves: its
    stabilizer is the special stabilizer."""
    states, columns = orbit_table(
        SignedEpi(pi0.gx, pi0.gy, 1),
        {x: (lambda s, x=x: act(g, x, s)) for x in AUT_LETTERS},
    )
    # tree word and its abelianized action per state, built along the
    # discovery tree: the edges that tree_flags leaves unset, in scan order
    k = len(AUT_LETTERS)
    flags = tree_flags([columns[x] for x in AUT_LETTERS])
    off_tree = {(e // k, AUT_LETTERS[e % k]) for e, f in enumerate(flags) if not f}
    words = [""] * len(states)
    mats = [(1, 0, 0, 1)] * len(states)
    for i in range(len(states)):
        for x in AUT_LETTERS:
            if (i, x) not in off_tree:
                j = columns[x][i]
                words[j] = words[i] + x
                mats[j] = _rho_mul(mats[i], AUT_RHO[x])
    stab: list[str] = []
    stab_rho: dict[tuple[int, int, int, int], None] = {}
    for i, word in enumerate(words):
        for x in AUT_LETTERS:
            if (i, x) in off_tree:
                j = columns[x][i]
                stab.append(word + x + invert_aut_word(words[j]))
                # rho is a homomorphism: rho(w) = M_i rho(x) M_j^-1
                stab_rho[_rho_mul(_rho_mul(mats[i], AUT_RHO[x]), _rho_inv(mats[j]))] = None
    signed = len(states)
    epis = len({(s.gx, s.gy) for s in states})
    assert signed % 2 == 0
    return SignedOrbit(
        signed_orbit_size=signed,
        epi_orbit_size=epis,
        aut_plus_index=signed // 2,
        sign_mixing=(signed == 2 * epis),
        stabilizer_words=tuple(stab),
        stabilizer_rho=tuple(stab_rho),
    )


def stabilizer_image_table(orbit: SignedOrbit) -> CosetTable:
    """Todd-Coxeter table of the projective image of the special
    stabilizer, from the images of its Schreier generators (all of
    determinant +1) converted to words in S and U."""
    elements = dict.fromkeys(PslElement(Mat2(*mat)) for mat in orbit.stabilizer_rho)
    return enumerate_cosets([matrix_to_word(p) for p in elements if not p.is_identity()])


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
    orb = signed_orbit(g, pi0)
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
        want = congruence_table(m, n)
        assert tables_isomorphic(stabilizer_image_table(signed_orbit(g, pi0)), want), (m, n)
        assert tables_isomorphic(orbit_stabilizer(g, pi0).image_table, want), (m, n)


def test_stabilizer_rho_is_rho_of_the_words():
    for g in (symmetric(3), dihedral(4), quaternion(), alternating(4)):
        orb = signed_orbit(g, epi_set(g)[-1])
        # one word per non-tree edge of the orbit graph, all distinct
        assert len(set(orb.stabilizer_words)) == 3 * orb.signed_orbit_size + 1
        images = [rho_image(w) for w in orb.stabilizer_words]
        assert list(orb.stabilizer_rho) == list(dict.fromkeys(images))


def test_lifts_abelianize_to_s_and_u():
    # On Z/5 x Z/5 the standard pair ((1,0), (0,1)) precomposed with an
    # automorphism is that automorphism's abelianized matrix mod 5, one
    # column per generator.  Another lift of the same PSL2(Z) element,
    # such as b^-2 for U, differs here.
    g = abelian(5, 5)
    for name in "SU":
        x, y = LIFTS[name](g, 5, 1)
        columns = (x // 5, y // 5, x % 5, y % 5)
        mat = matgroup._LETTER_MATRIX[name]
        assert columns in {tuple(sign * v % 5 for v in mat) for sign in (1, -1)}, name

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
    return _build("planted", list(range(len(table))), lambda x, y: table[x][y])


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

def _plain_closure(table, elements):
    """The subgroup generated by ``elements``: a plain set BFS from the
    identity under right multiplication, with no early stop."""
    seen, queue = {0}, [0]
    for s in queue:
        for x in elements:
            t = table[s][x]
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


@functools.lru_cache(maxsize=None)
def _brute_force_epis(table):
    """Every (x, y) whose plain closure is the whole table."""
    k = len(table)
    return [
        Epimorphism(x, y)
        for x, y in itertools.product(range(k), repeat=2)
        if len(_plain_closure(table, (x, y))) == k
    ]


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


ORACLE_GROUPS = VERDICT_GROUPS + [
    "sym:4", "sym:5", "alt:5", "dihedral:12", "dihedral:60", "cyclic:5",
    "abelian:3,3", "abelian:8,8", "abelian:10,10",
    "perm:(1 2 3 4 5 6 7),(2 3 5)(4 7 6)", "perm:(1 2 3 4 5),(1 2)",
]


@functools.lru_cache(maxsize=None)
def _group_and_epis(spec):
    g = parse_group_spec(spec)
    return g, epi_set(g)


def _unpruned_epis(g):
    """The scan without pruning: one closure per unordered pair of cyclic
    subgroups, the first time a pair of elements meets it.  Returns the
    pairs and the number of closures."""
    k = g.order
    cyclic_of = [frozenset(g._powers(x)) for x in range(k)]
    generates = {}
    epis = []
    for x, y in itertools.product(range(k), repeat=2):
        key = frozenset((cyclic_of[x], cyclic_of[y]))
        ok = generates.get(key)
        if ok is None:
            ok = generates[key] = len(_plain_closure(g.table, (x, y))) == k
        if ok:
            epis.append(Epimorphism(x, y))
    return epis, len(generates)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_epi_set_matches_the_unpruned_scan(spec):
    g, epis = _group_and_epis(spec)
    want, _ = _unpruned_epis(g)
    assert epis == want
    for limit in (0, 1, 2, len(want) // 2, len(want) - 1, len(want) + 1):
        assert epi_set(g, limit=limit) == want[:limit]


def test_an_index_2_subgroup_is_not_taken_for_the_group():
    # the rotations r^i (element i < 60) of dihedral:60 are half the group;
    # <r^2, r^3> reaches them as two cosets of <r^2>
    g = dihedral(60)
    assert g.closure((2, 3)) == frozenset(range(60))
    assert g.closure((1,)) == frozenset(range(60))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_closure_matches_the_plain_closure(data):
    g, _ = _group_and_epis(data.draw(st.sampled_from(ORACLE_GROUPS)))
    element = st.integers(0, g.order - 1)
    elements = data.draw(st.one_of(
        st.just(()),
        st.lists(st.just(0), min_size=1, max_size=3),
        st.lists(element, min_size=1, max_size=2),
        st.lists(element, min_size=3, max_size=8),
        # repeats, with the identity among them
        st.lists(st.sampled_from([0, 1, g.order - 1]), min_size=2, max_size=6),
    ))
    assert g.closure(tuple(elements)) == _plain_closure(g.table, elements)


@pytest.mark.parametrize("spec", ["sym:5", "dihedral:60"])
def test_generating_pairs_are_pruned_by_proper_closures(spec, monkeypatch):
    g, epis = _group_and_epis(spec)
    # one closure for each unordered pair of cyclic subgroups
    _, unpruned = _unpruned_epis(g)
    calls = []
    real = FiniteGroup.closure

    def counting(self, elements):
        calls.append(elements)
        return real(self, elements)

    monkeypatch.setattr(FiniteGroup, "closure", counting)
    assert epi_set(g) == epis
    full = len(calls)
    assert full < unpruned
    # still lazy: the first pair comes before the scan is done
    del calls[:]
    assert epi_set(g, limit=1) == epis[:1]
    assert len(calls) < full


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_image_orbit_matches_the_signed_orbit_oracle(spec, position):
    g, epis = _group_and_epis(spec)
    pi0 = epis[{"first": 0, "middle": len(epis) // 2, "last": -1}[position]]
    got = orbit_stabilizer(g, pi0)
    want = signed_orbit(g, pi0)
    sizes = ("signed_orbit_size", "epi_orbit_size", "aut_plus_index", "sign_mixing")
    assert [getattr(got, f) for f in sizes] == [getattr(want, f) for f in sizes]
    same = got.image_table.serialize() == stabilizer_image_table(want).serialize()
    assert same
