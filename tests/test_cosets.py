import pytest

from congsub import cosets
from congsub.cosets import (
    CosetCeilingError,
    CosetTable,
    congruence_table,
    enumerate_cosets,
    orbit_table,
    tables_isomorphic,
    tree_flags,
)
from congsub.matgroup import invert_psl, psl_index_formula
from congsub.rewriting import schreier_generators
from coset_helpers import deserialize_table, trace
from psl_words import Mat2, PslElement, matrix_to_word, normalize_psl
from rewriting_reference import reference_tree_edges


def all_pairs(max_m):
    for m in range(1, max_m + 1):
        for n in range(1, m + 1):
            if m % n == 0:
                yield m, n


def test_congruence_table_sizes():
    for m, n in all_pairs(10):
        t = congruence_table(m, n)
        assert t.n == psl_index_formula(m, n), (m, n)


def stabilizer_minimum_table(m, n):
    """Reference congruence table: a coset of (a b; c d) mod m is named by
    the least element of its orbit under left multiplication by the
    subgroup's image +-(1 0; g 1), n | g, in SL2(Z/m)."""
    if m == 1:
        return CosetTable((0,), (0,))

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            (a * e + b * g) % m,
            (a * f + b * h) % m,
            (c * e + d * g) % m,
            (c * f + d * h) % m,
        )

    stab = set()
    for gamma in range(0, m, n):
        stab.add((1, 0, gamma, 1))
        stab.add((m - 1, 0, (-gamma) % m, m - 1))

    def coset(x):
        return min(mul(h, x) for h in stab)

    s_mat = (0, 1, (-1) % m, 0)
    u_mat = (0, (-1) % m, 1, 1)
    _, cols = orbit_table(
        coset((1, 0, 0, 1)),
        {"S": lambda x: coset(mul(x, s_mat)), "U": lambda x: coset(mul(x, u_mat))},
    )
    return CosetTable(cols["S"], cols["U"])


# (31, 31), (36, 36) and (48, 24) have packed keys above 2^16
@pytest.mark.parametrize(
    "m,n", list(all_pairs(24)) + [(31, 31), (36, 36), (48, 1), (48, 24), (60, 2)]
)
def test_row_keys_match_the_stabilizer_minimum(m, n):
    # compared outside the assert: a text diff of two large tables takes minutes
    same = congruence_table(m, n).serialize() == stabilizer_minimum_table(m, n).serialize()
    assert same


def tuple_key_table(m, n):
    """Reference congruence table over tuple keys: the coset of (a b; c d)
    is (a, b, c, d), the first row mod m and the second mod n, under the
    smaller of the two signs, walked breadth-first in the order S < U by
    ``orbit_table``, with S and U acting on each row from the right."""

    def key(a, b, c, d):
        return min((a % m, b % m, c % n, d % n), (-a % m, -b % m, -c % n, -d % n))

    _, cols = orbit_table(key(1, 0, 0, 1), {
        "S": lambda k: key(-k[1], k[0], -k[3], k[2]),
        "U": lambda k: key(k[1], k[1] - k[0], k[3], k[3] - k[2]),
    })
    return CosetTable(cols["S"], cols["U"])


@pytest.mark.parametrize("m,n", list(all_pairs(30)))
def test_packed_keys_walk_like_tuple_keys(m, n):
    # compared outside the assert: a text diff of two large tables takes minutes
    same = congruence_table(m, n) == tuple_key_table(m, n)
    assert same


def test_row_actions_match_the_row_formulas():
    for q in range(1, 61):
        rows = [(a, b) for a in range(q) for b in range(q)]

        def code(a, b):
            return a % q * q + b % q

        assert cosets._row_actions(q) == (
            [code(-b, a) for a, b in rows],
            [code(b, b - a) for a, b in rows],
            [code(-a, -b) for a, b in rows],
        ), q


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 3), (6, 2), (12, 12)])
def test_tree_flags_mark_the_tree_edges(m, n):
    t = congruence_table(m, n)
    flags = tree_flags((t.s, t.u))
    assert type(flags) is bytearray and len(flags) == 2 * t.n
    # a tree edge is the first edge, state-major, into its target
    seen, first = {0}, []
    for e, d in enumerate(d for pair in zip(t.s, t.u) for d in pair):
        if d not in seen:
            seen.add(d)
            first.append(e)
    assert [e for e, tree in enumerate(flags) if tree] == first
    tree = {(e // 2, "SU"[e % 2]) for e, f in enumerate(flags) if f}
    assert tree == reference_tree_edges({"S": t.s, "U": t.u})


def test_one_coset_table():
    # itemgetter of one index returns the image, not a tuple
    t = CosetTable((0,), (0,))
    assert t == congruence_table(1, 1) and t.u2 == (0,)
    assert t.column("u") == (0,) and trace(t, 0, "SUu") == 0


def test_serialize_round_trip():
    t = congruence_table(4, 2)
    t2 = deserialize_table(t.serialize())
    assert t2.s == t.s and t2.u == t.u
    # rows may come in any order
    head, *rows = t.serialize().splitlines()
    assert deserialize_table("\n".join([head] + rows[::-1])) == t


def test_deserialize_rejects_garbage():
    with pytest.raises(ValueError):
        deserialize_table("nonsense\n")
    with pytest.raises(ValueError, match="header"):
        deserialize_table("")
    with pytest.raises(ValueError, match="header"):
        deserialize_table("cosets\n")
    # each row index in 0..n-1, exactly once
    for rows in ("0 1 0\n5 1 1\n", "0 1 0\n-1 0 1\n", "0 1 0\n0 1 0\n", "0 1 0\n1 0 1\n1 0 1\n"):
        with pytest.raises(ValueError, match="out of range or repeated"):
            deserialize_table("cosets 2\n" + rows)
    with pytest.raises(ValueError, match="^no row for coset 1$"):
        deserialize_table("cosets 2\n0 1 0\n")
    with pytest.raises(ValueError, match="^a row is"):
        deserialize_table("cosets 2\n0 1 0\n1 0\n")
    # S action not an involution
    with pytest.raises(ValueError):
        deserialize_table("cosets 2\n0 1 0\n1 1 1\n")
    # every image in 0..n-1, checked before U^2 is derived from U
    for rows in ("0 0 5\n", "0 5 0\n", "0 -1 0\n"):
        with pytest.raises(ValueError, match=r"^images are not in 0\.\.0$"):
            deserialize_table("cosets 1\n" + rows)
    # a header alone allocates nothing of its size
    with pytest.raises(ValueError, match="^no row for coset 0$"):
        deserialize_table("cosets %d\n" % 10**15)


def test_trace_rejects_an_unknown_letter():
    # trace checks the alphabet through column
    t = congruence_table(3, 3)
    assert trace(t, 0, "SUu") == t.u2[t.u[t.s[0]]]
    with pytest.raises(ValueError, match="unknown letter 'x'"):
        trace(t, 0, "SUx")


def test_validate_rejects_intransitive():
    # the construction checks the table
    with pytest.raises(ValueError, match="^action is not transitive$"):
        CosetTable((0, 1), (0, 1))


def swap_states_1_and_2(t):
    """The columns of t with cosets 1 and 2 exchanged: the same action,
    numbered otherwise."""
    p = (0, 2, 1) + tuple(range(3, t.n))
    return tuple(tuple(p[col[p[i]]] for i in range(t.n)) for col in (t.s, t.u))


def test_validate_rejects_a_renumbered_table():
    t = congruence_table(3, 3)
    s, u = swap_states_1_and_2(t)
    # still permutations with S^2 = U^3 = 1 and transitive: only the numbering is off
    assert (s, u) != (t.s, t.u) and sorted(s) == sorted(u) == list(range(t.n))
    assert all(s[s[c]] == c and u[u[u[c]]] == c for c in range(t.n))
    refusal = "^states are not numbered breadth-first from state 0$"
    with pytest.raises(ValueError, match=refusal):
        CosetTable(s, u)
    text = "cosets %d\n" % t.n + "".join("%d %d %d\n" % row for row in zip(range(t.n), s, u))
    with pytest.raises(ValueError, match=refusal):
        deserialize_table(text)


def test_tables_isomorphic():
    t = congruence_table(3, 3)
    assert tables_isomorphic(t, t)
    assert not tables_isomorphic(congruence_table(2, 1), congruence_table(3, 3))


def test_enumerate_whole_group():
    t = enumerate_cosets(["S", "U"])
    assert t.n == 1


def test_enumerate_level_two():
    # images of (1 2; 0 1) and (1 0; 2 1) generate the level-2 subgroup
    gens = [
        matrix_to_word(PslElement(Mat2(1, 2, 0, 1))),
        matrix_to_word(PslElement(Mat2(1, 0, 2, 1))),
    ]
    t = enumerate_cosets(gens)
    assert t.n == 6
    assert tables_isomorphic(t, congruence_table(2, 2))


def test_enumerate_upper_unipotent_level_two():
    gens = [
        matrix_to_word(PslElement(Mat2(1, 2, 0, 1))),
        matrix_to_word(PslElement(Mat2(1, 2, -1, -1))),
    ]
    t = enumerate_cosets(gens)
    assert t.n == 3
    assert tables_isomorphic(t, congruence_table(2, 1))


@pytest.mark.parametrize("m,n", list(all_pairs(24)))
def test_enumerate_agrees_with_oracle(m, n):
    # derive generator words from the oracle table, then re-enumerate
    oracle = congruence_table(m, n)
    words = [w for w, _ in schreier_generators(oracle)]
    t = enumerate_cosets(words)
    assert tables_isomorphic(t, oracle)


# the redundant words of these pairs are their generators again: two generators each
NO_REDUNDANT_WORD = ((3, 1), (4, 1))


@pytest.mark.parametrize(
    "m,n", [(m, n) for m, n in all_pairs(24) if m >= 3 and (m, n) not in NO_REDUNDANT_WORD]
)
def test_enumerate_through_coincidences(m, n, monkeypatch):
    # w_i w_{i+1} w_{i+3}^-1 (indices mod k) lies in the subgroup; scanned at coset 0 before
    # the generators w_i, it defines cosets that the generators then merge
    merged = []

    class Counting(cosets._Enumerator):
        def coincidence(self, alpha, beta):
            merged.append((alpha, beta))
            super().coincidence(alpha, beta)

    monkeypatch.setattr(cosets, "_Enumerator", Counting)
    oracle = congruence_table(m, n)
    words = [w for w, _ in schreier_generators(oracle)]
    k = len(words)
    redundant = [
        normalize_psl(words[i] + words[(i + 1) % k] + invert_psl(words[(i + 3) % k]))
        for i in range(k)
    ]
    t = enumerate_cosets(redundant + words)
    assert t == oracle
    assert merged


def plant_enumeration(monkeypatch, columns, p):
    """Make Todd-Coxeter scan nothing and leave the flat columns (S, U, u)
    and the union-find forest p."""

    class Planted(cosets._Enumerator):
        def __init__(self, ceiling):
            super().__init__(ceiling)
            for col, planted in zip(self.cols, columns):
                col[:] = planted
            self.p[:] = p

        def scan_and_fill(self, alpha, code):
            pass

    monkeypatch.setattr(cosets, "_Enumerator", Planted)


def test_invalid_enumerated_table_is_an_internal_error(monkeypatch):
    # a complete table whose S sends both cosets to coset 1
    plant_enumeration(monkeypatch, ([1, 1], [0, 1], [0, 1]), [0, 1])
    with pytest.raises(RuntimeError, match="^Todd-Coxeter table: S\\^2 is not the identity$"):
        enumerate_cosets(["S", "U"])


def test_unreachable_live_coset_is_an_internal_error(monkeypatch):
    # both cosets are live and fixed by S and U, so coset 1 is not reached from 0
    plant_enumeration(monkeypatch, ([0, 1], [0, 1], [0, 1]), [0, 1])
    with pytest.raises(RuntimeError, match="^incomplete table after enumeration$"):
        enumerate_cosets(["S", "U"])


def test_ceiling():
    gens = [matrix_to_word(PslElement(Mat2(1, 12, 0, 1)))]
    with pytest.raises(CosetCeilingError):
        enumerate_cosets(gens, ceiling=5)
