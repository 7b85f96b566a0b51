import pytest

from congsub.autpres import (
    AUT_ID,
    GENS,
    GEN_AUT,
    X,
    Y,
    a_apply,
    a_compose,
    a_det,
    conjugation_by,
    evaluate,
    find_conjugator,
    presentation,
    signed_coset_table,
    stabilizer_relation_rows,
    w_inv,
    w_mul,
    _eval_in_group,
    _state_action,
    _tok_inv,
)
from congsub.fingroups import (
    SignedEpi,
    abelian,
    cyclic,
    dihedral,
    epi_set,
    quaternion,
    symmetric,
)
from congsub.rewriting import free_reduce, rewrite_relators

TEST_GROUPS = [
    cyclic(2),
    cyclic(3),
    cyclic(4),
    abelian(2, 2),
    symmetric(3),
    dihedral(4),
    quaternion(),
]


def test_free_word_algebra():
    assert free_reduce((1, -1, 2)) == (2,)
    assert w_mul(X, Y, w_inv(Y)) == X
    assert w_inv((1, 2)) == (-2, -1)


def test_generator_determinants():
    dets = {name: a_det(aut) for name, aut in GEN_AUT.items()}
    assert dets == {"ax": 1, "ay": 1, "s": 1, "b": 1, "j": -1}


def test_compose_order():
    # (f after g) applied to x equals f(g(x))
    f, g = GEN_AUT["s"], GEN_AUT["b"]
    h = a_compose(f, g)
    assert a_apply(h, X) == a_apply(f, a_apply(g, X))


def test_find_conjugator_round_trip():
    for w in ((), (1,), (-2, 1), (1, 2, -1), (2, 2, 1)):
        recovered = find_conjugator(conjugation_by(w))
        assert recovered is not None
        assert conjugation_by(recovered) == conjugation_by(w)


def test_find_conjugator_rejects_outer():
    assert find_conjugator(GEN_AUT["s"]) is None
    assert find_conjugator(GEN_AUT["j"]) is None


def test_presentation_relators_sound():
    pres = presentation()
    assert pres.generators == GENS
    assert len(pres.relators) == 12
    for rel in pres.relators:
        assert evaluate(rel) == AUT_ID


@pytest.mark.parametrize("g", TEST_GROUPS, ids=lambda g: g.tag)
def test_relators_fix_every_signed_state(g):
    pres = presentation()
    steps = {name: _state_action(g, name) for name in GENS}
    states = set()
    for pi in epi_set(g):
        for sign in (1, -1):
            states.add((pi.gx, pi.gy, sign))
    for rel in pres.relators:
        for state in states:
            cur = state
            for name, e in rel:
                if e == 1:
                    cur = steps[name](cur)
                else:
                    # invert by cycling: the action of each generator on the
                    # finite state set is a permutation
                    prev = cur
                    nxt = steps[name](prev)
                    while nxt != cur:
                        prev, nxt = nxt, steps[name](nxt)
                    cur = prev
            assert cur == state


@pytest.mark.parametrize(
    "g,expected",
    [(cyclic(2), 6), (abelian(2, 2), 12), (cyclic(3), 16), (cyclic(4), 24)],
    ids=lambda v: getattr(v, "tag", v),
)
def test_signed_table_size(g, expected):
    # twice the index of the special stabilizer in the special group
    table = signed_coset_table(g, epi_set(g)[0])
    assert table.n == expected


def test_signed_table_columns_are_permutations():
    g = symmetric(3)
    table = signed_coset_table(g, epi_set(g)[0])
    for name in GENS:
        assert sorted(table.forward[name]) == list(range(table.n))


def test_tree_is_spanning():
    g = dihedral(4)
    table = signed_coset_table(g, epi_set(g)[0])
    assert len(table.tree) == table.n - 1


def test_relation_rows_shape():
    g = cyclic(2)
    rows, n_syms = stabilizer_relation_rows(g, epi_set(g)[0])
    table = signed_coset_table(g, epi_set(g)[0])
    assert n_syms == table.n * len(GENS) - (table.n - 1)
    for row in rows:
        assert len(row) == n_syms
        assert any(row)


def _act_on_pair(g, f, state):
    """The signed pair state precomposed with the automorphism f."""
    gx, gy, sign = state
    return (
        _eval_in_group(g, f[0], gx, gy),
        _eval_in_group(g, f[1], gx, gy),
        sign * a_det(f),
    )


@pytest.mark.parametrize(
    "g", [cyclic(2), abelian(2, 2), symmetric(3)], ids=lambda g: g.tag
)
def test_rewritten_relators_are_products_of_schreier_generators(g):
    # each Schreier generator is evaluated as an automorphism from its
    # tree words, independently of the coset table that numbered it
    pi0 = epi_set(g)[0]
    base = (pi0.gx, pi0.gy, 1)
    table = signed_coset_table(g, pi0)
    edges, words = rewrite_relators(table.forward, table.tree, presentation().relators)
    tree_word = {0: ()}
    for c, name in sorted(table.tree, key=lambda e: table.forward[e[1]][e[0]]):
        tree_word[table.forward[name][c]] = tree_word[c] + ((name, 1),)
    gen_word = [
        tree_word[c] + ((name, 1),) + _tok_inv(tree_word[table.forward[name][c]])
        for c, name in edges
    ]
    for w in gen_word:
        assert _act_on_pair(g, evaluate(w), base) == base
    assert len(words) == len(presentation().relators) * table.n
    for word in words:
        product = ()
        for k in word:
            product += gen_word[k - 1] if k > 0 else _tok_inv(gen_word[-k - 1])
        assert evaluate(product) == AUT_ID
