import ast
from pathlib import Path

import pytest

import autpres_reference
from congsub.abelianize import _sparse_smith, full_abelianization
from congsub.autpres import (
    GENS,
    evaluate,
    pair_maps,
    presentation,
    signed_coset_table,
    stabilizer_relation_rows,
)
from congsub.cli import VERDICT_SPECS
from congsub.cosets import tree_flags
from congsub.fingroups import (
    LIFTS,
    abelian,
    cyclic,
    dihedral,
    epi_set,
    orbit_stabilizer,
    parse_group_spec,
    quaternion,
    symmetric,
)
from congsub.rewriting import relation_rows
from autpres_reference import (
    AUT_ID,
    BRAID_AUT,
    REF_AUT,
    X,
    Y,
    a_apply,
    a_compose,
    a_det,
    braid_abelianization,
    braid_relators,
    conjugation_by,
    eval_in_group,
    find_conjugator,
    free_reduce,
    ref_evaluate,
    signed_abelianization,
    special_abelianization,
    special_relators,
    tok_inv,
    tok_reduce,
    w_inv,
    w_mul,
)
from rewriting_reference import (
    assert_read_once_per_root_cycle,
    exponent_rows,
    reference_tree_edges,
    rewrite_relators,
)

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


def test_reference_imports_nothing_from_the_route():
    # the oracles keep their own words and automorphisms, so a fault in the
    # route's pair maps or free reduction cannot hide in them
    tree = ast.parse(Path(autpres_reference.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert not [name for name in imported if name.startswith(("congsub.autpres", "."))], imported


def _generator(name, e=1):
    """The route's generator t1 or d, or its inverse, as an automorphism."""
    return evaluate(((name, e),))


def test_generators_are_the_references_t1_and_rotation():
    # the route's t1 is the braid reference's, and its d the reference's s
    assert (_generator("t1"), _generator("t1", -1)) == BRAID_AUT["t1"]
    assert (_generator("d"), _generator("d", -1)) == REF_AUT["s"]


def test_generator_determinants():
    dets = {name: a_det(_generator(name)) for name in GENS}
    assert dets == {"t1": 1, "d": 1}
    assert {name: a_det(aut) for name, (aut, _) in BRAID_AUT.items()} == {
        "t1": 1, "t2": 1, "t3": 1
    }
    assert {name: a_det(aut) for name, (aut, _) in REF_AUT.items()} == {
        "ax": 1, "ay": 1, "s": 1, "b": 1, "j": -1
    }


@pytest.mark.parametrize("name", GENS + ("t2", "t3"))
def test_generator_inverses(name):
    # the route's generators through its maps, and the braid reference's
    # t2 and t3 through the reference's composition
    if name in GENS:
        assert evaluate(((name, 1), (name, -1))) == AUT_ID
        assert evaluate(((name, -1), (name, 1))) == AUT_ID
    else:
        f, f_inv = BRAID_AUT[name]
        assert a_compose(f, f_inv) == AUT_ID
        assert a_compose(f_inv, f) == AUT_ID


def test_compose_order():
    # (f after g) applied to x equals f(g(x)), and evaluate reads a word
    # left to right as f after g
    f, g = _generator("t1"), BRAID_AUT["t2"][0]
    h = a_compose(f, g)
    assert a_apply(h, X) == a_apply(f, a_apply(g, X))
    assert evaluate((("t1", 1), ("d", 1))) == a_compose(_generator("t1"), _generator("d"))


def _tokens(text):
    """A token word from names, an inverse marked by a trailing ', e.g. "t1 t2'"."""
    return tuple((name.rstrip("'"), -1 if name.endswith("'") else 1) for name in text.split())


@pytest.mark.parametrize(
    "name,word",
    [
        ("ax", "t1' t3"),
        ("s", "t1 t2 t3"),
        ("b", "t1 t2 t1' t3"),
        ("ay", "t1 t2 t1 t3' t2' t1'"),
    ],
)
def test_braid_generators_generate_aut_plus(name, word):
    # ax, ay, s, b generate Aut+(F2), so the braid reference's t1, t2, t3 do
    assert ref_evaluate(_tokens(word), BRAID_AUT) == REF_AUT[name][0]


@pytest.mark.parametrize(
    "name,word",
    [
        ("ax", "t1' d d t1 d' d'"),
        ("s", "d"),
        ("b", "d t1'"),
        ("ay", "t1 d t1 d' t1 d'"),
    ],
)
def test_t1_and_d_generate_aut_plus(name, word):
    # ax, ay, s, b generate Aut+(F2), so t1 and d do
    assert evaluate(_tokens(word)) == REF_AUT[name][0]


def test_presentation_relators_sound():
    pres = presentation()
    assert pres.relators == (
        _tokens("t1 d d t1 d' d' t1' d d t1' d' d'"),
        _tokens("t1 d t1 d t1 d"),
        _tokens("d d d d"),
    )
    for rel in pres.relators:
        assert all(name in GENS for name, _ in rel)
        assert evaluate(rel) == AUT_ID
    assert len(braid_relators()) == 4
    for rel in braid_relators():
        assert all(name in BRAID_AUT for name, _ in rel)
        assert ref_evaluate(rel, BRAID_AUT) == AUT_ID


# the proof that <t1, d | [t1, d^2 t1 d^-2], (t1 d)^3, d^4> presents
# B4/Z(B4), with a = t1, b = d a d^-1 and c = d^2 a d^-2
A, D = _tokens("t1"), _tokens("d")
B, C = D + A + tok_inv(D), D + D + A + tok_inv(D + D)
IN_A_AND_D = {"t1": A, "t2": B, "t3": C}


def _substitute(word, images):
    """The token word with each generator replaced by its image word."""
    return tuple(
        tok for name, e in word for tok in (images[name] if e == 1 else tok_inv(images[name]))
    )


def test_the_proof_identity_holds_in_the_free_group():
    # (d a)^3 = d (a b c) d^2, so (a d)^3 = 1 and d^4 = 1 give a b c = d
    assert tok_reduce((D + A) * 3) == tok_reduce(D + A + B + C + D + D)
    assert tok_reduce((D + A) * 3) == tok_reduce(D + (A + D) * 3 + tok_inv(D))


def test_the_proof_maps_are_inverse_on_generators():
    # d = t1 t2 t3, and b, c are t2 = d t1 d^-1 and t3 = d^2 t1 d^-2
    assert evaluate(D) == ref_evaluate(_tokens("t1 t2 t3"), BRAID_AUT)
    for name, word in IN_A_AND_D.items():
        assert evaluate(word) == BRAID_AUT[name][0]
    # each map sends the other side's relators to the identity
    for rel in braid_relators():
        assert evaluate(_substitute(rel, IN_A_AND_D)) == AUT_ID
    in_braids = {"t1": _tokens("t1"), "d": _tokens("t1 t2 t3")}
    for rel in presentation().relators:
        assert ref_evaluate(_substitute(rel, in_braids), BRAID_AUT) == AUT_ID


def _act_on_pair(g, f, state):
    """The generating pair state precomposed with the automorphism f."""
    gx, gy = state
    return (eval_in_group(g, f[0], gx, gy), eval_in_group(g, f[1], gx, gy))


@pytest.mark.parametrize("g", TEST_GROUPS, ids=lambda g: g.tag)
def test_pair_maps_precompose_with_the_references_automorphisms(g):
    # over the Cayley table each map sends a pair to the pair precomposed
    # with the reference's literal t1, s = d or inverse, evaluated letter
    # by letter in g
    maps = pair_maps(lambda v, w: g.table[v][w], g.inverse.__getitem__)
    literal = {
        ("t1", 1): BRAID_AUT["t1"][0],
        ("t1", -1): BRAID_AUT["t1"][1],
        ("d", 1): REF_AUT["s"][0],
        ("d", -1): REF_AUT["s"][1],
    }
    assert maps.keys() == literal.keys()
    for token, f in literal.items():
        for pi in epi_set(g):
            state = (pi.gx, pi.gy)
            assert maps[token](state) == _act_on_pair(g, f, state), token


@pytest.mark.parametrize("spec", VERDICT_SPECS)
def test_image_lifts_are_the_routes_maps(spec):
    # fingroups.LIFTS writes S and U out on their own; S is d, and U is
    # d^-1 followed by t1 (x -> y, y -> x^-1 y)
    g = parse_group_spec(spec)
    maps = pair_maps(g.mul, g.inv)
    for pi in epi_set(g):
        state = (pi.gx, pi.gy)
        assert LIFTS["S"](g, *state) == maps["d", 1](state)
        assert LIFTS["U"](g, *state) == maps["t1", 1](maps["d", -1](state))


@pytest.mark.parametrize("g", TEST_GROUPS, ids=lambda g: g.tag)
def test_relators_fix_every_signed_state(g):
    # the states are generating pairs; the test id keeps its earlier name
    pres = presentation()
    maps = pair_maps(g.mul, g.inv)
    steps = {name: maps[name, 1] for name in GENS}
    states = {(pi.gx, pi.gy) for pi in epi_set(g)}
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
    [(cyclic(2), 3), (abelian(2, 2), 6), (cyclic(3), 8), (cyclic(4), 12)],
    ids=lambda v: getattr(v, "tag", v),
)
def test_signed_table_size(g, expected):
    # the index of the special stabilizer in Aut+(F2)
    table = signed_coset_table(g, epi_set(g)[0])
    assert table.n == expected


def _first_middle_last(g):
    epis = epi_set(g)
    return [epis[k] for k in sorted({0, len(epis) // 2, len(epis) - 1})]


@pytest.mark.parametrize("spec", VERDICT_SPECS)
def test_orbit_size_matches_the_image_route_formula(spec):
    # the image route's |G/Z(G)| k epsilon, from an independent orbit
    g = parse_group_spec(spec)
    for pi0 in _first_middle_last(g):
        assert signed_coset_table(g, pi0).n == orbit_stabilizer(g, pi0).aut_plus_index


def test_signed_table_columns_are_permutations():
    g = symmetric(3)
    table = signed_coset_table(g, epi_set(g)[0])
    for name in GENS:
        assert sorted(table.forward[name]) == list(range(table.n))


def test_tree_is_spanning():
    g = dihedral(4)
    table = signed_coset_table(g, epi_set(g)[0])
    flags = tree_flags(list(table.forward.values()))
    assert len(flags) == table.n * len(GENS) and sum(flags) == table.n - 1
    tree = {(e // len(GENS), GENS[e % len(GENS)]) for e, f in enumerate(flags) if f}
    assert tree == reference_tree_edges(table.forward)


def test_relation_rows_shape():
    g = cyclic(2)
    rows, n_syms = stabilizer_relation_rows(g, epi_set(g)[0])
    table = signed_coset_table(g, epi_set(g)[0])
    assert n_syms == table.n * len(GENS) - (table.n - 1)
    # sparse rows: {column: nonzero exponent sum}, zero rows dropped
    assert rows
    for row in rows:
        assert row
        assert all(j in range(n_syms) and v for j, v in row.items())


@pytest.mark.parametrize("g", TEST_GROUPS, ids=lambda g: g.tag)
def test_relation_rows_match_the_word_reference(g):
    # rows summed straight off the orbit table equal the exponent sums of
    # the rewritten, freely reduced words, in the same key order, read
    # once per cycle of each relator's root; the reference reads every
    # state, and each other state's row equals its cycle's first row
    for pi0 in _first_middle_last(g):
        rows, n_syms = stabilizer_relation_rows(g, pi0)
        columns = signed_coset_table(g, pi0).forward
        assert_read_once_per_root_cycle(columns, presentation().relators, rows, n_syms)


@pytest.mark.parametrize("g", TEST_GROUPS, ids=lambda g: g.tag)
def test_the_power_relator_is_read_once_per_cycle_of_its_root(g):
    # (t1 d)^3 gives one row per cycle of v = t1 d and d^4 one per cycle
    # of v = d on which the reference's row is nonzero; v's cycles are
    # walked here
    powers = presentation().relators[1:]
    assert powers == (_tokens("t1 d") * 3, _tokens("d") * 4)
    for pi0 in _first_middle_last(g):
        columns = signed_coset_table(g, pi0).forward
        t1, d = (columns[name] for name in GENS)
        for power, v in zip(powers, ([d[t1[c]] for c in range(len(t1))], d)):
            lowest = set()
            for c in range(len(v)):
                cycle = [c]
                while v[cycle[-1]] != c:
                    cycle.append(v[cycle[-1]])
                lowest.add(min(cycle))
            per_state = exponent_rows(rewrite_relators(columns, [power])[1])
            rows, _ = relation_rows(columns, [power])
            assert len(rows) == sum(1 for c in lowest if per_state[c]) < len(v)
            assert rows == [per_state[c] for c in sorted(lowest) if per_state[c]]


def test_a_relator_that_is_not_a_power_is_read_from_every_state():
    # [t1, d^2 t1 d^-2] yields one row per state, zero rows dropped
    commutator = presentation().relators[0]
    assert commutator == A + C + tok_inv(A) + tok_inv(C)
    for g in TEST_GROUPS:
        columns = signed_coset_table(g, epi_set(g)[0]).forward
        per_state = exponent_rows(rewrite_relators(columns, [commutator])[1])
        assert len(per_state) == len(columns["t1"])
        assert relation_rows(columns, [commutator])[0] == [row for row in per_state if row]


def test_relation_rows_refuse_a_relator_with_a_token_dropped():
    g = symmetric(3)
    columns = signed_coset_table(g, epi_set(g)[0]).forward
    rel = presentation().relators[0]
    with pytest.raises(RuntimeError, match="^relator .* does not close at state 0$"):
        relation_rows(columns, [rel[1:]])
    with pytest.raises(RuntimeError, match="^relator .* does not close at state 0$"):
        rewrite_relators(columns, [rel[1:]])


@pytest.mark.parametrize(
    "g", [cyclic(2), abelian(2, 2), symmetric(3)], ids=lambda g: g.tag
)
def test_rewritten_relators_are_products_of_schreier_generators(g):
    # each Schreier generator is evaluated as an automorphism from its
    # tree words, independently of the coset table that numbered it
    pi0 = epi_set(g)[0]
    base = (pi0.gx, pi0.gy)
    table = signed_coset_table(g, pi0)
    edges, words = rewrite_relators(table.forward, presentation().relators)
    tree = {(c, name) for c in range(table.n) for name in GENS} - set(edges)
    tree_word = {0: ()}
    for c, name in sorted(tree, key=lambda e: table.forward[e[1]][e[0]]):
        tree_word[table.forward[name][c]] = tree_word[c] + ((name, 1),)
    gen_word = [
        tree_word[c] + ((name, 1),) + tok_inv(tree_word[table.forward[name][c]])
        for c, name in edges
    ]
    for w in gen_word:
        f = evaluate(w)
        assert a_det(f) == 1 and _act_on_pair(g, f, base) == base
    assert len(words) == len(presentation().relators) * table.n
    for word in words:
        product = ()
        for k in word:
            product += gen_word[k - 1] if k > 0 else tok_inv(gen_word[-k - 1])
        assert evaluate(product) == AUT_ID


# --- the oracles: the former presentations, kept in autpres_reference ---


def test_find_conjugator_round_trip():
    for w in ((), (1,), (-2, 1), (1, 2, -1), (2, 2, 1)):
        recovered = find_conjugator(conjugation_by(w))
        assert recovered is not None
        assert conjugation_by(recovered) == conjugation_by(w)


def test_find_conjugator_rejects_outer():
    assert find_conjugator(REF_AUT["s"][0]) is None
    assert find_conjugator(REF_AUT["j"][0]) is None
    assert find_conjugator(BRAID_AUT["t2"][0]) is None


def test_special_relators_are_the_former_presentation():
    # 3 lifted amalgam relations and the conjugations of ax, ay by s and b
    assert len(special_relators()) == 7
    assert all(name in ("ax", "ay", "s", "b") for rel in special_relators() for name, _ in rel)


@pytest.mark.parametrize(
    "spec", VERDICT_SPECS + tuple(g.tag for g in TEST_GROUPS if g.tag not in VERDICT_SPECS)
)
def test_route_matches_the_braid_presentation(spec):
    g = parse_group_spec(spec)
    for pi0 in _first_middle_last(g):
        assert full_abelianization(g, pi0) == braid_abelianization(g, pi0)


@pytest.mark.parametrize("g", TEST_GROUPS, ids=lambda g: g.tag)
def test_braid_route_matches_the_former_presentation(g):
    for pi0 in _first_middle_last(g):
        assert full_abelianization(g, pi0) == special_abelianization(g, pi0)


@pytest.mark.parametrize("dropped", range(len(presentation().relators)))
def test_a_dropped_relator_changes_some_invariants(dropped):
    # a planted fault: the route with one relator missing must disagree
    # with the full presentation somewhere, so the oracle comparisons can
    # catch a missing relator
    relators = presentation().relators[:dropped] + presentation().relators[dropped + 1 :]
    assert any(
        _sparse_smith(*relation_rows(signed_coset_table(g, pi0).forward, relators))
        != full_abelianization(g, pi0)
        for g in TEST_GROUPS
        for pi0 in _first_middle_last(g)
    )


@pytest.mark.parametrize("spec", VERDICT_SPECS)
def test_special_route_matches_the_signed_oracle(spec):
    g = parse_group_spec(spec)
    for pi0 in _first_middle_last(g):
        want, n_signed = signed_abelianization(g, pi0)
        assert full_abelianization(g, pi0) == want
        assert n_signed == 2 * signed_coset_table(g, pi0).n
