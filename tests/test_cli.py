import importlib
import io
import json
import re
import shlex
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from congsub import abelianize, cli, cosets, fingroups, rewriting
from congsub.cli import main
from congsub.cosets import CosetCeilingError
from congsub.fingroups import GroupTooLargeError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_index(capsys):
    code, out, _ = run(capsys, "index", "--m", "4", "--n", "2")
    assert code == 0
    assert "= 24" in out and "= 12" in out


def test_index_json(capsys):
    code, out, _ = run(capsys, "index", "--m", "4", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"m": 4, "n": 2, "sl_index": 24, "psl_index": 12}


def test_missing_args(capsys):
    code, _, err = run(capsys, "index", "--m", "4")
    assert code == 2
    assert "--n" in err


def test_invalid_pair(capsys):
    code, _, err = run(capsys, "index", "--m", "4", "--n", "3")
    assert code == 2


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--m", "2", "--n", "1")
    assert code == 0
    assert out.startswith("cosets 3\n")


def test_table_ceiling(capsys):
    code, _, err = run(capsys, "table", "--m", "8", "--n", "8", "--ceiling", "10")
    assert code == 3
    assert "ceiling" in err


def test_rank(capsys):
    code, out, _ = run(capsys, "rank", "--m", "2", "--n", "2")
    assert code == 0
    assert "free of rank 2" in out


def test_rank_sl(capsys):
    code, out, _ = run(capsys, "rank", "--m", "2", "--n", "2", "--sl")
    assert code == 0
    assert "free x central Z/2" in out


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--m", "3", "--n", "1")
    assert code == 0
    assert "F_1 * (Z/2)^0 * (Z/3)^1" in out


def test_stabilizer(capsys):
    code, out, _ = run(capsys, "stabilizer", "--group", "cyclic:2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["aut_plus_index"] == 3
    assert data["signed_orbit_size"] == 6


def test_abelianize_full(capsys):
    code, out, _ = run(capsys, "abelianize", "--group", "cyclic:2", "--method", "full")
    assert code == 0
    assert "Z/2 x Z/4 x Z^1" in out


def test_abelianize_hall(capsys):
    code, out, _ = run(
        capsys, "abelianize", "--m", "4", "--n", "4", "--method", "hall", "--json"
    )
    assert code == 0
    assert json.loads(out)["invariants"] == {"torsion": [4, 4], "free_rank": 5}


def test_abelianize_image(capsys):
    code, out, _ = run(capsys, "abelianize", "--group", "sym:3", "--method", "image")
    assert code == 0
    assert "Z/2 x Z^1" in out


def test_satoh(capsys):
    code, out, _ = run(capsys, "satoh", "--m", "3")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "subject", ["index", "abelianization", "decomposition", "verdicts", "smith"]
)
def test_verify_subjects(capsys, subject):
    sweep = ["--max-m", "6"] if subject in ("index", "abelianization", "decomposition") else []
    code, out, _ = run(capsys, "verify", subject, *sweep)
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("PASS")


def test_satoh_does_its_level_work_once(capsys, monkeypatch):
    calls = {"congruence_table": 0, "schreier_matrices": 0, "schreier_generators": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(abelianize, "congruence_table")
    count(rewriting, "schreier_matrices")
    count(rewriting, "schreier_generators")
    code, out, _ = run(capsys, "satoh", "--m", "7")
    assert (code, out) == (0, "level (7,7) kernel abelianization Z/7 x Z/7 x Z^29: PASS\n")
    # the generators' matrices come off one tree walk, with no witness words
    assert calls == {"congruence_table": 1, "schreier_matrices": 1, "schreier_generators": 0}


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "index", "--max-m", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert all(c["pass"] for c in data["checks"])


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "abelianization", "--max-m", "5", "--json")
    _, out2, _ = run(capsys, "verify", "abelianization", "--max-m", "5", "--json")
    assert out1 == out2


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(m, n):
        raise RuntimeError("Euler identity violated")

    monkeypatch.setattr(cli, "congruence_table", broken)
    code, out, err = run(capsys, "decompose", "--m", "3", "--n", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal: Euler identity violated\n"


def test_ceiling_error_keeps_its_exit_code(capsys, monkeypatch):
    def too_big(m, n):
        raise CosetCeilingError("table needs 36 cosets, ceiling is 10")

    monkeypatch.setattr(cli, "congruence_table", too_big)
    code, _, err = run(capsys, "table", "--m", "6", "--n", "3")
    assert code == cli.EXIT_CEILING == 3
    assert "ceiling" in err and "internal" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--m", "6", "--n", "3"],
        ["decompose", "--m", "6", "--n", "3"],
        ["rank", "--m", "6", "--n", "3"],
        ["rank", "--m", "6", "--n", "3", "--sl"],
        ["satoh", "--m", "6"],
        ["abelianize", "--method", "hall", "--m", "6", "--n", "3"],
    ],
)
def test_ceiling_is_checked_before_any_table_is_built(capsys, monkeypatch, argv):
    built = []

    def never(m, n):
        built.append((m, n))
        raise AssertionError("congruence_table called past the ceiling")

    for module in (cli, abelianize, cosets):
        monkeypatch.setattr(module, "congruence_table", never)
    code, out, err = run(capsys, *argv, "--ceiling", "5")
    assert (code, out, built) == (cli.EXIT_CEILING, "", [])
    assert err.startswith("error: table needs ") and err.endswith(" cosets, ceiling is 5\n")


def _never_build(monkeypatch):
    """Make every group or congruence table build fail; returns the list of
    the builds that were attempted."""
    built = []

    def never(*args):
        built.append(args)
        raise AssertionError("built %r" % (args,))

    for module in (cli, abelianize, cosets):
        monkeypatch.setattr(module, "congruence_table", never)
    monkeypatch.setattr(fingroups, "parse_group_spec", never)
    return built


ABELIANIZE_CALLS = {
    "hall": ["abelianize", "--method", "hall", "--m", "4", "--n", "2"],
    "full": ["abelianize", "--method", "full", "--group", "cyclic:2"],
    "image": ["abelianize", "--method", "image", "--group", "cyclic:2"],
}


@pytest.mark.parametrize(
    "method, option",
    [(m, o) for m in ("full", "image") for o in ("--m", "--n", "--ceiling")] + [("hall", "--group")],
)
def test_an_option_the_method_does_not_read_is_a_usage_error(capsys, monkeypatch, method, option):
    built = _never_build(monkeypatch)
    value = {"--m": "4", "--n": "2", "--ceiling": "1", "--group": "cyclic:2"}[option]
    code, out, err = run(capsys, *ABELIANIZE_CALLS[method], option, value)
    assert (code, out, built) == (cli.EXIT_USAGE, "", [])
    assert err == "error: --method %s does not read %s\n" % (method, option)


def test_the_default_method_reads_only_the_group(capsys, monkeypatch):
    built = _never_build(monkeypatch)
    code, out, err = run(capsys, "abelianize", "--m", "4", "--n", "4")
    assert (code, out, built) == (cli.EXIT_USAGE, "", [])
    assert err == "error: --method full does not read --m, --n\n"


@pytest.mark.parametrize(
    "subject, option",
    [(s, "--seed") for s in ("index", "abelianization", "decomposition")]
    + [("verdicts", "--max-m"), ("verdicts", "--seed"), ("smith", "--max-m")],
)
def test_an_option_the_verify_subject_does_not_read_is_a_usage_error(
    capsys, monkeypatch, subject, option
):
    built = _never_build(monkeypatch)
    code, out, err = run(capsys, "verify", subject, option, "4")
    assert (code, out, built) == (cli.EXIT_USAGE, "", [])
    assert err == "error: verify %s does not read %s\n" % (subject, option)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "index", "--max-m", "1"],
        ["verify", "abelianization", "--max-m", "2"],
        ["verify", "decomposition", "--max-m", "-3"],
    ],
)
def test_an_empty_verify_sweep_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: --max-m %s leaves no (m, n) pair to check\n" % argv[-1]


@pytest.mark.parametrize("subject", ["index", "abelianization", "decomposition"])
def test_verify_sweep_over_the_ceiling_is_refused_before_any_table_is_built(
    capsys, monkeypatch, subject
):
    # (127, 127) needs 1 024 128 cosets
    built = _never_build(monkeypatch)
    code, out, err = run(capsys, "verify", subject, "--max-m", "127")
    assert (code, out, built) == (cli.EXIT_CEILING, "", [])
    assert err == "error: table needs 1024128 cosets, ceiling is %d\n" % cli.DEFAULT_CEILING


def test_verify_sweep_up_to_the_ceiling_is_listed():
    # listing builds no table; the largest one of --max-m 126 is (125, 125)
    pairs = cli._sweep_pairs(126)
    sizes = {pair: cli.psl_index_formula(*pair) for pair in pairs}
    assert max(sizes, key=sizes.get) == (125, 125) and sizes[125, 125] == 937500
    assert cli._sweep_pairs(4) == [(2, 1), (2, 2), (3, 1), (3, 3), (4, 1), (4, 2), (4, 4)]
    assert cli._sweep_pairs(4, free_only=True) == [(3, 3), (4, 1), (4, 2), (4, 4)]


def test_invalid_congruence_table_is_an_internal_error(capsys, monkeypatch):
    real = cosets.CosetTable

    def broken(s, u):
        return real((0,) * len(s), u)

    monkeypatch.setattr(cosets, "CosetTable", broken)
    code, out, err = run(capsys, "table", "--m", "6", "--n", "3")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err == "error: internal: congruence table (6, 3): S^2 is not the identity\n"


def test_renumbered_congruence_table_is_an_internal_error(capsys, monkeypatch):
    real = cosets.CosetTable

    def broken(s, u):
        # states 1 and 2 exchanged: the same action, not numbered breadth-first
        p = (0, 2, 1) + tuple(range(3, len(s)))
        return real(*(tuple(p[col[p[i]]] for i in range(len(p))) for col in (s, u)))

    monkeypatch.setattr(cosets, "CosetTable", broken)
    code, out, err = run(capsys, "table", "--m", "6", "--n", "3")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err == (
        "error: internal: congruence table (6, 3): "
        "states are not numbered breadth-first from state 0\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["abelianize", "--method", "image", "--group", "sym:3"], ["stabilizer", "--group", "sym:3"]],
    ids=["image", "stabilizer"],
)
def test_invalid_image_table_is_an_internal_error(capsys, monkeypatch, argv):
    real = fingroups.orbit_table

    def broken(start, steps):
        # S as a cyclic shift of the 3 cosets: a permutation, not an involution
        states, columns = real(start, steps)
        n = len(columns["S"])
        return states, {**columns, "S": tuple((i + 1) % n for i in range(n))}

    monkeypatch.setattr(fingroups, "orbit_table", broken)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err == "error: internal: image table of sym:3: S^2 is not the identity\n"


def test_broken_group_builder_is_an_internal_error(capsys, monkeypatch):
    # a Latin square with identity that is not associative
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))

    def broken(arg):
        return fingroups._build("cyclic:5", list(range(5)), lambda x, y: loop[x][y])

    monkeypatch.setitem(fingroups._SPEC_BUILDERS, "cyclic", broken)
    code, out, err = run(capsys, "stabilizer", "--group", "cyclic:5")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal: associativity fails at (1, 1, 2)\n"


def test_group_over_the_order_cap_is_a_resource_bound(capsys):
    code, out, err = run(capsys, "stabilizer", "--group", "cyclic:500")
    assert (code, out) == (cli.EXIT_CEILING, "")
    assert err == "error: group of order 500 exceeds cap %d\n" % fingroups.MAX_GROUP_ORDER


# each exception a command can raise, with its exit code and stderr prefix
EXIT_TABLE = [
    (cli.UsageError, cli.EXIT_USAGE, "error: "),
    (CosetCeilingError, cli.EXIT_CEILING, "error: "),
    (GroupTooLargeError, cli.EXIT_CEILING, "error: "),
    (RuntimeError, cli.EXIT_INTERNAL, "error: internal: "),
    (ValueError, cli.EXIT_USAGE, "error: "),
]
COMMANDS = {
    "cmd_index": ["index"],
    "cmd_table": ["table"],
    "cmd_decompose": ["decompose"],
    "cmd_rank": ["rank"],
    "cmd_stabilizer": ["stabilizer"],
    "cmd_abelianize": ["abelianize"],
    "cmd_verify": ["verify", "index"],
    "cmd_satoh": ["satoh"],
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(COMMANDS)),
    st.sampled_from(EXIT_TABLE),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)
def test_exit_code_table(command, row, message):
    exc_type, code, prefix = row

    def failing(args):
        raise exc_type(message)

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setattr(cli, command, failing)
        assert main(COMMANDS[command]) == code
    assert (out.getvalue(), err.getvalue()) == ("", prefix + message + "\n")


def test_bad_permutation_point_is_a_usage_error(capsys):
    code, _, err = run(capsys, "stabilizer", "--group", "perm:(0 1)")
    assert code == cli.EXIT_USAGE == 2
    assert "1-based" in err and "internal" not in err


@pytest.mark.parametrize("spec", ["abelian:3", "abelian:2,2,2", "quaternion:7"])
def test_wrong_spec_argument_count_is_a_usage_error(capsys, spec):
    code, out, err = run(capsys, "stabilizer", "--group", spec)
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    assert err.startswith("error: want ") and "internal" not in err


def test_wrong_free_rank_is_an_internal_error(capsys, monkeypatch):
    real = rewriting.kurosh_decompose

    def off_by_one(t):
        return real(t)._replace(free_rank=real(t).free_rank + 1)

    monkeypatch.setattr(rewriting, "kurosh_decompose", off_by_one)
    code, out, err = run(capsys, "rank", "--m", "4", "--n", "4")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err.startswith("error: internal: free rank 6 ")


def test_smith_rank_beyond_the_columns_is_an_internal_error(capsys, monkeypatch):
    # a faulty dense pass must not read as a usage error (exit 2)
    monkeypatch.setattr(abelianize, "_dense_smith_diagonal", lambda m, n: [1] * 10**4)
    code, out, err = run(capsys, "abelianize", "--method", "hall", "--m", "6", "--n", "3")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err.startswith("error: internal: Smith rank ")


@pytest.mark.parametrize(
    "argv",
    [["abelianize", "--method", "hall", "--m", "6", "--n", "3"],
     ["abelianize", "--method", "full", "--group", "abelian:4,2"],
     ["verify", "smith"]],
    ids=["hall", "full", "verify"],
)
def test_smith_torsion_that_is_no_chain_is_an_internal_error(capsys, monkeypatch, argv):
    # a faulty divisibility pass must not read as a usage error (exit 2)
    monkeypatch.setattr(abelianize, "_fix_divisibility", lambda ds: sorted(ds, reverse=True))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err.startswith("error: internal: Smith torsion ")
    assert err.endswith(": torsion is not a divisibility chain\n")


def test_verify_smith_expects_factors_the_kernel_did_not_compute(capsys, monkeypatch):
    # a kernel that drops its largest invariant factor still returns a chain,
    # so only an expectation read off the diagonal itself can catch it
    real = abelianize._fix_divisibility
    monkeypatch.setattr(abelianize, "_fix_divisibility", lambda ds: real(ds)[:-1])
    code, out, err = run(capsys, "verify", "smith")
    assert (code, err) == (cli.EXIT_MISMATCH, "")
    assert out.endswith("verify smith: FAIL\n")


def test_verify_smith_scrambles_every_trial(capsys, monkeypatch):
    # replay the default stream: no drawn operation is the identity, and
    # every matrix with a nonzero entry reaches the kernel off its diagonal
    drawn, handed = [], []
    operations, smith = cli._unimodular_operations, abelianize.smith_invariants

    def operations_spy(rng, n):
        drawn.append(list(operations(rng, n)))
        return iter(drawn[-1])

    def smith_spy(rows, n_cols):
        handed.append([row[:] for row in rows])
        return smith(rows, n_cols)

    monkeypatch.setattr(cli, "_unimodular_operations", operations_spy)
    monkeypatch.setattr(abelianize, "smith_invariants", smith_spy)
    code, out, err = run(capsys, "verify", "smith")
    assert (code, err) == (0, "")
    assert out == "PASS  smith normal form: 50/50 scrambled matrices agreed\nverify smith: PASS\n"
    assert len(drawn) == len(handed) == 50
    for ops, rows in zip(drawn, handed):
        assert 5 <= len(ops) <= 25
        assert all(i != j and c != 0 for _, i, j, c in ops)
        off_diagonal = [v for i, row in enumerate(rows) for j, v in enumerate(row) if i != j]
        assert any(off_diagonal) or not any(map(any, rows))


def test_faulty_schreier_matrix_is_an_internal_error(capsys, monkeypatch):
    # a letter matrix of determinant 2: the first product built from it is rejected
    monkeypatch.setitem(rewriting._LETTER_MATRIX, "U", (2, 0, 0, 1))
    code, out, err = run(capsys, "abelianize", "--method", "hall", "--m", "6", "--n", "3")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err == "error: internal: Schreier matrix: determinant must be 1, got 2\n"


def test_non_integral_rank_formula_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(abelianize, "index_formula", lambda m, n: 13)
    code, out, err = run(capsys, "verify", "abelianization", "--max-m", "4")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err.startswith("error: internal: rank formula is not integral for ")


@pytest.mark.parametrize(
    "argv",
    [["abelianize", "--method", "hall", "--m", "4", "--n", "4"], ["satoh", "--m", "3"]],
    ids=["hall", "satoh"],
)
def test_generator_outside_the_subgroup_is_an_internal_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(abelianize, "is_member", lambda m, n, x: False)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err.startswith("error: internal: ") and "does not lift into the subgroup" in err


@pytest.mark.parametrize(
    "spec, order",
    [("cyclic:121", "121"), ("abelian:11,11", "121"), ("dihedral:61", "122"),
     ("sym:6", "720"), ("alt:6", "360"), ("sym:1000000", "1000000!")],
)
def test_group_order_is_checked_before_any_element_is_listed(capsys, monkeypatch, spec, order):
    def never(*args):
        raise AssertionError("_build called past the order cap")

    monkeypatch.setattr(fingroups, "_build", never)
    code, out, err = run(capsys, "stabilizer", "--group", spec)
    assert (code, out) == (cli.EXIT_CEILING, "")
    assert err == "error: group of order %s exceeds cap %d\n" % (order, fingroups.MAX_GROUP_ORDER)


# a cheap call of each command that exits 0, and the options it does not read,
# each with a value that the command would have had to ignore
CALLS = {
    "index": ["index", "--m", "4", "--n", "2"],
    "table": ["table", "--m", "2", "--n", "1"],
    "decompose": ["decompose", "--m", "3", "--n", "1"],
    "rank": ["rank", "--m", "2", "--n", "2"],
    "stabilizer": ["stabilizer", "--group", "cyclic:2"],
    "abelianize": ["abelianize", "--group", "cyclic:2", "--method", "full"],
    "verify": ["verify", "index", "--max-m", "4"],
    "satoh": ["satoh", "--m", "3"],
}
UNREAD = {
    "index": ["--group", "--ceiling", "--seed", "--max-m"],
    "table": ["--group", "--seed", "--max-m"],
    "decompose": ["--group", "--seed", "--max-m"],
    "rank": ["--group", "--seed", "--max-m"],
    "stabilizer": ["--m", "--n", "--ceiling", "--seed", "--max-m"],
    "abelianize": ["--seed", "--max-m"],
    "verify": ["--m", "--n", "--group", "--ceiling"],
    "satoh": ["--n", "--group", "--seed", "--max-m"],
}
VALUES = {"--m": "4", "--n": "2", "--group": "cyclic:2", "--ceiling": "1", "--seed": "1",
          "--max-m": "4"}


@pytest.mark.parametrize(
    "command, option", [(c, o) for c, options in UNREAD.items() for o in options]
)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, command, option):
    with pytest.raises(SystemExit) as info:
        main(CALLS[command] + [option, VALUES[option]])
    out = capsys.readouterr()
    assert (info.value.code, out.out) == (cli.EXIT_USAGE, "")
    assert "unrecognized arguments: %s %s" % (option, VALUES[option]) in out.err


def test_every_command_lists_its_calls_and_unread_options():
    assert sorted(CALLS) == sorted(UNREAD) == sorted(COMMANDS[c][0] for c in COMMANDS)
    for command, argv in CALLS.items():
        assert main(argv) == cli.EXIT_OK


ROOT = Path(__file__).resolve().parent.parent


def _golden_argvs():
    return [case["argv"] for case in json.loads((ROOT / "tests/cli_golden.json").read_text())]


def _readme_argvs():
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [shlex.split(line.partition("#")[0])[1:] for line in block.group(1).splitlines()]


def _sweep_argvs():
    # the benchmark's sweep jobs, run against a stand-in cli that records argv
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    bench_jobs = importlib.import_module("bench_jobs")
    argvs = []
    api = types.SimpleNamespace(cli=types.SimpleNamespace(main=lambda argv: argvs.append(argv)))
    for job in bench_jobs.sweep_jobs(0, api):
        job.run(api)
    return argvs


@pytest.mark.parametrize("source", [_golden_argvs, _readme_argvs, _sweep_argvs])
def test_documented_and_benchmarked_calls_parse(source):
    argvs = source()
    assert argvs
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        assert args.command == argv[0]
