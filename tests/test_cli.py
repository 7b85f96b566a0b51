import json

import pytest

from congsub import cli
from congsub.cli import main
from congsub.cosets import CosetCeilingError


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
    code, out, _ = run(capsys, "verify", subject, "--max-m", "6")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("PASS")


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
