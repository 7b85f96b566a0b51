"""Byte-exact stdout and exit codes of a fixed set of CLI commands.

``cli_golden.json`` holds, per command, the argument vector, the exit
code and the complete stdout.  The commands cover the table
serialization, the conjugator words printed by ``decompose``, stabilizer
orbit data and the three abelianization methods, so a change in coset
numbering, transversal words or invariants shows up here as a diff.
"""
import json
from pathlib import Path

import pytest

from congsub.cli import main

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_cli_stdout_is_byte_identical(capsys, case):
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
