"""Start-up cost and the contract of the package's value types.

``import congsub.cli`` loads no heavy standard-library module, and every
value type compares and hashes by its fields, keeps a dataclass-style
repr and keeps its validation messages.  A PSL word is a plain ``str``;
its alphabet is checked where a caller hands one in.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from congsub.abelianize import AbelianInvariants, SlStructure, Verdict
from congsub.autpres import PairTable, Presentation, presentation
from congsub.cosets import CosetTable, congruence_table, enumerate_cosets
from congsub.fingroups import Epimorphism, FiniteGroup, OrbitStabilizer, cyclic
from congsub.matgroup import _check_psl_word
from congsub.rewriting import KuroshDecomposition, SubgroupPresentation

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "typing", "fractions", "inspect", "decimal", "ast", "dis", "tokenize")


def test_cli_import_loads_no_heavy_module():
    # -I drops PYTHONPATH and -S the site module, so the snippet finds src/ itself
    snippet = (
        "import sys; sys.path.insert(0, %r)\n"
        "import congsub.autpres, congsub.cli\n"
        "congsub.autpres.presentation()\n"
        "print(' '.join(m for m in %r if m in sys.modules))" % (str(SRC), HEAVY)
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", snippet], capture_output=True, text=True
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "\n")


VALUES = {
    "CosetTable": lambda: CosetTable((1, 0, 2), (1, 2, 0)),
    "AbelianInvariants": lambda: AbelianInvariants((2, 4), 1),
    "Verdict": lambda: Verdict(AbelianInvariants((), 2), True),
    "SlStructure": lambda: SlStructure(False, True, "free", 3, AbelianInvariants((), 3)),
    "KuroshDecomposition": lambda: KuroshDecomposition(1, 1, 0, ((0, ""),), ()),
    "SubgroupPresentation": lambda: SubgroupPresentation(("S",), ((1, 1),)),
    "FiniteGroup": lambda: FiniteGroup("cyclic:2", ((0, 1), (1, 0)), (0, 1)),
    "Epimorphism": lambda: Epimorphism(1, 0),
    "OrbitStabilizer": lambda: OrbitStabilizer(12, 6, 6, True, CosetTable((0,), (0,))),
    "Presentation": lambda: Presentation(((("s", 1),) * 4,)),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=list(VALUES))
def test_equal_fields_give_equal_values_and_hashes(make):
    x, y = make(), make()
    assert x is not y and x == y and not x != y and hash(x) == hash(y)


def test_pair_tables_with_equal_fields_are_equal():
    # a PairTable holds a dict, so it is unhashable, as it always was
    make = lambda: PairTable(1, {"s": (0,)})  # noqa: E731
    assert make() == make()
    with pytest.raises(TypeError):
        hash(make())


def test_slot_values_differ_by_their_fields():
    # u2 is derived, so it takes no part in equality
    assert CosetTable((1, 0, 2), (1, 2, 0)) != CosetTable((0, 2, 1), (1, 2, 0))


def test_reprs_keep_the_dataclass_format():
    assert repr(CosetTable((0,), (0,))) == "CosetTable(s=(0,), u=(0,))"
    assert repr(AbelianInvariants((2,), 1)) == "AbelianInvariants(torsion=(2,), free_rank=1)"
    assert repr(Epimorphism(1, 0)) == "Epimorphism(gx=1, gy=0)"


def test_values_built_by_the_package_keep_their_fields():
    t = congruence_table(3, 1)
    assert t.u2 == tuple(t.u[t.u[i]] for i in range(t.n))
    assert cyclic(3).order == 3 and cyclic(3).inv(1) == 2
    assert presentation()._fields == ("relators",)


def test_validation_messages():
    for read in (_check_psl_word, lambda w: enumerate_cosets([w])):
        with pytest.raises(ValueError, match=r"^letters \{'T'\} not in the PSL alphabet$"):
            read("STU")
    for columns, message in [
        (((), ()), "malformed table"),
        (((0, 1), (0,)), "malformed table"),
        (((1, 2), (0, 1)), r"images are not in 0\.\.1"),
        (((1, 1), (0, 1)), r"S\^2 is not the identity"),
        (((1, 0), (1, 0)), r"U\^3 is not the identity"),
    ]:
        with pytest.raises(ValueError, match="^%s$" % message):
            CosetTable(*columns)
    with pytest.raises(ValueError, match=r"^invalid invariants$"):
        AbelianInvariants((1,), 0)
    with pytest.raises(ValueError, match=r"^invalid invariants$"):
        AbelianInvariants((), -1)
    with pytest.raises(ValueError, match=r"^torsion is not a divisibility chain$"):
        AbelianInvariants((4, 2), 0)
