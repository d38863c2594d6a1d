"""The Record base class against frozen dataclasses, and start-up imports.

Every record type of the package derives from tubes.record.Record. Each
test below builds a `dataclasses.make_dataclass(..., frozen=True)` twin
with the same name, fields and defaults, spelled out here rather than read
from the record, and checks that the record behaves as the twin does.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tubes import catalog
from tubes.catalog import DomainSpec
from tubes.cli import Check
from tubes.fields import HoloField, VectorField
from tubes.normal_form import MapFamily
from tubes.poly import MultiPoly
from tubes.relations import RelationContext
from tubes.scalars import GaussianRational
from tubes.symmetry import ChartOutcome, ComplexLine, LieAlgebraPresentation

ROOT = Path(__file__).resolve().parents[1]

CHECK_FIELDS = ["id", "claim", "verdict", "details", "provenance"]
CHART_FIELDS = ["pivots", "status", ("free_vars", object, dataclasses.field(default=())),
                ("solution", object, dataclasses.field(default=())),
                ("residual", object, dataclasses.field(default=())),
                ("closure_verified", object, dataclasses.field(default=False)),
                ("rows", object, dataclasses.field(default=()))]


def twin(cls, fields):
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def field_xy(comp_x="x", comp_y="y", cls=VectorField):
    xy = ("x", "y")
    return cls(xy, (MultiPoly.var(xy, comp_x), MultiPoly.var(xy, comp_y)))


CHECK_VALUES = [("a", "claim", "PASS", "", "p"), ("a", "claim", "FAIL", "", "p"),
                ("b", "claim", "PASS", "", "p"), ("a", "claim", "PASS", "", "p")]


def test_assignment_and_deletion_raise_attribute_error():
    check = Check(*CHECK_VALUES[0])
    oracle = twin(Check, CHECK_FIELDS)(*CHECK_VALUES[0])
    for obj in (check, oracle, field_xy()):
        with pytest.raises(AttributeError):
            obj.id = "other"
        with pytest.raises(AttributeError):
            obj.unknown = 1
        with pytest.raises(AttributeError):
            del obj.id
    assert check.id == "a"


def test_equality_and_hash_agree_with_the_twin():
    oracle = twin(Check, CHECK_FIELDS)
    for a in CHECK_VALUES:
        for b in CHECK_VALUES:
            assert (Check(*a) == Check(*b)) == (oracle(*a) == oracle(*b))
            assert (Check(*a) != Check(*b)) == (oracle(*a) != oracle(*b))
        assert hash(Check(*a)) == hash(oracle(*a))
        # a different class is never equal, nor is the bare field tuple
        assert Check(*a) != oracle(*a) and oracle(*a) != Check(*a)
        assert Check(*a) != a
    assert field_xy() == field_xy() and hash(field_xy()) == hash(field_xy())
    assert field_xy() != field_xy(cls=HoloField) and field_xy() != field_xy("y", "x")


def test_repr_matches_the_twin():
    values = ((0, 2), "solved", ("t0_1",))
    assert repr(ChartOutcome(*values)) == repr(twin(ChartOutcome, CHART_FIELDS)(*values))
    assert repr(Check(*CHECK_VALUES[0])) == repr(twin(Check, CHECK_FIELDS)(*CHECK_VALUES[0]))
    line = ComplexLine((GaussianRational(Fraction(1, 2), 1),), (GaussianRational(0, -1),))
    oracle = twin(ComplexLine, ["point", "direction", ("name", object, dataclasses.field(default=""))])
    assert repr(line) == repr(oracle(line.point, line.direction))


def test_defaults_apply():
    chart = ChartOutcome((0, 1), "empty")
    assert chart == ChartOutcome((0, 1), "empty", (), (), (), False, ())
    assert vars(chart) == vars(twin(ChartOutcome, CHART_FIELDS)((0, 1), "empty"))
    assert RelationContext().radicals == () and RelationContext().unit_pairs == ()
    assert ComplexLine((1,), (0,)).name == ""
    assert ComplexLine(direction=(0,), point=(1,), name="l") == ComplexLine((1,), (0,), "l")
    uv = ("u", "v")
    u, v = (MultiPoly.var(uv, n) for n in uv)
    one = MapFamily("u", ("u",), ("v",), (u * v,), (("v", 1),))
    two = MapFamily("two", ("u",), ("v",), (u + v,), (("v", 0),))
    assert one.relations == RelationContext() and one.relations is two.relations
    assert one.constraints == one.composition == one.composition_primed == ()


def test_post_init_rejects_bad_input():
    xy = ("x", "y")
    with pytest.raises(ValueError, match="component count"):
        VectorField(xy, (MultiPoly.var(xy, "x"),))
    xyt = ("x", "y", "t")
    with pytest.raises(ValueError, match="extra parameters"):
        HoloField(xy, (MultiPoly.var(xyt, "t"), MultiPoly.var(xyt, "x")))
    VectorField(xy, (MultiPoly.var(xyt, "t"), MultiPoly.var(xyt, "x")))  # allowed on a plain field
    x = MultiPoly.var(("x",), "x")
    with pytest.raises(ValueError, match="unknown constraint sense"):
        DomainSpec("d", x, ((x, "ge"),), (Fraction(1),), "", "")
    with pytest.raises(ValueError, match="must be distinct"):
        RelationContext(unit_pairs=(("c", "cb"), ("c", "d")))


@pytest.mark.parametrize("args, kwargs", [
    (("a", "claim", "PASS", "", "p", "extra"), {}),  # too many
    (("a", "claim", "PASS", ""), {}),  # missing
    ((), {}),
    (("a", "claim", "PASS", "", "p"), {"seconds": 1}),  # unknown
    (("a", "claim", "PASS", ""), {"id": "b", "provenance": "p"}),  # given twice
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        twin(Check, CHECK_FIELDS)(*args, **kwargs)
    with pytest.raises(TypeError):
        Check(*args, **kwargs)


def test_a_solved_presentation_is_its_two_fields():
    zb = catalog.get("basis.Z.D").payload.fields
    solved = LieAlgebraPresentation.from_fields(zb)
    direct = LieAlgebraPresentation(solved.basis, solved.structure)
    assert vars(solved).keys() == {"basis", "structure"}
    assert solved == direct and hash(solved) == hash(direct)
    assert repr(solved) == repr(direct)
    f = field_xy()
    assert f.jacobian is f.jacobian


def test_startup_imports_no_dataclasses_inspect_or_difflib():
    """A fresh `import tubes.cli` plus a build of every registry group
    loads none of them; only modules added after start-up count."""
    code = ("import sys; before = set(sys.modules); import tubes.cli; "
            "from tubes import catalog; len(catalog.active_registry()); "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {k: v for k, v in os.environ.items() if k != "TUBES_FIXTURES"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"tubes.cli", "tubes.catalog"} <= added
    assert not added & {"dataclasses", "inspect", "difflib"}
