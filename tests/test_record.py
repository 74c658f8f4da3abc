"""The frozen records of repcorr.record, against dataclasses as the oracle.

Every record class in the package is compared with a
`dataclasses.dataclass(frozen=True)` twin built from its `_fields` (with
Group's repr and compare exclusions): repr, eq and hash agree on sample
values, and construction, freezing and `_replace` behave alike.
"""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repcorr
from repcorr import record as record_module
from repcorr.chartable import CharTable, character_table
from repcorr.corrgraph import CorrEdge, CorrGraph, PimsnerData, build_e_graph, pimsner_matrices
from repcorr.cyclo import Cyclo, zeta
from repcorr.errors import SpecError
from repcorr.graphs import (
    CircleGraph,
    CircleReport,
    Frequency,
    MultiGraph,
    SimplicityReport,
    SkewSpec,
    Stub,
)
from repcorr.groups import ClassData, Group, conjugacy, construct_group
from repcorr.intlinalg import IntMatrix, KGroups, SmithForm, parse_matrix, smith_normal_form
from repcorr.reps import MAX_REP_DIM, Rep, regular_rep, trivial_rep

_SRC = Path(repcorr.__file__).resolve().parents[1]
_HIDDEN = {Group: {"elements", "index", "op"}}
_UNCOMPARED = {Group: {"index", "op"}}


def _samples() -> dict[type, list]:
    """Two or more values of every record class; the first two differ."""
    s3, c4 = construct_group("symmetric:3"), construct_group("cyclic:4")
    t3, t4 = character_table(s3), character_table(c4)
    reg3, reg4 = regular_rep(t3), regular_rep(t4)
    half = Frequency(Fraction(1, 2))
    return {
        Stub: [Stub(0, "(1)", 2), Stub(1, "(1)", 2)],
        MultiGraph: [MultiGraph(2, ((0, 1), (1, 0)), ("a", "b")),
                     MultiGraph(1, ((2,),), ("v",), (Stub(0, "w", 1),))],
        SimplicityReport: [SimplicityReport(True, False, True, False),
                           SimplicityReport(True, True, True, True)],
        SkewSpec: [SkewSpec(((1, 0), (0, 1))), SkewSpec(((1,),), None, 1, 3)],
        Frequency: [half, Frequency(Fraction(-1, 3), "theta")],
        CircleGraph: [CircleGraph((half,)), CircleGraph(())],
        CircleReport: [CircleReport(6, False), CircleReport("infinite", True)],
        CorrEdge: [CorrEdge(0, 1, 2, 3, 4), CorrEdge(0, 1, 2, 3, 5)],
        CorrGraph: [build_e_graph(reg3), build_e_graph(reg3, "module-count")],
        PimsnerData: [pimsner_matrices(reg3), pimsner_matrices(reg4)],
        IntMatrix: [IntMatrix.from_rows([[1, 2], [3, 4]]), IntMatrix.from_rows([[1, 2]]),
                    IntMatrix.zeros(0, 3)],
        KGroups: [KGroups(1, (2, 4), 0), KGroups(0, (), 1)],
        SmithForm: [smith_normal_form(parse_matrix("2 4; 6 8")), SmithForm(3, 2, (1,)),
                    smith_normal_form(IntMatrix.zeros(0, 3))],
        CharTable: [t3, t4],
        Cyclo: [zeta(3), Cyclo.from_rational(Fraction(1, 2))],
        Rep: [reg3, trivial_rep(t3), reg4],
        Group: [s3, c4],
        ClassData: [conjugacy(s3), conjugacy(c4)],
    }


SAMPLES = _samples()
RECORDS = [cls for cls in SAMPLES if cls is not Cyclo]


# what record attaches, and what every class has: not copied to the twin
_NOT_COPIED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
              "_fields", "_replace", "__dict__", "__weakref__", "__annotations__", "__doc__",
              "__module__", "__qualname__"}


def _twin(cls):
    """A frozen dataclass with cls's name, fields, defaults and exclusions,
    and its other methods (`__post_init__` among them)."""
    fields = []
    for name in cls._fields:
        opts = {"repr": name not in _HIDDEN.get(cls, ()),
                "compare": name not in _UNCOMPARED.get(cls, ())}
        if name in cls.__dict__:
            opts["default"] = cls.__dict__[name]
        fields.append((name, object, dataclasses.field(**opts)))
    namespace = {k: v for k, v in cls.__dict__.items()
                 if k not in _NOT_COPIED and k not in cls._fields}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def _outcome(call, names):
    """("ok", the named fields of call()) or (the exception's type, its message)."""
    try:
        return "ok", _values(call(), names)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)


def _values(obj, names=None) -> dict:
    return {name: getattr(obj, name) for name in names or obj._fields}


def test_every_record_class_in_the_package_is_sampled():
    found = set()
    for info in pkgutil.iter_modules(repcorr.__path__):
        mod = importlib.import_module(f"repcorr.{info.name}")
        found.update(obj for obj in vars(mod).values()
                     if isinstance(obj, type) and obj.__module__ == mod.__name__
                     and "_replace" in obj.__dict__ and not issubclass(obj, tuple))
    assert found == set(SAMPLES)
    assert len(found) == 18


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_the_dataclass(cls):
    twin = _twin(cls)
    objs = SAMPLES[cls]
    twins = [twin(**_values(obj)) for obj in objs]
    for obj, tw in zip(objs, twins):
        assert repr(obj) == repr(tw)
        assert hash(obj) == hash(tw)
        assert obj == cls(**_values(obj)) and not obj != cls(**_values(obj))
        assert obj != tw and tw != obj
        assert obj.__eq__(tw) is NotImplemented
        assert obj.__eq__(None) is NotImplemented
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            assert (a == b) == (twins[i] == twins[j])
    assert objs[0] != objs[1]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_construction_matches_the_dataclass(cls):
    twin = _twin(cls)
    obj = SAMPLES[cls][0]
    values = _values(obj)
    args = list(values.values())
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    built = [cls(*args), cls(**values), cls(*args[:1], **dict(list(values.items())[1:]))]
    for new in built:
        assert _values(new) == values and new == obj and hash(new) == hash(obj)
    defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
    if defaults:
        required = {k: v for k, v in values.items() if k not in defaults}
        assert _values(cls(**required)) == _values(twin(**required), cls._fields)
        assert (_values(cls(*required.values()))
                == _values(twin(*required.values()), cls._fields))
    bad_calls = [
        (args + [None], {}),  # too many positional arguments
        (args[1:], {}) if not defaults else ((), dict(list(values.items())[1:])),  # missing
        (args, {"no_such_field": 1}),  # unknown keyword
        (args, {cls._fields[0]: args[0]}),  # a field given twice
        ((), {**values, "no_such_field": 1}),
    ]
    for a, kw in bad_calls:
        with pytest.raises(TypeError):
            twin(*a, **kw)
        with pytest.raises(TypeError):
            cls(*a, **kw)


@pytest.mark.parametrize("cls", RECORDS + [Cyclo], ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    obj = SAMPLES[cls][0]
    name = cls._fields[0]
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, before)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert getattr(obj, name) is before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_replace_matches_dataclasses_replace(cls):
    twin = _twin(cls)
    a, b = SAMPLES[cls][:2]
    tw = twin(**_values(a))
    assert a._replace() == a and a._replace() is not a
    for name in cls._fields:
        change = {name: getattr(b, name)}
        assert (_outcome(lambda: a._replace(**change), cls._fields)
                == _outcome(lambda: dataclasses.replace(tw, **change), cls._fields))
    with pytest.raises(TypeError):
        a._replace(no_such_field=1)


def test_cached_properties_still_write_the_instance_dict():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    assert m.det() == 1 and "_det" in vars(m)
    f = SAMPLES[SmithForm][0]
    assert f.s is f.s and "s" in vars(f)
    t = SAMPLES[CharTable][0]
    assert t.weights is t.weights and "weights" in vars(t)
    assert m == IntMatrix.from_rows([[2, 1], [1, 1]])


def test_post_init_checks_run_on_every_path():
    reg = SAMPLES[Rep][0]
    huge = (MAX_REP_DIM,) * len(reg.mults)
    for build in (lambda: Rep(reg.table, huge), lambda: Rep(table=reg.table, mults=huge),
                  lambda: reg._replace(mults=huge)):
        with pytest.raises(SpecError, match="dimension exceeds the cap"):
            build()
    assert reg.renamed("r") == Rep(reg.table, reg.mults, "r")
    bad_graphs = [
        ((2, ((0, 1),), ("a", "b")), "shape does not match"),
        ((1, ((0, 1),), ("a",)), "shape does not match"),
        ((1, ((0,),), ("a", "b")), "name count"),
        ((1, ((-1,),), ("a",)), "nonnegative"),
    ]
    for (n, a, names), message in bad_graphs:
        for build in (lambda: MultiGraph(n, a, names), lambda: MultiGraph(n=n, a=a, names=names),
                      lambda: SAMPLES[MultiGraph][0]._replace(n=n, a=a, names=names)):
            with pytest.raises(SpecError, match=message):
                build()


def test_cyclo_keeps_its_own_eq_hash_and_repr():
    for name in ("__eq__", "__hash__", "__repr__"):
        method = Cyclo.__dict__[name]
        assert method.__code__.co_filename.endswith("cyclo.py")
    one = Cyclo.from_rational(1)
    same = Cyclo(4, (1, 0), 1)  # 1 at conductor 4: equal to 1, with its own hash
    assert one == same and hash(one) == hash(same) and _values(one) != _values(same)
    assert one == 1 and Cyclo.from_rational(Fraction(1, 2)) == Fraction(1, 2)
    assert repr(zeta(3)) == "Cyclo(3, 'z')"
    assert Cyclo(3, (1, 2), 1) == Cyclo(3, (1, 2), 1)
    assert Cyclo(3, (1, 2), 1)._replace(den=2) == Cyclo(3, (1, 2), 2)


def test_the_decorator_generates_no_source():
    tree = ast.parse(Path(record_module.__file__).read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"exec", "eval", "compile"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    code = ("import sys, repcorr.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
