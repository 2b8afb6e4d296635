"""The value types' contract: every one is a `seqcore.Value`, equal by
class and fields, hashed over its fields, immutable, refusing what its
constructor refuses, and shown in the dataclass repr format."""

import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from functools import cached_property

import pytest

import allowseq
from allowseq.construction import (Certificate, ConstructionFailure,
                                   Decomposition, StepLayout, StepOutcome)
from allowseq.engine import (BlockSwap, Define, End, FlipStep, Replay, Trace,
                             VerificationReport)
from allowseq.errors import ContractError
from allowseq.geom import HalfPeriod, LineRecord, PointSet, SwapEvent
from allowseq.planner import RecurrenceTable, plan_sizes
from allowseq.seqcore import (BalanceReport, Block, CentredSequence, Flip,
                              Value, Window, init_field)

_table = plan_sizes(0, 9, 1, 1)
_step = FlipStep([Flip(1, 2)])
_event = SwapEvent(_step, ((1, 2),))
_layout = StepLayout((1, 0), (1, 2), (-1, 1), (3, 4), (5, 6))

# (type, constructor arguments, repr).  Each repr is the one the type had
# as a dataclass, except that BalanceReport's gained least_ratio, its one
# new field.
SAMPLES = [
    (Flip, (1, 3), "Flip(c=1, d=3)"),
    (Window, (2,), "Window(t=2)"),
    (Block, ((3, -1, 2),), "Block(values=(3, -1, 2))"),
    (CentredSequence, (-1, (0, 2, 1)),
     "CentredSequence(lo=-1, values=(0, 2, 1))"),
    (BalanceReport, (False, Fraction(1, 2), 1, "x"),
     "BalanceReport(balanced=False, r=Fraction(1, 2), witness=1, "
     "detail='x', least_ratio=None)"),
    (FlipStep, ([Flip(4, 5), Flip(1, 2)],),
     "FlipStep(flips=(Flip(c=1, d=2), Flip(c=4, d=5)))"),
    (BlockSwap, (3, 2, 1), "BlockSwap(lo=3, a=2, b=1)"),
    (Define, (0, -2, 5), "Define(id=0, lo=-2, hi=5)"),
    (End, (0,), "End(id=0)"),
    (Replay, (0,), "Replay(id=0)"),
    (Trace, (Window(0), CentredSequence(1, (1, 2)),
             (_step, BlockSwap(1, 1, 1)), ((1, 1, "begin a"),)),
     "Trace(window=Window(t=0), initial=CentredSequence(lo=1, "
     "values=(1, 2)), steps=(FlipStep(flips=(Flip(c=1, d=2),)), "
     "BlockSwap(lo=1, a=1, b=1)), annotations=((1, 1, 'begin a'),))"),
    (VerificationReport, (True, True, False, Fraction(1, 2), 3, 4),
     "VerificationReport(allowable=True, all_valid=True, "
     "reaches_reversal=False, min_deviation=Fraction(1, 2), step_count=3, "
     "flip_count=4, first_violation=None)"),
    (PointSet, ([(0, 0), (1, Fraction(1, 2))],),
     "PointSet(points=((Fraction(0, 1), Fraction(0, 1)), "
     "(Fraction(1, 1), Fraction(1, 2))))"),
    (LineRecord, ((1, 2), 0, 1),
     "LineRecord(labels=(1, 2), left_count=0, right_count=1)"),
    (SwapEvent, (_step, ((1, 2),)),
     "SwapEvent(step=FlipStep(flips=(Flip(c=1, d=2),)), groups=((1, 2),))"),
    (HalfPeriod, (2, (1, 2), (_event,)),
     "HalfPeriod(n=2, initial=(1, 2), events=(SwapEvent(step=FlipStep("
     "flips=(Flip(c=1, d=2),)), groups=((1, 2),)),))"),
    (Decomposition, ((Block((1,)),), Block((1,))),
     "Decomposition(blocks=(Block(values=(1,)),), result=Block(values=(1,)))"),
    (StepLayout, ((1, 0), (1, 2), (-1, 1), (3, 4), (5, 6)),
     "StepLayout(L=(1, 0), W=(1, 2), A=(-1, 1), B=(3, 4), R=(5, 6))"),
    (Certificate, (7, "negative count bound", False, "short"),
     "Certificate(index=7, name='negative count bound', passed=False, "
     "detail='short')"),
    (StepOutcome, (_layout, (Certificate(1, "w", True),), 2, 3, 10),
     "StepOutcome(layout=StepLayout(L=(1, 0), W=(1, 2), A=(-1, 1), "
     "B=(3, 4), R=(5, 6)), certificates=(Certificate(index=1, name='w', "
     "passed=True, detail=''),), x_size=2, y_size=3, flip_count=10)"),
    (ConstructionFailure,
     ("balance gate", Fraction(3, 38), Fraction(4), "msg"),
     "ConstructionFailure(stage='balance gate', achieved=Fraction(3, 38), "
     "required=Fraction(4, 1), message='msg', table=None)"),
    (RecurrenceTable, tuple(getattr(_table, f) for f in _table._fields),
     "RecurrenceTable(t=0, T=1, d=9, k=1, n=1, alpha=(3, 38), "
     "beta=(Fraction(0, 1), Fraction(3, 1)), alpha_p=(11, 27), "
     "beta_p=(Fraction(3, 1), Fraction(27, 1)), shift_min=(0,), "
     "ratio=Fraction(3, 38), ratio_bounds=(Fraction(24, 313), "
     "Fraction(3, 38)), x_exact=30, y_exact=68, x_bound=7290, "
     "y_bound=7290, cells=139, p_values=(2,))"),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def _twin(value):
    """An object of another Value class with the same fields and values."""
    cls = type(value)
    twin_cls = type("Twin" + cls.__name__, (Value,),
                    {"__slots__": cls._fields})
    twin = object.__new__(twin_cls)
    for f in cls._fields:
        init_field(twin, f, getattr(value, f))
    return twin


def test_samples_cover_every_value_type():
    assert {cls for cls, _, _ in SAMPLES} == set(_value_types())


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_equal_fields_equal_values_equal_hashes(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    # every constructor parameter is the field of its name
    assert cls(**dict(zip(cls._fields, args))) == a
    assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_other_type_with_equal_fields_is_unequal(cls, args, text):
    a = cls(*args)
    twin = _twin(a)
    assert a != twin and twin != a
    assert a != tuple(getattr(a, f) for f in cls._fields)


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, text):
    a = cls(*args)
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(a, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == cls(*args)


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_format(cls, args, text):
    assert repr(cls(*args)) == text


REFUSALS = [
    (lambda: Flip(3, 2), r"flip interval \[3, 2\] is empty"),
    (lambda: Window(-1), "window parameter t must be >= 0"),
    (lambda: BlockSwap(1, 0, 1), "block swap sizes 0, 1 must both be >= 1"),
    (lambda: BlockSwap(1, 2, 0), "block swap sizes 2, 0 must both be >= 1"),
    (lambda: Block((1, 2, 1)), "block values must be pairwise distinct"),
    (lambda: CentredSequence(0, (1, 1)), "centred sequence must be injective"),
    (lambda: CentredSequence(0, ()), "centred sequence must be nonempty"),
    (lambda: PointSet([(0, 0), (0, Fraction(0))]),
     "points must be pairwise distinct"),
    (lambda: FlipStep([]), "a step needs at least one flip"),
    (lambda: FlipStep([Flip(3, 4), Flip(1, 3)]),
     r"flips \[1,3\] and \[3,4\] overlap"),
]


@pytest.mark.parametrize("make, message", REFUSALS)
def test_constructor_refusals(make, message):
    with pytest.raises(ContractError, match=message):
        make()


def test_gate_ok_stays_a_cached_property():
    table = plan_sizes(1, 81, 1, 1)
    assert isinstance(RecurrenceTable.__dict__["gate_ok"], cached_property)
    before = (repr(table), hash(table))
    assert "gate_ok" not in table.__dict__
    gate = table.balance_ratio_at_least(table.gate_threshold)
    assert table.gate_ok is gate is False
    assert table.__dict__ == {"gate_ok": gate}
    # the cache is not a field
    assert (repr(table), hash(table)) == before
    assert table == plan_sizes(1, 81, 1, 1)


def _classes():
    for info in pkgutil.iter_modules(allowseq.__path__):
        module = importlib.import_module(f"allowseq.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def _value_types():
    return [cls for cls in _classes() if issubclass(cls, Value)
            and cls is not Value]


def test_no_dataclass_but_search_result():
    # A dataclass generates and execs source code for each class at
    # import; a Value does not.  oracle.SearchResult stays a dataclass
    # because the benchmark's tests build variants of it with
    # dataclasses.replace.
    found = {cls.__qualname__ for cls in _classes()
             if dataclasses.is_dataclass(cls)}
    assert found == {"SearchResult"}
    assert len(_value_types()) == 22


def _writes_init(cls):
    """Whether the class's own source defines its __init__, as against
    one derived from its fields."""
    init = vars(cls).get("__init__")
    source = sys.modules[cls.__module__].__file__
    return init is not None and init.__code__.co_filename == source


def _refusing_type(make):
    """The type whose own __init__ raises when make runs."""
    with pytest.raises(ContractError) as info:
        make()
    return next(type(entry.locals["self"]) for entry in info.traceback
                if entry.name == "__init__")


def test_only_refusing_constructors_are_written():
    # A hand-written __init__ is kept only where it refuses some input,
    # and each one that does is covered by test_constructor_refusals.
    written = {cls for cls in _value_types() if _writes_init(cls)}
    assert written == {_refusing_type(make) for make, _ in REFUSALS}
    assert len(written) == 7


def test_derived_constructor_takes_one_parameter_per_field():
    # missing, extra, unknown and repeated arguments
    for make in (lambda: Define(0, 1), lambda: Define(0, 1, 2, 3),
                 lambda: Define(0, 1, top=2), lambda: Define(0, 1, 2, id=0)):
        with pytest.raises(TypeError):
            make()
    assert Define(hi=2, lo=1, id=0) == Define(0, 1, 2)
    # a declared default is taken when its argument is left out
    assert Trace(Window(0), CentredSequence(1, (1,)), ()).annotations == ()
    assert VerificationReport(True, True, True, 0, 0, 0).first_violation \
        is None
    assert Certificate(1, "w", True).detail == ""
    assert ConstructionFailure("s", 0, 1, "m").table is None
    assert BalanceReport(True, 1) == BalanceReport(True, 1, None, "", None)


def test_constructor_is_compiled_once():
    for cls, args, _ in SAMPLES:
        cls(*args)
        init = vars(cls)["__init__"]
        cls(*args)
        assert vars(cls)["__init__"] is init


def test_import_compiles_nothing():
    # In a fresh interpreter no plain record has a constructor, equality
    # or hash of its own until one of its values is built or compared.
    plain = [(cls.__module__, cls.__qualname__) for cls in _value_types()
             if not _writes_init(cls)]
    assert len(plain) == 15
    code = (
        "import importlib, sys\n"
        "import allowseq.cli\n"
        f"for module, name in {plain!r}:\n"
        "    cls = getattr(importlib.import_module(module), name)\n"
        "    found = {'__init__', '__eq__', '__hash__'} & set(vars(cls))\n"
        "    if found:\n"
        "        sys.exit(f'{name}: {sorted(found)}')\n")
    package_root = os.path.dirname(os.path.dirname(allowseq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
