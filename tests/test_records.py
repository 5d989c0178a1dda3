"""spw's plain record classes against the `@dataclass` and `NamedTuple`
definitions they replaced (`helpers.ORACLE_RECORDS`), and an import of spw
that loads no code generator."""

import dataclasses
import importlib
import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import spw
from helpers import ORACLE_RECORDS, OraclePolyvec
from spw.errors import BidegreeError
from spw.polyvec import MaurerCartanTower

SRC = os.path.dirname(os.path.dirname(os.path.abspath(spw.__file__)))


def fields_of(oracle):
    """[(name, default or MISSING, default factory or None, compared)]."""
    if dataclasses.is_dataclass(oracle):
        return [
            (f.name, f.default, None if f.default_factory is dataclasses.MISSING else f.default_factory, f.compare)
            for f in dataclasses.fields(oracle)
        ]
    defaults = oracle._field_defaults
    return [(name, defaults.get(name, dataclasses.MISSING), None, True) for name in oracle._fields]


class Component:
    """Stands in for an Elem p_i of a Maurer-Cartan tower: zero, or of a
    weight and a degree."""

    def __init__(self, weight=None, degree=None):
        self.weight_, self.degree_ = weight, degree

    def is_zero(self):
        return self.weight_ is None

    def weight(self):
        return self.weight_

    def degree(self):
        return self.degree_

    def __repr__(self):
        return f"Component({self.weight_}, {self.degree_})"


def random_value(rng, hashable):
    kind = rng.randrange(7 if hashable else 9)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return F(rng.randint(-3, 3), rng.randint(1, 3))
    if kind == 2:
        return rng.choice(["x", "dy", "", "p'q"])
    if kind == 3:
        return tuple(rng.randint(0, 2) for _ in range(rng.randrange(3)))
    if kind == 4:
        return rng.choice([None, True, False])
    if kind == 5:
        return (rng.choice("ab"), F(rng.randint(0, 2), 2))
    if kind == 6:
        return rng.choice([len, abs])
    if kind == 7:
        return [rng.randint(0, 2) for _ in range(rng.randrange(3))]
    return {rng.randint(0, 2): rng.choice("xy") for _ in range(rng.randrange(3))}


def random_values(rng, oracle, hashable):
    """{field: value} for every field of the oracle."""
    values = {name: random_value(rng, hashable) for name, *_ in fields_of(oracle)}
    if oracle.__name__ == "MaurerCartanTower":
        n = values["n"] = rng.randint(-1, 2)
        values["components"] = [
            rng.choice([Component(), Component(i + 2, n + 2), Component(i + 2, n + 2), Component(i + 3, n + 2)])
            for i in range(rng.randrange(4))
        ]
        values["bound"] = rng.choice([None, rng.randint(0, 4)])
    return values


def build(cls, values, omit, rng):
    """cls from values: the fields in `omit` left out, each field given
    positionally while no field before it was left out or given by keyword."""
    args, kwargs = [], {}
    for name, value in values.items():
        if name in omit:
            continue
        if not kwargs and len(args) == list(values).index(name) and rng.random() < 0.6:
            args.append(value)
        else:
            kwargs[name] = value
    return cls(*args, **kwargs)


def built(cls, values, omit, seed):
    """(instance, None) or (None, the message of the BidegreeError raised)."""
    try:
        return build(cls, values, omit, random.Random(seed)), None
    except BidegreeError as exc:
        return None, str(exc)


@pytest.mark.parametrize(
    "module, oracle", ORACLE_RECORDS, ids=[f"{m}.{o.__name__}" for m, o in ORACLE_RECORDS]
)
def test_record_class_behaves_as_its_oracle(module, oracle):
    cls = getattr(importlib.import_module(f"spw.{module}"), oracle.__name__)
    fields = fields_of(oracle)
    names = [name for name, *_ in fields]
    compared = {name: compare for name, *_, compare in fields}
    frozen = oracle.__hash__ is not None

    # the signature: order, kinds and defaults; a default factory is None
    want = [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
             inspect.Parameter.empty if default is dataclasses.MISSING and factory is None
             else None if factory else default)
            for name, default, factory, _ in fields]
    assert [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()] == want
    assert frozen == (cls.__hash__ is not None)
    # slots only, but for the report whose bracket_table is cached in __dict__
    assert (cls.__dictoffset__ != 0) == (oracle.__name__ == "StrictPoissonReport")

    rng = random.Random(f"records {module}.{oracle.__name__}")
    optional = [name for name, default, factory, _ in fields
                if default is not dataclasses.MISSING or factory]
    outcomes = set()
    for _ in range(40):
        values = random_values(rng, oracle, frozen)
        omit = {name for name in optional if rng.random() < 0.5}
        seed = rng.random()
        new, new_error = built(cls, values, omit, seed)
        old, old_error = built(oracle, values, omit, seed)
        assert new_error == old_error
        if old_error:
            outcomes.add("raises")
            continue
        # defaults, and a fresh default list or dict per instance
        assert [getattr(new, name) for name in names] == [getattr(old, name) for name in names]
        for name, _, factory, _ in fields:
            if factory and name in omit:
                for kind, first in ((cls, new), (oracle, old)):
                    again = build(kind, values, omit, random.Random(seed))
                    assert getattr(first, name) == factory() and getattr(first, name) is not getattr(again, name)
        assert repr(new) == repr(old)
        if frozen:
            assert hash(new) == hash(old)
        else:
            with pytest.raises(TypeError):
                hash(new)

        # == and != against a copy with one field changed
        changed = dict(values)
        name = rng.choice(names)
        changed[name] = random_values(rng, oracle, frozen)[name] if rng.random() < 0.8 else values[name]
        new2, new2_error = built(cls, changed, omit - {name}, seed)
        old2, old2_error = built(oracle, changed, omit - {name}, seed)
        assert new2_error == old2_error
        if old2_error:
            continue
        assert (new == new2, new != new2, new2 == new) == (old == old2, old != old2, old2 == old)
        assert (new == old, new != old) == (False, True)
        if dataclasses.is_dataclass(oracle):  # a NamedTuple equals any tuple of its values
            sub_new = build(type("Sub", (cls,), {"__slots__": ()}), values, omit, random.Random(seed))
            sub_old = build(type("Sub", (oracle,), {}), values, omit, random.Random(seed))
            assert (new == sub_new, sub_new == new) == (old == sub_old, sub_old == old) == (False, False)
        outcomes.add((old == old2, compared[name]))
    # each class met equal and unequal copies, and a field that is not
    # compared left its copy equal
    assert {(True, True), (False, True)} <= outcomes
    if not all(compared.values()):
        assert (True, False) in outcomes
    if oracle.__name__ == "MaurerCartanTower":
        assert "raises" in outcomes


def test_maurer_cartan_tower_bound_and_bidegree_error_match_the_oracle():
    good = [Component(2, 3), Component(), Component(4, 3)]
    for cls in (MaurerCartanTower, OraclePolyvec.MaurerCartanTower):
        assert cls("pol", 1, good).bound == 4
        assert cls("pol", 1, good, 0).bound == 0
        assert cls("pol", 1, []).bound == 1
        with pytest.raises(BidegreeError, match=r"^p_1 must have weight 3 and degree 3$"):
            cls("pol", 1, [Component(2, 3), Component(3, 2)])


def test_importing_spw_loads_no_code_generator():
    """A fresh interpreter imports every spw module; dataclasses, inspect
    and typing stay out of sys.modules unless they were there before."""
    modules = sorted(f"spw.{name[:-3]}" for name in os.listdir(os.path.join(SRC, "spw")) if name.endswith(".py"))
    child = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", child, *modules], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert set(modules) <= added
    assert not added & {"dataclasses", "inspect", "typing"}
