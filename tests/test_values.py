"""The package's value types: immutable, compared and hashed by value,
with a dataclass-style repr, and built at import without dataclass code
generation."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from ltlflearn.benchgen import TaskSpec
from ltlflearn.biteval import CharTable, CharVector, Layout
from ltlflearn.boolcover import BscInstance, NoSolution, Witness
from ltlflearn.enumeration import BankEntry
from ltlflearn.formulas import (
    And,
    Atom,
    Bottom,
    Finally,
    Globally,
    Not,
    OperatorSet,
    Or,
    Release,
    StrongNext,
    Top,
    Until,
    WeakNext,
)
from ltlflearn.traces import Alphabet, Sample, Task, Trace

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

LAYOUT = Layout([2, 2], 1)  # compares by identity, so the twins share it


def sample():
    return Sample(Alphabet(("a", "b")), (Trace((1, 0)),), (Trace((0, 3)),))


# One instance of each value type, built afresh by each call, and a
# field that assignment must not change.
VALUES = {
    "Atom": (lambda: Atom(0), "prop"),
    "Top": (lambda: Top(), "size"),
    "Bottom": (lambda: Bottom(), "size"),
    "Not": (lambda: Not(Atom(0)), "arg"),
    "StrongNext": (lambda: StrongNext(Atom(1)), "arg"),
    "WeakNext": (lambda: WeakNext(Top()), "arg"),
    "Finally": (lambda: Finally(Not(Atom(0))), "arg"),
    "Globally": (lambda: Globally(Bottom()), "arg"),
    "And": (lambda: And(Atom(0), Atom(1)), "left"),
    "Or": (lambda: Or(Atom(0), Finally(Atom(1))), "right"),
    "Until": (lambda: Until(Top(), Atom(1)), "left"),
    "Release": (lambda: Release(Atom(1), Atom(0)), "right"),
    "OperatorSet": (lambda: OperatorSet(("G", "F"), ("|",)), "unary"),
    "Alphabet": (lambda: Alphabet(("a", "b")), "props"),
    "Trace": (lambda: Trace((1, 0)), "letters"),
    "Sample": (sample, "positives"),
    "Task": (lambda: Task(sample(), ("F", "&")), "op_names"),
    "BscInstance": (lambda: BscInstance(1, 2, ((3, 1, (3, Atom(0), None, None)),)), "pos_mask"),
    "Witness": (lambda: Witness(0, 1), "neg_index"),
    "NoSolution": (lambda: NoSolution(Witness(2, 0)), "witness"),
    "BankEntry": (lambda: BankEntry(Finally(Atom(0)), 0b1010), "bits"),
    "CharTable": (lambda: CharTable(LAYOUT, 0b1010), "bits"),
    "CharVector": (lambda: CharVector(2, 0b01), "bits"),
}


def comparable(value):
    """The value itself, but a CharTable's layout as the numbers that fix
    it, as a copied Layout is another object."""
    if isinstance(value, CharTable):
        return value.layout.lengths, value.layout.pos_first, value.bits
    return value


@pytest.mark.parametrize("name", sorted(VALUES))
def test_a_twin_is_equal_and_hashes_equal(name):
    make, _ = VALUES[name]
    value, twin = make(), make()
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)


def test_unary_nodes_over_one_argument_differ_by_class():
    a = Atom(0)
    assert Not(a) != Finally(a)
    assert And(a, a) != Or(a, a)


@pytest.mark.parametrize("value,text", [
    (Not(Atom(0)), "Not(arg=Atom(prop=0))"),
    (Trace((1, 0)), "Trace(letters=(1, 0))"),
    (Witness(0, 1), "Witness(pos_index=0, neg_index=1)"),
    (Top(), "Top()"),
    (Until(Atom(1), Bottom()), "Until(left=Atom(prop=1), right=Bottom())"),
    (OperatorSet(("F",), ()), "OperatorSet(unary=('F',), binary=())"),
])
def test_repr_names_the_fields(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("name", sorted(VALUES))
def test_assigning_a_field_raises(name):
    make, field = VALUES[name]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", sorted(VALUES))
def test_pickle_and_deepcopy_give_an_equal_value(name):
    make, _ = VALUES[name]
    value = make()
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(restored) is type(value)
        assert comparable(restored) == comparable(value)
        assert hash(comparable(restored)) == hash(comparable(value))


def test_a_task_spec_is_a_value_that_holds_a_dict():
    def make():
        return TaskSpec("subset", 3, seed=2, params={"subset": [0, 1]})

    spec = make()
    assert spec == make() and spec != TaskSpec("subset", 3, seed=3, params={"subset": [0, 1]})
    assert repr(spec) == ("TaskSpec(family='subset', n_props=3, trace_len=16, n_pos=5, "
                          "n_neg=5, seed=2, params={'subset': [0, 1]})")
    default, other = TaskSpec("subset", 3), TaskSpec("subset", 3)
    assert default.params == {} and default.params is not other.params
    with pytest.raises(TypeError, match="unhashable"):  # its params are a dict
        hash(spec)
    with pytest.raises(AttributeError):
        spec.seed = 3
    for restored in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert type(restored) is TaskSpec and restored == spec


def test_the_package_generates_dataclasses_only_for_the_config_and_result_types():
    # A fresh interpreter, so the import builds every class.
    code = (
        "import sys, ltlflearn\n"
        "print(sorted(f'{name}.{obj.__name__}' for name, module in list(sys.modules.items())\n"
        "             if name.startswith('ltlflearn') for obj in vars(module).values()\n"
        "             if isinstance(obj, type) and obj.__module__ == name\n"
        "             and '__dataclass_fields__' in vars(obj)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert run.stdout.strip() == str([
        "ltlflearn.pipeline.LearnResult",
        "ltlflearn.pipeline.LearnerConfig",
    ])
