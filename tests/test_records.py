"""Record classes: the constructor, equality, hash, repr and frozen
attributes that ``rxc.records.record`` generates, and an import of rxc
that leaves ``dataclasses`` unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rxc
from rxc.records import record


@record(hidden=("index",))
class Pair:
    left: int
    right: int = 0
    index: dict = None

    def __post_init__(self):
        if self.left < 0:
            raise ValueError("negative")


@record
class OtherPair:
    left: int
    right: int = 0


@record(frozen=False)
class Mutable:
    value: int


@record(eq=False, repr=False)
class Slotted:
    __slots__ = ("value",)
    value: int


def test_constructor_defaults_and_post_init():
    assert (Pair(1).left, Pair(1).right, Pair(1).index) == (1, 0, None)
    assert Pair(1, right=2).right == 2
    with pytest.raises(ValueError, match="negative"):
        Pair(-1)
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, 2, {}, 3)


def test_equality_hash_and_repr():
    assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2) != OtherPair(1, 2)  # same fields, other class
    assert hash(Pair(1, 2)) == hash((1, 2, None))
    assert repr(Pair(1, 2, {"k": 1})) == "Pair(left=1, right=2)"
    assert repr(Mutable(3)) == "Mutable(value=3)"
    with pytest.raises(TypeError):
        hash(Mutable(3))
    assert Slotted(1) != Slotted(1) and not hasattr(Slotted(1), "__dict__")


def test_frozen_fields():
    p = Pair(1)
    with pytest.raises(AttributeError, match="frozen Pair"):
        p.left = 2
    with pytest.raises(AttributeError):
        del p.left
    with pytest.raises(AttributeError):
        Slotted(1).value = 2
    m = Mutable(1)
    m.value = 2
    assert m == Mutable(2)


def test_importing_rxc_leaves_dataclasses_unloaded():
    # dataclasses imports inspect, ast, dis and tokenize: about 1 MB of
    # resident memory for every process that imports rxc.
    src = str(Path(rxc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, rxc, rxc.cli, rxc.reductions; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["[]"]
