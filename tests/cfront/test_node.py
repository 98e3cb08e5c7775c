"""The AST and IR node classes keep the contract their dataclasses had.

They are plain ``__slots__`` classes on :mod:`repro.cfront.node` now
(cheap to define at start-up); callers still rely on the constructor
signatures and defaults, field-wise ``==``/``hash``, immutability of the
frozen nodes, the dataclass-style ``repr``, and pickling.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.cfront import ast, ir
from repro.cfront.node import FrozenNode, Node
from repro.source import DUMMY_SPAN, Span

NODES = [
    cls
    for module in (ast, ir)
    for cls in vars(module).values()
    if isinstance(cls, type)
    and issubclass(cls, Node)
    and cls.__module__ == module.__name__
]
FROZEN = [cls for cls in NODES if issubclass(cls, FrozenNode)]
MUTABLE = [cls for cls in NODES if not issubclass(cls, FrozenNode)]
ids = [cls.__qualname__ for cls in NODES]


def arguments(cls) -> dict:
    """A distinct placeholder for every required field."""
    return {
        name: f"<{name}>"
        for name, param in inspect.signature(cls).parameters.items()
        if param.default is inspect.Parameter.empty
    }


def test_every_node_class_is_covered():
    # 33 in ast.py and 25 in ir.py; frozen exactly where the dataclasses were
    assert (len(FROZEN), len(MUTABLE)) == (38, 20)
    assert not any(dataclasses.is_dataclass(cls) for cls in NODES)


@pytest.mark.parametrize("cls", NODES, ids=ids)
def test_fields_are_the_slots_in_constructor_order(cls):
    assert tuple(inspect.signature(cls).parameters) == cls.__slots__
    node = cls(**arguments(cls))
    assert not hasattr(node, "__dict__")
    if "span" in cls.__slots__:
        assert node.span is DUMMY_SPAN


@pytest.mark.parametrize("cls", NODES, ids=ids)
def test_equality_is_field_wise(cls):
    args = arguments(cls)
    node = cls(**args)
    assert node == cls(**args)
    if "span" in cls.__slots__:
        other = Span("other.c", DUMMY_SPAN.start, DUMMY_SPAN.end)
        assert node != cls(**args, span=other)
    for name in args:
        assert node != cls(**{**args, name: "changed"})
    assert node != object()


@pytest.mark.parametrize("cls", FROZEN, ids=[c.__qualname__ for c in FROZEN])
def test_frozen_nodes_are_immutable_and_hashable(cls):
    node = cls(**arguments(cls))
    assert hash(node) == hash(cls(**arguments(cls)))
    assert len({node, cls(**arguments(cls))}) == 1
    field = cls.__slots__[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, field, "changed")
    with pytest.raises(AttributeError):
        delattr(node, field)


@pytest.mark.parametrize("cls", MUTABLE, ids=[c.__qualname__ for c in MUTABLE])
def test_mutable_nodes_assign_and_are_unhashable(cls):
    node = cls(**arguments(cls))
    setattr(node, cls.__slots__[0], "changed")
    assert getattr(node, cls.__slots__[0]) == "changed"
    with pytest.raises(TypeError):
        hash(node)


def test_list_defaults_are_fresh_per_instance():
    assert ast.Block().items is not ast.Block().items
    assert ast.TranslationUnit().functions == []
    fn = ir.FunctionIR("f", [], "long")
    assert (fn.decls, fn.body, fn.labels) == ([], [], {})
    assert fn.body is not ir.FunctionIR("g", [], "long").body


@pytest.mark.parametrize("cls", NODES, ids=ids)
def test_repr_names_every_field(cls):
    node = cls(**arguments(cls))
    fields = ", ".join(f"{n}={getattr(node, n)!r}" for n in cls.__slots__)
    assert repr(node) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", NODES, ids=ids)
def test_pickle_and_copy_round_trip(cls):
    node = cls(**arguments(cls))
    for clone in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
        assert type(clone) is cls
        assert clone == node


def test_positional_construction_matches_keywords():
    span = Span("unit.c", DUMMY_SPAN.start, DUMMY_SPAN.end)
    assert ir.AOp("+", ir.VarExp("x"), ir.IntLit(1), span) == ir.AOp(
        op="+", left=ir.VarExp("x"), right=ir.IntLit(1), span=span
    )
    assert str(ir.AOp("+", ir.VarExp("x"), ir.IntLit(1))) == "(x + 1)"
