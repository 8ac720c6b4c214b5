"""The API reads every count and index by one rule, ``errors.as_int``:
``operator.index``, so a numpy integer is taken, and a bool refused.
A float, an integral float, a bool or a string is a ValueError (a
StructureError for a protocol tree's dimensions), never a wrong answer
or a TypeError from deep inside."""

import re

import numpy as np
import pytest

from cclab import (Leaf, ProtocolTree, Rectangle, SearchLimits, StructureError,
                   build_protocol, enumerate_maximal_mono, evaluate,
                   extract_rectangle, make_family, xor_power)

TAKEN = np.int64(3)
VALUES = pytest.mark.parametrize("value", [2.5, 3.0, True, "3", TAKEN],
                                 ids=repr)


def _reads_as_three(call, value, error=ValueError):
    """call(value) equals call(3) for the numpy integer, and raises
    error, saying the value is not an integer, for the others."""
    if value is TAKEN:
        assert call(value) == call(3)
        return
    with pytest.raises(error, match=re.escape(
            f"must be an integer, got {value!r}")):
        call(value)


@VALUES
def test_family_size_is_an_integer(value):
    _reads_as_three(lambda m: (make_family("eq", m).label,
                               make_family("eq", m).sign.tolist()), value)


@VALUES
def test_lift_order_is_an_integer(value):
    # xor_power and extract_rectangle both check the order by check_lift.
    eq2 = make_family("eq", 2)
    _reads_as_three(lambda n: (xor_power(eq2, n).label,
                               xor_power(eq2, n).sign.tolist()), value)
    big = Rectangle((0,), (0,))
    _reads_as_three(lambda n: extract_rectangle(eq2, n, big), value)


@VALUES
def test_build_order_is_an_integer(value):
    eq8 = make_family("eq", 8)
    _reads_as_three(lambda n: build_protocol(eq8, n), value)


@VALUES
def test_enumeration_budget_is_an_integer(value):
    eq4 = make_family("eq", 4)
    _reads_as_three(lambda b: enumerate_maximal_mono(eq4, budget=b), value)


@VALUES
def test_evaluated_input_is_an_integer(value):
    tree = build_protocol(make_family("eq", 4), 1)[0]
    _reads_as_three(lambda x: evaluate(tree, x, 0), value)
    _reads_as_three(lambda y: evaluate(tree, 0, y), value)


@VALUES
def test_protocol_tree_dimensions_are_integers(value):
    def dims(k):
        rows = ProtocolTree(Leaf(0), k, 2)
        cols = ProtocolTree(Leaf(0), 2, k)
        return (rows, type(rows.n_rows), cols, type(cols.n_cols))

    _reads_as_three(dims, value, StructureError)


@VALUES
def test_search_limits_are_integers(value):
    for field in ("node_budget", "time_budget_ms", "rect_budget"):
        _reads_as_three(lambda v: SearchLimits(**{field: v}), value)
