"""Transcript event coercion: each value type's JSON form and its exact type."""

import numpy as np
import pytest

from sqpbs.bits import Bits
from sqpbs.statevec import Basis, BellState
from sqpbs.transcript import Transcript, _jsonify


def assert_same_types(a, b):
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same_types(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_types(x, y)


@pytest.mark.parametrize(
    "value, expected",
    [
        ("text", "text"),
        (3, 3),
        (2.5, 2.5),
        (True, True),
        (False, False),
        (None, None),
        (Bits("0110"), "0110"),
        (Bits(), ""),
        (Basis.X, "X"),
        (BellState.PSI_MINUS, "psi-"),
        (np.int64(-7), -7),
        (np.float64(0.25), 0.25),
        (complex(1, -2), [1.0, -2.0]),
        ((1, "a", None), [1, "a", None]),
        ([np.int64(1), [Bits("1")]], [1, ["1"]]),
        ({"b": (np.float64(1.5), Basis.Z), 2: {"c": Bits("10")}}, {"b": [1.5, "Z"], "2": {"c": "10"}}),
    ],
    ids=[
        "str", "int", "float", "true", "false", "none", "bits", "empty-bits", "basis", "bell-state",
        "np-int64", "np-float64", "complex", "tuple", "nested-list", "nested-dict",
    ],
)
def test_jsonify_value_and_type(value, expected):
    out = _jsonify(value)
    assert out == expected
    assert_same_types(out, expected)
    event = Transcript(meta={}).add("probe", value=value)
    assert event["value"] == expected
    assert_same_types(event["value"], expected)


@pytest.mark.parametrize("value", [object(), np.bool_(True), {"nested": object()}, [np.bool_(False)]])
def test_add_rejects_unknown_types(value):
    transcript = Transcript(meta={})
    with pytest.raises(TypeError):
        transcript.add("oops", value=value)
    assert transcript.events == []
