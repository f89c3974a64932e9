import math
from dataclasses import dataclass

import numpy as np

from calabiflow._serialize import json_value


@dataclass
class Holder:
    values: np.ndarray
    label: str


def _exact(value):
    """value with each leaf tagged by its type, so that 1 == 1.0 == True and
    np.float64(1.5) == 1.5 do not pass for one another."""
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return (type(value), value)


def test_json_value_turns_arrays_into_nested_lists_with_null_for_non_finite():
    arr = np.array([[1.5, np.nan], [np.inf, -np.inf]])
    assert _exact(json_value(arr)) == _exact([[1.5, None], [None, None]])


def test_json_value_turns_numpy_scalars_into_python_values():
    assert _exact([json_value(np.float64(1.5)), json_value(np.int64(7)),
                   json_value(np.bool_(True))]) == _exact([1.5, 7, True])
    # a float64 NaN is also a Python float; either way it is null
    assert isinstance(np.float64(math.nan), float)
    assert json_value(np.float64(math.nan)) is None


def test_json_value_keeps_the_shape_of_containers_and_dataclasses():
    assert _exact(json_value((1, (2.0, math.inf), [np.float32(0.5)]))) == _exact(
        [1, [2.0, None], [0.5]])
    assert _exact(json_value({"k": np.array(3), "h": Holder(np.arange(3.0), "a")})) == _exact(
        {"k": 3, "h": {"values": [0.0, 1.0, 2.0], "label": "a"}})
