"""The one path from a result to strict JSON values."""

from __future__ import annotations

import math
import sys


def json_value(value):
    """`value` as plain JSON values: a result dataclass or named tuple becomes
    a dict by its fields, dicts, lists, tuples and arrays keep their shape,
    numpy scalars become Python numbers, and a non-finite float becomes None
    (JSON null).

    `dataclasses` and numpy are read through `sys.modules`: a dataclass or a
    numpy value exists only once its module is imported, so a process that
    has imported neither (`calabiflow sobolev-bound`) never imports them here.
    """
    dataclasses = sys.modules.get("dataclasses")
    if dataclasses is not None and dataclasses.is_dataclass(value):
        return {f.name: json_value(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
