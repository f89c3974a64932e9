"""The one path from a result to strict JSON values."""

from __future__ import annotations

import math
import sys
from dataclasses import fields, is_dataclass


def json_value(value):
    """`value` as plain JSON values: a result dataclass becomes a dict by its
    fields, dicts, lists, tuples and arrays keep their shape, numpy scalars
    become Python numbers, and a non-finite float becomes None (JSON null)."""
    if is_dataclass(value):
        return {f.name: json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    # a numpy value exists only once numpy is imported, so a process that has
    # not imported it (`calabiflow sobolev-bound`) never imports it here
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
