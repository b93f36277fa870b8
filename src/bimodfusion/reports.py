"""Rendering result dictionaries as stable JSON or as aligned text.

The JSON form is reproducible byte for byte: keys are emitted sorted,
numpy scalars and arrays are converted to plain Python values first, and
complex numbers become two-element ``[re, im]`` lists (JSON has no complex
type).  A float that is not finite, a complex part among them, becomes
one of the strings ``"Infinity"``, ``"-Infinity"`` and ``"NaN"``, since
JSON has no such numbers either.  The table form is for reading, not
parsing; it makes no stability promise beyond determinism.
"""
from __future__ import annotations

import json
import math

import numpy as np


def _number(value) -> float | str:
    """``value`` as a float, or as its name when it is not finite."""
    x = float(value)
    if math.isfinite(x):
        return x
    return "NaN" if math.isnan(x) else "Infinity" if x > 0 else "-Infinity"


def plain(value):
    """Recursively convert a result value into JSON-encodable Python data."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _number(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [_number(value.real), _number(value.imag)]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize a {type(value).__name__} into a report")


def to_json(doc: dict) -> str:
    return json.dumps(plain(doc), sort_keys=True, indent=1, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _listify(value):
    if isinstance(value, np.ndarray):
        return _listify(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (str, bool, int, float, complex))


def _fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, complex):
        return f"{value.real:.6g}{value.imag:+.6g}j"
    return str(value)


def _grid(rows: list, pad: str) -> list:
    cells = [[_fmt(v) for v in row] for row in rows]
    ncol = max(len(row) for row in cells)
    widths = [
        max(len(row[c]) for row in cells if c < len(row)) for c in range(ncol)
    ]
    return [
        pad + "  ".join(s.rjust(w) for s, w in zip(row, widths))
        for row in cells
    ]


def _render(value, indent: int) -> list:
    pad = " " * (2 * indent)
    if isinstance(value, dict):
        out = []
        for key, val in value.items():
            if _is_scalar(val):
                out.append(f"{pad}{key}: {_fmt(val)}")
            else:
                out.append(f"{pad}{key}:")
                out.extend(_render(val, indent + 1))
        return out
    if isinstance(value, list):
        if not value:
            return [pad + "[]"]
        if all(_is_scalar(v) for v in value):
            return [pad + "[" + ", ".join(_fmt(v) for v in value) + "]"]
        if all(
            isinstance(row, list) and row and all(_is_scalar(v) for v in row)
            for row in value
        ):
            return _grid(value, pad)
        out = []
        for t, item in enumerate(value):
            out.append(f"{pad}[{t}]")
            out.extend(_render(item, indent + 1))
        return out
    return [pad + _fmt(value)]


def render_table(doc: dict) -> str:
    return "\n".join(_render(_listify(doc), 0)) + "\n"
