"""The two artifact formats, written in one place.

CSV cells: floats in full-precision scientific notation (``FLOAT_FORMAT``,
which reads back bit for bit), ``None`` as an empty cell, bools as
``true``/``false`` and anything else through ``str``.  JSON is strict: every
non-finite float becomes ``null``, so any JSON parser accepts the output.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

__all__ = ["FLOAT_FORMAT", "csv_text", "json_text"]

FLOAT_FORMAT = "%.16e"


def _cell(value) -> str:
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with one header line and one line per row of cells."""
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _finite_or_none(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def json_text(payload, indent: int | None = 2, sort_keys: bool = True) -> str:
    """Strict JSON of ``payload``, with every non-finite float written as null."""
    return json.dumps(_finite_or_none(payload), indent=indent, sort_keys=sort_keys, allow_nan=False)
