"""The two artifact formats, written in one place.

CSV cells: floats in full-precision scientific notation (``FLOAT_FORMAT``,
which reads back bit for bit), ``None`` as an empty cell, bools as
``true``/``false`` and anything else through ``str``.  JSON is strict: every
non-finite float becomes ``null``, so any JSON parser accepts the output.
Dict keys are ``str``; any other key raises ``TypeError``.
:func:`json_text` writes it in one recursive pass, byte for byte what
``json.dumps(..., allow_nan=False)`` gives once the non-finite floats are
replaced by ``None``; it writes the JSON itself because the standard
library's C encoder serves only the compact layout, and the indented one
falls back to a much slower pure-Python encoder.  A list of dicts that
share one key order of str keys, as table rows and sweep points do, is
written from one ``%`` template per list, with the key text encoded once.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
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


def json_text(payload, indent: int | None = 2, sort_keys: bool = True) -> str:
    """Strict JSON of ``payload``, with every non-finite float written as null.

    Dicts with str keys, lists and tuples nest; the leaves are str (escaped
    to ASCII), int, bool, None and float (``float.__repr__``).  ``indent=None``
    gives the compact one-line layout.  Any other type or key raises ``TypeError``.
    """
    step = None if indent is None else " " * indent

    def key(k) -> str:
        if isinstance(k, str):
            return encode_basestring_ascii(k)
        raise TypeError(f"keys must be str, not {k.__class__.__name__}")

    def write(value, pad: str) -> str:
        if isinstance(value, float):
            return float.__repr__(value) if math.isfinite(value) else "null"
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        is_list = isinstance(value, (list, tuple))
        if not (is_list or isinstance(value, dict)):
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        if not value:
            return "[]" if is_list else "{}"
        inner = pad if step is None else pad + step
        sep = ", " if step is None else "," + inner
        if is_list:
            types = set(map(type, value))
            if types == {float}:
                # a flat run of floats in one join, as fast as the C encoder;
                # no finite repr holds an "n" or an "i", so "nan", "inf" and
                # "-inf" are whole cells
                body = sep.join(map(repr, value))
                if "n" in body:
                    body = body.replace("nan", "null")
                    if "i" in body:
                        body = body.replace("-inf", "null").replace("inf", "null")
            elif types == {dict}:
                body = records(value, inner, sep)
            else:
                body = sep.join([write(v, inner) for v in value])
            return f"[{inner}{body}{pad}]"
        items = sorted(value.items()) if sort_keys else value.items()
        body = sep.join([f"{key(k)}: {write(v, inner)}" for k, v in items])
        return f"{{{inner}{body}{pad}}}"

    def records(rows: list | tuple, pad: str, sep: str) -> str:
        """The dicts ``rows`` at ``pad``, joined by ``sep``.  Rows that share
        one key order of str keys fill one template, so each key is encoded
        once per list rather than once per row."""
        keys = list(rows[0])
        if not keys or not all(isinstance(k, str) for k in keys) or any(list(row) != keys for row in rows):
            return sep.join([write(row, pad) for row in rows])
        if sort_keys:
            keys.sort()
        inner = pad if step is None else pad + step
        fields = (", " if step is None else "," + inner).join(
            [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys])
        template = f"{{{inner}{fields}{pad}}}"
        return sep.join([template % tuple([write(row[k], inner) for k in keys]) for row in rows])

    return write(payload, "" if step is None else "\n")
