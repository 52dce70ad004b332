"""Config field tables and resource limits: every field of a JSON config
read, defaulted and refused in one place, and every oversized request
refused in one wording.

A table maps each field of a JSON object to ``(reader, default)``.  A reader
is called as ``reader(value, path)`` with the field's path
(``set.parts[0].offset``) and returns the parsed value; readers of nested
objects call ``read`` in turn.  A default is a JSON value, read by the same
reader when the field is absent.  ``REQUIRED`` refuses an absent field, and
``None`` leaves an absent or null field None.  ``read`` also refuses a
non-object and an unknown field, so every refusal is one line naming its field.

``admit`` refuses a count over its limit with a ``LimitError``, a
``ValueError`` of one line ``<what> = <count>, over the limit of <limit>``
that the CLI prints as ``limit: ...``.  ``product`` multiplies a count out
no further than 10^18 and ``digits`` counts an integer's digits without
printing it, so no refusal forms or prints a huge integer.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from typing import Optional

#: the default of a field that must be given
REQUIRED = object()

#: most decimal digits of an integer a report prints, Python's default limit
#: for converting an int to text: a longer one is refused by the field that
#: asks for it, before it is built
DIGIT_LIMIT = 4300

#: a count is carried no further than this, and printed as "more than 10^18" past it
_CAP = 10**18


class ConfigError(ValueError):
    """A config refused with a one-line reason."""


class LimitError(ValueError):
    """A request refused for its size, naming what it counts and the limit."""


def product(factors) -> int:
    """The product of nonnegative integer factors, capped just past 10^18."""
    count = 1
    for n in factors:
        count = min(count * n, _CAP + 1)
    return count


def admit(count: int, limit: int, what: str) -> int:
    """count, or a ``LimitError`` naming what it counts when it is over limit."""
    if count > limit:
        raise LimitError(f"{what} = {count if count <= _CAP else 'more than 10^18'}, over the limit of {limit}")
    return count


def digits(n: int) -> int:
    """The decimal digits of a positive integer, counted without converting it to text."""
    k = int(n.bit_length() * 0.30102999566398120)  # log10(2): 10^(k-1) <= n < 10^(k+1)
    return k + (n >= 10**k)


def _json_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object, got {json.dumps(value)}")
    return value


def read(obj, table: dict, path: str = "") -> dict:
    """The fields of the JSON object obj, each read by its table entry."""
    for name in _json_object(obj, path):
        if name not in table:
            raise ConfigError(f"unknown field {f'{path}.{name}' if path else name!r}")
    out = {}
    for name, (reader, default) in table.items():
        at = f"{path}.{name}" if path else name
        value = obj[name] if name in obj else default
        if value is REQUIRED:
            raise ConfigError(f"config is missing required field {at!r}")
        out[name] = None if value is None and default is None else reader(value, at)
    return out


def read_kind(obj, tables: dict, path: str) -> dict:
    """``read`` against the table of obj's ``kind``, one of the keys of tables."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if isinstance(obj, dict) and (not isinstance(kind, str) or kind not in tables):
        raise ConfigError(f"{path}.kind must be one of {', '.join(map(repr, tables))}, got {json.dumps(kind)}")
    return read(obj, {"kind": (raw, REQUIRED), **tables.get(kind, {})}, path)


# ---------------------------------------------------------------------------
# readers


def raw(value, path: str):
    """The JSON value itself."""
    return value


def integer(value, path: str) -> int:
    """A JSON integer, an integral number or a decimal string; a bool is
    refused, naming the field's last key."""
    if type(value) is int:
        return value
    try:
        if type(value) is str or type(value) is float and value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise ConfigError(f"{path.rsplit('.', 1)[-1].split('[', 1)[0]} entry {json.dumps(value)} is not an integer")


def at_most(limit: int):
    """A reader of integers up to limit, refused above it before any use."""

    def read_bounded(value, path: str) -> int:
        return admit(integer(value, path), limit, path.rsplit(".", 1)[-1])

    read_bounded.__name__ = f"integer at most {limit}"
    return read_bounded


def array(item, depth: int = 1, label: Optional[str] = None):
    """A reader of JSON arrays nested depth deep whose innermost entries item
    reads; label names those entries in refusals (by default, the field)."""

    def read_array(value, path: str) -> list:
        return _entries(value, path, item, depth, label)

    read_array.__name__ = "array of " * depth + item.__name__
    return read_array


def _entries(value, path: str, item, depth: int, label: Optional[str]) -> list:
    if type(value) is not list:
        raise ConfigError(f"{path} must be a JSON array, got {json.dumps(value)}")
    if item is integer:
        # an all-integer array is checked level by level in C and kept as it is
        flat = value
        for _ in range(depth - 1):
            if set(map(type, flat)) - {list}:
                break
            flat = list(chain.from_iterable(flat))
        else:
            if not set(map(type, flat)) - {int}:
                return value
    if depth > 1:
        return [_entries(v, f"{path}[{i}]", item, depth - 1, label) for i, v in enumerate(value)]
    return [item(v, label or f"{path}[{i}]") for i, v in enumerate(value)]


def mapping(item):
    """A reader of JSON objects from free names to what item reads."""

    def read_mapping(value, path: str) -> dict:
        return {name: item(v, f"{path}.{name}") for name, v in _json_object(value, path).items()}

    read_mapping.__name__ = f"object of {item.__name__}"
    return read_mapping


def parse_fraction(value) -> Fraction:
    """An exact rational, written as "3/4", an integer or
    {"num": "...", "den": "..."}; a boolean is refused like an integer."""
    try:
        if isinstance(value, dict):
            return Fraction(integer(value["num"], "num"), integer(value["den"], "den"))
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {value!r}") from None
    raise ValueError(f"cannot parse rational from {value!r}")


def rational(value, path: str) -> Fraction:
    """An exact rational, as ``parse_fraction`` reads it."""
    return parse_fraction(value)
