"""Config field tables and resource limits: every field of a JSON config
read, defaulted and refused in one place, and every oversized request
refused in one wording.

A table maps each field of a JSON object to ``(reader, default)``.  A reader
is called as ``reader(value, path, scope)`` with the field's path
(``set.parts[0].offset``) and the fields read before it, in its table and the
enclosing ones, and returns the parsed value; readers of nested objects call
``read`` in turn.  A default is a JSON value, read by the same reader when the
field is absent.  ``REQUIRED`` refuses an absent field, and ``None`` leaves an
absent or null field None.  ``read`` also refuses a non-object and an unknown
field, and ``array`` another shape, so every refusal is one line naming its field.

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
from typing import Callable, Mapping, NamedTuple, Optional

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


def quote(value, text: Callable = json.dumps) -> str:
    """value as a refusal quotes it: its JSON text (or text(value)), cut after 60 characters."""
    shown = text(value)
    return shown if len(shown) <= 60 else shown[:60] + "..."


def json_object(value, path: str) -> dict:
    """value, refused unless it is a JSON object, naming it by path."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object, got {quote(value)}")
    return value


def read(obj, table: dict, path: str = "", scope: Optional[Mapping] = None) -> dict:
    """The fields of the JSON object obj, each read by its table entry; scope: those of the tables enclosing it."""
    for name in json_object(obj, path):
        if name not in table:
            raise ConfigError(f"unknown field {quote(f'{path}.{name}' if path else name, repr)}")
    out = {}
    for name, (reader, default) in table.items():
        at = f"{path}.{name}" if path else name
        value = obj[name] if name in obj else default
        if value is REQUIRED:
            raise ConfigError(f"config is missing required field {at!r}")
        out[name] = None if value is None and default is None else reader(value, at, {**(scope or {}), **out})
    return out


def read_kind(obj, tables: dict, path: str, scope: Optional[Mapping] = None) -> dict:
    """``read`` against the table of obj's ``kind``, one of the keys of tables."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if isinstance(obj, dict) and (not isinstance(kind, str) or kind not in tables):
        raise ConfigError(f"{path}.kind must be one of {', '.join(map(repr, tables))}, got {quote(kind)}")
    return read(obj, {"kind": (raw, REQUIRED), **tables.get(kind, {})}, path, scope)


def exclusive(fields: dict, name: str, others, prefix: str = "") -> None:
    """Refuse the field name given together with any of others, naming both."""
    clash = next((other for other in others if fields[other] is not None), None)
    if fields[name] is not None and clash:
        raise ConfigError(f"{prefix}{name} and {prefix}{clash} exclude each other")


# ---------------------------------------------------------------------------
# readers


def raw(value, path: str, scope):
    """The JSON value itself."""
    return value


def integer(value, path: str, scope=None) -> int:
    """A JSON integer, an integral number or a decimal string; a bool is
    refused, naming the field's last key."""
    if type(value) is int:
        return value
    try:
        if type(value) is str or type(value) is float and value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise ConfigError(f"{path.rsplit('.', 1)[-1].split('[', 1)[0]} entry {quote(value)} is not an integer")


def at_most(limit: int):
    """A reader of integers up to limit, refused above it before any use."""

    def read_bounded(value, path: str, scope) -> int:
        return admit(integer(value, path), limit, path.rsplit(".", 1)[-1])

    read_bounded.__name__ = f"integer at most {limit}"
    return read_bounded


def at_least(low: int):
    """A reader of integers from low up, refused below it before any use."""

    def read_low(value, path: str, scope) -> int:
        n = integer(value, path)
        if n < low:
            raise ConfigError(f"{path.rsplit('.', 1)[-1]} must be at least {low}")
        return n

    read_low.__name__ = f"integer at least {low}"
    return read_low


#: an array length named in refusals, ``of`` the fields read before the array (``RANK``: the nearest ``rank``)
Length = NamedTuple("Length", [("name", str), ("of", Callable[[Mapping], Optional[int]])])
RANK = Length("rank", lambda scope: scope.get("rank"))


def array(item, *shape, label: Optional[str] = None):
    """A reader of JSON arrays nested len(shape) deep (at least 1), their innermost entries read by item.
    shape gives the length of the arrays at each level: None for any, a number, or a ``Length`` (any where
    it gives None).  label names the innermost entries in refusals (by default, the field)."""
    shape = shape or (None,)

    def read_array(value, path: str, scope) -> list:
        lengths = [(f"{n.name} ", n.of(scope)) if isinstance(n, Length) else ("", n) for n in shape]
        # one C pass per level checks for arrays of the given length; an all-integer array is kept as it is
        level = [value]
        for _, n in lengths:
            if set(map(type, level)) - {list} or n is not None and set(map(len, level)) - {n}:
                break
            level = list(chain.from_iterable(level))
        else:
            if item is integer and not set(map(type, level)) - {int}:
                return value
        return _entries(value, path, item, lengths, label, scope)

    sizes = " x ".join("any" if n is None else str(getattr(n, "name", n)) for n in shape)
    read_array.__name__ = "array of " * len(shape) + item.__name__ + (f", {sizes}" if any(shape) else "")
    return read_array


def _entries(value, path: str, item, lengths: list, label: Optional[str], scope) -> list:
    """value read entry by entry, refused at the first array of another type or length."""
    (what, n), *inner = lengths
    if type(value) is not list:
        raise ConfigError(f"{path} must be a JSON array, got {quote(value)}")
    if n is not None and len(value) != n:
        raise ConfigError(f"{path} has {len(value)} entr{'y' if len(value) == 1 else 'ies'}, expected {what}{n}")
    if inner:
        return [_entries(v, f"{path}[{i}]", item, inner, label, scope) for i, v in enumerate(value)]
    return [item(v, label or f"{path}[{i}]", scope) for i, v in enumerate(value)]


def mapping(item):
    """A reader of JSON objects from free names to what item reads."""

    def read_mapping(value, path: str, scope) -> dict:
        return {name: item(v, f"{path}.{name}", scope) for name, v in json_object(value, path).items()}

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
        raise ValueError(f"zero denominator in rational {quote(value, repr)}") from None
    except OverflowError:  # an infinite float: JSON reads 1e400 as inf
        pass
    raise ValueError(f"cannot parse rational from {quote(value, repr)}")


def rational(value, path: str, scope) -> Fraction:
    """An exact rational, as ``parse_fraction`` reads it."""
    return parse_fraction(value)
