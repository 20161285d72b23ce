"""One reader, ``read_record``, for every JSON record the engine reads back.

It reads a parsed JSON value as a dataclass, field by field, or as ``str``,
``int``, ``float``, ``bool``, ``X | None``, ``tuple[X, ...]``, a fixed tuple
such as ``tuple[int, float]``, ``list[X]`` or ``dict[str, X]``. Each type's
reader is built once. A refusal is a ``DataError`` naming the JSON path of
the value, such as ``'steps[3].metric_evidence[0].max_deviation' must be a
number``; the path is only put together then. ``parse_json`` turns the text
of a record into the value it reads.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing

from .errors import DataError


def parse_json(text: str):
    """The JSON value ``text`` holds; raises ``DataError`` for text that is
    not JSON, and for a value nested too deeply for ``json.loads``, which
    would otherwise escape as a bare ``RecursionError``."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise DataError(f"not JSON: {exc}") from None
    except RecursionError:
        raise DataError("not JSON: nested too deeply to parse") from None


def read_record(tp, value, path: str = "", partial: bool = False):
    """``value``, found at ``path`` of its document, as a ``tp``.

    A bool is no number and a number no bool; a float takes an integer but
    no NaN, infinity or overflow. A record refuses unknown and missing keys
    and runs its ``__post_init__``; with ``partial`` a missing key keeps its
    field's default, as a config file may leave any key out.
    """
    try:
        return _reader(tp, partial)(value)
    except _Refusal as refusal:
        for key in reversed(refusal.keys):
            path = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        raise DataError(f"{repr(path) if path else 'top level'} {refusal.args[0]}") from None


class _Refusal(Exception):
    def __init__(self, message: str, *keys):
        super().__init__(message)
        self.keys = list(keys)  # the path to the refused value, innermost first


@functools.cache
def _reader(tp, partial: bool):
    """A function from a JSON value to a ``tp`` that raises ``_Refusal``."""
    args, origin = typing.get_args(tp), typing.get_origin(tp) or tp
    if isinstance(tp, types.UnionType):  # X | None
        (inner,) = [arg for arg in args if arg is not type(None)]
        read = _reader(inner, partial)
        return lambda value: None if value is None else read(value)
    if dataclasses.is_dataclass(tp):
        return _record(tp, partial)
    if tp is float:
        return _float
    if not args:
        return _typed(tp, {int: "an integer", str: "a string", bool: "true or false"}[tp])
    reads = [_reader(arg, partial) for arg in args if arg is not ...]
    if origin is dict:
        return _typed(dict, "a JSON object", lambda value: _each(
            value.items(), dict.fromkeys(value, reads[-1])))
    if args[-1] is not ... and origin is tuple:
        return _typed(list, f"a list of {len(reads)} items", lambda value: tuple(
            _each(enumerate(value), reads).values()), len(reads))
    return _typed(list, "a list", lambda value: origin(
        _each(enumerate(value), reads * len(value)).values()))


def _record(cls, partial: bool):
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    reads = {f.name: _reader(hints[f.name], partial) for f in fields}
    # A str, int or bool value of exactly its field's type needs no call.
    exact = {f.name: hints[f.name] for f in fields if hints[f.name] in (int, str, bool)}
    required = [f.name for f in fields
                if not partial or f.default is f.default_factory is dataclasses.MISSING]

    def read(value):
        if type(value) is not dict:
            raise _Refusal(f"must be a JSON object, got {value!r:.40}")
        if value.keys() != reads.keys():
            for key in sorted(value.keys() - reads.keys()):
                raise _Refusal("is an unknown key", key)
            for key in required:
                if key not in value:
                    raise _Refusal("is missing", key)
        kwargs = _each(value.items(), reads, exact)
        try:
            return cls(**kwargs)
        except DataError as exc:  # the record's own __post_init__ rules
            raise _Refusal(f"is refused: {exc}") from None

    return read


def _each(items, reads, exact={}) -> dict:
    """``{key: reads[key](item)}`` over the ``(key, item)`` pairs of
    ``items``, taking an item of type ``exact[key]`` as it is; a refusal
    names the key of its item."""
    out, key = {}, None
    try:
        for key, item in items:
            out[key] = item if type(item) is exact.get(key) else reads[key](item)
    except _Refusal as refusal:
        refusal.keys.append(key)
        raise
    return out


def _typed(kind, name: str, read=None, size=None):
    """``read(value)``, or ``value`` itself, once it is a ``kind`` (of ``size`` items)."""
    def check(value):
        if type(value) is kind and (size is None or len(value) == size):
            return value if read is None else read(value)
        raise _Refusal(f"must be {name}, got {value!r:.40}")

    return check


def _float(value):
    if type(value) is not float and type(value) is not int:
        raise _Refusal(f"must be a number, got {value!r:.40}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _Refusal(f"must be a finite number, got {value!r:.40}")
    return number
