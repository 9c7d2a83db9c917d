"""One reader and one writer for the config dataclasses and the artifact records.

A config, or the record of a JSON artifact that maps 1:1 to it, derives
from JsonConfig. Field types come from its annotations: int, float, bool,
str, X | None, tuple[X, ...], a fixed-length tuple[X, Y], dict[str, X],
a plain dict (an object whose values are taken as they are) and a nested
JsonConfig. from_dict gives every absent field its default and
refuses an unknown or missing field or a wrongly typed value, naming the
dotted field path (generator.n_scripts, entries[0][3]) in the class's
_error: FieldError for a record, ConfigError (the user's config at fault)
for a config. An integral float such as 5e3 reads as an int field's
5000; a bool or a string never reads as a number, and a float must be
finite, except that a field whose metadata sets ALLOW_INF also takes
infinity or "inf". The elements of a list or an object are read without
a path; only a read that fails is read again with each element's path,
so a file of thousands of values formats one path, the failing one.
to_dict writes the same JSON shape back. Construction reads every
field by these rules however the object was built (from_dict, directly or
dataclasses.replace) and stores what it read, ExperimentConfig(rounds=4.0)
holding the int 4, before the subclass's _check runs its range checks.

An artifact whose keys are not 1:1 with a record reads each value by the
same rules: check_keys refuses a missing or unknown key, read_value reads
one value.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from collections.abc import Collection, Mapping

from .errors import FieldError

ALLOW_INF = "allow_inf"
_EXPECTED = {bool: "a bool", str: "a string", int: "an integer", float: "a number"}


class JsonConfig:
    """Base of a config or record dataclass: to_dict/from_dict driven by its annotations."""

    __slots__ = ()
    _error = FieldError  # what a field that does not read raises; a config's is ConfigError

    def __post_init__(self):
        hints = _type_hints(type(self))
        for f in dataclasses.fields(self):
            allow_inf = f.metadata.get(ALLOW_INF, False)
            value = _read(hints[f.name], getattr(self, f.name), f.name, self._error, allow_inf)
            object.__setattr__(self, f.name, value)
        self._check()

    def _check(self) -> None:
        """The subclass's range checks; a config raises a ConfigError naming the field."""

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, obj: Mapping):
        return _read_config(cls, obj, "")


def read_value(tp, value, where: str = ""):
    """value read as the annotation tp; the error names where."""
    return _read(tp, value, where, FieldError)


def check_keys(obj, required: Collection[str], optional: Collection[str] = (),
               where: str = "", error=FieldError) -> None:
    """Refuse obj unless it is an object with every required key and no unlisted one."""
    if not isinstance(obj, Mapping):
        raise error(where, f"must be an object: {obj!r}")
    for name in obj:
        if name not in required and name not in optional:
            raise error(f"{where}.{name}" if where else name, "unknown field")
    for name in required:
        if name not in obj:
            raise error(f"{where}.{name}" if where else name, "required field missing")


def _encode(value):
    if isinstance(value, JsonConfig):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


@functools.cache
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


@functools.cache
def _shape(tp) -> tuple:
    return typing.get_origin(tp), typing.get_args(tp)


def _read_config(cls, obj, path: str):
    """Build cls from a JSON object; construction reads each value (_read)."""
    fields = dataclasses.fields(cls)
    check_keys(obj, [f.name for f in fields if f.default is f.default_factory
                     is dataclasses.MISSING], [f.name for f in fields], path, cls._error)
    try:
        return cls(**obj)
    except FieldError as exc:
        if not path:
            raise
        raise type(exc)(f"{path}.{exc.field}", exc.message) from None


def _read(tp, value, where: str, error, allow_inf: bool = False):
    if tp is bool or tp is str:
        if not isinstance(value, tp):
            raise error(where, f"must be {_EXPECTED[tp]}: {value!r}")
        return value
    if tp is int or tp is float:
        if allow_inf and isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
            value = math.inf
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
                tp is int and isinstance(value, float) and not value.is_integer()):
            raise error(where, f"must be {_EXPECTED[tp]}: {value!r}")
        if tp is int:
            return int(value)
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if math.isnan(value) or (math.isinf(value) and not allow_inf):
            raise error(where, f"must be finite: {value!r}")
        return value
    origin, args = _shape(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        (tp,) = (a for a in args if a is not type(None))
        return None if value is None else _read(tp, value, where, error, allow_inf)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise error(where, f"must be a list: {value!r}")
        if args[1:] == (Ellipsis,):  # tuple[X, ...]
            if args[0] in (str, int) and {*map(type, value)} <= {args[0]}:  # read already
                return tuple(value)
            args = (args[0],) * len(value)
        elif len(value) != len(args):  # tuple[X, Y]
            raise error(where, f"must be a list of {len(args)} values: {value!r}")
        return tuple(_read_each(args, value, range(len(value)), where, error))
    if origin is dict:  # dict[str, X]
        if not isinstance(value, Mapping):
            raise error(where, f"must be an object: {value!r}")
        keys = [_read(str, k, where, error) for k in value]
        return dict(zip(keys, _read_each((args[1],) * len(keys), value.values(), keys,
                                         where, error)))
    if tp is dict:  # an object whose values are taken as they are
        if not isinstance(value, Mapping):
            raise error(where, f"must be an object: {value!r}")
        return value
    if isinstance(tp, type) and issubclass(tp, JsonConfig):
        return value if isinstance(value, tp) else _read_config(tp, value, where)
    raise TypeError(f"{where}: no reader for config type {tp!r}")


def _read_each(types_, values, keys, where: str, error) -> list:
    """Each value read as its type, with no path formatted.

    A pass that fails is read again naming each element (where[i] or
    where.key), so it raises the same error with the failing element's path.
    """
    try:
        return [_read(tp, v, "", error) for tp, v in zip(types_, values)]
    except FieldError:
        for tp, v, key in zip(types_, values, keys):
            path = (f"{where}[{key}]" if isinstance(key, int)
                    else f"{where}.{key}" if where else key)
            _read(tp, v, path, error)
        raise
