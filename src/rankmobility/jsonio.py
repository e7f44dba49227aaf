"""The one reader and writer behind every JSON config and record the package handles.

read_config and read_lines build dataclasses from JSON, checking each value
against its field's declared type (range rules stay in __post_init__); load
reads any other JSON file. None of them takes NaN or Infinity.
dumps and compact are the two encoders: they also take dataclasses,
frozensets and numpy values, and plain gives the JSON data they write.
undecodable says where a byte that is not UTF-8 lies in a file that a
reader here, in csvio or in the cli failed to decode.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import json
import sys
import types
import typing
from os import PathLike
from typing import Callable, Iterable, Iterator, Mapping, NewType, TextIO

import numpy as np

FilePath = NewType("FilePath", str)  # a str field that names a file; only its message differs

# Per scalar type: the JSON values it takes (never true or false; an integer
# taken as a number stays an integer), and what a value must be, alone and
# as list items.
_SCALARS = {
    int: (int, "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    str: (str, "a string", "strings"),
    FilePath: (str, "a path", "paths"),
}


class _Mismatch(Exception):
    """A value does not have its declared type."""


def _reader(hint):
    """What a value of type hint must be, in words, and a function
    (value, key, error) that returns it as that type or raises _Mismatch."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:
        kinds, words, _ = _SCALARS[hint]

        def scalar(value, key, error):
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise _Mismatch
            return value

        return words, scalar
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        words, inner = _reader(args[0] if args[1] is type(None) else args[1])
        return f"{words} or null", lambda value, key, error: None if value is None else inner(value, key, error)
    if origin in (tuple, frozenset) and args[0] in _SCALARS and (
        origin is frozenset or args[1:] in ((Ellipsis,), args[:1])
    ):
        _, item = _reader(args[0])
        pair = args[1:] == args[:1]

        def sequence(value, key, error):
            if not isinstance(value, (list, tuple)) or (pair and len(value) != 2):
                raise _Mismatch
            return origin(item(v, key, error) for v in value)

        return f"a list of {'two ' if pair else ''}{_SCALARS[args[0]][2]}", sequence
    if origin is collections.abc.Mapping and args[0] is str and args[1] in _SCALARS:
        _, item = _reader(args[1])

        def mapping(value, key, error):
            if not isinstance(value, Mapping) or not all(isinstance(k, str) for k in value):
                raise _Mismatch
            return {k: item(v, key, error) for k, v in value.items()}

        return f"an object of {_SCALARS[args[1]][2]}", mapping
    if dataclasses.is_dataclass(hint):

        def nested(value, key, error):
            if not isinstance(value, Mapping):
                raise _Mismatch
            return _build(hint, value, key, error)

        return "an object", nested
    raise TypeError(f"unsupported config field type: {hint}")


@functools.cache
def _fields(cls) -> dict:
    """Per field of cls: what its value must be, its reader, and whether it is required."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (
            *_reader(hints[f.name]),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    }


def _build(cls, payload, label: str, error: type[Exception]):
    if not isinstance(payload, Mapping):
        raise error(f"{label} must be a JSON object")
    fields = _fields(cls)
    unknown = payload.keys() - fields.keys()
    if unknown:
        raise error(f"unknown {label} keys: {', '.join(sorted(unknown))}")
    values = {}
    for key, (words, read, required) in fields.items():
        if key not in payload:
            if required:
                raise error(f"{label} is missing '{key}'")
            continue
        try:
            values[key] = read(payload[key], key, error)
        except _Mismatch:
            raise error(f"'{key}' must be {words} in {label}") from None
    return cls(**values)


def read_config(cls, source: str | PathLike | Mapping, label: str, error: type[Exception]):
    """Build dataclass cls from a JSON object, or from the JSON file at source.

    Every key must name a field, every field without a default must be
    given, and every value must have its field's type; lists become the
    declared tuple or frozenset. A problem raises error, with a message
    naming label and any key at fault; a file is read as load reads it.
    """
    if isinstance(source, (str, PathLike)):
        source = load(source, label, error)
    return _build(cls, source, label, error)


def _strict(label: str, error: type[Exception]) -> dict:
    """json decoder hooks that raise error naming label for NaN, Infinity
    and -Infinity, which Python's json reads but JSON does not allow, and
    for an integer of more digits than Python converts (4,300 by default;
    sys.get_int_max_str_digits)."""

    def constant(name: str):
        raise error(f"{label} holds {name}, which is not a JSON number")

    def integer(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:
            raise error(f"{label} holds an integer of more than {sys.get_int_max_str_digits()} digits") from None

    return {"parse_constant": constant, "parse_int": integer}


# The problem with JSON nested deeper than Python's decoder recurses.
_TOO_DEEP = "JSON nested too deeply"


def undecodable(handle: TextIO, exc: UnicodeDecodeError) -> str:
    """Where the first byte that is not UTF-8 lies in the file open as text
    in handle, whose read raised exc: "line L: invalid UTF-8 byte 0xff at
    offset N", with N counted from the start of the file and lines ended as
    text mode ends them (\n, \r\n or a lone \r). It reads the file again
    from its start, so it belongs on the error path only; a stream that
    cannot be read again gives the byte alone."""
    raw = handle.buffer
    if raw.seekable():
        raw.seek(0)
        data = raw.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as found:
            head = data[:found.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            return f"line {line}: invalid UTF-8 byte 0x{data[found.start]:02x} at offset {found.start}"
    return f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"


def load(path: str | PathLike, label: str, error: type[Exception]):
    """The JSON data in the file at path; a file that is not JSON, or holds
    NaN, Infinity or an integer too long to convert, raises error naming
    label and path."""
    name = f"{label} {path}"
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, **_strict(name, error))
        except json.JSONDecodeError as exc:
            raise error(f"{name}: {exc}") from None
        except RecursionError:
            raise error(f"{name}: {_TOO_DEEP}") from None
        except UnicodeDecodeError as exc:
            raise error(f"{name}, {undecodable(handle, exc)}") from None


def read_lines(path: str | PathLike, cls, label: str, error: type[Exception], check: Callable) -> Iterator:
    """One cls per non-blank line of a JSON-lines file, each read as
    read_config reads an object and then passed to check, which may raise
    error too; a bad line raises error naming the line."""
    hooks = _strict(label, error)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    record = _build(cls, json.loads(line, **hooks), label, error)
                    check(record)
                except (ValueError, error) as exc:
                    raise error(f"{path}, line {number}: {exc}") from None
                except RecursionError:
                    raise error(f"{path}, line {number}: {_TOO_DEEP}") from None
                yield record
        except UnicodeDecodeError as exc:
            raise error(f"{path}, {undecodable(handle, exc)}") from None


def _encode(value):
    """What json cannot encode by itself: dataclasses become objects,
    frozensets sorted lists, numpy arrays lists and numpy scalars numbers."""
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON data")


def dumps(payload) -> str:
    """Sorted keys, two-space indent and a trailing newline."""
    return json.dumps(payload, default=_encode, sort_keys=True, indent=2) + "\n"


def compact(payload) -> str:
    """Sorted keys on one line, with no spaces."""
    return json.dumps(payload, default=_encode, sort_keys=True, separators=(",", ":"))


def plain(value):
    """value as the JSON data that dumps and compact write for it."""
    return json.loads(compact(value))


def write_json(path: str | PathLike, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(dumps(payload))


def write_lines(path: str | PathLike, records: Iterable) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(compact(record) + "\n" for record in records)
