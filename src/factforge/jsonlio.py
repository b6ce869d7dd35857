"""Line-delimited JSON reading and writing, and the one row codec for records.

Rows are serialized with sorted keys and compact separators so that
identical data always produces identical bytes, and files are written
atomically (temporary file, then rename).

Every artifact row is a frozen dataclass record mapped field by field:
`to_row` turns nested records into rows, tuples into lists and enums into
their values; `from_row` reverses that. A record file may start with a
header row (any object carrying a "schema" key); every other row is one
record.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import itertools
import json
import os
import threading
import types
import typing
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import MalformedRecord

R = TypeVar("R")


def dumps_canonical(row: dict[str, Any]) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w", **kwargs: Any) -> Iterator[IO]:
    """Open a temporary file beside `path` for writing. It replaces `path`
    only when the block ends without an error, and only after its bytes
    are on disk; otherwise it is removed and the previous file, if any,
    stays as it was. The rename replaces a symlink at `path` rather than
    writing through it, and the new file gets the default mode."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(path: str | Path, rows: Iterable[dict[str, Any]]) -> int:
    """Write rows to path atomically, one JSON object per line. Returns the
    row count."""
    n = 0
    with atomic_write(path, encoding="utf-8") as fh:
        for row in rows:
            fh.write(dumps_canonical(row))
            fh.write("\n")
            n += 1
    return n


def iter_jsonl(path: str | Path) -> Iterator[Any]:
    """Yield the JSON value of each non-blank line. A line that is not JSON
    raises MalformedRecord naming the file and the row (non-blank lines
    count from 1, as in `read_records`); a file that is not UTF-8 raises it
    naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        n = 0
        try:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                n += 1
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(f"{path} row {n}: not JSON: {exc}") from None
                yield row
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"{path}: not UTF-8 text: {exc}") from None


# --- the row codec ---------------------------------------------------------------

Codec = Callable[[Any], Any]


def _is_record(hint: Any) -> bool:
    return isinstance(hint, type) and dataclasses.is_dataclass(hint)


def _decode_list(item: Codec) -> Codec:
    def decode(value: Any) -> tuple:
        if not isinstance(value, list):
            raise MalformedRecord(f"expected a list, got {type(value).__name__}")
        return tuple(map(item, value))
    return decode


# The JSON scalar types a field may declare, and how a message names each.
_SCALARS = {str: "a string", int: "an int", float: "a number", bool: "true or false",
            type(None): "null"}


def _decode_exact(kinds: tuple[type, ...]) -> Codec:
    """Take a value of exactly one of `kinds` (a bool is not an int); a float
    field also takes an int, as a float."""
    wanted = " or ".join(_SCALARS[kind] for kind in kinds)

    def decode(value: Any) -> Any:
        if type(value) in kinds:
            return value
        if type(value) is int and float in kinds:
            return float(value)
        raise MalformedRecord(f"expected {wanted}, got {value!r}")
    return decode


def _decode_enum(cls: type[enum.Enum]) -> Codec:
    def decode(value: Any) -> enum.Enum:
        try:
            return cls(value)
        except ValueError:
            raise MalformedRecord(f"{value!r} is not a {cls.__name__}") from None
    return decode


def _codecs(hint: Any, field: str) -> tuple[Codec | None, Codec]:
    """(encode, decode) for the type of `field`; encode None writes it as is."""
    if _is_record(hint):
        return to_row, functools.partial(from_row, hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return (lambda v: v.value), _decode_enum(hint)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        encode, decode = _codecs(typing.get_args(hint)[0], field)
        return (list if encode is None else lambda v: [encode(x) for x in v]), _decode_list(decode)
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if all(kind in _SCALARS for kind in kinds):
        return None, _decode_exact(kinds)
    raise TypeError(f"field {field}: no row codec for type {hint!r}")


class _Plan(NamedTuple):
    encoders: tuple[tuple[str, Codec | None], ...]  # every field, in order
    required: tuple[str, ...]  # fields without a default
    optional: tuple[str, ...]
    decoders: tuple[tuple[str, Codec], ...]


@functools.cache
def _plan(cls: type) -> _Plan:
    """How each field of a record type is written and read, built once per type."""
    hints = typing.get_type_hints(cls)
    encoders, required, optional, decoders = [], [], [], []
    for f in dataclasses.fields(cls):
        encode, decode = _codecs(hints[f.name], f"{cls.__name__}.{f.name}")
        encoders.append((f.name, encode))
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            required.append(f.name)
        else:
            optional.append(f.name)
        decoders.append((f.name, decode))
    return _Plan(tuple(encoders), tuple(required), tuple(optional), tuple(decoders))


def to_row(record: Any) -> dict[str, Any]:
    """The row of a record: field name to value."""
    row = {}
    for name, encode in _plan(type(record)).encoders:
        value = getattr(record, name)
        row[name] = value if encode is None else encode(value)
    return row


def from_row(cls: type[R], row: Any) -> R:
    """Rebuild a `cls` record from its row.

    A missing field without a default, a tuple field that is not a list,
    a record field that is not an object and a scalar (or tuple item) that
    is not of its declared type exactly are MalformedRecord; a float field
    also takes an int, and an `X | None` field null. Absent fields with a
    default take it; extra keys are ignored.
    """
    if not isinstance(row, dict):
        raise MalformedRecord(f"expected an object, got {type(row).__name__}")
    plan = _plan(cls)
    try:
        kwargs = {name: row[name] for name in plan.required}
    except KeyError as exc:
        raise MalformedRecord(f"missing field {exc.args[0]!r}") from None
    for name in plan.optional:
        if name in row:
            kwargs[name] = row[name]
    for name, decode in plan.decoders:
        if name in kwargs:
            try:
                kwargs[name] = decode(kwargs[name])
            except MalformedRecord as exc:
                raise MalformedRecord(f"field {name!r}: {exc}") from None
    return cls(**kwargs)


def write_records(path: str | Path, records: Iterable[Any], schema: str | None = None,
                  **header: Any) -> int:
    """Write one row per record atomically, after a header row `{"schema",
    "version": 1, **header}` when `schema` is given. Returns the record count."""
    head = [] if schema is None else [{"schema": schema, "version": 1, **header}]
    return write_jsonl(path, itertools.chain(head, map(to_row, records))) - len(head)


def read_records(path: str | Path, cls: type[R], schema: str | None = None) -> list[R]:
    """Read a record file of `cls` rows, skipping a leading header row.

    When `schema` is given and the file has a header, the names must agree.
    A row that does not fit `cls` raises MalformedRecord naming the file,
    the row number (the header is row 1) and the field.
    """
    records: list[R] = []
    for n, row in enumerate(iter_jsonl(path), 1):
        if n == 1 and isinstance(row, dict) and "schema" in row:
            if schema is not None and row["schema"] != schema:
                raise MalformedRecord(
                    f"{path}: field 'schema': expected {schema!r}, "
                    f"file declares {row['schema']!r}"
                )
            continue
        try:
            records.append(from_row(cls, row))
        except MalformedRecord as exc:
            raise MalformedRecord(f"{path} row {n}: {cls.__name__} {exc}") from None
    return records
