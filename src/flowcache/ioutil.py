"""Deterministic text serialization helpers, the JSON value checker and the integer rule.

Every file this package writes must be byte-reproducible from the same
inputs, so floats are always rendered as their shortest round-trip decimal
(Python ``repr``) and CSVs use a fixed '\\n' line terminator. Every JSON
value this package reads (configs, field specs, bundles) is checked by
``_json_value``, which names the bad key, after ``_unique_keys`` has named
any repeated one. Each JSON document has one key table, its keys in write
order with each key's kind, and ``_read_json`` and ``_write_json`` read and
write the document from it.
"""

from __future__ import annotations

import csv
import numbers
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .errors import BundleFormatError


def fmt(value: object) -> str:
    """Render a cell value; floats get shortest round-trip decimals."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _create(path: str | Path) -> TextIO:
    """``path`` opened as a new UTF-8 text file with '\\n' line ends; a file already there is unlinked first.

    The bytes are those an overwrite would write. Replacing the file rather
    than truncating it leaves any other hard link to the old file as it was,
    and on some file systems a truncating overwrite costs a data flush that a
    fresh file does not.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with _create(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _finite(value: object) -> bool:
    """A finite JSON number; JSON booleans do not count as numbers."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _integral(value: object) -> bool:
    return _finite(value) and float(value).is_integer()  # type: ignore[arg-type]


def _is_int(value: object) -> bool:
    """The integer rule for a value built in Python: an int or a numpy integer, never a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(key: str, value: object, error) -> None:
    """A count's rule: an integer (``_is_int``) and at least 1; a breach raises ``error(key, reason)``."""
    if not _is_int(value):
        raise error(key, f"must be an integer, got {value!r}")
    if not value >= 1:  # type: ignore[operator]
        raise error(key, f"must be positive, got {value}")


# JSON value kinds: what each accepts, and the conversion of an accepted value, which also writes a value as JSON.
# A list kind's entries are each checked and converted as its entry kind, and it reads as a tuple.
_KINDS = {
    "int": ("an integer", _integral, int),
    "float": ("a finite number", _finite, float),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "bool": ("true or false", lambda v: isinstance(v, bool), bool),
    "list": ("a list", lambda v: isinstance(v, list), list),
    "object": ("a JSON object", lambda v: isinstance(v, dict), dict),
    "ints": ("a list of integers", lambda v: isinstance(v, list), tuple),
    "floats": ("a list of finite numbers", lambda v: isinstance(v, list), tuple),
}
_ENTRY_KINDS = {"ints": "int", "floats": "float"}  # a list kind's entry kind
_MISSING = object()


def _json_value(data: dict, key: str, kind: str, default: object = _MISSING, error=BundleFormatError):
    """``data[key]`` checked as a JSON value of ``kind`` and converted.

    A missing key takes ``default`` when one is given. Every rejection raises
    ``error(key, reason)``, so the message names the bad field; a list kind
    names its first bad entry by its index.
    """
    if key not in data:
        if default is _MISSING:
            raise error(key, "missing field")
        return default
    value = data[key]
    expected, accepts, convert = _KINDS[kind]
    if not accepts(value):
        raise error(key, f"expected {expected}, got {value!r}")
    if kind in _ENTRY_KINDS:
        expected, accepts, convert_entry = _KINDS[_ENTRY_KINDS[kind]]
        if not all(map(accepts, value)):
            i = next(i for i, v in enumerate(value) if not accepts(v))
            raise error(key, f"entry {i} is not {expected}: {value[i]!r}")
        value = map(convert_entry, value)
    return convert(value)


def _unique_keys(error):
    """A ``json.loads`` object hook: a key repeated in one object, whose last value ``json`` would keep without a
    word, raises ``error(key, reason)``."""

    def hook(pairs: list) -> dict:
        document = dict(pairs)
        if len(document) < len(pairs):
            keys = [key for key, _ in pairs]
            raise error(next(key for key in document if keys.count(key) > 1), "repeated in one JSON object")
        return document

    return hook


def _read_json(data: dict, table: dict[str, str], error, defaults: dict) -> dict:
    """``data`` read by its key ``table``: each key of the table, checked and converted by ``_json_value``.

    A key outside the table raises ``error(key, reason)``; so does a missing
    key, unless ``defaults`` holds it, when it takes that value.
    """
    for key in data:
        if key not in table:
            raise error(key, f"unknown key; expected one of {', '.join(sorted(table))}")
    return {key: _json_value(data, key, kind, defaults.get(key, _MISSING), error) for key, kind in table.items()}


def _write_json(table: dict[str, str], values: dict) -> dict:
    """The JSON document of the ``values`` that ``table`` lists, in table order: ``_read_json``'s inverse.

    Each value is converted as its kind reads, a list kind's entries into a list.
    """
    document = {}
    for key, kind in table.items():
        if key in values:
            convert = _KINDS[_ENTRY_KINDS.get(kind, kind)][2]
            document[key] = list(map(convert, values[key])) if kind in _ENTRY_KINDS else convert(values[key])
    return document


def _defaults(cls) -> dict:
    """The dataclass ``cls``'s defaults, by field: the keys its document may leave out."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}
