"""Deterministic text serialization helpers and the JSON value checker.

Every file this package writes must be byte-reproducible from the same
inputs, so floats are always rendered as their shortest round-trip decimal
(Python ``repr``) and CSVs use a fixed '\\n' line terminator. Every JSON
value this package reads (configs, field specs, bundles) is checked by
``_json_value``, which names the bad key; ``_known_keys`` rejects a config,
field or bundle key it does not know, naming that key.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path
from typing import Collection, Iterable, Sequence, TextIO

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


def _list_of(accepts):
    return lambda value: isinstance(value, list) and all(map(accepts, value))


# JSON value kinds: what each accepts, and the conversion of an accepted value.
_KINDS = {
    "int": ("an integer", _integral, int),
    "float": ("a finite number", _finite, float),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "bool": ("true or false", lambda v: isinstance(v, bool), bool),
    "list": ("a list", lambda v: isinstance(v, list), list),
    "ints": ("a list of integers", _list_of(_integral), lambda v: tuple(map(int, v))),
    "floats": ("a list of finite numbers", _list_of(_finite), lambda v: tuple(map(float, v))),
    "object": ("a JSON object", lambda v: isinstance(v, dict), dict),
}
_MISSING = object()


def _json_value(data: dict, key: str, kind: str, default: object = _MISSING, error=BundleFormatError):
    """``data[key]`` checked as a JSON value of ``kind`` and converted.

    A missing key takes ``default`` when one is given. Every rejection raises
    ``error(key, reason)``, so the message names the bad field.
    """
    if key not in data:
        if default is _MISSING:
            raise error(key, "missing field")
        return default
    value = data[key]
    expected, accepts, convert = _KINDS[kind]
    if not accepts(value):
        raise error(key, f"expected {expected}, got {value!r}")
    return convert(value)


def _known_keys(data: dict, known: Collection[str], error=BundleFormatError) -> None:
    """Reject the first key of ``data`` outside ``known`` with ``error(key, reason)``."""
    for key in data:
        if key not in known:
            raise error(key, f"unknown key; expected one of {', '.join(sorted(known))}")
