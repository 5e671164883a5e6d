"""File-backed key/value metadata sources.

A `.kv` file is UTF-8 text, one ``key=value`` pair per line; one leading
byte order mark is dropped, ``#`` lines and blank lines are skipped, values
are raw strings, keys must be unique macro tokens (no whitespace, not
starting with ``::`` or ``:;``). A KvSource pairs a
file with the description of the terminals it backs; the connectToDatabase
handler loads matching sources into the element at preGroup time.
"""

from __future__ import annotations

from pathlib import Path

from .errors import KvSourceError
from .macro import is_token
from .model import Record


def parse_kv_text(text: str, name: str = "<kv>") -> dict[str, str]:
    data: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise KvSourceError(f"{name} line {line_no}: expected key=value")
        key, value = line.split("=", 1)
        if not key:
            raise KvSourceError(f"{name} line {line_no}: empty key")
        if not is_token(key):
            raise KvSourceError(f"{name} line {line_no}: key {key!r} is not a macro token")
        if key in data:
            raise KvSourceError(f"{name} line {line_no}: duplicate key {key}")
        data[key] = value
    return data


def parse_kv_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise KvSourceError(f"cannot read kv file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise KvSourceError(f"kv file {path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return parse_kv_text(text.removeprefix("\ufeff"), name=str(path))


class KvSource(Record):
    """A kv file serving elements whose description contains `description`."""

    __slots__ = ("description", "path")

    def origin(self) -> str:
        return Path(self.path).name

    def load(self) -> dict[str, str]:
        return parse_kv_file(self.path)
