"""Crash-consistent files: the one writer and the one reader.

`write_atomic` lets a writer fill a temp file in the target's own
directory and then renames it over the target with `os.replace`, which
is atomic on one filesystem. A reader therefore sees either the previous
file or the new one, never a cut one, and a failed write leaves no temp
file behind. `write_json` writes a JSON document that way.

`read_json` reads back every JSON document the program reads: a file
that is missing, not UTF-8, not JSON or nested too deep for the parser
becomes one error, of the caller's class, that names the file. What the
document must hold is the caller's check.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Callable


def write_atomic(path: str | Path, write: Callable[[IO], None],
                 binary: bool = False) -> None:
    """Replace `path` with what `write` writes to the file object it is
    given: bytes if `binary`, else UTF-8 text with no newline
    translation."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    # mode 0o666 under the umask, as a plain open() would create the file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", encoding="utf-8", newline="")) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str | Path, doc: object) -> None:
    """Replace `path` with `doc` as indented, key-sorted JSON and a
    trailing newline."""
    def write(fh: IO) -> None:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    write_atomic(path, write)


def read_json(path: str | Path, error: Callable[[str], Exception]) -> Any:
    """The JSON document at `path`. Raises `error("unreadable <path>:
    <reason>")` if the file cannot be opened, is not UTF-8 or not JSON,
    or nests too deep to parse."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"unreadable {path}: {exc}") from exc
