"""Crash-consistent JSON documents.

`write_json` writes the whole document to a temp file in the target's
own directory and then renames it over the target with `os.replace`,
which is atomic on one filesystem. A reader therefore sees either the
previous document or the new one, never a cut one, and a failed write
leaves no temp file behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def write_json(path: str | Path, doc: object) -> None:
    """Replace `path` with `doc` as indented, key-sorted JSON and a
    trailing newline."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    # mode 0o666 under the umask, as a plain open() would create the file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
