"""The one writer of every output file."""

from __future__ import annotations

from pathlib import Path


def replace_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 with LF endings on every platform.

    An existing file is unlinked and a new one created, not truncated in
    place, so a reader or hard link holding the old file keeps its bytes.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path
