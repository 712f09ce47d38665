"""The one writer of every output file, and the one formatter of the values in it."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def cell(v) -> str:
    """``v`` as a CSV cell or a ``config.resolved`` value: floats in shortest round-trip form."""
    if v is None:
        return ""
    if isinstance(v, (str, Path)):
        return str(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def replace_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 with LF endings on every platform.

    An existing file is unlinked and a new one created, not truncated in
    place, so a reader or hard link holding the old file keeps its bytes.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path
