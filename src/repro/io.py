"""Atomic filesystem primitives shared by every persistence layer.

Cache entries, campaign manifests, run results, and telemetry exports are
all read back by resume logic or other processes; a crash (including
``kill -9``) mid-write must leave either the old file or nothing -- never
a torn file.  The one sanctioned pattern is a
same-directory temp sibling renamed into place with ``os.replace``
(same-filesystem rename, hence atomic).  ``repro.lint`` rule RPL006
statically enforces that persistence writes in the owning modules go
through this pattern.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable


def atomic_write(path: str | Path, write_to: Callable[[Path], None]) -> Path:
    """Write via a same-directory temp file, then ``os.replace``.

    ``write_to(tmp)`` produces the full content at the temp path; on any
    failure the temp file is removed and the destination is untouched.
    The temp name embeds the PID so concurrent writers never collide on
    the staging file (last rename wins, each file complete).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        write_to(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    return atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))
