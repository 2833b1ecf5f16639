"""Inline suppression comments.

Two spellings, mirroring the repo's other inline-control idioms:

``# repro-lint: disable=RPL001`` (or ``disable=RPL001,RPL004``)
    Suppress the named rules on this physical line.

``# repro-lint: disable-file=RPL005``
    Suppress the named rules for the whole file (put it near the top).

Suppression is per-rule by design -- there is no blanket ``disable=all``;
muting a contract should name the contract being muted.
"""

from __future__ import annotations

import re

_LINE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")
_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Z0-9,\s]+)")


def _codes(blob: str) -> frozenset:
    return frozenset(code.strip() for code in blob.split(",") if code.strip())


class Suppressions:
    """Parsed suppression state for one source file."""

    def __init__(self, source: str):
        self.line_codes: dict[int, frozenset] = {}
        self.file_codes: frozenset = frozenset()
        file_codes: set = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "#" not in text:
                continue
            match = _LINE_RE.search(text)
            if match:
                self.line_codes[lineno] = _codes(match.group(1))
            match = _FILE_RE.search(text)
            if match:
                file_codes |= _codes(match.group(1))
        self.file_codes = frozenset(file_codes)

    def is_suppressed(self, code: str, line: int) -> bool:
        """Is rule ``code`` suppressed at physical line ``line``?"""
        if code in self.file_codes:
            return True
        return code in self.line_codes.get(line, frozenset())
