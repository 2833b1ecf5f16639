"""Every relative link in the markdown docs resolves to a file in the repo."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    Path("PAPER.md"),
    Path("ROADMAP.md"),
    Path("CHANGES.md"),
    *sorted(p.relative_to(ROOT) for p in (ROOT / "docs").glob("*.md")),
]
LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)(#[^)]*)?\)")


@pytest.mark.parametrize("doc", DOCS, ids=str)
def test_relative_links_resolve(doc):
    path = ROOT / doc
    bad = [
        target
        for target, _fragment in LINK.findall(path.read_text())
        if not target.startswith(("http://", "https://", "mailto:"))
        and not (path.parent / target).resolve().exists()
    ]
    assert not bad, f"{doc}: broken relative link(s) -> {bad}"
