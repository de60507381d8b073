"""The README's figures and the package's exported names match the code."""

import re
from pathlib import Path

import lpirec

ROOT = Path(__file__).resolve().parents[1]


def test_readme_states_the_package_line_count():
    package = ROOT / "src" / "lpirec"
    total = sum(path.read_bytes().count(b"\n") for path in package.rglob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"\(`src/lpirec`\)\s+is\s+([\d,]+)\s+lines", readme)
    assert stated is not None
    assert int(stated.group(1).replace(",", "")) == total


def test_every_exported_name_resolves():
    missing = [name for name in lpirec.__all__ if not hasattr(lpirec, name)]
    assert missing == []
