"""The README's library example runs as written, so the documented API
cannot drift from the package."""

import re
from pathlib import Path

from rpgauss import RngStream

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs():
    namespace = {"values": RngStream(1).standard_normal(200)}
    exec(_library_block(), namespace)
    report = namespace["report"]
    assert len(report.projections) == 4
    assert 0.0 <= report.combined_p <= 1.0
