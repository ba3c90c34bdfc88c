"""The README's Quickstart runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("\n## Quickstart\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == [
        "1 + 4x^3 + 3x^4",
        "1 + 14x^4 + x^8",
        "1 + 14x^4 + x^8",
    ]
