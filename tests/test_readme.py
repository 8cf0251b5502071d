"""Every ```python block in README.md runs, and prints what its comments say.

A ``print(...)`` line whose trailing comment is ``# <text>`` must print
exactly ``<text>``.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_python_blocks_run_and_print_their_comments():
    assert BLOCKS
    for block in BLOCKS:
        expected = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", block, re.M)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
