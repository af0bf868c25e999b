"""Every ```python block in README.md runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_a_readme_python_block_runs(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # A top-level `print(...)  # text` promises the line `text`.
    promised = re.findall(r"^print\(.*\)\s+# (.+)$", block, re.M)
    assert out.getvalue() and set(promised) <= set(out.getvalue().splitlines())
