"""The README's quick start runs as written."""

import contextlib
import io
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    """The first Python code block under README's "## Quick start" heading."""
    text = README.read_text()
    section = text[text.index("\n## Quick start\n") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs():
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(quick_start_code(), str(README), "exec"), {"__name__": "quick_start"})
    assert out.getvalue().count("\n") >= 3  # every print ran
