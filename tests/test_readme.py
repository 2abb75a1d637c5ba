"""README's Library example runs against the current public API.

The code block under "## Library" is executed as written, except that its
replication count drops to 200 and its worker count to 1 to keep the test
fast; a public call that the docs get wrong fails here.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    code = _library_block()
    for old, new in (
        ("replications=10_000", "replications=200"),
        ("workers=4", "workers=1"),
    ):
        assert code.count(old) == 1, old
        code = code.replace(old, new)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().strip()
