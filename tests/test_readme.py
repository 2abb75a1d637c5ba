"""README's Library example runs against the current public API, and its
config schema loads.

The code block under "## Library" is executed as written, except that its
replication count drops to 200 and its worker count to 1 to keep the test
fast; a public call that the docs get wrong fails here.  The yaml block
under "### Config files" is loaded as a config file is, so a key the docs
keep after the code dropped it fails here too, and the metric names that
it and ``configs/gap.yaml`` list are every metric there is.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest
import yaml

from seqgap import MetricKind
from seqgap.config import _UniqueKeyLoader, build_config

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def _config_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Config files\n", 1)[1]
    return re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_config_schema_loads():
    block = _config_block()
    loaded = build_config(yaml.load(block, Loader=_UniqueKeyLoader), "README")
    assert loaded.experiment.rule.name == "gap"


@pytest.mark.parametrize("source", ["README", "configs/gap.yaml"])
def test_listed_metric_names_are_every_metric(source):
    """The comment on a ``metrics:`` line names each metric once, and no
    other."""
    text = _config_block() if source == "README" else (ROOT / source).read_text("utf-8")
    (comment,) = re.findall(r"^\s*metrics:.*#(?: any of:)?(.*)$", text, re.MULTILINE)
    names = comment.split()
    assert len(names) == len(set(names))
    assert set(names) == {kind.value for kind in MetricKind}
