import io
import re
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_quick_tour_snippet_runs_and_prints_documented_values():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    assert match, "quick tour block missing"
    buf = io.StringIO()
    with redirect_stdout(buf):
        exec(compile(match.group(1), "README-quick-tour", "exec"), {})
    assert buf.getvalue().split() == ["True", "True", "True", "True"]


def test_layout_lists_every_module():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Layout\n\n```\n(.*?)```", text, re.S)
    assert match, "layout block missing"
    listed = set(re.findall(r"^  (\w+\.py)\s", match.group(1), re.M))
    modules = {
        p.name for p in (ROOT / "src" / "spectralbox").glob("*.py")
        if p.name != "__init__.py"
    }
    assert modules - listed == set()
