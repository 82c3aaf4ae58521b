import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_prints_its_comments():
    # every print line of the README's python block ends in "# <output>"
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    expected = [line.rsplit("  # ", 1)[1] for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
