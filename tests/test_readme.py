"""The README's library tour runs against the current API."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, f"{README}:library tour", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and math.isfinite(float(printed[-1]))
