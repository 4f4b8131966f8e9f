"""The README's library tour runs against the current API."""

import math
import re
from pathlib import Path

from sdiging import harness

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, f"{README}:library tour", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and math.isfinite(float(printed[-1]))


def test_config_example_parses(tmp_path):
    text = README.read_text()
    example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "example.ini"
    path.write_text(example)
    cfg = harness.parse_config(path)
    assert cfg.family == "quadratic" and cfg.topology_kind == "complete"
    assert cfg.algorithm == "sdiging" and cfg.alpha == "auto"
