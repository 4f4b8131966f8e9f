"""Which lines of ``src/sdiging`` tier-1 never runs.

    python3 tools/reach.py [--out REACH_<pr>.json]

Runs tier-1 (``pytest -q --continue-on-collection-errors``) in this
process, from the repository root, with ``sys.settrace`` tracing only
the frames of files under ``src/sdiging``; PYTHONPATH is set to ``src`` first, so that the tests that start a fresh
interpreter still import the package (their lines are not traced).  A
line counts as executable when it is inside a function: a line of the
``co_lines`` of a function's code object, the code objects of a module's
top level and of its class bodies excluded.  A function's first line
counts as run when the function is called.

Every executable line that never ran is reported.  The exit status is 0
when tier-1 passed and no line is reported, 1 otherwise; ``--out``
writes the record as JSON.  Standard library only, besides the pytest
that runs the tests; tier-1 takes about twice as long traced.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdiging"

def _code_objects(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def executable_lines(path: Path) -> set:
    """The line numbers of ``path`` inside its functions (lambdas and
    comprehensions included), from the code objects' ``co_lines``."""
    module = compile(path.read_text(), str(path), "exec")
    return {line for code in _code_objects(module)
            if code.co_flags & inspect.CO_OPTIMIZED
            for _, _, line in code.co_lines() if line is not None}


class LineTracer:
    """Records ``(filename, line)`` for every line run in a function's
    frame whose file is under ``root``, while entered; other frames, those
    of modules and class bodies included, are not traced.  The trace
    function in place before is restored on exit."""

    def __init__(self, root: Path):
        self.root = str(root) + os.sep
        self.reached = set()

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_flags & inspect.CO_OPTIMIZED \
                and code.co_filename.startswith(self.root):
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


def unreached(root: Path, reached: set) -> list:
    """``(file relative to root, line, stripped text)`` of each executable
    line of the ``.py`` files under ``root`` not in ``reached``, in order."""
    out = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text().splitlines()
        name = path.relative_to(root).as_posix()
        out += [(name, line, text[line - 1].strip())
                for line in sorted(executable_lines(path))
                if (str(path), line) not in reached]
    return out


class _Outcomes:
    """A pytest plugin keeping the run's outcome counts."""

    def __init__(self):
        self.counts = {}

    def pytest_terminal_summary(self, terminalreporter):
        self.counts = {k: len(v) for k, v in terminalreporter.stats.items()
                       if k in ("passed", "failed", "error", "skipped",
                                "xfailed", "xpassed")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON record to write")
    args = ap.parse_args(argv)
    out = Path(args.out).resolve() if args.out else None

    import pytest

    os.chdir(ROOT)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, src)
    outcomes = _Outcomes()
    with LineTracer(PACKAGE) as tracer:
        status = pytest.main(["-q", "--continue-on-collection-errors"],
                             plugins=[outcomes])
    missed = [{"line": f"{name}:{line}", "text": text}
              for name, line, text in unreached(PACKAGE, tracer.reached)]
    record = {"pytest_exit": int(status), "outcomes": outcomes.counts,
              "src_lines": sum(len(p.read_text().splitlines())
                               for p in PACKAGE.glob("*.py")),
              "unreached": missed}
    for entry in missed:
        print(f"unreached: {entry['line']}: {entry['text']}")
    print(f"{len(missed)} unreached lines, src lines {record['src_lines']}, "
          f"pytest exit {int(status)}")
    if out:
        out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if status == 0 and not missed else 1


if __name__ == "__main__":
    sys.exit(main())
