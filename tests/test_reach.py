import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import reach  # noqa: E402

MODULE = '''\
LIMIT = 3


def clip(x):
    if x > LIMIT:
        return LIMIT
    return x


class Box:
    size = LIMIT

    def grow(self):
        return [self.size + k for k in range(2)]


def unused():
    return 0
'''


def traced(tmp_path):
    """``MODULE`` as ``pkg/mod.py``, run under a tracer of ``pkg`` that
    sees ``clip(1)`` and ``Box().grow()`` called."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(MODULE)
    with reach.LineTracer(pkg) as tracer:
        mod = runpy.run_path(str(pkg / "mod.py"))
        assert mod["clip"](1) == 1 and mod["Box"]().grow() == [3, 4]
    return pkg, tracer


def test_unexecuted_branch_and_uncalled_function_are_reported(tmp_path):
    pkg, tracer = traced(tmp_path)
    assert reach.executable_lines(pkg / "mod.py") == {4, 5, 6, 7, 13, 14, 17, 18}
    # the class body and the module's own lines ran, but are not counted
    assert reach.unreached(pkg, tracer.reached) == [
        ("mod.py", 6, "return LIMIT"), ("mod.py", 17, "def unused():"),
        ("mod.py", 18, "return 0")]


def test_tracer_restores_the_trace_function_it_replaced(tmp_path):
    def outer(frame, event, arg):
        return None

    before = sys.gettrace()
    sys.settrace(outer)
    try:
        with reach.LineTracer(tmp_path):
            assert sys.gettrace() is not outer
        assert sys.gettrace() is outer
    finally:
        sys.settrace(before)
