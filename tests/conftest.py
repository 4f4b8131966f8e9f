import numpy as np
import pytest

from sdiging import graph


@pytest.fixture
def forbid_large_eigh(monkeypatch):
    """Make np.linalg.eigh and eig raise on anything larger than the
    Lanczos tridiagonal of the laziness bound, the one decomposition
    set-up may make."""
    for name in ("eigh", "eig"):
        def guarded(a, *args, _f=getattr(np.linalg, name), _name=name, **kw):
            if len(a) > graph._LANCZOS_STEPS:
                raise AssertionError(f"{_name} called on {len(a)} rows")
            return _f(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, guarded)
