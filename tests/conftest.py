"""Fixtures shared by the test modules."""

import pytest

from ncstar import presentations as P
from ncstar import verifier as V

# every per-process table of the builders and the verifier but the orbit table
_TABLES = ((V, "_IMAGE_CACHE"), (V, "_CHECK_ROWS"), (V, "_FAMILY_ROWS"), (V, "_RELABELED"),
           (V, "_ROW_IDS"), (V, "_COACTIONS"), (P, "_POOL"))


@pytest.fixture
def empty_tables(monkeypatch):
    """Empty every per-process table, so the test's tasks are reduced and build what they read.

    Returns a function that empties them again.  The orbit table is emptied
    in place, since the public `verify_*` functions bound it as a default at
    import; the tables are put back as they were when the test ends, so no
    record keyed by the test's row ids outlives them.
    """
    saved = dict(V._ORBITS)

    def empty():
        for module, name in _TABLES:
            monkeypatch.setattr(module, name, {})
        V._ORBITS.clear()
    empty()
    yield empty
    V._ORBITS.clear()
    V._ORBITS.update(saved)
