"""The benchmark tracer's call sites exist.

``bench/tracing.py`` wraps module attributes that the drivers look up at
call time.  A refactor that renames or drops one breaks ``bench/run.py
--trace 1``; this guard sees it from the tier-1 suite, without editing or
running the bench.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)
SITES = _tracing.SITES


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, _, _ in SITES],
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _, _ in SITES])
def test_site_is_a_callable_module_global(owner, attr):
    assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} is gone"
