"""The benchmark tracer's call sites must exist in the program.

perfbench/spans.py wraps functions at the module attributes where their
callers look them up.  A refactor that drops or renames one of those
attributes breaks a traced benchmark run without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(site[0], site[1]) for site in spans.SITES]


@pytest.mark.parametrize("module, attr", _sites())
def test_site_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
