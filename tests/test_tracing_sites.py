"""Every layer boundary perfbench's tracer wraps must exist in dsbench.

`perfbench/tracing.py` replaces each (module, name) in its SITES table by a
wrapper; a name renamed or deleted in dsbench breaks `perfbench/run.py
--trace` at install time.  SITES is read from the file's source so the
test needs nothing from perfbench on the import path.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _sites():
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["SITES"]):
            # each entry is (module, name, span name, kind)
            return sorted({(ast.literal_eval(site.elts[0]),
                            ast.literal_eval(site.elts[1]))
                           for site in node.value.elts})
    raise AssertionError("perfbench/tracing.py defines no SITES")


@pytest.mark.parametrize("module, attr", _sites())
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
