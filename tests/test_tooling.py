"""Guards for the benchmark harness under ``perfbench/``.

Its tracer wraps program functions by module and attribute name, so a
renamed or deleted function crashes every traced benchmark run. The names
are read from the harness source, not imported, so this test runs without
the harness on the path.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def traced_targets():
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {CHILD}")


def test_every_traced_target_exists():
    targets = traced_targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"txrisk.{module}"),
                                       attr, None))]
    assert not missing, f"perfbench traces functions txrisk lacks: {missing}"
