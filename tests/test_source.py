"""Source-level rules for the library."""
import ast
from pathlib import Path

import kcut

SRC = Path(kcut.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # silently disappears; library checks raise typed errors instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
