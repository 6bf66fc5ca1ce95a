import ast
import pathlib
import re

import uniparam

# a float literal in e-notation, such as 1e-9 or 2.5E+3
FLOAT_LITERAL = re.compile(r"\d(?:\.\d+)?[eE][-+]?\d+")


def test_raise_messages_read_their_tolerances():
    # a message that spells out a tolerance goes stale when its constant changes; messages
    # format the constant instead, e.g. f"... within {HERMITICITY_TOL:.0e}"
    found = []
    for path in sorted(pathlib.Path(uniparam.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                found += [f"{path.name}:{node.lineno}: {part.value!r}"
                          for part in ast.walk(node.exc)
                          if isinstance(part, ast.Constant) and isinstance(part.value, str)
                          and FLOAT_LITERAL.search(part.value)]
    assert found == []
