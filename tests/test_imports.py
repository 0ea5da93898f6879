"""Every name a bfl module imports is used in that module."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "bfl")


def _unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # __init__.py imports names only to re-export them
    unused = {os.path.basename(p): _unused_imports(p)
              for p in sorted(glob.glob(os.path.join(SRC, "*.py")))
              if os.path.basename(p) != "__init__.py"}
    assert {m: names for m, names in unused.items() if names} == {}
