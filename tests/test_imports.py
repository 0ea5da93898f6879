"""Every name a bfl module imports is used in that module, no module
imports another's private names or cmath, only groups touches the image
codec, and every export has a caller."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "bfl")


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


def _top_level_refs(path):
    """Per top-level statement of a module: (name it defines or None, the
    identifiers it references as names, attributes or imports)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = []
    for stmt in tree.body:
        refs = set()
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                refs |= {a.name for a in n.names}
        defined = (stmt.name if isinstance(stmt, (ast.FunctionDef,
                                                  ast.ClassDef)) else None)
        out.append((defined, refs))
    return out


def test_no_orphaned_private_helpers():
    # a module-private function or class must be referenced somewhere in the
    # package outside its own definition (recursion alone does not count)
    stmts = [(os.path.basename(p), i, name, refs)
             for p in sorted(glob.glob(os.path.join(SRC, "*.py")))
             for i, (name, refs) in enumerate(_top_level_refs(p))]
    orphans = sorted(
        "%s:%s" % (mod, name) for mod, i, name, _ in stmts
        if name and name.startswith("_") and not name.startswith("__")
        and not any(name in refs for m, j, _, refs in stmts
                    if (m, j) != (mod, i)))
    assert orphans == []


# exported although only the tests call them: the reference the chain tests
# compare against, the witness replays README's quickstart promises, and the
# composition convention the elements docstring names
TEST_ONLY_EXPORTS = {"closure_enumerate", "replay_commutator_witness",
                     "replay_product_witness", "reconstruct_section",
                     "compose"}


def test_every_export_has_a_caller():
    # a name bfl/__init__.py exports is referenced by another bfl module, a
    # demo, a tool or the benchmark; the tests alone do not keep it alive
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        exports = {a.name for n in ast.walk(ast.parse(fh.read()))
                   if isinstance(n, ast.ImportFrom) for a in n.names}
    callers = [p for p in glob.glob(os.path.join(SRC, "*.py"))
               if os.path.basename(p) != "__init__.py"]
    for sub in ("demos", "tools", "perfbench"):
        callers += glob.glob(os.path.join(ROOT, sub, "*.py"))
    used = set().union(*(refs for p in callers
                         for _, refs in _top_level_refs(p)))
    assert sorted(exports - used - TEST_ONLY_EXPORTS) == []


def test_only_groups_touches_the_image_codec():
    # an element meets its raw image only on groups.Group (`Group.raw`,
    # `from_perm`, `image_key`, `Chain.kernel`): no other module imports or
    # calls the codec behind those images
    found = sorted(os.path.basename(p)
                   for p in glob.glob(os.path.join(SRC, "*.py"))
                   if os.path.basename(p) != "groups.py"
                   and any("image_kernel" in refs
                           for _, refs in _top_level_refs(p)))
    assert found == []


def _import_nodes():
    """(file name, import statement) for every import in a bfl module."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        yield from ((os.path.basename(path), node) for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)))


def test_no_private_imports_across_modules():
    # a module's _names are its own: no bfl module imports one from another
    found = ["%s: %s.%s" % (mod, node.module, a.name)
             for mod, node in _import_nodes()
             if isinstance(node, ast.ImportFrom) and (
                 node.level or (node.module or "").startswith("bfl"))
             for a in node.names if a.name.startswith("_")]
    assert found == []


def test_no_module_imports_cmath():
    # class algebra is exact: nothing evaluates a character in complex floats
    found = ["%s: %s" % (mod, name) for mod, node in _import_nodes()
             for name in ([a.name for a in node.names]
                          if isinstance(node, ast.Import) else [node.module])
             if (name or "").split(".")[0] == "cmath"]
    assert found == []


def _module_trees():
    """(file name, parsed module) for every bfl module."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read())


def test_only_report_times_a_verdict():
    # one clock: `report.timed` sets every Verdict's seconds, so no other
    # module passes seconds to Verdict(...), and only report and the CLI's
    # JSON header (elapsed_seconds) read perf_counter
    passes = sorted(
        "%s:%d" % (mod, n.lineno) for mod, tree in _module_trees()
        if mod != "report.py" for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "Verdict"
        and (len(n.args) > 4 or any(k.arg == "seconds" for k in n.keywords)))
    assert passes == []
    clocks = sorted(os.path.basename(p)
                    for p in glob.glob(os.path.join(SRC, "*.py"))
                    if any("perf_counter" in refs
                           for _, refs in _top_level_refs(p)))
    assert clocks == ["cli.py", "report.py"]


def _called_names(fn):
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))}


def test_every_public_check_is_timed():
    # a public function that builds a Verdict, or calls a function that does,
    # is wrapped in `report.timed`, so a Verdict's seconds are always the
    # wall time of the public call that returned it
    defs = [(mod, stmt) for mod, tree in _module_trees()
            if mod != "report.py" for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)]
    makers = {"Verdict"}
    while True:
        more = {fn.name for _, fn in defs
                if _called_names(fn) & makers} - makers
        if not more:
            break
        makers |= more
    assert {"bf_pair_direct", "sl2n3_scan", "cor22_check",
            "bf_pair_table"} <= makers
    untimed = sorted("%s:%s" % (mod, fn.name) for mod, fn in defs
                     if fn.name in makers and not fn.name.startswith("_")
                     and not any(isinstance(d, ast.Name) and d.id == "timed"
                                 for d in fn.decorator_list))
    assert untimed == []
