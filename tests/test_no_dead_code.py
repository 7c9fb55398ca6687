"""Every function, class, method and import in the package has a user.

A definition counts as used when its name appears as a `Name` or an
`Attribute` somewhere in src, tests, demos or bench, outside the
definition's own body.  A `Name` in another file that defines the same
name itself refers to that file's own definition, so it does not count:
a reference copy kept in a test cannot hide a dead package function.
Dunders and the names `hopfcyclic/__init__.py`
exports are exempt.  A name imported into a package module other than
`__init__.py` must appear as a `Name` in that module, so no module
re-exports a name it does not use; `__init__.py` exports every object
under its own name, never a second one with `as`.  Standard library only.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hopfcyclic")
SEARCHED = [os.path.join(ROOT, d) for d in ("src", "tests", "demos", "bench")]


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")
                       and d != "__pycache__"]
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _uses(tree):
    """(name, line, is a Name) for every Name and Attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False


def _definitions(tree):
    """(name, first line, last line) of every def and class in tree."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.walk(tree):
        if isinstance(node, kinds):
            yield node.name, node.lineno, node.end_lineno


def _exported():
    tree = _parse(os.path.join(PACKAGE, "__init__.py"))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_definition_has_a_user():
    uses = {}        # name -> [(path, line, a Name the file defines itself)]
    for top in SEARCHED:
        for path in _python_files(top):
            tree = _parse(path)
            own = {name for name, _, _ in _definitions(tree)}
            for name, line, is_name in _uses(tree):
                uses.setdefault(name, []).append((path, line, is_name and name in own))
    exempt = _exported()
    dead = []
    for path in _python_files(PACKAGE):
        for name, first, last in _definitions(_parse(path)):
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(not first <= line <= last if p == path else not local
                       for p, line, local in uses.get(name, ())):
                dead.append("%s:%d %s" % (os.path.relpath(path, ROOT), first, name))
    assert dead == [], "nothing calls: " + ", ".join(dead)


def test_every_import_is_used():
    unused = []
    for path in _python_files(PACKAGE):
        tree = _parse(path)
        init = os.path.basename(path) == "__init__.py"
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if init and alias.asname:
                    unused.append("%s:%d %s exported as %s" % (
                        os.path.relpath(path, ROOT), node.lineno, alias.name,
                        alias.asname))
                elif not init and name not in names:
                    unused.append("%s:%d %s" % (os.path.relpath(path, ROOT),
                                                node.lineno, name))
    assert unused == [], "imported but unused, or exported twice: " + ", ".join(unused)
