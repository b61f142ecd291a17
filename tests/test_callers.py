"""No library code without a caller: every top-level function and class,
and every method, defined in fr3sim is referenced by name somewhere else in
the package.  The ``__init__`` re-exports do not count as a use."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fr3sim"

# names no other line of the package refers to, with the reason each stays
ALLOWED = {
    "coefficients.read_cir": "the public reader of the CIR files a run writes",
    "cli._Parser.error": "argparse calls it on a bad command line",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(trees):
    """(qualified name, module, line) of each top-level function and class
    and each method; dunder names are called by Python itself."""
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _dunder(node.name):
                yield f"{mod}.{node.name}", mod, node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name):
                        yield f"{mod}.{node.name}.{sub.name}", mod, sub.lineno


def _references(trees):
    """name -> {(module, line)} of every name and attribute the package
    reads, outside ``__init__``."""
    refs = {}
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, set()).add((mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add((mod, node.lineno))
    return refs


def _uncalled():
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    refs = _references(trees)
    return {qual for qual, mod, line in _definitions(trees)
            if not refs.get(qual.rsplit(".", 1)[-1], set()) - {(mod, line)}}


def test_every_definition_has_a_caller():
    assert sorted(_uncalled() - set(ALLOWED)) == []


def test_allowlist_is_current():
    # an allowed name that gained a caller, or is gone, leaves the list
    assert sorted(set(ALLOWED) - _uncalled()) == []
