"""Every library name the docs point at exists.

The README and the docstrings name functions, classes and constants as
module.name (jacobians._normal_grams, geometry.THIN_QUALITY), and the
README names private helpers bare (`_eliminate`).  A rename or a deletion
that leaves such a name behind fails here.
"""
import ast
import importlib
import pathlib
import pkgutil
import re

import pachner33

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = {
    info.name: importlib.import_module(f"pachner33.{info.name}")
    for info in pkgutil.iter_modules(pachner33.__path__)
    if not info.name.startswith("_")
}
# module.name, with any further .attribute, after a package module's name
QUALIFIED = re.compile(r"\b(%s)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)" % "|".join(MODULES))
# a backticked span that is a private name, or a call of one
BARE = re.compile(r"`(_[A-Za-z]\w*)(?:\([^`]*\))?`")


def resolves(module, path):
    obj = MODULES[module]
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def docstrings():
    """(where, text) of every module, class and function docstring of the package."""
    for path in sorted((ROOT / "src" / "pachner33").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                text = ast.get_docstring(node)
                if text:
                    yield f"{path.name}:{getattr(node, 'name', '<module>')}", text


def test_readme_names_exist():
    readme = (ROOT / "README.md").read_text("utf-8")
    spans = re.findall(r"`([^`\n]+)`", readme)
    qualified = {(m, p) for span in spans for m, p in QUALIFIED.findall(span)}
    assert qualified  # the pattern reads the README at all
    missing = sorted(f"{m}.{p}" for m, p in qualified if not resolves(m, p))
    bare = set(BARE.findall(readme))
    assert bare
    missing += sorted(name for name in bare
                      if not any(hasattr(module, name) for module in MODULES.values()))
    assert not missing, missing


def test_docstring_names_exist():
    missing = [(where, f"{m}.{p}") for where, text in docstrings()
               for m, p in QUALIFIED.findall(text) if not resolves(m, p)]
    assert not missing, missing
