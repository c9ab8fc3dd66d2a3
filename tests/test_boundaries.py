"""Module boundaries of the package, read from its source with ast: no
module reaches into another's private names, and one module owns the text
formats."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "npagraph"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    """One leading underscore; dunder names such as __version__ are public."""
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    """Each private name the source takes from an npagraph module: by
    `from .m import _x` or `from npagraph.m import _x`, or as `m._x` where
    `from . import m` or `import npagraph.m as m` bound m, or as
    `npagraph.m._x`."""
    tree = ast.parse(source)
    modules = set()  # local names bound to npagraph modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "npagraph"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, "npagraph"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name.startswith("npagraph.") and alias.asname)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _private(node.attr):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in modules:
            found.append(f"{base.id}.{node.attr}")
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and base.value.id == "npagraph"):
            found.append(f"npagraph.{base.attr}.{node.attr}")
    return found


def test_private_imports_found_in_every_form():
    source = ("from .solver import _dense, vdd_to_csv\n"
              "from npagraph.formats import _loadtxt\n"
              "from . import __version__, growth\n"
              "import npagraph.models as m\n"
              "import npagraph.errors\n"
              "def f():\n"
              "    from . import calibrate as c\n"
              "    return growth._AER_BATCH, m._x, c._fit, growth.grow,\\\n"
              "        npagraph.errors._y, __version__.__class__\n")
    assert sorted(private_imports(source)) == sorted([
        "solver._dense", "npagraph.formats._loadtxt", "growth._AER_BATCH",
        "m._x", "c._fit", "npagraph.errors._y"])


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_name_crosses_modules(path):
    assert private_imports(path.read_text()) == []


def test_formats_alone_reads_and_writes_text():
    """np.loadtxt, and the io, gzip and warnings modules, appear in formats
    and nowhere else in the package."""
    users = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "loadtxt":
                users.setdefault("np.loadtxt", set()).add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                if any(alias.name == "loadtxt" for alias in node.names):
                    users.setdefault("np.loadtxt", set()).add(path.stem)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("io", "gzip", "warnings"):
                        users.setdefault(alias.name, set()).add(path.stem)
    assert users == {name: {"formats"}
                     for name in ("np.loadtxt", "io", "gzip", "warnings")}
