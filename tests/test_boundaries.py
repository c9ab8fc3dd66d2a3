"""Module boundaries of the package, read from its source with ast: no
module reaches into another's private names, one module owns the text
formats, and every module imports only modules of a lower layer."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "npagraph"
MODULES = sorted(PACKAGE.glob("*.py"))
CROSSCHECK = Path(__file__).resolve().parent / "crosscheck.py"


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
    """np.loadtxt, and the gzip and warnings modules, appear in formats and
    nowhere else in the package."""
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
                    if alias.name in ("gzip", "warnings"):
                        users.setdefault(alias.name, set()).add(path.stem)
    assert users == {name: {"formats"}
                     for name in ("np.loadtxt", "gzip", "warnings")}


def test_only_growth_and_models_read_degrees():
    """A graph's degrees are read (`.degrees()`) where graphs are defined
    and where they are grown and measured; every other module takes what
    growth measured."""
    readers = {path.stem for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "degrees"}
    assert readers == {"models", "growth"}


def test_only_models_reads_a_weight_rule():
    """A weight function's rule and table are read (`.rule`, `.table`) only
    where it is defined: every other module asks it, as `is_degree()` for
    f_k = k, so one predicate decides each question about the weights."""
    readers = {path.stem for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)
               and node.attr in ("rule", "table")}
    assert readers == {"models"}


def test_only_search_runs_a_golden_section():
    """calibrate reads GOLDEN only inside _search, the one driver of every
    calibrated parameter's search: a new search calls it instead of running
    its own golden sections."""
    tree = ast.parse((PACKAGE / "calibrate.py").read_text())
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_search"
              for node in ast.walk(fn)}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id == "GOLDEN" and isinstance(node.ctx, ast.Load)]
    assert reads and all(id(node) in inside for node in reads)


LAYERS = {"errors": 0, "constants": 0, "models": 1, "formats": 2, "solver": 2,
          "growth": 2, "calibrate": 3, "cli": 4}


def npagraph_imports(source: str) -> set[str]:
    """Each npagraph module the source imports, at any nesting level: by
    `from .m import x`, `from . import m`, `from npagraph.m import x`,
    `from npagraph import m` or `import npagraph.m`; "npagraph" for the
    package itself (`from . import __version__`)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "npagraph"):
            module = (node.module or "").removeprefix("npagraph").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from the package: each name is a module or a package name
                found.update(alias.name if alias.name in LAYERS else "npagraph"
                             for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] if "." in alias.name
                         else "npagraph" for alias in node.names
                         if alias.name.split(".")[0] == "npagraph")
    return found


def test_npagraph_imports_found_in_every_form():
    source = ("from .models import Graph\n"
              "from . import __version__, growth\n"
              "import numpy, npagraph.formats\n"
              "def f():\n"
              "    from npagraph.solver import solve_vdd\n"
              "    from npagraph import calibrate\n"
              "    import npagraph\n")
    assert npagraph_imports(source) == {"models", "npagraph", "growth",
                                        "formats", "solver", "calibrate"}


def test_every_module_has_a_layer():
    assert {p.stem for p in MODULES} == {*LAYERS, "__init__"}


def test_every_module_serves_a_command():
    """Every module is imported, directly or through others, by cli: a
    module that only tests use belongs with the tests."""
    reached, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(npagraph_imports((PACKAGE / f"{module}.py").read_text())
                        - {"npagraph"})
    assert reached == {p.stem for p in MODULES} - {"__init__"}


# Methods that no module of the package calls, each with why it stays.
UNCALLED_METHODS = {
    "ValidationError.codes": "the tests' assertions on violation codes "
                             "read it; spelling it out lengthens each",
    "WeightFunction.from_table": "the constructor that calibration by "
                                 "inverting the recurrence for the weights "
                                 "calls (ROADMAP)",
    "WeightFunction.constant": "the third rule constructor; calibration "
                               "calls the other two, linear and power",
}


def test_every_method_serves_the_package():
    """Every method a class of the package defines, dunders aside, is read
    as an attribute somewhere in the package: a method that only tests call
    belongs with the tests. UNCALLED_METHODS names the exceptions."""
    trees = [ast.parse(path.read_text()) for path in MODULES]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    uncalled = {f"{cls.name}.{fn.name}" for tree in trees
                for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for fn in cls.body if isinstance(fn, ast.FunctionDef)
                and not fn.name.startswith("__") and fn.name not in read}
    assert uncalled == set(UNCALLED_METHODS)


def test_crosscheck_takes_no_private_name():
    """The cross-check harness in the tests reads the package through its
    public names alone, as the module it came from did."""
    assert private_imports(CROSSCHECK.read_text()) == []


def test_crosscheck_imports_below_calibrate():
    """The harness compares solver and growth; it needs neither calibrate
    nor cli."""
    assert npagraph_imports(CROSSCHECK.read_text()) <= {
        m for m, layer in LAYERS.items() if layer < LAYERS["calibrate"]}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_point_to_a_lower_layer(path):
    """{errors, constants} < models < {formats, solver, growth} < calibrate
    < cli, and the package's __init__ imports no module of it; cli's
    `from . import __version__` reads the package itself."""
    imports = npagraph_imports(path.read_text())
    if path.stem == "__init__":
        assert imports == set()
        return
    allowed = {"npagraph"} if path.stem == "cli" else set()
    assert {m for m in imports - allowed
            if LAYERS.get(m, len(LAYERS)) >= LAYERS[path.stem]} == set()
