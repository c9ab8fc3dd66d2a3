"""The Python blocks of README.md read only names the package defines."""

import ast
import builtins
import re
from pathlib import Path

import crosscheck
import npagraph

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {"npagraph": npagraph, "crosscheck": crosscheck}


def unknown_names(source: str) -> list[str]:
    """What a block reads that does not exist, with npagraph.__all__ in
    scope: a name imported from npagraph or crosscheck that the module
    lacks, a bare name called that is neither bound in the block, imported
    nor a builtin, and `Cls().attr` of an exported class without attr."""
    tree = ast.parse(source)
    bound = {*npagraph.__all__, *dir(builtins)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = MODULES.get(node.module)
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if module and alias.name != "*" and not hasattr(module, alias.name):
                    found.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id not in bound:
            found.append(f"{node.func.id}()")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call):
            call = node.value
            cls = (getattr(npagraph, call.func.id)
                   if isinstance(call.func, ast.Name)
                   and call.func.id in npagraph.__all__ else None)
            if isinstance(cls, type) and not call.args and not call.keywords \
                    and not hasattr(cls(), node.attr):
                found.append(f"{call.func.id}().{node.attr}")
    return found


def test_readme_python_blocks_use_defined_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    assert [unknown_names(block) for block in blocks] == [[], [], []]
    # Each kind of unknown name is found.
    assert unknown_names("from npagraph import solve, BaTreeSpec\n"
                         "from crosscheck import edd_crosscheck, nothing\n"
                         "def f():\n    return plot(BaTreeSpec().to_text())\n"
                         "f(); BaTreeSpec().weights; x = 1; print(x)\n") == [
        "npagraph.solve", "crosscheck.nothing", "plot()", "BaTreeSpec().to_text"]
