"""The package's internal imports follow the README's module order, all at
module level, only the command-line front end opens files, and only the
move engine checks site entries."""

import ast
from pathlib import Path

import wld

PACKAGE = Path(wld.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(node):
    """The ``wld`` modules an import statement names, relative or absolute."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("wld.")}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level:
        base = node.module
    elif node.module == "wld" or (node.module or "").startswith("wld."):
        base = node.module.partition(".")[2]
    else:
        return set()
    if base:
        return {base.split(".")[0]}
    return {alias.name for alias in node.names if alias.name in MODULES}


# the README's order, then the package's entry points, which import from it
ORDER = ("diagram", "moves", "algebra", "invariants", "arrows", "classify", "cli",
         "__main__", "__init__")


def test_each_module_imports_only_earlier_modules():
    assert sorted(ORDER) == sorted(MODULES)
    graph = {name: set().union(*map(imported_modules, ast.walk(tree)))
             for name, tree in MODULES.items()}
    assert graph["classify"] >= {"arrows", "diagram"}
    later = [f"{name} imports {sorted(graph[name] - set(ORDER[:i]))}"
             for i, name in enumerate(ORDER) if graph[name] - set(ORDER[:i])]
    assert not later, later


def test_only_the_cli_opens_files():
    opens = sorted(f"{name}:{node.lineno}" for name, tree in MODULES.items()
                   if name != "cli" for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and "open" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None)))
    assert not opens, opens


def test_only_the_move_engine_checks_site_entries():
    checks = sorted(f"{name}:{node.lineno}" for name, tree in MODULES.items()
                    if name != "moves" for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and "_check_entries" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None)))
    assert not checks, checks


def test_no_function_imports_a_wld_module():
    local = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{name}.{func.name} imports {sorted(mods)}"
                          for node in ast.walk(func)
                          if (mods := imported_modules(node))]
    assert not local, local
