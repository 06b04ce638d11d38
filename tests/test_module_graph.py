"""The package's internal imports follow the README's module order, all at
module level, only the command-line front end opens files, only the move
engine checks site entries, and only the diagram module builds a diagram
without the full walk: in one helper, for its reader, its closure and the
move engine."""

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


def is_call(node, func, first_arg=None):
    """Whether ``node`` calls a function or method named ``func`` (whose
    first argument is the name ``first_arg``, if given)."""
    return (isinstance(node, ast.Call)
            and func in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and (first_arg is None
                 or getattr(next(iter(node.args), None), "id", None) == first_arg))


def calls(func, skip, first_arg=None):
    """``module:line`` of each call, outside module ``skip``, as ``is_call``
    reads it."""
    return sorted(f"{name}:{node.lineno}" for name, tree in MODULES.items()
                  if name != skip for node in ast.walk(tree)
                  if is_call(node, func, first_arg))


def callers(func, first_arg=None):
    """``module.function`` of each call, as ``is_call`` reads it, by the
    innermost function around it."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        if is_call(node, func, first_arg):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for name, tree in MODULES.items():
        visit(tree, name)
    return sorted(found)


def test_only_the_cli_opens_files():
    assert not calls("open", "cli"), calls("open", "cli")


def test_only_the_move_engine_checks_site_entries():
    assert not calls("_check_entries", "moves"), calls("_check_entries", "moves")


def test_only_the_diagram_module_skips_the_walk():
    # __new__(Diagram) builds a diagram without __post_init__'s walk, once,
    # in diagram._unchecked; parse calls that after checking what it read,
    # Diagram.moved after checking what a move changed, and closure, which
    # changes only the kind; only the move engine's actions call moved
    assert callers("__new__", "Diagram") == ["diagram._unchecked"]
    assert callers("_unchecked") == ["diagram.closure", "diagram.moved", "diagram.parse"]
    assert not calls("moved", "moves"), calls("moved", "moves")


def test_no_function_imports_a_wld_module():
    local = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{name}.{func.name} imports {sorted(mods)}"
                          for node in ast.walk(func)
                          if (mods := imported_modules(node))]
    assert not local, local
