"""Module structure of the package: sibling imports sit at module top and form a DAG."""

import ast
from pathlib import Path

import utp

PACKAGE = Path(utp.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _sibling_imports(node: ast.AST) -> set[str]:
    """Sibling module names imported by one import statement ("" for anything else)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and node.module:
            return {node.module.split(".")[0]}
        if node.level == 1:
            return {alias.name for alias in node.names}
        if node.module and node.module.split(".")[0] == "utp":
            parts = node.module.split(".")
            return {parts[1]} if len(parts) > 1 else {alias.name for alias in node.names}
    if isinstance(node, ast.Import):
        return {
            alias.name.split(".")[1]
            for alias in node.names
            if alias.name.startswith("utp.")
        }
    return set()


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_no_function_level_sibling_imports():
    nested = []
    for module in MODULES:
        for func in ast.walk(_tree(module)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if _sibling_imports(node):
                    nested.append(f"{module}.{func.name}:{node.lineno}")
    assert nested == []


def test_sibling_import_graph_is_acyclic():
    graph = {m: set() for m in MODULES}
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            graph[module] |= _sibling_imports(node) & set(MODULES)
    assert graph["uncertainty"] == {"linalg", "operators", "testers"}  # the parser sees edges
    order = []
    done, active = set(), []

    def visit(m: str) -> None:
        assert m not in active, f"import cycle: {' -> '.join(active + [m])}"
        if m in done:
            return
        active.append(m)
        for dep in sorted(graph[m]):
            visit(dep)
        active.pop()
        done.add(m)
        order.append(m)

    for m in MODULES:
        visit(m)
    assert sorted(order) == MODULES
