"""Module structure of the package: sibling imports sit at module top and form a DAG, and
the package imports nothing beyond the standard library and numpy."""

import ast
import re
import sys
import tomllib
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


# the functions that may import scipy: none, the whole package runs on numpy alone
SCIPY_IMPORTERS = set()


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"


def _sites(node: ast.AST, match, function: str | None = None):
    """(innermost enclosing function or None, line) of each node under ``node`` that ``match``s."""
    for child in ast.iter_child_nodes(node):
        if match(child):
            yield function, child.lineno
        is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _sites(child, match, child.name if is_function else function)


def test_no_module_imports_scipy():
    sites = [(m, f, line) for m in MODULES for f, line in _sites(_tree(m), _imports_scipy)]
    assert [f"{m}:{line}" for m, f, line in sites if f is None] == [], "module-level scipy import"
    assert {f"{m}.{f}" for m, f, _ in sites} == SCIPY_IMPORTERS


def _is_pair_product(node: ast.AST) -> bool:
    """Whether ``node`` is <x>.matrix @ <y>.matrix.conj().T, the pair operator w v†."""
    return isinstance(node, ast.BinOp) and bool(
        re.fullmatch(r"\S+\.matrix @ \S+\.matrix\.conj\(\)\.T", ast.unparse(node)))


def _names_pair_mismatch(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and "dimension mismatch between" in str(node.value)


def test_pair_operator_is_the_one_definition_of_w_v_dagger():
    # every bound, tester check and search forms w v† and checks the pair's dimension
    # through operators.pair_operator; no module restates either
    products = {f"{m}.{f}" for m in MODULES for f, _ in _sites(_tree(m), _is_pair_product)}
    assert products == {"operators.pair_operator"}
    assert [f"{m}:{line}" for m in MODULES
            for _, line in _sites(_tree(m), _names_pair_mismatch)] == []
    text = "def f(v, w, x):\n    return w.matrix @ v.matrix.conj().T @ x"
    assert list(_sites(ast.parse(text), _is_pair_product)) == [("f", 2)]
    text = 'raise ValueError(f"dimension mismatch between {m} and operators")'
    assert list(_sites(ast.parse(text), _names_pair_mismatch)) == [(None, 1)]


def _is_matmul(node: ast.AST, left: str, right: str) -> bool:
    """Whether ``node`` is <l> @ <r> with ast.unparse(l) and ast.unparse(r) matching the patterns."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and bool(re.fullmatch(left, ast.unparse(node.left)))
            and bool(re.fullmatch(right, ast.unparse(node.right))))


def _is_row_input(node: ast.AST) -> bool:
    """Whether ``node`` forms the saturating input v†|chi_k>: PureState(<v>.matrix.conj().T
    @ ...), or <v>.conj().swapaxes(-1, -2) @ <x>[..., k:k + 1] on stacks."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "PureState" and len(node.args) == 1
            and _is_matmul(node.args[0], r"\S+\.matrix\.conj\(\)\.T", r".+")) or _is_matmul(
        node, r"\S+\.conj\(\)\.swapaxes\(-1, -2\)", r"\S+\[\.\.\., (\w+):\1 \+ 1\]")


def _is_hs_product(node: ast.AST) -> bool:
    """Whether ``node`` is the HS table's product of vec'd operators: <p>.reshape(...).conj() @
    <q>.reshape(...).T, or <p>.conj() @ <q>.swapaxes(-1, -2) on stacks."""
    return (_is_matmul(node, r".+\.reshape\(.*\)\.conj\(\)", r".+\.reshape\(.*\)\.T")
            or _is_matmul(node, r".+\.conj\(\)", r".+\.swapaxes\(-1, -2\)"))


def test_row_input_and_hs_product_each_have_one_definition():
    # the saturating input v†|chi_k> is formed only by testers.row_inputs, for one pair or a
    # stack, and the vec'd product behind |Tr(P_i† Q_j)|, the MES overlap table included, only
    # by operators.hs_moduli
    for match, where in ((_is_row_input, "testers.row_inputs"),
                         (_is_hs_product, "operators.hs_moduli")):
        assert {f"{m}.{f}" for m in MODULES for f, _ in _sites(_tree(m), match)} == {where}
    for text in ("def f(v, x):\n    return PureState(v.matrix.conj().T @ x[:, 0])",
                 "def f(v, x, k):\n    return v.conj().swapaxes(-1, -2) @ x[..., k:k + 1]"):
        assert list(_sites(ast.parse(text), _is_row_input)) == [("f", 2)]
    for text in ("def f(r, a, n):\n    return r.reshape(n, -1).conj() @ (a @ r).reshape(n, -1).T",
                 "def f(p, q):\n    return abs(p.conj() @ q.swapaxes(-1, -2))"):
        assert list(_sites(ast.parse(text), _is_hs_product)) == [("f", 2)]


def _builds_saturation_report(node: ast.AST) -> bool:
    """Whether ``node`` is SaturationReport(...) or computed(SaturationReport, ...)."""
    if not isinstance(node, ast.Call):
        return False
    built = node.args[0] if ast.unparse(node.func) == "computed" and node.args else node.func
    return isinstance(built, ast.Name) and built.id == "SaturationReport"


def _is_basis_conjugation(node: ast.AST) -> bool:
    """Whether ``node`` is <x>.conj().T @ <a> @ <x>, either way round, .swapaxes(-1, -2) or .T."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
        return False
    left, right = node.left, node.right
    if isinstance(left, ast.BinOp) and isinstance(left.op, ast.MatMult):  # (x† @ a) @ x
        adjoint, x = left.left, right
    elif isinstance(right, ast.BinOp) and isinstance(right.op, ast.MatMult):  # x† @ (a @ x)
        adjoint, x = left, right.right
    else:
        return False
    pattern = re.escape(ast.unparse(x)) + r"\.conj\(\)\.(T|swapaxes\(-1, -2\))"
    return bool(re.fullmatch(pattern, ast.unparse(adjoint)))


def test_reports_and_basis_conjugation_each_have_one_definition():
    # every saturation report, from a construction, a search or a certification block, is built
    # by saturation._reports, and every |<x_i| a |x_j>|-style table reads X† a X from
    # testers.in_basis, for one matrix or a stack: the stacked pass is no second report path
    for match, where in ((_builds_saturation_report, "saturation._reports"),
                         (_is_basis_conjugation, "testers.in_basis")):
        assert [f"{m}.{f}" for m in MODULES for f, _ in _sites(_tree(m), match)] == [where]
    for text in ("def f(*fields):\n    return SaturationReport(*fields)",
                 "def f(fields):\n    return computed(SaturationReport, fields, 'report')"):
        assert list(_sites(ast.parse(text), _builds_saturation_report)) == [("f", 2)]
    assert not list(_sites(ast.parse("isinstance(r, SaturationReport)"), _builds_saturation_report))
    for text in ("def f(x, a):\n    return abs(x.conj().T @ a @ x) ** 2",
                 "def f(m, a):\n    return m.matrix.conj().swapaxes(-1, -2) @ (a @ m.matrix)"):
        assert list(_sites(ast.parse(text), _is_basis_conjugation)) == [("f", 2)]
    assert list(_sites(ast.parse("x @ w @ x.conj().T"), _is_basis_conjugation)) == []


# each validation message and the one stack-capable rule that raises it, for one item or a stack
VALIDATION_RULES = {
    "state is not normalized": "testers._check_states",
    "measurement basis is not orthonormal": "testers._check_projective",
    "MES basis is not orthonormal": "testers._check_mes",
    "MES basis element is not maximally entangled": "testers._check_mes",
}


def _names_message(message: str):
    def match(node: ast.AST) -> bool:  # f-string parts are constants too
        return isinstance(node, ast.Constant) and message in str(node.value)

    return match


def test_each_validation_message_has_one_rule():
    # a constructor's check and its stack constructor's check are one function, so the two
    # paths cannot drift apart
    for message, where in VALIDATION_RULES.items():
        sites = [f"{m}.{f}" for m in MODULES for f, _ in _sites(_tree(m), _names_message(message))]
        assert sites == [where], message
    text = 'def f(n):\n    raise ValueError(f"state is not normalized: {n}")'
    assert list(_sites(ast.parse(text), _names_message("state is not normalized"))) == [("f", 2)]


def _names_scipy_optimize(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.optimize") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.optimize") or (
            module == "scipy" and any(alias.name == "optimize" for alias in node.names)
        )
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "optimize"
        and isinstance(node.value, ast.Name)
        and node.value.id == "scipy"
    )


def _scipy_optimize_lines(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if _names_scipy_optimize(node)]


def test_no_module_names_scipy_optimize():
    # every search is a numpy gradient descent; no path of the package uses scipy.optimize
    assert [f"{m}:{line}" for m in MODULES for line in _scipy_optimize_lines(_tree(m))] == []
    for text in ("import scipy.optimize", "from scipy import optimize",
                 "from scipy.optimize import minimize", "import scipy\nscipy.optimize.minimize(f)"):
        assert _scipy_optimize_lines(ast.parse(text)), text


def _names_arithmetic_error(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "ArithmeticError") or (
        isinstance(node, ast.Attribute) and node.attr == "ArithmeticError"
    )


def _arithmetic_error_sites(tree: ast.AST) -> set[str]:
    """Where ``tree`` names ArithmeticError: "<class> base" for a class's base, else "line N"."""
    sites, bases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in filter(_names_arithmetic_error, node.bases):
                sites.add(f"{node.name} base")
                bases.add(id(base))
    for node in ast.walk(tree):
        if _names_arithmetic_error(node) and id(node) not in bases:
            sites.add(f"line {node.lineno}")
    return sites


def test_only_invariant_error_names_arithmetic_error():
    # exit 1 means a numerical failure: InvariantError, ConvergenceError or LinAlgError.  A zero
    # divisor or an overflow is bad input or a bug, so no module raises or catches the whole family
    sites = {f"{m}: {site}" for m in MODULES for site in _arithmetic_error_sites(_tree(m))}
    assert sites == {"linalg: InvariantError base"}
    text = "try:\n    raise ArithmeticError\nexcept (ValueError, builtins.ArithmeticError):\n    0"
    assert _arithmetic_error_sites(ast.parse(text)) == {"line 2", "line 3"}


def _top_level_imports(tree: ast.AST) -> set[str]:
    """First dotted component of every absolute import anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add((node.module or "").split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "utp"}
    foreign = {
        f"{m}: {name}" for m in MODULES for name in _top_level_imports(_tree(m)) - allowed
    }
    assert foreign == set()
    assert _top_level_imports(ast.parse("def f():\n    import scipy.linalg")) == {"scipy"}
    assert _top_level_imports(ast.parse("from . import linalg\nfrom os import path")) == {"os"}


def test_declared_dependencies_are_numpy_alone():
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["project"]["dependencies"]]
    assert names == ["numpy"]
