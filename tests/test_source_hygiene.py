"""Static checks on the package source: no unused imports, a resolvable __all__.

No linter ships with the project, so the import check is done here with
`ast`.  A name imported by a module counts as used when the module body
refers to it, when a string annotation names it (``"RobotDescriptor"``
under ``TYPE_CHECKING``), or, for the package ``__init__``, when it is
listed in ``__all__``.
"""

import ast
import pathlib

import pytest

import quadcpg

SRC = pathlib.Path(quadcpg.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """{bound name: line} for every import except `from __future__`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def dunder_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree) | dunder_all(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_package_all_resolves():
    missing = [name for name in quadcpg.__all__ if not hasattr(quadcpg, name)]
    assert not missing
    assert len(set(quadcpg.__all__)) == len(quadcpg.__all__)


#: numpy calls that batch.py must not make: transcendentals whose last bit
#: differs from `math` (the kernel routes acos/atan2/hypot through `math`),
#: and reductions that reorder float additions (pairwise summation).
BATCH_FORBIDDEN = {
    "arccos", "arcsin", "arctan", "arctan2", "arccosh", "arcsinh", "arctanh",
    "hypot", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "tan",
    "tanh", "sinh", "cosh", "power", "float_power", "cbrt", "sum", "nansum",
    "cumsum", "prod", "mean", "average", "dot", "vdot", "inner", "matmul",
    "einsum", "tensordot", "norm", "linalg",
}


def batch_violations(source):
    """(line, what) for every forbidden numpy function or array method, or `@`;
    the `math` module's own functions are the allowed route."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in BATCH_FORBIDDEN
                and not (isinstance(node.value, ast.Name) and node.value.id == "math")):
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return found


def test_batch_kernel_keeps_to_exact_operations():
    assert batch_violations((SRC / "batch.py").read_text()) == []


@pytest.mark.parametrize("snippet", [
    "q = np.arctan2(y, x)", "h = np.hypot(u, v)", "s = np.sum(p, axis=1)",
    "s = p.sum()", "s = np.dot(t, qd)", "s = t @ qd", "s @= t", "e = np.exp(x)",
    "n = np.linalg.norm(v)"])
def test_batch_guard_catches(snippet):
    assert batch_violations(snippet)


def test_batch_guard_allows_math_and_sin_cos():
    assert batch_violations("h = math.hypot(u, v) + math.atan2(y, x) + np.sin(a)") == []
