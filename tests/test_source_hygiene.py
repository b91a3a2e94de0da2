"""Static checks on the source: no unused imports, a resolvable __all__,
no builtin sum(), one owner per fact, no undeclared dependency.

No linter ships with the project, so the import check is done here with
`ast`.  A name imported by a module counts as used when the module body
refers to it, when a string annotation names it (``"RobotDescriptor"``
under ``TYPE_CHECKING``), or, for the package ``__init__``, when it is
listed in ``__all__``.
"""

import ast
import importlib.metadata
import pathlib
import re
import sys

import pytest

import quadcpg

SRC = pathlib.Path(quadcpg.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


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
    "einsum", "tensordot", "norm", "linalg", "reduce",
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
    "n = np.linalg.norm(v)", "s = np.add.reduce(p)"])
def test_batch_guard_catches(snippet):
    assert batch_violations(snippet)


def test_batch_guard_allows_math_and_sin_cos():
    assert batch_violations("h = math.hypot(u, v) + math.atan2(y, x) + np.sin(a)") == []


def test_batch_guard_allows_in_order_accumulation():
    assert batch_violations("x = np.add.accumulate(d) + np.maximum.accumulate(i)") == []


def builtin_sum_calls(source):
    """Lines calling the builtin sum(), whose float rounding changed in Python 3.12."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_no_builtin_sum():
    found = {p.name: builtin_sum_calls(p.read_text()) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_sum_guard_catches_only_the_builtin():
    assert builtin_sum_calls("s = sum(x * x for x in v)") == [1]
    assert builtin_sum_calls("s = sum_in_order(v) + math.fsum(v) + p.sum()") == []


def test_each_fact_has_one_owner():
    limb_tuples, alpha_squares, control_dt_stores = [], [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Tuple) and len(node.elts) == 4
                    and all(isinstance(e, ast.Constant) for e in node.elts)
                    and [e.value for e in node.elts] == ["fr", "fl", "rr", "rl"]):
                limb_tuples.append(path.name)
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                  and all(isinstance(o, ast.Name) and o.id == "ALPHA"
                          for o in (node.left, node.right))):
                alpha_squares.append(path.name)
            elif (isinstance(node, ast.Attribute) and node.attr == "control_dt"
                  and isinstance(node.ctx, ast.Store)):
                control_dt_stores.append(path.name)
    assert limb_tuples == ["oscillator.py"]      # LIMBS
    assert alpha_squares == ["oscillator.py"]    # AMPLITUDE_GAIN
    assert control_dt_stores == []               # CONTROL_DT is the control period
    # the oscillator update, from the amplitude equation's stiffness
    assert readers_in_src("AMPLITUDE_GAIN") == [("oscillator.py", "advance")]
    # pattern formation: the scalar owner and the kernel's array form, plus
    # the registry writing the value back out as YAML
    assert readers_in_src("l_clrnc") == [
        ("batch.py", "foot_targets"), ("foot_trajectory.py", "foot_xz"),
        ("registry.py", "_entry_from_descriptor")]
    # the IK's per-leg constants: computed once per LegGeometry, read elsewhere
    for expr in IK_CONSTANTS:
        assert computations_in_src(expr) == [("kinematics.py", "__post_init__")], expr
    # the IK's abduction: one scalar solver for both leg types, and the kernel's
    assert computations_in_src("y * y + z * z") == [("batch.py", "ik"),
                                                     ("kinematics.py", "_solve")]
    # a foot's lateral offset is its leg's abd_offset; y_nominal is only the
    # registry file's name for it, and no per-leg copy of a record is made
    assert [p.name for p in MODULES if "y_nominal" in p.read_text()] == ["registry.py"]
    assert [p.name for p in MODULES if dataclass_replaces(p.read_text())] == []


def dataclass_replaces(source):
    """Every `dataclasses.replace` a module imports or reads."""
    return [node for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                and any(alias.name == "replace" for alias in node.names))
            or (isinstance(node, ast.Attribute) and node.attr == "replace"
                and isinstance(node.value, ast.Name) and node.value.id == "dataclasses")]


@pytest.mark.parametrize("snippet", [
    "from dataclasses import dataclass, replace",
    "import dataclasses\nx = dataclasses.replace(pf, h=1.0)"])
def test_replace_guard_catches(snippet):
    assert dataclass_replaces(snippet)


def test_replace_guard_allows_str_replace():
    assert dataclass_replaces("s = name.replace('-', '_')") == []


#: The IK's 3-DoF reach bound, 4-DoF quadratic coefficient and constant term.
IK_CONSTANTS = ("l1 - l2", "4.0 * l1 * l2", "l1 * l1 + l2 * l2 + l3 * l3 - 2.0 * l1 * l2")


def computations_in_src(expr):
    return [(path.name, fn) for path in MODULES
            for fn in computations_of(expr, path.read_text())]


def computations_of(expr, source):
    """Every function that evaluates `expr` (as `ast.unparse` writes it)."""
    return [fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, ast.BinOp) and ast.unparse(n) == expr for n in ast.walk(fn))]


def readers_in_src(field):
    return [(path.name, fn) for path in MODULES
            for fn in readers_of(field, path.read_text())]


def readers_of(field, source):
    """Every function that reads `field` as an attribute or a name: where a
    formula using it is written out."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, (ast.Attribute, ast.Name)) and isinstance(n.ctx, ast.Load)
                and (n.attr if isinstance(n, ast.Attribute) else n.id) == field
                for n in ast.walk(fn)):
            found.append(fn.name)
    return found


@pytest.mark.parametrize("fork", [
    "def step(pf, s):\n    return pf.z_off - pf.h + pf.l_clrnc * s",
    "def step(z0, l_clrnc, s):\n    return z0 + l_clrnc * s"])
def test_reader_guard_catches_a_forked_pattern_formation(fork):
    assert readers_of("l_clrnc", fork) == ["step"]


@pytest.mark.parametrize("fork", [
    "def ik(l1, l2):\n    return abs(l1 - l2)",
    "def ik(self):\n    l1, l2 = self.links[:2]\n    self.qa = 4.0*l1*l2",
    "def ik(l1, l2, l3, r):\n    return l1*l1 + l2*l2 + l3*l3 - 2.0*l1*l2 - r"])
def test_computation_guard_catches_a_second_ik_constant(fork):
    assert any(computations_of(expr, fork) == ["ik"] for expr in IK_CONSTANTS)


def _distribution_key(name):
    """A distribution name normalised as PEP 503 compares them."""
    return re.sub(r"[-_.]+", "-", name).lower()


def top_level_imports(tree):
    """The first component of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_own_or_declared():
    """`pip install -e .[test]` then `pytest` needs nothing undeclared."""
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project.get("dependencies", []) + [
        r for extra in project.get("optional-dependencies", {}).values() for r in extra]
    declared = {_distribution_key(re.match(r"[A-Za-z0-9._-]+", r).group())
                for r in requirements}
    own = {"quadcpg"} | {p.stem for p in TESTS.glob("*.py")}
    distributions = importlib.metadata.packages_distributions()
    undeclared = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(TESTS.glob("*.py")):
        for name in top_level_imports(ast.parse(path.read_text())):
            if name in sys.stdlib_module_names or name in own:
                continue
            if not {_distribution_key(d) for d in distributions.get(name, [])} & declared:
                undeclared.setdefault(name, path.relative_to(ROOT).as_posix())
    assert undeclared == {}
