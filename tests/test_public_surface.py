"""The package's public surface stays consistent with its code.

No linter ships with the project, so these checks read the sources with
the standard library's ast module: every name a module exports through
__all__ must exist, and every module-level import must be used, so a
deleted function cannot leave a stale export or import behind.  Every
import of the package's own modules sits at module level, so a lazy
import cannot hide an import cycle.  A module imports another module's
underscore name only when the name is on an allow-list with the reason
it is shared, so private helpers stay with the module that uses them.
No module writes an underscore attribute of another object, so no
object carries private state that some other code sets behind its back.
No knob hides in the environment: no module reads an environment
variable.  Only cli touches files: no other module calls open,
os.replace or os.fdopen or uses tempfile, so every artifact is formed and
written in one place.  The cone field delta chi(eps^2 + q) has one
formula: only ke_solver (KEProblem) calls chi_values, besides
cone_smoothing, which defines it.  No module reads a
.kind attribute, so no code dispatches on a tau model's kind string: each
tau model forms its own Im tau and moduli density.  Importing the CLI
loads no scipy module, nor does building and stepping the 4D
oracle (only the chi quadrature imports it, when it runs).  The package
itself binds no name, so each name has one import path, its module's,
and importing the package alone loads none of them.  preconditioned_cg
keeps the signature that the benchmark tracer and the tests'
cg_tolerances wrap, flow_step takes only a state and its ops, so a
second time-stepping scheme cannot return as an option, and run_flow
requires its four observers, so it has no unobserved mode.  No
test-only code hides in the package: every top-level function and class
is used by the package or the benchmark, and every parameter with a
default is set by some call in the package or the benchmark, so no
option exists that only the tests set.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import coneflow

SRC = os.path.dirname(coneflow.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "bench")
MODULES = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))


def qualified(module):
    return "coneflow" if module == "__init__" else f"coneflow.{module}"


def module_level_imports(tree):
    """{bound name: line} for the import statements at the top level of a
    module (not those inside functions, classes or if blocks)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(qualified(module))
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{qualified(module)}.__all__ names {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(qualified(module)),
                        "__all__", ()))
    unused = {name: line for name, line in module_level_imports(tree).items()
              if name not in used}
    assert not unused, f"{qualified(module)}: unused imports {unused}"


def is_package_import(node):
    """Whether node imports one of the package's own modules."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").startswith("coneflow")
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "coneflow" for alias in node.names)


def test_package_imports_are_at_module_level():
    nested = []
    for module in MODULES:
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            tree = ast.parse(fh.read())
        top = {id(node) for node in tree.body}
        nested += [f"{module}.py:{node.lineno}" for node in ast.walk(tree)
                   if is_package_import(node) and id(node) not in top]
    assert not nested, f"package imports below module level at {nested}"


# The underscore names that modules import from one another, each with
# the reason it is shared.
SHARED_PRIVATE_NAMES = {
    "_step_count": "the one horizon rule: cli checks a run config's T and "
                   "dt with the rule run_flow applies",
    "_steps_to": "the one horizon rule's step count, by which cli caps a "
                 "--quick horizon and verify picks its trace times",
    "_lap_multiplier": "the Laplacian symbol, whose bits the Newton and "
                       "flow-step operators share with lap_values",
    "_fiber_threshold": "F-Lp's growth rule, which verify applies to "
                        "validate_lp's integrals",
}


def test_underscore_names_are_imported_only_from_the_allow_list():
    imported = {}
    for module in MODULES:
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and is_package_import(node):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        imported.setdefault(alias.name, []).append(module)
    assert imported.keys() == SHARED_PRIVATE_NAMES.keys(), \
        f"underscore names imported across modules: {imported}"


def assigned_attributes(node):
    """The ast.Attribute nodes among an assignment target's parts."""
    if isinstance(node, ast.Attribute):
        yield node
    elif isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from assigned_attributes(elt)
    elif isinstance(node, ast.Starred):
        yield from assigned_attributes(node.value)


@pytest.mark.parametrize("module", MODULES)
def test_no_foreign_private_attribute_writes(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    writes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for attr in assigned_attributes(target):
                owner = attr.value
                if attr.attr.startswith("_") and not (
                        isinstance(owner, ast.Name) and owner.id == "self"):
                    writes.append((ast.unparse(attr), attr.lineno))
    assert not writes, f"{qualified(module)}: private attributes of other " \
        f"objects assigned at {writes}"


def environment_reads(tree):
    """[(enclosing function, line)] of every os.environ or os.getenv use
    and of every import of either name from os."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in (
                "environ", "getenv") and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            found.append((where, node.lineno))
        if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ("environ", "getenv") for alias in node.names):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_no_module_reads_the_environment():
    reads = {}
    for module in MODULES:
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            for where, line in environment_reads(ast.parse(fh.read())):
                reads.setdefault((module, where), []).append(line)
    assert not reads, f"the environment is read at {reads}"


def file_operations(tree):
    """[(operation, line)] of every call of open, os.replace or os.fdopen
    and of every use of the tempfile module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "open", "os.replace", "os.fdopen"):
            found.append((ast.unparse(node.func), node.lineno))
        elif isinstance(node, ast.Name) and node.id == "tempfile" or \
                isinstance(node, ast.ImportFrom) and node.module == "tempfile":
            found.append(("tempfile", node.lineno))
    return found


def test_only_cli_touches_files():
    found = {}
    for module in MODULES:
        if module == "cli":
            continue
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            operations = file_operations(ast.parse(fh.read()))
        if operations:
            found[module] = operations
    assert not found, f"files are opened, written or renamed at {found}"


def chi_values_calls(tree):
    """Lines of the calls to chi_values, by bare name or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and "chi_values" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))]


def test_only_ke_solver_forms_cone_fields():
    calls = {}
    for module in MODULES:
        if module in ("ke_solver", "cone_smoothing"):
            continue
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            lines = chi_values_calls(ast.parse(fh.read()))
        if lines:
            calls[module] = lines
    assert not calls, f"chi_values is called at {calls}"


def kind_reads(tree):
    """[(top-level definition, line)] of every read of a .kind attribute."""
    return [(getattr(top, "name", "<module>"), node.lineno)
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "kind"
            and isinstance(node.ctx, ast.Load)]


def test_no_module_reads_a_kind_attribute():
    reads = {}
    for module in MODULES:
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            found = kind_reads(ast.parse(fh.read()))
        if found:
            reads[module] = found
    assert not reads, f".kind is read at {reads}"


def modules_after(code, prefix="scipy"):
    """The modules whose names start with prefix that are loaded once code
    has run in a fresh interpreter, so that no other test's import is
    counted."""
    code += ("\nprint(sorted(m for m in sys.modules"
             f" if m.startswith({prefix!r})))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    assert modules_after("import coneflow.cli") == "[]"


def test_package_import_loads_no_module():
    # each name is imported from its own module, and only that module
    # and the ones it imports are loaded
    assert modules_after("import coneflow", "coneflow.") == "[]"


def test_package_init_binds_no_name():
    with open(os.path.join(SRC, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    assert ast.get_docstring(tree)
    assert [type(node) for node in tree.body] == [ast.Expr]


def test_oracle_step_loads_no_scipy():
    assert modules_after(
        "from coneflow.fibration_model import product_model\n"
        "from coneflow.flow_engine import ProductFlow4D\n"
        "from coneflow.ke_solver import build_problem\n"
        "oracle = ProductFlow4D(build_problem(product_model(), 16, 0.2),\n"
        "                       nf=8, nb=16)\n"
        "oracle.run(T=0.01, dt=0.01, reduced_reference=True)") == "[]"


def test_preconditioned_cg_signature():
    with open(os.path.join(SRC, "ke_solver.py")) as fh:
        tree = ast.parse(fh.read())
    (cg,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "preconditioned_cg"]
    assert ast.unparse(cg.args) == "coeff, op_symbol, b, rel_tol=1e-12"


def flow_engine_signature(name):
    with open(os.path.join(SRC, "flow_engine.py")) as fh:
        tree = ast.parse(fh.read())
    (func,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == name]
    return ast.unparse(func.args)


def test_flow_step_signature():
    # one time stepper: no scheme or other option selects a second one
    assert flow_engine_signature("flow_step") == \
        "state: FlowState, ops: FlowOps"


def test_run_flow_signature():
    # one observed flow: the masks, target, monitor mask and snapshot
    # times are required, so no caller runs an unobserved mode
    assert flow_engine_signature("run_flow") == (
        "problem: KEProblem, T: float, dt: float, scheme: str="
        "'backward-euler-newton', *, masks: dict, target_phi: ScalarField, "
        "monitor_mask, snapshot_times")


def used_names(tree):
    """The names that tree uses, as bare names or attributes, each with
    the top-level definition it is used in (None at module level), so a
    function's call of itself can be told apart from a use."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.Name):
            found.add((node.id, owner))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in tree.body:
        visit(node, getattr(node, "name", None))
    return found


def layer_names(tree):
    """Every dotted part of the strings in bench/tracing.py's LAYERS, the
    names the tracer looks up by string."""
    (layers,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "LAYERS"]
    return {part for node in ast.walk(layers) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) for part in node.value.split(".")}


# Definitions that only the tests call, each an independent oracle.
TEST_ORACLES = {
    "chi": "the adaptive-quadrature kernel that checks chi_values",
    "ProductFlow4D": "the 4D flow that checks the reduced flow (criterion 7)",
}
# Functions whose defaulted parameters only the tests set, each with why.
TEST_SET_DEFAULTS = {
    "cli.main": "the console entry point: argv defaults to sys.argv, and "
                "the tests pass their own",
    "flow_engine.ProductFlow4D.__init__": "the oracle's grid sizes and fiber "
                                          "area are chosen by each test",
    "flow_engine.ProductFlow4D.initial_state": "the oracle's perturbed fiber "
                                               "mode is a test's choice",
    "flow_engine.ProductFlow4D.run": "the oracle's start and reference "
                                     "comparison are a test's choice",
}


def test_every_definition_is_used_by_the_package_or_the_benchmark():
    defined, used = {}, set()
    for module in MODULES:
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = module
        used |= used_names(tree)
    for name in sorted(os.listdir(BENCH)):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name)) as fh:
                tree = ast.parse(fh.read())
            used |= used_names(tree)
            if name == "tracing.py":
                used |= {(part, None) for part in layer_names(tree)}
    unused = {name: module for name, module in defined.items()
              if not any(n == name and owner != name for n, owner in used)}
    assert unused.keys() == TEST_ORACLES.keys(), \
        f"defined in src/ but used only by the tests: {unused}"


def defaulted_parameters(tree, module):
    """[(called name, qualified function, parameter, position)] for every
    parameter with a default of every function and method in tree.  A
    method's first parameter (self) takes no position, __init__ is called
    by its class's name, and a keyword-only parameter has no position."""
    found = []

    def visit(node, cls, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                if cls is not None:
                    positional = positional[1:]
                called = cls if child.name == "__init__" else child.name
                where = f"{prefix}{child.name}"
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((called, where, arg.arg, i))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((called, where, arg.arg, None))
                visit(child, None, f"{where}.")
            else:
                visit(child, cls, prefix)

    visit(tree, None, f"{module}.")
    return found


def calls_by_name(tree):
    """[(called name, call)] of every call in tree, by bare name or as an
    attribute."""
    return [(getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                       None), node)
            for node in ast.walk(tree) if isinstance(node, ast.Call)]


def sets_parameter(call, name, position):
    """Whether call passes the parameter by keyword or by position; a
    **mapping or a *sequence may pass anything."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and any(
        isinstance(arg, ast.Starred) or i == position
        for i, arg in enumerate(call.args))


def test_every_default_is_set_by_the_package_or_the_benchmark():
    # calls are matched by name alone, so a same-named call elsewhere may
    # hide an unset parameter, but a parameter with a real setter is never
    # flagged
    defaults, calls = [], []
    for module in MODULES:
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            tree = ast.parse(fh.read())
        defaults += defaulted_parameters(tree, module)
        calls += calls_by_name(tree)
    for name in sorted(os.listdir(BENCH)):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name)) as fh:
                calls += calls_by_name(ast.parse(fh.read()))
    unset = [f"{where}({param})" for called, where, param, position in defaults
             if where not in TEST_SET_DEFAULTS and not any(
                 n == called and sets_parameter(call, param, position)
                 for n, call in calls)]
    assert not unset, f"parameters with defaults that only the tests set: " \
        f"{unset}"
