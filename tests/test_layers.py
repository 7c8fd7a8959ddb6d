"""The package's modules import each other one way only, down the layer order.

Layers, lowest first: errors, graphs, doubling/spectral/exactlp, symmetry,
optimizer, families/classifier, cli; the package facade and ``__main__`` sit
on top.  A module may import its own layer or any lower one, never a higher
one, and the import graph has no cycle.  Every public name is used in src/
or listed with the reason it is public.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dublo

LAYERS = (
    ("errors",),
    ("graphs",),
    ("doubling", "spectral", "exactlp"),
    ("symmetry",),
    ("optimizer",),
    ("families", "classifier"),
    ("cli",),
    ("__init__", "__main__"),
)
LAYER_OF = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
SRC = Path(dublo.__file__).parent


def intra_package_imports(source: str) -> set[str]:
    """Names of the package modules a module's source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .a import x
                found.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "dublo":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "dublo" and len(parts) > 1:
                    found.add(parts[1])
    return found


def import_graph() -> dict[str, set[str]]:
    return {path.stem: intra_package_imports(path.read_text()) for path in SRC.glob("*.py")}


def test_every_module_has_a_layer():
    assert set(import_graph()) == set(LAYER_OF)


def test_imports_point_down_the_layers():
    wrong = [
        f"{module} -> {target}"
        for module, targets in import_graph().items()
        for target in targets
        if LAYER_OF[target] > LAYER_OF[module]
    ]
    assert wrong == []


def test_import_graph_is_acyclic():
    graph = import_graph()
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, " -> ".join(path + (module,))
        if module not in done:
            for target in graph[module]:
                visit(target, path + (module,))
            done.add(module)

    for module in graph:
        visit(module, ())


def test_families_does_not_import_the_optimizer():
    # families needs no LP: importing it must not pull in scipy.optimize
    assert "optimizer" not in import_graph()["families"]


def eager_scipy_imports(source: str) -> list[int]:
    """Lines that import scipy outside every function body."""
    lines = []

    def visit(node: ast.AST, deferred: bool) -> None:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        if not deferred and any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
        deferred = deferred or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, deferred)

    visit(ast.parse(source), False)
    return lines


def test_scipy_is_imported_only_inside_functions():
    # scipy.optimize and scipy.sparse cost most of the import time; load them on use
    eager = {path.stem: eager_scipy_imports(path.read_text()) for path in SRC.glob("*.py")}
    assert {module: lines for module, lines in eager.items() if lines} == {}


def test_eager_scipy_finder_sees_every_form():
    source = (
        "import scipy\nfrom scipy.optimize import linprog\nimport numpy, scipy.sparse\n"
        "class A:\n    from scipy import sparse\n    def f(self):\n        import scipy\n"
        "def g():\n    from scipy.sparse import csr_array\n"
    )
    assert eager_scipy_imports(source) == [1, 2, 3, 5]


def environment_reads(source: str) -> list[int]:
    """Lines that name ``os.environ`` or ``os.getenv``, as an attribute or an import."""
    names = ("environ", "getenv")
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in names for alias in node.names)
        )
    )


def test_only_the_cli_reads_the_environment():
    # DUBLO_SIZE_CAP is a CLI setting; library functions take every setting as an argument
    reads = {path.stem: environment_reads(path.read_text()) for path in SRC.glob("*.py")}
    assert {module: lines for module, lines in reads.items() if lines and module != "cli"} == {}


def test_environment_finder_sees_every_form():
    source = (
        "import os\nos.environ.get('A')\nfrom os import getenv\nx = os.getenv('B')\n"
        "from os import path, environ as env\nos.path.join('a')\nos.cpu_count()\n"
    )
    assert environment_reads(source) == [2, 3, 4, 5]


def modules_after_compute(
    family: str, modules: tuple[str, ...] = ("scipy.optimize", "scipy.optimize._highspy._core")
) -> list[str]:
    """Exit code of ``compute --family`` in a fresh interpreter, then whether
    each of ``modules`` (by default scipy.optimize and the HiGHS binding) is loaded."""
    script = (
        "import sys\nfrom dublo.cli import main\n"
        f"code = main(['compute', '--family', {family!r}])\n"
        f"print(code, *(name in sys.modules for name in {modules!r}), file=sys.stderr)\n"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.stderr.split()


def test_compute_without_lp_leaves_scipy_optimize_unloaded():
    assert modules_after_compute("petersen") == ["0", "False", "False"]


def test_lp_loads_the_highs_binding_without_scipy_optimize():
    # the binding is loaded from its file, so scipy.optimize's imports never run
    assert modules_after_compute("three_legs") == ["0", "False", "True"]


def test_compute_leaves_multiprocessing_unloaded():
    # only batch with more than one worker starts a process pool
    assert modules_after_compute("three_legs", ("multiprocessing",)) == ["0", "False"]


def exactlp_sites(source: str) -> set[str]:
    """Qualified names of the functions (or "<module>") whose code names ``exactlp``."""
    sites = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        named = (
            (isinstance(node, ast.Name) and node.id == "exactlp")
            or (isinstance(node, ast.alias) and node.name.split(".")[-1] == "exactlp")
            or (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("exactlp"))
        )
        if named:
            sites.add(".".join(scope) or "<module>")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_exact_simplex_is_named_only_by_check_exact():
    # the dense Fraction simplex is the test reference, not a compute-path stage
    sites = {
        f"{path.stem}:{site}"
        for path in SRC.glob("*.py")
        if path.stem != "exactlp"
        for site in exactlp_sites(path.read_text())
    }
    assert sites == {"optimizer:FeasibilityProblem.check_exact"}


def test_exactlp_site_finder_sees_every_form():
    source = (
        "from . import exactlp\nclass A:\n    def f(self):\n        import dublo.exactlp\n"
        "def g():\n    from .exactlp import feasible_min_one\ndef h():\n    return exactlp\n"
    )
    assert exactlp_sites(source) == {"<module>", "A.f", "g", "h"}


def test_import_parser_sees_every_form():
    source = (
        "import numpy\nfrom . import a, b\nfrom .c import x\nfrom dublo.d import y\n"
        "from dublo import f\nimport dublo.e\ndef late():\n    from .g import z\n"
    )
    assert intra_package_imports(source) == {"a", "b", "c", "d", "e", "f", "g"}



def references_outside_definitions(source: str) -> set[str]:
    """Names a module loads (as a name or an attribute), except inside its own
    top-level definition of that name."""
    found = set()
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = {top.name}
        else:
            own = {
                node.id
                for node in ast.walk(top)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
        loads = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)
        }
        found |= loads - own
    return found



# the public names that no module in src/ references, each with its one-word
# reason: an "entry" point of the library, a name the perfbench "tracer" binds,
# or a "reference" for the tests, kept in src/ beside the private search it
# drains until the tracer stops binding the symmetry layer
UNREFERENCED_PUBLIC = {
    "automorphisms": "reference",
    "ball": "entry",
    "catalog": "entry",
    "feasible": "entry",
    "is_vertex_transitive": "tracer",
    "orbit_partition": "tracer",
}


def public_definitions(source: str) -> set[str]:
    """Names of a module's top-level functions and classes that do not start with _."""
    return {
        top.name
        for top in ast.parse(source).body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not top.name.startswith("_")
    }


def test_every_public_name_is_used_in_src_or_listed():
    # src/ holds the pipeline: a public name nothing in src/ uses is an entry point,
    # a tracer binding or a listed reference; test-only helpers live in tests/
    used, public = set(), set(dublo.__all__)
    for path in SRC.glob("*.py"):
        source = path.read_text()
        public |= public_definitions(source)
        if path.stem not in ("__init__", "__main__"):
            used |= references_outside_definitions(source)
    assert public - used == set(UNREFERENCED_PUBLIC)
    assert set(UNREFERENCED_PUBLIC.values()) <= {"entry", "tracer", "reference"}


def test_public_definition_finder_sees_every_form():
    source = (
        "def f():\n    def inner():\n        pass\nasync def g():\n    pass\n"
        "class C:\n    def method(self):\n        pass\ndef _private():\n    pass\nh = f\n"
    )
    assert public_definitions(source) == {"f", "g", "C"}


# the count of parameters with a default over every function in src/: each one
# is a setting some caller may pass, so the count only goes down
DEFAULTED_PARAMETERS = 18


def defaulted_parameters(source: str) -> int:
    """Positional defaults plus keyword-only defaults over every ``def`` in a module."""
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
    )


def test_defaulted_parameter_count_does_not_grow():
    assert sum(defaulted_parameters(p.read_text()) for p in SRC.glob("*.py")) == DEFAULTED_PARAMETERS


def test_defaulted_parameter_counter_sees_every_form():
    source = (
        "def f(a, b=1, *args, c, d=None, e=2, **kw):\n    def g(x=0):\n        pass\n"
        "class C:\n    def m(self, y=3, *, z):\n        pass\nh = lambda q=1: q\n"
    )
    # b, d, e, x and y: a keyword-only default of None still counts; lambdas do not
    assert defaulted_parameters(source) == 5


def test_reference_finder_sees_every_form():
    source = (
        "A = 1\nB = A + 1\ndef f():\n    return f()\ndef g():\n    return mod.h\n"
        "class C:\n    d = C\nx: int = E\n"
    )
    # f and C name only themselves, so neither counts; B is never loaded
    assert references_outside_definitions(source) == {"A", "h", "mod", "E", "int"}
