"""`import shellbound`, `bound` and `filter` need no numpy, so the modules they
load must not import numpy or a numpy-backed module when they load; those
imports belong inside the functions that use them.  Checked on the source,
so the guard does not depend on timing."""

import ast
from pathlib import Path

import shellbound

PACKAGE = Path(shellbound.__file__).parent
NUMPY_FREE = ("__init__.py", "cli.py", "errors.py", "exactpoly.py", "filter.py")
NUMPY_BACKED = {"numpy", "lattice", "design", "classify", "verify"}


def _imports_run_at_load(tree):
    """Import statements outside function bodies and `if TYPE_CHECKING:`."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _modules(node):
    """The modules an import statement loads, without the package prefix."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.module is None:
        names = [alias.name for alias in node.names]
    else:
        names = [node.module]
    return [name.removeprefix("shellbound.").split(".")[0] for name in names]


def numpy_backed_imports(source: str):
    return [
        (node.lineno, module)
        for node in _imports_run_at_load(ast.parse(source))
        for module in _modules(node)
        if module in NUMPY_BACKED
    ]


def test_numpy_free_modules_load_no_numpy():
    found = {name: numpy_backed_imports((PACKAGE / name).read_text(encoding="utf-8")) for name in NUMPY_FREE}
    assert found == {name: [] for name in NUMPY_FREE}


def test_the_check_sees_imports_that_run_at_load():
    source = (
        "import numpy as np\n"
        "from .lattice import builtin\n"
        "from . import design\n"
        "try:\n    import shellbound.classify\nexcept ImportError:\n    pass\n"
        "class C:\n    from .design import spectrum\n"
        "def f():\n    from .lattice import builtin\n"
        "if TYPE_CHECKING:\n    from .lattice import GramLattice\n"
        "from .exactpoly import binom\n"
    )
    assert sorted(numpy_backed_imports(source)) == [
        (1, "numpy"), (2, "lattice"), (3, "design"), (5, "classify"), (9, "design"),
    ]
