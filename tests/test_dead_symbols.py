"""No test-only API: every name ``src/`` defines is used outside ``tests/``.

An AST scan collects each function, method and class defined under
``src/`` and every identifier referenced — a name, an attribute, or a
string constant such as an ``__all__`` entry — in ``src/``,
``benchmarks/``, ``perfbench/`` and ``examples/``.  A definition whose
name is never referenced there has no caller but the tests.  Matching is
by bare name, so a method counts as used when any object's attribute of
that name is.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
USER_DIRS = ("src", "benchmarks", "perfbench", "examples")

#: Reference implementations the tests check the system against.
ORACLES = {
    "brute_force_split",
    "degraded_makespan_bound",
    "jacobi_reference",
    "log_gaussian_pdf",
    "steady_state",
}


def _trees(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _unreferenced() -> dict[str, list[str]]:
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for directory in USER_DIRS:
        for path, tree in _trees(directory):
            for node in ast.walk(tree):
                if directory == "src" and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and not node.name.startswith("__"):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    defined.setdefault(node.name, []).append(where)
                elif isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    referenced.add(node.value)
    return {
        name: where for name, where in defined.items()
        if name not in referenced
    }


def test_no_new_test_only_symbols():
    unreferenced = _unreferenced()
    new = {
        name: where for name, where in unreferenced.items()
        if name not in ORACLES
    }
    assert not new, f"defined in src/ but used only by tests: {new}"
    stale = ORACLES - set(unreferenced)
    assert not stale, (
        f"allowlisted but no longer test-only (used or deleted): {stale}"
    )
