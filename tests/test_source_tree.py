"""The package holds only code that a command or the benchmark runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the FD harness and the group action are the test suite's own subjects
TEST_ONLY = {"finite_difference_check", "rotate_feature"}


def _names_used(tree: ast.AST) -> set[str]:
    """Every name a module reads, including attribute names and the string
    constants the benchmark's tracer looks attributes up by."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_module_function_has_a_caller():
    modules = sorted((ROOT / "src" / "svpoint").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in modules}
    used = set()
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        used |= _names_used(trees.get(path) or ast.parse(path.read_text()))
    unused = [f"{path.name}:{node.name}" for path, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name not in used | TEST_ONLY]
    assert unused == [], f"functions that nothing in src/ or perfbench/ calls: {unused}"
