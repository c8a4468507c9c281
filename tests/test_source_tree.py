"""The package holds only code that a command or the benchmark runs, and
each module imports only the layers below it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "svpoint").glob("*.py"))
# the package modules each module may import: only the layers below it
LAYERS_BELOW = {
    "errors": set(),
    "autodiff": {"errors"},
    "binkernel": {"errors", "autodiff"},
    "svcore": {"errors", "autodiff", "binkernel"},
    "geometry": {"errors", "autodiff"},
    "netbuild": {"errors", "autodiff", "svcore", "geometry"},
    "cli": {"errors", "autodiff", "svcore", "geometry", "netbuild"},
}


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


def _trees_and_names_used():
    """Each package module's syntax tree, and the names that the package
    and the benchmark read; the package's re-export list reads nothing."""
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    used = set()
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        if path.name != "__init__.py":
            used |= _names_used(trees.get(path) or ast.parse(path.read_text()))
    return trees, used


def test_every_module_function_has_a_caller():
    trees, used = _trees_and_names_used()
    unused = [f"{path.name}:{node.name}" for path, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name not in used]
    assert unused == [], f"functions that nothing in src/ or perfbench/ calls: {unused}"


def test_every_class_and_public_method_has_a_reader():
    trees, used = _trees_and_names_used()
    unused = []
    for path, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            if cls.name not in used:
                unused.append(f"{path.name}:{cls.name}")
            unused += [f"{path.name}:{cls.name}.{item.name}" for item in cls.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                       and item.name not in used]
    assert unused == [], f"classes and methods that nothing in src/ or perfbench/ reads: {unused}"


def _package_imports(tree: ast.AST) -> set[str]:
    """The package modules a module imports (the package imports relatively)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
    return names


def test_modules_import_only_the_layers_below_them():
    wrong = [f"{path.stem} -> {name}" for path in MODULES if path.stem != "__init__"
             for name in sorted(_package_imports(ast.parse(path.read_text()))
                                - LAYERS_BELOW.get(path.stem, set()))]
    assert wrong == [], f"imports against the layer order: {wrong}"


def test_benchmark_tracer_installs(monkeypatch):
    """Every name the benchmark's tracer wraps exists, and uninstall puts
    each original back."""
    from svpoint import autodiff

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    import workloads

    originals = {name: getattr(autodiff, name) for name in tracing.AUTODIFF_PRIMS}
    tracer = tracing.Tracer()
    try:
        tracer.install(workloads)
        assert all(getattr(autodiff, name) is not fn for name, fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(autodiff, name) is fn for name, fn in originals.items())


def test_tracer_backward_wrapper_runs_in_the_sweep(monkeypatch):
    """The benchmark's tracer wraps a primitive's output `_grad_fn` once the
    primitive returns; the assignment reaches the slot the sweep calls, so
    `Tape.backward` runs the wrapper and records the backward span, and
    the sweep lets go of the wrapper afterwards."""
    import weakref

    import numpy as np
    from svpoint import autodiff as ad

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    mul = tracer.wrap_primitive("autodiff.mul", ad.mul)
    x = ad.parameter(np.arange(3.0))
    with ad.Tape() as tape:
        y = mul(x, 2.0)
        loss = ad.reshape(ad.matmul(ad.reshape(y, (1, 3)), np.ones((3, 1))), ())
    wrapper = weakref.ref(y._grad_fn)
    assert wrapper() is tape.nodes[0].slot.grad_fn
    tape.backward(loss)
    assert [span[0] for span in tracer.spans] == ["autodiff.mul.fwd", "autodiff.mul.bwd"]
    assert x.grad.tolist() == [2.0, 2.0, 2.0]
    assert y._grad_fn is None and wrapper() is None
