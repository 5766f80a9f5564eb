import ast
import importlib
import importlib.util
import json
import pathlib
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fnhol"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the canonical sign of a written matrix is the command line's business
PROJMAT2_FILES = {"mat2.py", "cli.py"}


def unused_imports(source):
    """Names a module imports and never uses: not read anywhere in it
    and not listed in its ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from .surface import SurfaceCocycle, assemble_cocycle\nassemble_cocycle()\n"
    assert unused_imports(source) == ["SurfaceCocycle (line 1)"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from .mat2 import Mat2\n__all__ = ['Mat2']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    # the package __init__ imports only to re-export, so it is not checked
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_in(source):
    """Every identifier a module's code uses or defines: names, attribute
    names, imported names and class and function names (not strings)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found.update((alias.name, alias.asname))
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found.add(node.name)
    return found


def test_projmat2_is_named_only_in_mat2_and_the_cli():
    assert "ProjMat2" in names_in("from .mat2 import ProjMat2 as P\n")
    assert "ProjMat2" in names_in("import fnhol.mat2\nfnhol.mat2.ProjMat2\n")
    assert "ProjMat2" not in names_in('"""ProjMat2 in a docstring"""\n')
    naming = {p.name for p in PACKAGE.glob("*.py")
              if "ProjMat2" in names_in(p.read_text(encoding="utf-8"))}
    assert naming == PROJMAT2_FILES


def unresolved_exports(module):
    """The entries of a module's ``__all__`` that are not attributes of
    it, which ``from module import *`` would fail on."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_the_check_sees_an_export_that_is_gone():
    module = types.ModuleType("gone")
    module.kept = None
    module.__all__ = ["kept", "deleted"]
    assert unresolved_exports(module) == ["deleted"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_export_resolves(path):
    module = importlib.import_module(f"fnhol.{path.stem}")
    assert unresolved_exports(module) == []


def _tracer():
    """``benchmarks/tracer.py``, loaded as a module without changing
    ``sys.path``."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_binds_resolves():
    # the traced benchmark spans every public function of its layers and
    # binds some methods; a per-layer metric whose name is gone would
    # fail only as "metric ... was not measured" in a traced run
    tracer = _tracer()
    methods = tracer.COUNTED_METHODS + tracer.SPANNED_METHODS
    for mod, cls, meth, _ in methods:
        owner = getattr(importlib.import_module(f"fnhol.{mod}"), cls)
        assert callable(getattr(owner, meth, None)), f"{cls}.{meth}"
    bound = {metric for *_, metric in methods}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    checked = 0
    for metric in metrics:
        layer, _, rest = metric["name"].partition(".")
        name, _, kind = rest.rpartition(".")
        if layer not in tracer.SPAN_LAYERS or kind not in ("calls", "self_ms"):
            continue
        if f"{layer}.{name}" not in bound:
            module = importlib.import_module(f"fnhol.{layer}")
            assert name in tracer.public_functions(module), metric["name"]
        checked += 1
    assert checked
