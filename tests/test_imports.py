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


def test_only_surface_names_the_length_range():
    # the accepted lengths are one rule, which the command line applies
    # through surface._check_length rather than a range of its own
    naming = {p.name for p in PACKAGE.glob("*.py")
              if "LENGTH_RANGE" in names_in(p.read_text(encoding="utf-8"))}
    assert naming == {"surface.py"}


def string_literals(source):
    """The text of every string literal in a module's code, each literal
    part of an f-string on its own; docstrings are left out."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings]


# the texts of the spin sign rules; "on tree curve", because "tree curves"
# heads the tree line of spin --list
SIGN_RULE_TEXTS = ("expected +-1", "multiply to -1", "on tree curve")


def test_only_surface_holds_the_spin_sign_rules():
    # sign data are one domain, which the command line and the lifts
    # apply through surface's checks rather than rules of their own
    source = '"""expected +-1"""\ndef f(v):\n    raise E(f"{v}: expected +-1, got {v!r}")\n'
    assert string_literals(source) == [": expected +-1, got "]
    for text in SIGN_RULE_TEXTS:
        holding = {p.name for p in PACKAGE.glob("*.py")
                   if any(text in s for s in string_literals(p.read_text(encoding="utf-8")))}
        assert holding == {"surface.py"}, text


def unresolved_exports(module):
    """The entries of a module's ``__all__`` that are not attributes of
    it, which ``from module import *`` would fail on."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_the_check_sees_an_export_that_is_gone():
    module = types.ModuleType("gone")
    module.kept = None
    module.__all__ = ["kept", "deleted"]
    assert unresolved_exports(module) == ["deleted"]


EXPORTERS = [*MODULES, PACKAGE / "__init__.py"]


@pytest.mark.parametrize("path", EXPORTERS, ids=[p.stem for p in EXPORTERS])
def test_every_export_resolves(path):
    name = "fnhol" if path.stem == "__init__" else f"fnhol.{path.stem}"
    module = importlib.import_module(name)
    assert unresolved_exports(module) == []


# the names the package re-exports, by defining module, in ``__all__`` order
PACKAGE_API = {
    "mat2": ["Mat2", "TracelessMat2", "ad_action", "nearest_point_on_imaginary_axis",
             "translation_length"],
    "pants": ["PantsLengths", "bc_magnitude", "bc_magnitude_minus_one", "gauge_transform",
              "pants_cocycle", "seam_matrix", "standardize"],
    "surface": ["CellComplex", "Curve", "FNPoint", "SurfaceCocycle", "SurfaceSpec",
                "assemble_cocycle", "build_complex", "extract_fn", "holonomy",
                "validate_surface"],
    "variation": ["TangentVector", "VariationCocycle", "check_cocycle_condition", "coboundary",
                  "fd_variation", "grad_log_bc", "variation_cocycle"],
    "wp": ["diagonal_chain", "killing_form", "pair_on_face", "wolpert_reference", "wp_matrix",
           "wp_pairing"],
    "spin": ["SpinSurfaceCocycle", "assemble_spin", "enumerate_spin", "rot2",
             "sl2_pants_cocycle"],
}


def test_the_package_exports_each_name_of_its_defining_module():
    # the package loads a module when one of its names is first read
    # and returns that module's object, so its API is the same as when
    # it imported all of them
    fnhol = importlib.import_module("fnhol")
    names = [name for names in PACKAGE_API.values() for name in names]
    assert len(names) == 40 and fnhol.__all__ == names
    assert fnhol.__version__ == "0.1.0"
    star = {}
    exec("from fnhol import *", star)
    listed = set(dir(fnhol))
    for mod, names in PACKAGE_API.items():
        module = importlib.import_module(f"fnhol.{mod}")
        for name in names:
            assert getattr(fnhol, name) is getattr(module, name), name
            assert star[name] is getattr(module, name), name
            assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        fnhol.no_such_name
    assert not hasattr(fnhol, "no_such_name")


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


TRACED_DOC = {
    "genus": 2,
    "pants": [0, 1],
    "curves": [{"id": i, "left": {"pants": 0, "k": i}, "right": {"pants": 1, "k": i}}
               for i in range(3)],
    "fn": [{"curve": i, "length": 1.5 + i, "twist": 0.4 - i} for i in range(3)],
    "spin": {"eps": {"0": -1, "1": -1, "2": -1}},
}


def test_the_tracer_sees_the_layers_the_cli_loads_on_first_use():
    # the command line imports wp and spin when a command first needs
    # them and reads their functions at call time, so the benchmark's
    # spans there count every call; a stale binding would read 0
    from fnhol.cli import parse_document, run_command

    fnhol = importlib.import_module("fnhol")
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        doc = parse_document(json.dumps(TRACED_DOC))
        for command, list_spin in (("wp", False), ("spin", False), ("spin", True)):
            assert run_command(doc, command, list_spin=list_spin)[1] == 0, command
        traced = fnhol.wp_matrix
    finally:
        tracer.uninstall()
    totals = tracer.span_totals()
    for span in ("wp.wp_matrix", "spin.rot2", "spin.enumerate_spin"):
        assert totals.get(span, (0, 0.0))[0] > 0, span
    # nothing the package returned while traced outlives the tracer
    wp = importlib.import_module("fnhol.wp")
    assert traced.__wrapped__ is wp.wp_matrix
    assert fnhol.wp_matrix is wp.wp_matrix
    assert not hasattr(wp.wp_matrix, "__wrapped__")
    assert "wp_matrix" not in vars(fnhol)
