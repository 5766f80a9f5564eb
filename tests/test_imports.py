import ast
import importlib
import importlib.util
import json
import os
import pathlib
import re
import shlex
import sys
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


def outside_imports(source):
    """The modules a module imports that are neither relative nor part of
    the standard library, each with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_every_import_is_relative_or_of_the_standard_library():
    # the core stays standard-library only, whether or not an import runs
    source = "import os.path, numpy\nfrom .mat2 import Mat2\ndef f():\n    from scipy import linalg\n"
    assert outside_imports(source) == ["numpy (line 1)", "scipy (line 4)"]
    for path in PACKAGE.glob("*.py"):
        assert outside_imports(path.read_text(encoding="utf-8")) == [], path.name


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


def test_only_pants_names_the_length_range():
    # the accepted lengths are one rule, in the lowest module that takes a
    # length, which assembly and the command line apply through
    # pants._check_length rather than a range of their own
    naming = {p.name for p in PACKAGE.glob("*.py")
              if "LENGTH_RANGE" in names_in(p.read_text(encoding="utf-8"))}
    assert naming == {"pants.py"}


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


def test_only_mat2_renormalizes():
    # the rescaling to determinant 1 is one rule, mat2._renormalized,
    # which face residuals and the pairing kernel's moves call rather than
    # writing it out, so only mat2 holds its refusal
    holding = {p.name for p in PACKAGE.glob("*.py")
               if any("cannot renormalize" in s
                      for s in string_literals(p.read_text(encoding="utf-8")))}
    assert holding == {"mat2.py"}


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
    "mat2": ["Mat2", "ad_action", "translation_length"],
    "pants": ["pants_cocycle"],
    "surface": ["CellComplex", "Curve", "FNPoint", "SurfaceCocycle", "SurfaceSpec",
                "assemble_cocycle", "build_complex", "extract_fn", "holonomy"],
    "variation": ["TangentVector", "VariationCocycle", "variation_cocycle"],
    "wp": ["diagonal_chain", "killing_form", "wp_matrix", "wp_pairing"],
    "spin": ["SpinSurfaceCocycle", "assemble_spin", "enumerate_spin", "rot2",
             "sl2_pants_cocycle"],
}


def test_the_package_exports_each_name_of_its_defining_module():
    # the package loads a module when one of its names is first read
    # and returns that module's object, so its API is the same as when
    # it imported all of them
    fnhol = importlib.import_module("fnhol")
    names = [name for names in PACKAGE_API.values() for name in names]
    assert len(names) == 25 and fnhol.__all__ == names
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


def readme_block(heading, lang):
    """The first ``lang`` code block under README's ``heading``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _runs_code(stmt):
    """Whether a statement runs code of its own: a docstring or other
    bare string does not, and neither does ``try:``, whose body and
    handlers are statements of their own."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return not isinstance(stmt.value.value, str)
    return not isinstance(stmt, ast.Try)


def statements_in(source, path, module):
    """(path, first line, last line) -> qualified name, such as
    ``mat2.Mat2.inv``, of the function whose body holds the statement,
    for every statement in a function body of a module's source.  A
    simple statement spans all its lines; a compound one only its
    header, up to its first inner statement, which counts on its own; a
    nested ``def`` spans its decorators and its ``def`` line, and its
    body belongs to the nested function.  Running a statement emits a
    line event for at least one of its lines, and only running it does."""
    found = {}

    def visit(node, name):
        for stmt in node.body:
            if isinstance(stmt, ast.ClassDef):
                visit(stmt, f"{name}.{stmt.name}")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_body(stmt.body, f"{name}.{stmt.name}")

    def visit_body(body, name):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
                found[path, first, stmt.lineno] = name
                visit_body(stmt.body, f"{name}.{stmt.name}")
                continue
            inner = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
            inner += [handler.body for handler in getattr(stmt, "handlers", [])]
            inner = [b for b in inner if b]
            if _runs_code(stmt):
                last = stmt.body[0].lineno - 1 if inner else stmt.end_lineno
                found[path, stmt.lineno, max(stmt.lineno, last)] = name
            for b in inner:
                visit_body(b, name)

    visit(ast.parse(source), module)
    return found


def defined_statements():
    """:func:`statements_in` over every module of the package, by real path."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        found.update(statements_in(path.read_text(encoding="utf-8"), str(path.resolve()),
                                   path.stem))
    return found


def test_the_statement_table_reads_bodies_and_headers():
    source = (
        "import os\n"
        "class C:\n"
        "    def f(self, x):\n"
        "        \"\"\"doc\"\"\"\n"
        "        if (x and\n"
        "                x > 1):\n"
        "            return [x,\n"
        "                    x]\n"
        "        try:\n"
        "            @staticmethod\n"
        "            def g():\n"
        "                return 1\n"
        "        except ValueError:\n"
        "            raise\n"
        "        return None\n"
        "def h():\n"
        "    for x in ():\n"
        "        pass\n"
        "    else:\n"
        "        x = 0\n"
    )
    found = statements_in(source, "demo.py", "demo")
    assert {(first, last): name for (_, first, last), name in found.items()} == {
        (5, 6): "demo.C.f",
        (7, 8): "demo.C.f",
        (10, 11): "demo.C.f",
        (12, 12): "demo.C.f.g",
        (14, 14): "demo.C.f",
        (15, 15): "demo.C.f",
        (17, 17): "demo.h",
        (18, 18): "demo.h",
        (20, 20): "demo.h",
    }


_PINNED = "a per-layer metric of BENCHMARK.json names it"
_PINNED_ONLY = "only a function a per-layer metric names calls it"
_REFERENCE_PATH = ("only wp._transported, which only a function a per-layer metric names "
                   "calls, reaches it; the pairing kernel writes its arithmetic out")
# The code of the package that the corpus below never runs, each with the
# reason it ships: a function none of whose statements runs, by name, or
# one statement of a function that runs, as "function: its first line".
# Every __repr__ is left out as well.  A reference computation that tests
# compare the package against belongs in tests/oracles.py, not here.
NOT_RUN = {
    "mat2.Mat2.__matmul__": _PINNED,
    "wp.diagonal_chain": _PINNED,
    "wp.pair_chain": _PINNED,
    "wp._transported": _PINNED_ONLY,
    "wp.killing_form": _PINNED_ONLY,
    "variation.VariationCocycle.value": _REFERENCE_PATH,
    "mat2.ad_action": _REFERENCE_PATH,
    "mat2.Mat2.inv": _REFERENCE_PATH,
}


def test_the_package_keeps_unrun_code_only_for_the_benchmark():
    # a method that only tests read belongs in tests/oracles.py: the
    # package ships code the corpus does not run only where a per-layer
    # metric pins it, or on the reference path such code reaches
    assert set(NOT_RUN.values()) <= {_PINNED, _PINNED_ONLY, _REFERENCE_PATH}


def not_run(statements, ran):
    """What of ``statements`` (from :func:`defined_statements`) no line
    in ``ran``, a set of (file, line), belongs to, named as in NOT_RUN."""
    by_function = {}
    for (path, first, last), name in statements.items():
        hit = any((path, line) in ran for line in range(first, last + 1))
        by_function.setdefault(name, []).append((hit, path, first))
    never = set()
    for name, stmts in by_function.items():
        if not any(hit for hit, _, _ in stmts):
            never.add(name)
            continue
        for hit, path, first in stmts:
            if not hit:
                line = pathlib.Path(path).read_text(encoding="utf-8").splitlines()[first - 1]
                never.add(f"{name}: {line.strip()}")
    return {name for name in never if ".__repr__" not in name}


def test_the_check_names_a_function_or_its_statement(tmp_path):
    path = tmp_path / "demo.py"
    path.write_text("def f(x):\n    if x:\n        return 1\n    return 2\n"
                    "def g():\n    return 3\n"
                    "class C:\n    def __repr__(self):\n        return 'C'\n")
    statements = statements_in(path.read_text(), str(path), "demo")
    assert not_run(statements, {(str(path), 2), (str(path), 4)}) == {"demo.f: return 1",
                                                                     "demo.g"}


def test_the_commands_and_the_library_example_enter_every_function(tmp_path, capsys):
    # the package ships the statements it runs: every statement in a
    # function body of src/fnhol runs under the corpus below, save those
    # listed above.  The corpus: README's six commands in text and JSON
    # and its library example; every document and every hand-built value
    # the tests refuse; a document per genus 2..8 on a random gluing
    # through every command; a face word's holonomy; a boundary loop's
    # rotation number with its steps given as lists and a lift's face
    # residual; one pants' lift on its own; short curves that leave no
    # lift to +I, through spin and wp (the outcome is not asserted here);
    # an assignment to a parsed document; the package's
    # dir() and a name it does not have.  Line events come from
    # sys.settrace, in the package's frames only, so that the corpus runs
    # at speed outside them, on every supported Python
    import fnhol.cli
    from fnhol.spin import assemble_spin, enumerate_spin, rot2, sl2_pants_cocycle
    from conftest import genus2_spec, random_fn, random_gluing, rng_for
    from test_cli import (FACE_WORD, README_COMMANDS, REFUSED_DOCUMENTS, _document, _handle_doc,
                          write_document)
    from test_surface import LIBRARY_REFUSALS

    doc = tmp_path / "surface.json"
    doc.write_text(readme_block("## Command line", "json"))
    lines = readme_block("## Command line", "sh").splitlines()
    commands = [argv[1:] for argv in (shlex.split(l, comments=True) for l in lines) if argv]
    assert len(commands) == 6
    rng = rng_for("statements")
    gluings = []
    for genus in range(2, 9):
        spec = random_gluing(rng, genus)
        eps_list, classes = enumerate_spin(spec)
        raw = _document(spec, random_fn(rng, spec), rng.choice(eps_list), rng.choice(classes))
        pid, k = spec.curves[0].left
        gluings.append((raw, f"p{pid}.b{k}0 p{pid}.b{k}1"))
    # one curve at 1e-3 still lifts to +I; all three leave no lift, and
    # at 1e-6 the pairing kernel cannot renormalize a move
    shorts = []
    for length in (1e-3, 1e-6):
        short = _handle_doc(length)
        for item in short["fn"]:
            item["length"] = length
        shorts.append(short)
    # a pattern the cache already holds would not run the function
    importlib.import_module("fnhol.wp")._chain_shape.cache_clear()
    files = {str(p.resolve()) for p in PACKAGE.glob("*.py")}
    in_package = {}
    ran = set()

    def lines_of(frame, event, _):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines_of

    def calls(frame, event, _):
        name = frame.f_code.co_filename
        inside = in_package.get(name)
        if inside is None:
            inside = in_package[name] = os.path.realpath(name) in files
        return lines_of if inside else None

    def run(path, command, *flags):
        return fnhol.cli.main([command, "--input", str(path), *flags])

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for flags in (["--format", "text"], ["--format", "json", "--tolerance", "1e-8"]):
            for argv in commands:
                argv = [str(doc) if a == "surface.json" else a for a in argv]
                assert fnhol.cli.main(argv + flags) == 0, argv
        for content, argv, _ in REFUSED_DOCUMENTS.values():
            assert run(write_document(tmp_path / "refused.json", content), *argv) == 2, argv
        with pytest.raises(SystemExit):
            run(doc, "verify", "--tolerance", "nan")
        for call, error, _ in LIBRARY_REFUSALS.values():
            with pytest.raises(error):
                call()
        for raw, word in gluings:
            path = write_document(tmp_path / "gluing.json", raw)
            for command, *flags in README_COMMANDS:
                flags = ["--word", word] if command == "holonomy" else flags
                assert run(path, command, *flags) == 0, (raw["genus"], command)
        assert run(doc, "holonomy", "--word", FACE_WORD) == 0
        spec = genus2_spec()
        lift = assemble_spin(spec, random_fn(rng, spec), dict.fromkeys(range(3), -1))
        assert rot2(lift, [["p0.b00", 1], ["p0.b01", 1]]) in (0, 1)
        assert lift.face_residual("p0.hex-") <= 1e-8
        sl2_pants_cocycle((2.0, 2.0, 2.0), (-1, -1, -1))
        for short in shorts:
            path = write_document(tmp_path / "short.json", short)
            run(path, "spin")
            run(path, "wp")
        parsed = fnhol.cli.parse_document(doc.read_text())
        with pytest.raises(AttributeError):
            parsed.spin = None
        dir(fnhol)
        assert not hasattr(fnhol, "no_such_name")
        exec(compile(readme_block("## Library example", "python"), "README", "exec"), {})
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    ran = {(os.path.realpath(name), line) for name, line in ran}
    assert not_run(defined_statements(), ran) == set(NOT_RUN)
