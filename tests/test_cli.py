import io
import json
import math
import os
import subprocess
import sys

import pytest

import fnhol.cli
import fnhol.pants
import fnhol.spin
import fnhol.surface
import fnhol.wp
from fnhol.cli import (
    DocumentError,
    _emit,
    main,
    parse_document,
    run_command,
)
from fnhol.mat2 import Mat2
from fnhol.spin import SpinSurfaceCocycle
from fnhol.surface import Curve, SurfaceSpec
import oracles
from conftest import caterpillar, comb, random_fn, random_gluing, rng_for


def genus2_doc(spin=True):
    doc = {
        "genus": 2,
        "pants": [0, 1],
        "curves": [
            {"id": i, "left": {"pants": 0, "k": i}, "right": {"pants": 1, "k": i}}
            for i in range(3)
        ],
        "fn": [
            {"curve": 0, "length": 2.0, "twist": 0.5},
            {"curve": 1, "length": 1.4, "twist": -0.3},
            {"curve": 2, "length": 3.0, "twist": 7.3},
        ],
    }
    if spin:
        doc["spin"] = {
            "eps": {"0": -1, "1": -1, "2": -1},
            "crossing_signs": {"1": -1},
        }
    return doc


_DROP = object()


def _edited(*edits, spin=True):
    """README's document (``genus2_doc``) with each (where, value) edit
    made: ``where`` is a path of keys and indices, and ``_DROP`` deletes
    the entry there."""
    raw = genus2_doc(spin)
    for (*parents, last), value in edits:
        target = raw
        for key in parents:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
    return raw


def test_parse_minimal_document():
    doc = parse_document(json.dumps(genus2_doc(spin=False)))
    assert doc.spec.genus == 2
    assert doc.fn.twists[2] == 7.3
    assert doc.spin is None


def test_parse_spin_block():
    doc = parse_document(json.dumps(genus2_doc()))
    assert doc.spin["eps"] == {0: -1, 1: -1, 2: -1}
    assert doc.spin["crossing_signs"] == {0: 1, 1: -1, 2: 1}


def test_parse_reports_unpaired_boundary():
    raw = genus2_doc(spin=False)
    raw["curves"][2]["right"] = {"pants": 1, "k": 1}
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(raw))
    assert "(1, 2)" in str(err.value)


def test_parse_rejects_out_of_range_length():
    raw = genus2_doc(spin=False)
    raw["fn"][0]["length"] = 0.0
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(raw))
    assert "length" in str(err.value)
    raw["fn"][0]["length"] = 100.0
    with pytest.raises(DocumentError):
        parse_document(json.dumps(raw))


def test_a_refused_length_reads_as_the_library_refuses_it():
    # the document and the library apply one rule, and their messages
    # differ only in the name before the colon
    raw = genus2_doc(spin=False)
    raw["fn"][1]["length"] = 100.0
    with pytest.raises(DocumentError) as from_doc:
        parse_document(json.dumps(raw))
    doc = parse_document(json.dumps(genus2_doc(spin=False)))
    fn = fnhol.surface.FNPoint({**doc.fn.lengths, 1: 100.0}, doc.fn.twists)
    with pytest.raises(ValueError) as from_library:
        fnhol.surface.assemble_cocycle(doc.spec, fn)
    doc_name, _, doc_rest = str(from_doc.value).partition(": ")
    library_name, _, library_rest = str(from_library.value).partition(": ")
    assert (doc_name, library_name) == ("fn[1].length", "length of curve 1")
    assert doc_rest == library_rest == "100.0 outside [1e-06, 50.0]"


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(DocumentError) as err:
        parse_document("{\n  \"genus\": 2,\n}")
    assert "line" in str(err.value)


def test_run_commands_deterministic():
    doc = parse_document(json.dumps(genus2_doc()))
    for command, kwargs in (
        ("verify", {}),
        ("fn", {}),
        ("wp", {}),
        ("spin", {}),
        ("spin", {"list_spin": True}),
        ("holonomy", {"word": "p0.b00 p0.b01"}),
    ):
        r1, c1 = run_command(doc, command, **kwargs)
        r2, c2 = run_command(doc, command, **kwargs)
        assert r1["lines"] == r2["lines"]
        assert c1 == c2 == 0


def test_verify_fails_under_absurd_tolerance():
    doc = parse_document(json.dumps(genus2_doc()))
    report, code = run_command(doc, "verify", tolerance=1e-30)
    assert code == 1
    assert report["lines"][-1] == "FAIL"


def test_wp_report_matches_block_form():
    doc = parse_document(json.dumps(genus2_doc()))
    report, code = run_command(doc, "wp")
    assert code == 0
    assert report["max_deviation"] <= 1e-8
    matrix = report["matrix"]
    assert abs(matrix[3][0] - 1.0) <= 1e-8
    assert abs(matrix[0][3] + 1.0) <= 1e-8


def test_spin_list_counts():
    doc = parse_document(json.dumps(genus2_doc()))
    report, code = run_command(doc, "spin", list_spin=True)
    assert code == 0
    assert len(report["eps_assignments"]) == 4
    assert len(report["crossing_classes"]) == 4


def test_spin_list_builds_no_complex(monkeypatch):
    doc = parse_document(json.dumps(genus2_doc()))
    expected = run_command(doc, "spin", list_spin=True)

    def refused(self, spec, tree):
        raise AssertionError("spin --list never reads the cell complex")

    monkeypatch.setattr(fnhol.surface.CellComplex, "__init__", refused)
    assert run_command(doc, "spin", list_spin=True) == expected


def test_spin_list_seeks_the_spanning_tree_once(monkeypatch):
    # the listing read the tree off spanning_tree_curves beside the
    # enumeration, which seeks it too; it reads the tree off the classes,
    # the curves every class holds at +1, and lists the same curves
    rng = rng_for("spin-list-tree")
    tree = fnhol.surface.spanning_tree_curves
    calls = []

    def counted(spec):
        calls.append(spec)
        return tree(spec)

    for genus in range(2, 8):
        spec = random_gluing(rng, genus)
        eps_list, classes = fnhol.spin.enumerate_spin(spec)
        doc = parse_document(json.dumps(_document(spec, random_fn(rng, spec), eps_list[0],
                                                  classes[0])))
        want = [str(c) for c in tree(spec)]
        calls.clear()
        for module in (fnhol.surface, fnhol.spin, fnhol.cli):
            if hasattr(module, "spanning_tree_curves"):
                monkeypatch.setattr(module, "spanning_tree_curves", counted)
        report, code = run_command(doc, "spin", list_spin=True)
        monkeypatch.undo()
        assert len(calls) == 1 and code == 0
        assert report["tree_curves"] == want
        assert f"tree curves {' '.join(want)}" in report["lines"]
        assert all(all(s[int(c)] == 1 for c in want) for s in classes)


def _with_string_ids(spec):
    """The same decomposition with every pants id p renamed "pants-p" and
    every curve id c "curve-c", which sort by str in another order."""
    pid = {p: f"pants-{p}" for p in spec.pants}
    return SurfaceSpec(spec.genus, tuple(pid.values()), tuple(
        Curve(f"curve-{c.id}", (pid[c.left[0]], c.left[1]), (pid[c.right[0]], c.right[1]))
        for c in spec.curves))


def _emitted(report, formats=("text", "json")):
    """The bytes ``--format text`` and ``--format json`` write of a report."""
    out = []
    for fmt in formats:
        stream = io.StringIO()
        _emit(report, fmt, stream)
        out.append(stream.getvalue())
    return out


def test_the_listing_matches_the_row_by_row_reference():
    # the rows copied off the row before them, and the report read off
    # their values in one pass, are the reference's rows and bytes, key
    # order included, on every shape with int and string ids; every row
    # is a dict of its own.  The JSON is compared as json.dumps writes it
    # without the indent, which only adds whitespace and would take the
    # slow pure-Python encoder over 2^10 rows
    rng = rng_for("listing-reference")
    for genus in range(2, 11):
        for spec in (caterpillar(genus), comb(genus), random_gluing(rng, genus)):
            for spec in (spec, _with_string_ids(spec)):
                got, want = fnhol.spin.enumerate_spin(spec), oracles.enumerate_spin(spec)
                assert [[list(row.items()) for row in rows] for rows in got] == [
                    [list(row.items()) for row in rows] for rows in want]
                rows = got[0] + got[1]
                for i, row in enumerate(rows):
                    row["mark"] = i
                assert [row["mark"] for row in rows] == list(range(len(rows)))
                report, code = run_command(fnhol.cli.SurfaceDocument(spec, None, None), "spin",
                                           list_spin=True)
                assert code == 0
                want = oracles.spin_list(spec)
                assert _emitted(report, ["text"]) == _emitted(want, ["text"])
                assert json.dumps(report) == json.dumps(want)


def test_commands_that_do_not_pair_lay_out_nothing(monkeypatch):
    # the pairing kernel's layout is kept with the complex, made on first
    # use; verify, fn, holonomy and spin never pair, so never make it
    doc = parse_document(json.dumps(genus2_doc()))

    def refused(complex_, fid, start):
        raise AssertionError("this command never pairs")

    monkeypatch.setattr(fnhol.wp, "_face_layout", refused)
    for cmd, kw in (("verify", {}), ("fn", {}), ("holonomy", {"word": "p0.b00 p0.b01"}),
                    ("spin", {})):
        assert run_command(doc, cmd, **kw)[1] == 0, cmd
    assert doc.complex.pairing_layout == {}
    monkeypatch.undo()
    assert run_command(doc, "wp")[1] == 0
    assert doc.complex.pairing_layout != {}


def test_spin_walks_face_words_once(monkeypatch):
    # after verify, the lift reads the face products verify walked on
    # the document's cocycle and the pants values it already holds
    doc = parse_document(json.dumps(genus2_doc()))
    assert run_command(doc, "verify")[1] == 0
    cycles = set(doc.complex.faces.values())
    calls = {"walk": 0, "_pants_table": 0, "pants_cocycle": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name != "walk" or tuple(args[1]) in cycles:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (fnhol.surface, fnhol.spin):
        monkeypatch.setattr(module, "walk", counted("walk", module.walk))
    for name in ("_pants_table", "pants_cocycle"):
        monkeypatch.setattr(fnhol.pants, name, counted(name, getattr(fnhol.pants, name)))
    walks = []
    max_face_residual = SpinSurfaceCocycle.max_face_residual

    def residual(self):
        walks.append(max_face_residual(self))
        return walks[-1]

    monkeypatch.setattr(SpinSurfaceCocycle, "max_face_residual", residual)
    report, code = run_command(doc, "spin")
    assert code == 0
    assert calls == {"walk": 0, "_pants_table": 0, "pants_cocycle": 0}
    assert len(walks) == 1 and report["max_residual"] == walks[0]


def _verify_bytes(doc):
    """The bytes verify writes of a document in text and JSON."""
    report, code = run_command(doc, "verify")
    return _emitted(report), code


def test_spin_reads_face_products_only(monkeypatch):
    # on a fresh document the lift reads its residual table off the face
    # products, one distance per face, and leaves the renormalized
    # residuals that only verify reads unbuilt; verify after spin writes
    # what verify alone writes
    rng = rng_for("spin-face-products")
    docs = [genus2_doc()]
    for genus in (3, 5):
        spec = random_gluing(rng, genus)
        eps_list, classes = fnhol.spin.enumerate_spin(spec)
        docs.append(_document(spec, random_fn(rng, spec), rng.choice(eps_list),
                              rng.choice(classes)))
    distances = fnhol.mat2._identity_distances
    for raw in docs:
        doc = parse_document(json.dumps(raw))
        read = []

        def counted(a, b, c, d):
            read.append((a, b, c, d))
            return distances(a, b, c, d)

        for module in (fnhol.surface, fnhol.spin):
            monkeypatch.setattr(module, "_identity_distances", counted)
        assert run_command(doc, "spin")[1] == 0
        monkeypatch.undo()
        assert len(read) == len(doc.complex.faces)
        assert _verify_bytes(doc) == _verify_bytes(parse_document(json.dumps(raw)))


def test_a_face_that_cannot_be_renormalized_is_refused_where_it_is_read():
    # p1.seam0 with det -1 puts det -1 on both hexagons of pants 1, and a
    # zero c2.x1 det 0 on both squares of curve 2: verify reads the faces
    # in sorted order and meets c2.sq0 first, the largest residual reads
    # them in the complex's order and meets p1.hex+ first, and a spin
    # lift taken before either changes neither refusal
    def broken(seam=True):
        doc = parse_document(json.dumps(genus2_doc()))
        values = doc.cocycle.values
        if seam:
            m = values["p1.seam0"]
            values["p1.seam0"] = Mat2(m.a, m.b, -m.c, -m.d, check=False)
        values["c2.x1"] = Mat2(0.0, 0.0, 0.0, 0.0, check=False)
        return doc

    sorted_first = "cannot renormalize matrix with det 0.0"
    complex_first = "cannot renormalize matrix with det -0.9999999999999999"
    for spin_first in (False, True):
        doc = broken()
        if spin_first:
            with pytest.raises(AssertionError, match="found 0"):
                run_command(doc, "spin")
        with pytest.raises(ValueError) as info:
            run_command(doc, "verify")
        assert str(info.value) == sorted_first
        with pytest.raises(ValueError) as info:
            doc.cocycle.max_face_residual()
        assert str(info.value) == complex_first
    doc = broken(seam=False)
    report, code = run_command(doc, "spin")
    assert code == 1 and report["max_residual"] == 1.0
    with pytest.raises(ValueError) as info:
        run_command(doc, "verify")
    assert str(info.value) == sorted_first


def _handle_doc(short_length):
    """The genus-2 handle (two self-glued pants) with curve 0 of the
    given length and a spin block."""
    sides = [((0, 1), (0, 2)), ((0, 0), (1, 0)), ((1, 1), (1, 2))]
    return {
        "genus": 2,
        "pants": [0, 1],
        "curves": [
            {"id": i, "left": {"pants": l[0], "k": l[1]}, "right": {"pants": r[0], "k": r[1]}}
            for i, (l, r) in enumerate(sides)
        ],
        "fn": [
            {"curve": i, "length": short_length if i == 0 else 2.0, "twist": 0.3}
            for i in range(3)
        ],
        "spin": {"eps": {"0": 1, "1": -1, "2": 1}},
    }


def test_spin_on_a_short_curve_is_a_one_line_verdict(tmp_path, capsys):
    text = json.dumps(_handle_doc(1e-4))
    with pytest.raises(AssertionError) as info:
        run_command(parse_document(text), "spin")
    assert str(info.value) == "expected a unique sign assignment, found 0"
    path = tmp_path / "short.json"
    path.write_text(text)
    assert main(["spin", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "fnhol: spin: expected a unique sign assignment, found 0"
        " (ill-conditioned for this document)\n"
    )
    path.write_text(json.dumps(_handle_doc(2.0)))
    assert main(["spin", "--input", str(path)]) == 0


def test_each_document_is_built_once(monkeypatch):
    # over parse, verify, fn, holonomy, wp and spin: one validation, which
    # seeks the spanning tree once; one complex, cocycle and read-back;
    # outside the pairing kernel, one walk per face word and per pants
    # boundary loop (fn and spin both read the curve loops), and one of
    # the word holonomy is asked of
    word = "p0.b00 p0.b01 p0.b00 p0.b01"
    text = json.dumps(genus2_doc())
    commands = (
        ("verify", {}),
        ("fn", {}),
        ("holonomy", {"word": word}),
        ("wp", {}),
        ("spin", {}),
    )
    fresh = [run_command(parse_document(text), cmd, **kw) for cmd, kw in commands]

    calls = dict.fromkeys(("_problems_and_tree", "spanning_tree_curves", "assemble_cocycle",
                           "extract_fn", "CellComplex"), 0)

    def counter(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in list(calls)[:-1]:
        original = getattr(fnhol.surface, name)
        for module in (fnhol.surface, fnhol.cli, fnhol.spin):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counter(name, original))
    monkeypatch.setattr(fnhol.surface.CellComplex, "__init__",
                        counter("CellComplex", fnhol.surface.CellComplex.__init__))
    walked = []
    walk = fnhol.surface.walk

    def counted_walk(values, steps, prefixes=None):
        if prefixes is None:
            walked.append(tuple(steps))
        return walk(values, steps, prefixes)

    monkeypatch.setattr(fnhol.surface, "walk", counted_walk)
    doc = parse_document(text)
    shared = [run_command(doc, cmd, **kw) for cmd, kw in commands]
    assert shared == fresh
    assert calls == {"_problems_and_tree": 1, "spanning_tree_curves": 1, "assemble_cocycle": 1,
                     "extract_fn": 1, "CellComplex": 1}
    cx = doc.complex
    face_of = {cycle[r:] + cycle[:r]: fid for fid, cycle in cx.faces.items()
               for r in range(len(cycle))}
    loops = [loop for cells in cx.pants.values() for loop in cells.loops]
    assert sorted(face_of[w] for w in walked if w in face_of) == sorted(cx.faces)
    assert sorted(w for w in walked if w not in face_of) == sorted(
        loops + [fnhol.surface.parse_word(cx, word)])
    # the cached values do not depend on the tolerance
    report, code = run_command(doc, "verify", tolerance=1e-30)
    assert code == 1 and report["lines"][-1] == "FAIL"
    assert run_command(doc, "verify") == fresh[0]
    with pytest.raises(AttributeError):
        doc.fn = None
    with pytest.raises(AttributeError):
        doc.cocycle = None
    with pytest.raises(AttributeError):
        del doc.complex
    assert doc.complex is doc.cocycle.complex


def test_a_document_built_by_hand_is_validated_on_first_use(monkeypatch):
    # the benchmark's wp-matrix requests build a document from a parsed
    # spec and a fresh point: its complex validates the spec once, by the
    # rule of build_complex, and is the parsed document's complex
    parsed = parse_document(json.dumps(genus2_doc()))
    checks = []
    problems_and_tree = fnhol.surface._problems_and_tree

    def counted(spec):
        checks.append(spec)
        return problems_and_tree(spec)

    monkeypatch.setattr(fnhol.surface, "_problems_and_tree", counted)
    doc = fnhol.cli.SurfaceDocument(parsed.spec, parsed.fn, None)
    assert not checks
    assert doc.tree == parsed.tree
    assert run_command(doc, "wp") == run_command(parsed, "wp")
    assert checks == [parsed.spec]
    assert doc.complex.faces == parsed.complex.faces and doc.complex.tree == parsed.complex.tree


def _exit_code(tmp_path, capsys, raw):
    path = tmp_path / "doc.json"
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    code = main(["verify", "--input", str(path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("pants", [[[0], 1], [0.0, 1], [True, 1], [None, 1]])
def test_parse_rejects_pants_ids_of_other_types(tmp_path, capsys, pants):
    raw = genus2_doc(spin=False)
    raw["pants"] = pants
    code, err = _exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert f"pants[0]: expected int or str, got {pants[0]!r}" in err


def test_parse_rejects_boolean_pants_references_and_curve_ids():
    raw = genus2_doc(spin=False)
    raw["curves"][0]["left"]["pants"] = True
    with pytest.raises(DocumentError, match=r"curves\[0\]\.left\.pants: expected int or str"):
        parse_document(json.dumps(raw))
    raw = genus2_doc(spin=False)
    raw["curves"][1]["id"] = True
    with pytest.raises(DocumentError, match=r"curves\[1\]\.id: expected int or str"):
        parse_document(json.dumps(raw))


def test_parse_rejects_pants_ids_with_one_string_form(tmp_path, capsys):
    raw = genus2_doc(spin=False)
    raw["pants"] = [1, "1"]
    for c in raw["curves"]:
        c["left"]["pants"], c["right"]["pants"] = 1, "1"
    code, err = _exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert "pants ids 1 and '1' have the same string form" in err


def test_parse_rejects_curve_ids_with_one_string_form(tmp_path, capsys):
    raw = genus2_doc()
    raw["curves"][1]["id"] = "0"
    raw["fn"][1]["curve"] = "0"
    code, err = _exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert "curve ids 0 and '0' have the same string form" in err


def test_string_ids_resolve_by_string_form():
    raw = genus2_doc()
    for c in raw["curves"]:
        c["id"] = f"c{c['id']}"
    for item in raw["fn"]:
        item["curve"] = f"c{item['curve']}"
    raw["spin"] = {"eps": {"c0": -1, "c1": -1, "c2": -1}, "crossing_signs": {"c1": -1}}
    doc = parse_document(json.dumps(raw))
    assert doc.fn.twists["c2"] == 7.3
    assert doc.spin["crossing_signs"] == {"c0": 1, "c1": -1, "c2": 1}
    raw["fn"][2]["curve"] = "c3"
    with pytest.raises(DocumentError, match="unknown curve 'c3'"):
        parse_document(json.dumps(raw))


@pytest.mark.parametrize(
    "twist",
    ["1419.6", "1420.0", "1491.0", "1492.0", "1e308", "1e309", "-1419.6", "-1420.0",
     "-1e309", "Infinity", "-Infinity", "NaN"],
)
def test_parse_rejects_twists_beyond_the_crossing_range(tmp_path, capsys, twist):
    text = json.dumps(genus2_doc()).replace('"twist": 7.3', f'"twist": {twist}')
    code, err = _exit_code(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("fnhol: fn[2].twist: ")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("crossing_signs", [1], "spin.crossing_signs: expected dict, got [1]"),
        ("crossing_signs", None, "spin.crossing_signs: expected dict, got None"),
        ("crossing_signs", {"1": True}, "spin.crossing_signs.1: expected +-1, got True"),
        ("eps", {"0": -1, "1": -1, "2": True}, "spin.eps.2: expected +-1, got True"),
    ],
    ids=["list", "null", "boolean-crossing-sign", "boolean-eps"],
)
def test_parse_rejects_malformed_spin_signs(tmp_path, capsys, field, value, message):
    raw = genus2_doc()
    raw["spin"][field] = value
    code, err = _exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert err == f"fnhol: {message}\n"


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("curves", 0, "id"), 0.5, "curves[0].id: expected int or str, got 0.5"),
        (("curves", 0, "left", "pants"), 0.5,
         "curves[0].left.pants: expected int or str, got 0.5"),
        (("fn", 0, "curve"), 0.5, "fn[0].curve: expected int or str, got 0.5"),
        (("fn", 0), 5, "fn[0]: expected an object, got 5"),
        (("curves", 0), [1], "curves[0]: expected an object, got [1]"),
    ],
    ids=["float-curve-id", "float-pants-reference", "float-fn-curve", "number-fn-entry",
         "list-curve-entry"],
)
def test_parse_reads_every_id_and_every_entry_by_one_rule(tmp_path, capsys, where, value,
                                                           message):
    # a float id read "expected value" everywhere but in pants, and an
    # entry that is not an object read as one missing its first field
    raw = _edited((where, value), spin=False)
    assert _exit_code(tmp_path, capsys, raw) == (2, f"fnhol: {message}\n")


# the six commands as README.md gives them
README_COMMANDS = (["verify"], ["holonomy", "--word", "p0.b00 p0.b01"], ["fn"], ["wp"],
                   ["spin"], ["spin", "--list"])


def _runs(tmp_path, capsys, raw, commands=README_COMMANDS):
    """(exit code, stderr) of each command on the document ``raw``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    out = []
    for command, *flags in commands:
        out.append((main([command, "--input", str(path), *flags]), capsys.readouterr().err))
    return out


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("eps", {"0": 1, "1": 1, "2": 1},
         "spin.eps: boundary signs must multiply to -1 around every pants"),
        ("crossing_signs", {"0": -1},
         "spin.crossing_signs: crossing sign on tree curve 0 must be +1"),
    ],
    ids=["pants-product", "tree-curve"],
)
def test_every_command_refuses_the_sign_data_a_lift_refuses(tmp_path, capsys, field, value,
                                                             message):
    # verify, holonomy, fn, wp and spin --list took these and exited 0;
    # only spin refused them, when it lifted
    raw = genus2_doc()
    raw["spin"][field] = value
    assert _runs(tmp_path, capsys, raw) == [(2, f"fnhol: {message}\n")] * 6


@pytest.mark.parametrize(
    "eps, signs",
    [
        ({0: 1, 1: 1, 2: 1}, None),
        ({0: -1, 1: -1, 2: -1}, {0: -1}),
        ({0: -1, 1: -1, 2: True}, None),
        ({0: -1, 1: -1}, None),
        ({0: -1, 1: -1, 2: -1, "9": -1}, None),
        ({0: -1, 1: -1, 2: -1}, {1: 1.5}),
    ],
    ids=["pants-product", "tree-curve", "boolean-eps", "missing-eps", "unknown-curve",
         "fractional-crossing-sign"],
)
def test_refused_signs_read_as_the_library_refuses_them(eps, signs):
    # the document and the library apply one rule, and their messages
    # differ only in the name before the colon
    raw = genus2_doc()
    raw["spin"] = {"eps": {str(c): e for c, e in eps.items()}}
    if signs is not None:
        raw["spin"]["crossing_signs"] = {str(c): s for c, s in signs.items()}
    with pytest.raises(DocumentError) as from_doc:
        parse_document(json.dumps(raw))
    doc = parse_document(json.dumps(genus2_doc(spin=False)))
    with pytest.raises(fnhol.spin.SpinSignError) as from_library:
        fnhol.spin.assemble_spin(doc.spec, doc.fn, eps, signs)
    assert fnhol.spin.SpinSignError is fnhol.surface.SpinSignError
    doc_name, _, doc_rest = str(from_doc.value).partition(": ")
    library_name, _, library_rest = str(from_library.value).partition(": ")
    assert doc_name == f"spin.{library_name}" and doc_rest == library_rest


def _document(spec, fn, eps, signs):
    """The JSON document of a decomposition, a point and a spin block."""
    return {
        "genus": spec.genus,
        "pants": list(spec.pants),
        "curves": [
            {"id": c.id, "left": {"pants": c.left[0], "k": c.left[1]},
             "right": {"pants": c.right[0], "k": c.right[1]}}
            for c in spec.curves
        ],
        "fn": [{"curve": c, "length": fn.lengths[c], "twist": fn.twists[c]}
               for c in spec.curve_ids()],
        "spin": {"eps": {str(c): e for c, e in eps.items()},
                 "crossing_signs": {str(c): s for c, s in signs.items()}},
    }


def test_random_gluings_run_and_a_flipped_boundary_sign_is_refused(tmp_path, capsys):
    # 49 seeded gluings from the configuration model, g = 2..8, with
    # lengths on [0.5, 5], twists on [-10, 10] and a spin block from the
    # enumeration; flipping the boundary sign of a curve between two
    # different pants breaks the product around both
    rng = rng_for("random-gluings")
    message = "fnhol: spin.eps: boundary signs must multiply to -1 around every pants\n"
    shapes = set()
    for i in range(49):
        spec = random_gluing(rng, 2 + i % 7)
        between = [frozenset((c.left[0], c.right[0])) for c in spec.curves]
        if any(len(p) == 1 for p in between):
            shapes.add("self-glued")
        if any(len(p) == 2 and between.count(p) > 1 for p in between):
            shapes.add("double")
        eps_list, classes = fnhol.spin.enumerate_spin(spec)
        eps, signs = rng.choice(eps_list), rng.choice(classes)
        raw = _document(spec, random_fn(rng, spec), eps, signs)
        runs = _runs(tmp_path, capsys, raw, (["verify"], ["fn"], ["wp"], ["spin"]))
        assert runs == [(0, "")] * 4, (i, spec)
        flip = rng.choice([c.id for c in spec.curves if c.left[0] != c.right[0]])
        raw["spin"]["eps"][str(flip)] = -eps[flip]
        assert _runs(tmp_path, capsys, raw) == [(2, message)] * 6, (i, spec)
    assert shapes == {"self-glued", "double"}


def test_accepted_twists_give_finite_crossing_entries():
    def with_twist(twist):
        raw = genus2_doc()
        raw["fn"][0]["twist"] = twist
        return parse_document(json.dumps(raw))

    for twist in (1400.0, 1419.5, -1419.5):
        m = with_twist(twist).cocycle.values["c0.x0"]
        assert all(math.isfinite(x) for x in m.entries()) and m.b != 0.0 != m.c
    for twist in (1400.0, -1419.5):
        assert run_command(with_twist(twist), "verify")[1] == 0


@pytest.mark.parametrize(
    "length, twist",
    [
        # the first twists at which the square words, walked from their
        # crossing edges, overflowed: 1/T times the arc entry exp(L/4)
        (2.0, 1418.5654257867682),
        (50.0, 1394.5654257867682),
        # the largest accepted twists, and the negative side
        (2.0, 1419.565425786768),
        (50.0, 1419.565425786768),
        (2.0, -1419.565425786768),
        (50.0, -1419.565425786768),
    ],
)
def test_twists_near_the_bound_pass(length, twist):
    raw = genus2_doc()
    for item in raw["fn"]:
        item["length"] = length
    raw["fn"][0]["twist"] = twist
    doc = parse_document(json.dumps(raw))
    report, code = run_command(doc, "verify")
    assert code == 0 and report["max_residual"] <= 1e-8
    report, code = run_command(doc, "spin")
    assert code == 0 and report["max_residual"] <= 1e-8
    report, code = run_command(doc, "wp")
    assert code == 0 and report["max_deviation"] <= 1e-8


def test_a_nan_face_product_fails_verify_and_spin():
    # a nan crossing value of curve 2 puts a nan in the products of its
    # squares alone; c2.sq0 and c2.sq1 are neither the first faces in
    # sorted order (verify) nor in the complex's order (the lift), where
    # Python's max keeps a nan
    doc = parse_document(json.dumps(genus2_doc()))
    nan = math.nan
    doc.cocycle.values["c2.x1"] = Mat2(nan, nan, nan, nan, check=False)
    nan_faces = [f for f, m in doc.cocycle.face_products().items() if math.isnan(m.a)]
    assert nan_faces == ["c2.sq0", "c2.sq1"]
    assert math.isnan(doc.cocycle.max_face_residual())
    for command in ("verify", "spin"):
        report, code = run_command(doc, command)
        assert math.isnan(report["max_residual"]), command
        assert code == 1 and report["lines"][-1] == "FAIL"


def test_holonomy_requires_word():
    doc = parse_document(json.dumps(genus2_doc()))
    with pytest.raises(DocumentError):
        run_command(doc, "holonomy")


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(genus2_doc()))
    assert main(["verify", "--input", str(good)]) == 0
    out1 = capsys.readouterr().out
    assert main(["verify", "--input", str(good)]) == 0
    assert capsys.readouterr().out == out1  # byte-identical reports

    assert main(["verify", "--input", str(good), "--tolerance", "1e-30"]) == 1
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--input", str(bad)]) == 2
    capsys.readouterr()

    assert main(["verify", "--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    assert main(["holonomy", "--input", str(good)]) == 2  # no --word
    capsys.readouterr()

    assert main(["holonomy", "--input", str(good), "--word", "p0.nope"]) == 2
    capsys.readouterr()


def test_main_json_format(tmp_path, capsys):
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(genus2_doc()))
    assert main(["wp", "--input", str(good), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "wp"
    assert payload["ok"] is True


def test_spin_command_without_block(tmp_path, capsys):
    doc = tmp_path / "nospin.json"
    doc.write_text(json.dumps(genus2_doc(spin=False)))
    assert main(["spin", "--input", str(doc)]) == 2
    assert main(["spin", "--input", str(doc), "--list"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "content, message",
    [(b'{"genus": "\xff"}', "fnhol: cannot read "),
     (b"[" * 200000 + b"]" * 200000, "fnhol: document: nested too deeply\n")],
    ids=["not-utf-8", "nested-too-deeply"],
)
def test_a_malformed_file_is_bad_input(tmp_path, capsys, content, message):
    # not a traceback and exit 1, the code of a failed verification
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    for command, *flags in README_COMMANDS:
        assert main([command, "--input", str(path), *flags]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err


def test_tolerance_refuses_nan_and_negative_values(tmp_path, capsys):
    # either would fail every verdict on a correct document
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(genus2_doc()))
    # "-inf" reads as an option unless it is joined to its flag
    for value, option in (("nan", ["--tolerance", "nan"]), ("-1", ["--tolerance", "-1"]),
                          ("-inf", ["--tolerance=-inf"])):
        for command, *flags in README_COMMANDS:
            with pytest.raises(SystemExit) as refused:
                main([command, "--input", str(path), *flags, *option])
            assert refused.value.code == 2, (value, command)
            assert f"invalid tolerance value: {value!r}" in capsys.readouterr().err
    for command in ("verify", "fn", "wp", "spin"):
        assert main([command, "--input", str(path), "--tolerance", "inf"]) == 0, command
        assert main([command, "--input", str(path), "--tolerance", "0"]) in (0, 1), command
    capsys.readouterr()


_README_TEXT = json.dumps(genus2_doc())
_LONG_LOOP = _edited((("fn", 0, "length"), 50.0))
_DISCONNECTED = {
    "genus": 3,
    "pants": [0, 1, 2, 3],
    "curves": [{"id": 3 * (p // 2) + k, "left": {"pants": p, "k": k},
                "right": {"pants": p + 1, "k": k}} for p in (0, 2) for k in range(3)],
    "fn": [{"curve": i, "length": 2.0, "twist": 0.3} for i in range(6)],
}

# Documents every command refuses as bad input, each with the command it
# is given to and the one line it prints to stderr (``<path>`` stands for
# the file); every refusal of the parse, of its validation and of the
# commands has a row.  tests/test_imports.py runs them as well.
REFUSED_DOCUMENTS = {
    "not-json": ("{not json", ["verify"],
                 "line 1, column 2: Expecting property name enclosed in double quotes"),
    "not-utf-8": (b'{"genus": "\xff"}', ["verify"],
                  "cannot read <path>: 'utf-8' codec can't decode byte 0xff in position 11: "
                  "invalid start byte"),
    "nested-too-deeply": (b"[" * 200000 + b"]" * 200000, ["verify"],
                          "document: nested too deeply"),
    "not-an-object": ("[]", ["verify"], "document: expected a JSON object"),
    "missing-field": (_edited((("fn",), _DROP)), ["verify"], "document: missing field 'fn'"),
    "genus-as-string": (_edited((("genus",), "2")), ["verify"],
                        "document.genus: expected int, got '2'"),
    "entry-not-an-object": (_edited((("fn", 0), 5)), ["verify"],
                            "fn[0]: expected an object, got 5"),
    "float-id": (_edited((("pants",), [0.5, 1])), ["verify"],
                 "pants[0]: expected int or str, got 0.5"),
    "length-as-string": (_edited((("fn", 0, "length"), "2.0")), ["verify"],
                         "fn[0].length: expected a number, got '2.0'"),
    # an integer no double holds: float() raised OverflowError, exit 1
    "integer-beyond-doubles": (_README_TEXT.replace('"length": 2.0', '"length": 1' + "0" * 400),
                               ["verify"], "fn[0].length: int too large to convert to float"),
    # beyond Python's digit limit json.loads raised a plain ValueError that
    # named no field and advised sys.set_int_max_str_digits()
    "integer-beyond-the-digit-limit": (
        _README_TEXT.replace('"length": 2.0', '"length": 1' + "0" * 5000),
        ["verify"], "document: an integer has more than 4300 digits"),
    "length-outside-the-range": (_edited((("fn", 0, "length"), 0.0)), ["verify"],
                                 "fn[0].length: 0.0 outside [1e-06, 50.0]"),
    "twist-overflows": (_edited((("fn", 0, "twist"), -1420.0)), ["verify"],
                        "fn[0].twist: -1420.0 makes exp(-twist/2) or its inverse zero or not "
                        "finite"),
    "unknown-curve": (_edited((("fn", 0, "curve"), 9)), ["verify"], "fn[0]: unknown curve 9"),
    "duplicate-coordinates": (_edited((("fn", 1, "curve"), 0)), ["verify"],
                              "fn[1]: duplicate coordinates for curve 0"),
    "missing-coordinates": (_edited((("fn", 2), _DROP)), ["verify"],
                            "fn: no coordinates for curves [2]"),
    "genus-1": (_edited((("genus",), 1)), ["verify"], "document: genus 1 must be at least 2"),
    "pants-ids-not-distinct": (_edited((("pants",), [0, 0])), ["verify"],
                               "document: pants ids are not distinct; curve 0 refers to unknown "
                               "pants 1; curve 1 refers to unknown pants 1; curve 2 refers to "
                               "unknown pants 1"),
    "curve-ids-not-distinct": (_edited((("curves", 1, "id"), 0)), ["verify"],
                               "document: curve ids are not distinct"),
    "pants-ids-with-one-string-form": (
        _edited((("pants",), [1, "1"]),
                *[(("curves", i, side, "pants"), p) for i in range(3)
                  for side, p in (("left", 1), ("right", "1"))]),
        ["verify"], "document: pants ids 1 and '1' have the same string form"),
    "counts-of-another-genus": (_edited((("genus",), 3)), ["verify"],
                                "document: expected 4 pants, got 2; expected 6 curves, got 3"),
    # 2g-2 has one digit more than Python writes: the interpreter's advice
    # on sys.set_int_max_str_digits() was the message
    "genus-beyond-the-digit-limit": (
        _edited((("genus",), int("9" * 4300))), ["verify"],
        "document: expected at least 10^4300 pants, got 2; expected at least 10^4300 curves, "
        "got 3"),
    "boundary-glued-to-itself": (_edited((("curves", 0, "right"), {"pants": 0, "k": 0})),
                                 ["verify"],
                                 "document: curve 0 glues a boundary to itself; boundary (0, 0) "
                                 "used by curves 0 and 0; boundary (1, 0) is not glued to any "
                                 "curve"),
    "unknown-pants": (_edited((("curves", 0, "right", "pants"), 7)), ["verify"],
                      "document: curve 0 refers to unknown pants 7; boundary (1, 0) is not glued "
                      "to any curve"),
    "boundary-index": (_edited((("curves", 0, "right", "k"), 3)), ["verify"],
                       "document: curve 0 uses boundary index 3 outside 0..2; boundary (1, 0) is "
                       "not glued to any curve"),
    "boundary-used-twice": (_edited((("curves", 2, "right"), {"pants": 1, "k": 1})), ["verify"],
                            "document: boundary (1, 1) used by curves 1 and 2; boundary (1, 2) is "
                            "not glued to any curve"),
    "not-connected": (_DISCONNECTED, ["verify"], "document: gluing graph is not connected"),
    "spin-not-an-object": (_edited((("spin",), [1])), ["verify"], "spin: expected an object"),
    "sign-not-a-sign": (_edited((("spin", "eps", "2"), True)), ["verify"],
                        "spin.eps.2: expected +-1, got True"),
    "sign-of-no-curve": (_edited((("spin", "eps", "9"), -1)), ["verify"],
                         "spin.eps: unknown curve '9'"),
    "sign-missing": (_edited((("spin", "eps", "2"), _DROP)), ["verify"],
                     "spin.eps: must assign a sign to every curve"),
    "pants-sign-product": (_edited((("spin", "eps"), {"0": 1, "1": 1, "2": 1})), ["verify"],
                           "spin.eps: boundary signs must multiply to -1 around every pants"),
    "tree-crossing-sign": (_edited((("spin", "crossing_signs"), {"0": -1})), ["verify"],
                           "spin.crossing_signs: crossing sign on tree curve 0 must be +1"),
    "holonomy-without-word": (genus2_doc(), ["holonomy"], "holonomy requires --word"),
    "unknown-edge": (genus2_doc(), ["holonomy", "--word", "p0.nope"], "unknown edge 'p0.nope'"),
    "word-not-composable": (genus2_doc(), ["holonomy", "--word", "p0.b00 p0.b00"],
                            "word is not composable at p0.b00: p0.v01 != p0.v00"),
    # the product's entries pass e^725: the report read nan, and its JSON NaN
    "word-overflows": (_LONG_LOOP, ["holonomy", "--word", " ".join(["p0.b00 p0.b01"] * 29)],
                       "word: its product overflows a double"),
    "spin-without-block": (genus2_doc(spin=False), ["spin"],
                           "document has no spin block (or use --list)"),
}


def write_document(path, content):
    """Write a document given as bytes, text or a JSON value."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path


@pytest.mark.parametrize("content, argv, message", list(REFUSED_DOCUMENTS.values()),
                         ids=list(REFUSED_DOCUMENTS))
def test_a_refused_document_exits_2_with_one_line(tmp_path, capsys, content, argv, message):
    path = write_document(tmp_path / "doc.json", content)
    message = message.replace("<path>", str(path))
    for fmt in ("text", "json"):
        assert main([argv[0], "--input", str(path), *argv[1:], "--format", fmt]) == 2
        assert capsys.readouterr() == ("", f"fnhol: {message}\n")


FACE_WORD = "p0.seam1~ p0.b11~ p0.seam2~ p0.b21~ p0.seam0~ p0.b01~"


def test_a_face_word_is_not_hyperbolic(tmp_path, capsys):
    # the reversed hex- word multiplies to -I: the report writes +I, the
    # canonical sign, with no translation length
    path = write_document(tmp_path / "doc.json", genus2_doc())
    assert main(["holonomy", "--input", str(path), "--word", FACE_WORD]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("matrix [[1, ") and lines[1].endswith(", 1]]")
    assert lines[2:] == ["|trace| 2", "translation length n/a (not hyperbolic)"]
    assert main(["holonomy", "--input", str(path), "--word", FACE_WORD, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["translation_length"] is None


def test_a_long_word_keeps_a_finite_length(tmp_path, capsys):
    # 28 turns around a curve of length 50: |trace| is e^700, whose square
    # overflows, and the report read inf (JSON Infinity); 29 overflow the
    # product itself and are refused
    path = write_document(tmp_path / "doc.json", _LONG_LOOP)
    word = " ".join(["p0.b00 p0.b01"] * 28)
    assert main(["holonomy", "--input", str(path), "--word", word, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert report["translation_length"] == pytest.approx(1400.0, rel=1e-12)


def _comb_doc(g):
    spec = comb(g)
    return {
        "genus": g,
        "pants": list(spec.pants),
        "curves": [
            {"id": c.id, "left": {"pants": c.left[0], "k": c.left[1]},
             "right": {"pants": c.right[0], "k": c.right[1]}}
            for c in spec.curves
        ],
        "fn": [{"curve": c.id, "length": 1.0 + 0.25 * c.id, "twist": 0.3} for c in spec.curves],
    }


@pytest.mark.parametrize("raw", [genus2_doc(), _comb_doc(5)], ids=["readme", "comb5"])
def test_wp_output_does_not_depend_on_the_hash_seed(tmp_path, raw):
    # face ids are strings, so the order of a set of them changes with
    # the hash seed; the pairing sums are correctly rounded in any order
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    src = os.path.dirname(os.path.dirname(fnhol.cli.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        run = subprocess.run(
            [sys.executable, "-m", "fnhol.cli", "wp", "--input", str(path), "--format", "json"],
            env=env, capture_output=True,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_import_leaves_argparse_out():
    # only main needs argparse, and the records are plain tuples, so
    # importing the module loads neither argparse nor dataclasses and
    # the inspect module that dataclasses pulls in
    src = os.path.dirname(os.path.dirname(fnhol.cli.__file__))
    code = (
        "import sys, fnhol.cli; "
        "print(' '.join(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


LOADED = (
    "import json, sys\n"
    "def loaded():\n"
    "    return sorted(m[6:] for m in sys.modules if m.startswith('fnhol.'))\n"
    "import fnhol\n"
    "steps = [loaded()]\n"
    "import fnhol.pants\n"
    "steps.append(loaded())\n"
    "import fnhol.cli as cli\n"
    "doc = cli.parse_document(sys.argv[1])\n"
    "doc.complex\n"
    "for cmd, word in (('verify', None), ('fn', None), ('holonomy', 'p0.b00 p0.b01')):\n"
    "    assert cli.run_command(doc, cmd, word=word)[1] == 0, cmd\n"
    "steps.append(loaded())\n"
    "assert cli.run_command(doc, sys.argv[2], list_spin=sys.argv[3] == '1')[1] == 0\n"
    "steps.append(loaded())\n"
    "print(json.dumps(steps))\n"
)


@pytest.mark.parametrize(
    "command, list_spin, added",
    [("wp", False, ["variation", "wp"]), ("spin", False, ["spin"]), ("spin", True, ["spin"])],
    ids=["wp", "spin", "spin-list"],
)
def test_each_command_loads_only_the_modules_it_runs(command, list_spin, added):
    # compiling a module is most of a fresh process's set-up, so the
    # package loads nothing on import, the pants layer, which holds the
    # length rule, loads only the matrices, and representing a point
    # (parse, build, verify, fn, holonomy) never compiles the pairing, the
    # variations or the spin lifts; each later command adds its own
    src = os.path.dirname(os.path.dirname(fnhol.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", LOADED, json.dumps(genus2_doc()), command, str(int(list_spin))]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    package, pants, point, after = json.loads(run.stdout)
    assert package == []
    assert pants == ["mat2", "pants"]
    assert point == ["cli", "mat2", "pants", "surface"]
    assert sorted(set(after) - set(point)) == added and set(point) <= set(after)


def test_every_module_imports_only_the_standard_library():
    # the core stays standard-library only: a fresh interpreter that
    # imports every fnhol module loads nothing outside the standard
    # library (modules loaded at start-up, e.g. by .pth files, are left
    # out of the comparison)
    package = os.path.dirname(fnhol.cli.__file__)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import importlib, pkgutil, fnhol\n"
        "names = [m.name for m in pkgutil.iter_modules(fnhol.__path__, 'fnhol.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "tops = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(names))\n"
        "print(' '.join(sorted(tops - set(sys.stdlib_module_names) - {'fnhol'})))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    names, outside = run.stdout.split("\n")[:2]
    modules = {f"fnhol.{f[:-3]}" for f in os.listdir(package)
               if f.endswith(".py") and f != "__init__.py"}
    assert set(names.split()) == modules
    assert outside.split() == []
