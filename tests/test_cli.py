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
    main,
    parse_document,
    run_command,
)
from fnhol.mat2 import Mat2
from fnhol.spin import SpinSurfaceCocycle
from conftest import comb, random_fn, random_gluing, rng_for


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

    def refused(spec):
        raise AssertionError("spin --list never reads the cell complex")

    monkeypatch.setattr(fnhol.cli, "build_complex", refused)
    assert run_command(doc, "spin", list_spin=True) == expected


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
    calls = {"walk": 0, "seam_matrix": 0, "pants_cocycle": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name != "walk" or tuple(args[1]) in cycles:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (fnhol.surface, fnhol.spin):
        monkeypatch.setattr(module, "walk", counted("walk", module.walk))
    for name in ("seam_matrix", "pants_cocycle"):
        monkeypatch.setattr(fnhol.pants, name, counted(name, getattr(fnhol.pants, name)))
    walks = []
    max_face_residual = SpinSurfaceCocycle.max_face_residual

    def residual(self):
        walks.append(max_face_residual(self))
        return walks[-1]

    monkeypatch.setattr(SpinSurfaceCocycle, "max_face_residual", residual)
    report, code = run_command(doc, "spin")
    assert code == 0
    assert calls == {"walk": 0, "seam_matrix": 0, "pants_cocycle": 0}
    assert len(walks) == 1 and report["max_residual"] == walks[0]


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
    text = json.dumps(genus2_doc())
    commands = (
        ("verify", {}),
        ("fn", {}),
        ("holonomy", {"word": "p0.b00 p0.b01"}),
        ("wp", {}),
        ("spin", {}),
    )
    fresh = [run_command(parse_document(text), cmd, **kw) for cmd, kw in commands]

    calls = {"build_complex": 0, "assemble_cocycle": 0, "extract_fn": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(fnhol.cli, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(fnhol.cli, name, counted)
    doc = parse_document(text)
    shared = [run_command(doc, cmd, **kw) for cmd, kw in commands]
    assert shared == fresh
    assert calls == {"build_complex": 1, "assemble_cocycle": 1, "extract_fn": 1}
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
    raw = genus2_doc(spin=False)
    *parents, last = where
    target = raw
    for key in parents:
        target = target[key]
    target[last] = value
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
    # c2.sq1 is neither the first face in sorted order (verify) nor in
    # the complex's order (the lift), where Python's max keeps a nan
    doc = parse_document(json.dumps(genus2_doc()))
    nan = math.nan
    doc.cocycle.face_products()["c2.sq1"] = Mat2(nan, nan, nan, nan, check=False)
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
    # package loads nothing on import, and representing a point (parse,
    # build, verify, fn, holonomy) never compiles the pairing, the
    # variations or the spin lifts; each later command adds its own
    src = os.path.dirname(os.path.dirname(fnhol.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", LOADED, json.dumps(genus2_doc()), command, str(int(list_spin))]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    package, point, after = json.loads(run.stdout)
    assert package == []
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
