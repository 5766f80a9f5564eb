"""Command-line interface.

Reads a surface document (JSON) describing a pants decomposition with
Fenchel-Nielsen coordinates and optionally spin data, and runs one of:

* ``verify``    face residuals and normal-form checks,
* ``holonomy``  trace / translation length of an edge word,
* ``fn``        coordinate extraction round trip,
* ``wp``        the pairing matrix of the coordinate directions against
                the twist-length reference,
* ``spin``      lift assembly and rotation numbers, or enumeration with
                ``--list``.

Exit codes: 0 success, 1 verification failure, 2 bad input.  Output is
deterministic; numbers print with 15 significant digits.

Document schema::

    {
      "genus": 2,
      "pants": [0, 1],
      "curves": [{"id": 0, "left": {"pants": 0, "k": 0},
                            "right": {"pants": 1, "k": 0}}, ...],
      "fn": [{"curve": 0, "length": 2.0, "twist": 0.0}, ...],
      "spin": {"eps": {"0": -1, ...}, "crossing_signs": {"0": 1, ...}}
    }

Curve and pants ids are JSON integers or strings, and no two ids of
one kind may share a string form (cell names and JSON keys are built
from it).  Lengths and twists pass the rules of
:func:`fnhol.surface.assemble_cocycle`: lengths lie in [1e-6, 50], and
exp(-twist/2) and exp(twist/2) are finite nonzero doubles (about
|twist| <= 1419.56).  ``spin`` is optional, and every command, not only
``spin``, refuses one that breaks the sign rules of a spin lift in
:mod:`fnhol.surface`: each sign +-1, eps on every curve multiplying to
-1 around every pants, and crossing signs +1 on the spanning tree.

A parsed document is immutable; its cell complex, assembled cocycle and
read-back coordinates are computed on first use and shared by every
command run on it; the parse validates it once and keeps the tree found.

Importing this module loads ``surface``, ``pants`` and ``mat2`` only.
``wp`` (which loads ``variation``) and ``spin`` are imported by the
commands that run them, at each call, so ``verify``, ``fn`` and
``holonomy`` never compile them, and a function rebound in those
modules is seen by the next command.
"""

import json
import sys
from collections import namedtuple
from functools import cached_property

from .mat2 import NonHyperbolicError, ProjMat2, _max_or_nan, translation_length
from .pants import _check_length
from .surface import (CellComplex, Curve, FNPoint, SurfaceSpec, _check_crossing_signs, _check_eps,
                      _crossing_entry, _pants_curves, _problems_and_tree, _valid_tree,
                      assemble_cocycle, extract_fn, holonomy, parse_word)


class DocumentError(ValueError):
    """Malformed or invalid input document; the message carries the
    offending field path."""


class SurfaceDocument(namedtuple("SurfaceDocument", "spec fn spin")):
    """A parsed, validated document; ``spin`` is None or
    {"eps": {...}, "crossing_signs": {...}} with curve-id keys.  What the
    document determines is computed once, on first use, and lives as long
    as the document.  Nothing on it can be assigned or deleted
    (``cached_property`` writes to the instance ``__dict__`` directly)."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r} of a SurfaceDocument")

    __delattr__ = __setattr__

    @cached_property
    def tree(self):
        """The spanning tree :func:`parse_document` found, or, built by hand, found here."""
        return _valid_tree(self.spec)

    @cached_property
    def complex(self):
        return CellComplex(self.spec, self.tree)

    @cached_property
    def cocycle(self):
        return assemble_cocycle(self.complex, self.fn)

    @cached_property
    def fn_back(self):
        """The coordinates read back off the cocycle."""
        return extract_fn(self.cocycle)


def _fail(path, msg):
    raise DocumentError(f"{path}: {msg}")


def _id(val, path):
    """A pants or curve id: a JSON integer or string, never a boolean."""
    if isinstance(val, bool) or not isinstance(val, (int, str)):
        _fail(path, f"expected int or str, got {val!r}")
    return val


def _require(obj, key, kind, path):
    """``obj[key]`` of ``kind``: float (any JSON number, as a float), int,
    list, dict or :func:`_id`; DocumentError at the path of what is not."""
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {obj!r}")
    if key not in obj:
        _fail(path, f"missing field {key!r}")
    val, path = obj[key], f"{path}.{key}"
    if kind is _id:
        return _id(val, path)
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            _fail(path, f"expected a number, got {val!r}")
        try:
            return float(val)
        except OverflowError as exc:  # a JSON integer beyond every double
            _fail(path, str(exc))
    if isinstance(val, bool) and kind is int or not isinstance(val, kind):
        _fail(path, f"expected {kind.__name__}, got {val!r}")
    return val


def _checked(check, *args):
    """``check(*args)``, a library rule naming its field last; ValueError as DocumentError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def parse_document(text):
    """Parse and fully validate a surface document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        # the decoder recurses once per level of nesting
        raise DocumentError("document: nested too deeply") from None
    except ValueError:
        # an integer longer than Python converts from a string; the limit
        # is left as it is for the whole interpreter
        raise DocumentError(f"document: an integer has more than "
                            f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(raw, dict):
        _fail("document", "expected a JSON object")

    genus = _require(raw, "genus", int, "document")
    pants = _require(raw, "pants", list, "document")
    curves_raw = _require(raw, "curves", list, "document")
    fn_raw = _require(raw, "fn", list, "document")

    for i, pid in enumerate(pants):
        _id(pid, f"pants[{i}]")
    curves = []
    for i, item in enumerate(curves_raw):
        path = f"curves[{i}]"
        cid = _require(item, "id", _id, path)
        sides = []
        for side in ("left", "right"):
            rec = _require(item, side, dict, path)
            sides.append((_require(rec, "pants", _id, f"{path}.{side}"),
                          _require(rec, "k", int, f"{path}.{side}")))
        curves.append(Curve(cid, sides[0], sides[1]))
    spec = SurfaceSpec(genus, tuple(pants), tuple(curves))
    problems, tree = _problems_and_tree(spec)
    if problems:
        _fail("document", "; ".join(problems))

    # JSON keys are strings: a curve is named by its string form, unique by validation
    curve_ids = spec.curve_ids()
    curves_by_str = {str(c): c for c in curve_ids}
    lengths, twists = {}, {}
    for i, item in enumerate(fn_raw):
        path = f"fn[{i}]"
        ref = _require(item, "curve", _id, path)
        cid = curves_by_str.get(str(ref))
        if cid is None:
            _fail(path, f"unknown curve {ref!r}")
        l = _checked(_check_length, _require(item, "length", float, path), f"{path}.length")
        if cid in lengths:
            _fail(path, f"duplicate coordinates for curve {cid!r}")
        lengths[cid] = l
        twists[cid] = twist = _require(item, "twist", float, path)
        _checked(_crossing_entry, twist, f"{path}.twist")
    missing = [c for c in curve_ids if c not in lengths]
    if missing:
        _fail("fn", f"no coordinates for curves {missing!r}")
    fn = FNPoint(lengths, twists)

    spin = None
    if "spin" in raw and raw["spin"] is not None:
        block = raw["spin"]
        if not isinstance(block, dict):
            _fail("spin", "expected an object")

        def by_curve(field):
            # a key naming no curve is kept as it is, for the rule to name it
            return {curves_by_str.get(key, key): val
                    for key, val in _require(block, field, dict, "spin").items()}

        eps = _checked(_check_eps, by_curve("eps"), _pants_curves(spec), "spin.eps")
        signs = by_curve("crossing_signs") if "crossing_signs" in block else None
        spin = {"eps": eps, "crossing_signs": _checked(_check_crossing_signs, signs, spec, tree,
                                                       "spin.crossing_signs")}
    doc = SurfaceDocument(spec, fn, spin)
    vars(doc)["tree"] = tree  # where its cached_property keeps it
    return doc


def _num(x):
    """15 significant digits, stable across platforms."""
    return format(float(x), ".15g")


def _emit(report, fmt, stream):
    if fmt == "json":
        json.dump(report, stream, indent=2)
        stream.write("\n")
    else:
        for line in report["lines"]:
            stream.write(line + "\n")


def _verdict(command, fields, lines, ok):
    """(report, exit code) of a checking command: ``lines`` ends with
    PASS or FAIL, and the report holds the command, ``fields``, ``ok``
    and the lines, in that order."""
    lines.append("PASS" if ok else "FAIL")
    return {"command": command, **fields, "ok": ok, "lines": lines}, 0 if ok else 1


def _spin_list(spec):
    """The ``spin --list`` report: every boundary-sign assignment and
    crossing-sign class; it needs no cell complex.  Each report row and
    text line is read in one pass off a listed row's values, which follow
    the curves sorted by str.  The tree curves are those every class
    holds at +1: the last class, in product order, holds every other
    curve at -1."""
    from . import spin

    eps_list, classes = spin.enumerate_spin(spec)
    names = [str(c) for c in classes[-1]]
    tree = [n for n, s in zip(names, classes[-1].values()) if s == 1]
    tokens = [{1: f"{n}:+1", -1: f"{n}:-1"} for n in names]
    lines = [
        f"boundary-sign assignments {len(eps_list)}",
        f"crossing-sign classes per assignment {len(classes)}",
        f"total lifts in normal form {len(eps_list) * len(classes)}",
        f"tree curves {' '.join(tree)}",
    ]
    listed = {}
    for kind, assignments in (("eps", eps_list), ("class", classes)):
        rows = listed[kind] = []
        for signs in assignments:
            values = signs.values()
            rows.append(dict(zip(names, values)))
            lines.append(kind + " " + " ".join(map(dict.__getitem__, tokens, values)))
    return {
        "command": "spin",
        "eps_assignments": listed["eps"],
        "crossing_classes": listed["class"],
        "tree_curves": tree,
        "lines": lines,
    }


def _roundtrip(doc):
    """The coordinate round trip: the largest |read back - given| over
    every curve's length and twist, nan if any of them is nan."""
    back, fn = doc.fn_back, doc.fn
    return _max_or_nan(
        abs(read[c] - given[c])
        for read, given in ((back.lengths, fn.lengths), (back.twists, fn.twists))
        for c in given
    )


def run_command(doc, command, word=None, tolerance=1e-8, list_spin=False):
    """Execute a command against a parsed document.

    Returns (report dict with a "lines" key, exit code)."""
    if command == "spin" and list_spin:
        return _spin_list(doc.spec), 0
    if command == "verify":
        cocycle = doc.cocycle
        residuals = {fid: cocycle.face_residual(fid) for fid in sorted(doc.complex.faces)}
        worst = _max_or_nan(residuals.values())
        rt = _roundtrip(doc)
        lines = [
            f"faces {len(residuals)}  max residual {_num(worst)}",
            f"coordinate round trip {_num(rt)}",
        ]
        fields = {"max_residual": worst, "roundtrip": rt, "residuals": residuals}
        return _verdict("verify", fields, lines, worst <= tolerance and rt <= tolerance)

    if command == "holonomy":
        if not word:
            raise DocumentError("holonomy requires --word")
        m = ProjMat2(holonomy(doc.cocycle, parse_word(doc.complex, word))).rep
        tr = abs(m.trace())
        lines = [
            f"word {word}",
            f"matrix [[{_num(m.a)}, {_num(m.b)}], [{_num(m.c)}, {_num(m.d)}]]",
            f"|trace| {_num(tr)}",
        ]
        report = {
            "command": "holonomy",
            "matrix": [[m.a, m.b], [m.c, m.d]],
            "trace_abs": tr,
            "lines": lines,
        }
        try:
            length = translation_length(m)
            report["translation_length"] = length
            lines.append(f"translation length {_num(length)}")
        except NonHyperbolicError:
            report["translation_length"] = None
            lines.append("translation length n/a (not hyperbolic)")
        return report, 0

    if command == "fn":
        back = doc.fn_back
        lines = [
            f"curve {c.id}  length {_num(back.lengths[c.id])}"
            f"  twist {_num(back.twists[c.id])}"
            for c in doc.spec.curves
        ]
        worst = _roundtrip(doc)
        lines.append(f"round trip {_num(worst)}")
        fields = {
            "lengths": {str(c): back.lengths[c] for c in back.lengths},
            "twists": {str(c): back.twists[c] for c in back.twists},
            "roundtrip": worst,
        }
        return _verdict("fn", fields, lines, worst <= tolerance)

    if command == "wp":
        from .wp import block_form_deviation, wp_matrix

        labels, matrix = wp_matrix(doc.cocycle, doc.fn)
        worst = block_form_deviation(matrix)
        lines = [" ".join(labels)]
        for row in matrix:
            lines.append(" ".join(_num(x) for x in row))
        lines.append(f"max deviation from twist-length block form {_num(worst)}")
        fields = {"labels": labels, "matrix": matrix, "max_deviation": worst}
        return _verdict("wp", fields, lines, worst <= tolerance)

    if command == "spin":
        if doc.spin is None:
            raise DocumentError("document has no spin block (or use --list)")
        from . import spin

        # the verdict below judges the lift's residual, nan included,
        # against the tolerance asked for
        lifted = spin.SpinSurfaceCocycle(doc.cocycle, doc.spin["eps"],
                                         doc.spin["crossing_signs"])
        worst = lifted.max_face_residual()
        lines = [f"max face residual against +I {_num(worst)}"]
        rots = {}
        for cid, cells in doc.complex.curves.items():
            r = rots[str(cid)] = spin.rot2(lifted, cells.loop)
            lines.append(f"curve {cid}  rot {r}")
        pants_sums = {}
        for pid, cells in doc.complex.pants.items():
            # a curve's loop is one of these, and its trace is kept with the base
            s = sum(spin.rot2(lifted, loop) for loop in cells.loops)
            pants_sums[str(pid)] = s % 2
            lines.append(f"pants {pid}  rot sum mod 2 = {s % 2}")
        ok = worst <= tolerance and all(v == 1 for v in pants_sums.values())
        fields = {"max_residual": worst, "rot": rots, "pants_rot_sums": pants_sums}
        return _verdict("spin", fields, lines, ok)

    raise DocumentError(f"unknown command {command!r}")


def main(argv=None):
    # imported here: only the command line needs it, not importers
    import argparse

    def tolerance(text):
        # nan or a negative bound would fail every verdict, a false FAIL
        value = float(text)
        if not value >= 0.0:
            raise ValueError(text)
        return value

    parser = argparse.ArgumentParser(
        prog="fnhol",
        description="holonomy cocycles of pants-decomposed surfaces: "
        "verification, holonomy, coordinates, symplectic pairing, spin lifts",
    )
    parser.add_argument(
        "command", choices=["verify", "holonomy", "fn", "wp", "spin"]
    )
    parser.add_argument("--input", required=True, help="surface document (JSON)")
    parser.add_argument("--word", help="edge word for the holonomy command")
    parser.add_argument("--tolerance", type=tolerance, default=1e-8)
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument(
        "--list", action="store_true", help="spin: enumerate structures"
    )
    args = parser.parse_args(argv)

    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"fnhol: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse_document(text)
        report, code = run_command(
            doc,
            args.command,
            word=args.word,
            tolerance=args.tolerance,
            list_spin=args.list,
        )
    except (DocumentError, ValueError) as exc:
        print(f"fnhol: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # only the spin lift's per-pants check raises this; it misses on
        # rounding for short curves: a verdict on the document, not bad
        # input or a crash
        print(f"fnhol: spin: {exc} (ill-conditioned for this document)", file=sys.stderr)
        return 1
    _emit(report, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
