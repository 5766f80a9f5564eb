import math

import pytest

from fnhol.mat2 import Mat2, NonHyperbolicError, translation_length
from fnhol.surface import (
    Curve,
    Edge,
    Face,
    FNPoint,
    NonStandardCocycleError,
    SurfaceCocycle,
    SurfaceSpec,
    assemble_cocycle,
    build_complex,
    curve_loop_word,
    extract_fn,
    holonomy,
    parse_word,
    validate_surface,
)
from fnhol.wp import DiagonalTerm, FaceChain, wp_matrix
from conftest import caterpillar, genus2_spec, genus3_spec, handle_spec, random_fn, rng_for


def test_validate_good_specs():
    assert validate_surface(genus2_spec()).ok
    assert validate_surface(genus3_spec()).ok
    assert validate_surface(handle_spec()).ok


def test_validate_reused_boundary():
    spec = SurfaceSpec(
        2,
        (0, 1),
        (
            Curve(0, (0, 0), (1, 0)),
            Curve(1, (0, 0), (1, 1)),  # (0, 0) reused
            Curve(2, (0, 2), (1, 2)),
        ),
    )
    diag = validate_surface(spec)
    assert not diag.ok
    assert any("(0, 0)" in p for p in diag.problems)


def test_validate_catches_bad_counts_and_genus():
    assert not validate_surface(SurfaceSpec(1, (0,), ())).ok
    spec = SurfaceSpec(2, (0, 1), (Curve(0, (0, 0), (1, 0)),))
    assert not validate_surface(spec).ok


def test_validate_self_loop_with_equal_sides():
    spec = SurfaceSpec(
        2,
        (0, 1),
        (
            Curve(0, (0, 1), (0, 1)),
            Curve(1, (0, 0), (1, 0)),
            Curve(2, (1, 1), (1, 2)),
        ),
    )
    assert not validate_surface(spec).ok


def test_validate_disconnected():
    # two handle-pants pieces that never touch: pairing is also broken,
    # but connectivity of a pairing-complete non-connected example needs
    # genus 3; build one
    spec = SurfaceSpec(
        3,
        (0, 1, 2, 3),
        (
            Curve(0, (0, 0), (1, 0)),
            Curve(1, (0, 1), (1, 1)),
            Curve(2, (0, 2), (1, 2)),
            Curve(3, (2, 0), (3, 0)),
            Curve(4, (2, 1), (3, 1)),
            Curve(5, (2, 2), (3, 2)),
        ),
    )
    diag = validate_surface(spec)
    assert not diag.ok
    assert any("connected" in p for p in diag.problems)


def test_validate_ids_with_one_string_form():
    # cell names are built from str(id), so 1 and "1" cannot both be ids
    spec = SurfaceSpec(2, (1, "1"), tuple(Curve(i, (1, i), ("1", i)) for i in range(3)))
    assert validate_surface(spec).problems == [
        "pants ids 1 and '1' have the same string form"
    ]
    spec = SurfaceSpec(
        2, (0, 1), (Curve(0, (0, 0), (1, 0)), Curve("0", (0, 1), (1, 1)), Curve(2, (0, 2), (1, 2)))
    )
    assert validate_surface(spec).problems == [
        "curve ids 0 and '0' have the same string form"
    ]
    with pytest.raises(ValueError, match="same string form"):
        build_complex(spec)


def test_complex_counts():
    def counts(cx):
        return (len(cx.vertices), len(cx.edges), len(cx.faces))

    assert counts(build_complex(genus2_spec())) == (12, 24, 10)
    assert counts(build_complex(genus3_spec())) == (24, 48, 20)
    for spec in (genus2_spec(), genus3_spec(), handle_spec()):
        v, e, f = counts(build_complex(spec))
        assert v - e + f == 2 - 2 * spec.genus


def test_zero_twist_gives_quarter_turn():
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.0 for i in range(3)})
    c = assemble_cocycle(spec, fn)
    for i in range(3):
        quarter_turn = Mat2(0.0, -1.0, 1.0, 0.0)
        assert c.values[f"c{i}.x0"].proj_dist(quarter_turn) <= 1e-15
        assert c.values[f"c{i}.x1"].proj_dist(quarter_turn) <= 1e-15


def test_face_relations_random():
    for spec, trials in ((genus2_spec(), 50), (genus3_spec(), 50)):
        cx = build_complex(spec)
        rng = rng_for(f"faces-{spec.genus}")
        for _ in range(trials):
            c = assemble_cocycle(cx, random_fn(rng, spec))
            assert c.max_face_residual() <= 1e-8


def test_both_sides_carry_equal_arc_values():
    spec = genus2_spec()
    rng = rng_for("sides")
    fn = random_fn(rng, spec)
    c = assemble_cocycle(spec, fn)
    for curve in spec.curves:
        (jl, kl), (jr, kr) = curve.left, curve.right
        expected = Mat2.diagonal(math.exp(0.25 * fn.lengths[curve.id]))
        for eps in (0, 1):
            assert c.values[f"p{jl}.b{kl}{eps}"].close_to(
                c.values[f"p{jr}.b{kr}{eps}"], 1e-14
            )
            assert c.values[f"p{jl}.b{kl}{eps}"].close_to(expected, 1e-14)


def test_holonomy_words():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("holwords")
    c = assemble_cocycle(cx, random_fn(rng, spec))
    assert holonomy(c, ()).rep.proj_dist(Mat2.identity()) <= 1e-15
    word = parse_word(cx, "p0.seam0 p0.b21 p0.b20 p0.seam0~")
    there_and_back = word + tuple((e, -s) for e, s in reversed(word))
    assert holonomy(c, there_and_back).rep.proj_dist(Mat2.identity()) <= 1e-10
    with pytest.raises(ValueError):
        holonomy(c, (("p0.b00", 1), ("p0.b10", 1)))  # not composable
    with pytest.raises(ValueError):
        holonomy(c, (("p9.b00", 1),))  # unknown edge


def test_curve_loop_length():
    spec = genus2_spec()
    rng = rng_for("looplen")
    fn = random_fn(rng, spec)
    c = assemble_cocycle(spec, fn)
    for i in range(3):
        loop = curve_loop_word(spec, i)
        assert abs(translation_length(holonomy(c, loop)) - fn.lengths[i]) <= 1e-10


def test_extract_fn_roundtrip():
    for spec in (genus2_spec(), genus3_spec(), handle_spec()):
        cx = build_complex(spec)
        rng = rng_for(f"rt-{spec.genus}-{len(spec.curves)}")
        for _ in range(25):
            fn = random_fn(rng, spec)
            back = extract_fn(assemble_cocycle(cx, fn))
            for c in spec.curves:
                assert abs(back.lengths[c.id] - fn.lengths[c.id]) <= 1e-12 * max(
                    1.0, fn.lengths[c.id]
                )
                assert abs(back.twists[c.id] - fn.twists[c.id]) <= 1e-12 * max(
                    1.0, abs(fn.twists[c.id])
                )


def test_twist_not_reduced_mod_length():
    spec = genus2_spec()
    fn = FNPoint({0: 2.0, 1: 2.0, 2: 2.0}, {0: 7.3, 1: 0.0, 2: -11.0})
    back = extract_fn(assemble_cocycle(spec, fn))
    assert abs(back.twists[0] - 7.3) < 1e-12
    assert abs(back.twists[2] + 11.0) < 1e-12


def test_extract_fn_rejects_non_standard():
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.0 for i in range(3)})
    c = assemble_cocycle(spec, fn)
    c = SurfaceCocycle(c.complex, {**c.values, "c0.x0": Mat2.diagonal(2.0)})
    with pytest.raises(NonStandardCocycleError):
        extract_fn(c)


def test_dehn_twist_shift():
    # shifting one twist by the curve length scales the crossing entry
    # by 1/lambda and leaves the curve's holonomy class alone
    spec = genus2_spec()
    rng = rng_for("dehn")
    fn = random_fn(rng, spec)
    shifted = FNPoint(
        dict(fn.lengths),
        {**fn.twists, 0: fn.twists[0] + fn.lengths[0]},
    )
    c1 = assemble_cocycle(spec, fn)
    c2 = assemble_cocycle(spec, shifted)
    lam = math.exp(0.5 * fn.lengths[0])
    t1 = abs(c1.values["c0.x0"].c)
    t2 = abs(c2.values["c0.x0"].c)
    assert abs(t2 - t1 / lam) <= 1e-12 * max(1.0, t1)
    loop = curve_loop_word(spec, 0)
    tr1 = holonomy(c1, loop).trace_abs()
    tr2 = holonomy(c2, loop).trace_abs()
    assert abs(tr1 - tr2) <= 1e-9 * max(1.0, tr1)


def test_word_parse():
    cx = build_complex(genus2_spec())
    text = "p0.seam1 c2.x0~ p1.b00"
    word = parse_word(cx, text)
    assert word == (("p0.seam1", 1), ("c2.x0", -1), ("p1.b00", 1))
    with pytest.raises(ValueError):
        parse_word(cx, "p0.nosuch")


def test_assemble_requires_full_coordinates():
    spec = genus2_spec()
    fn = FNPoint({0: 2.0, 1: 2.0}, {0: 0.0, 1: 0.0})
    with pytest.raises(ValueError):
        assemble_cocycle(spec, fn)


@pytest.mark.parametrize("spec_fn", [genus2_spec, genus3_spec, lambda: caterpillar(5)])
def test_stored_signs_change_no_result(spec_fn):
    # projective is only a comparison: negating every stored edge value
    # leaves every residual, report, read-back and pairing equal
    spec = spec_fn()
    cx = build_complex(spec)
    fn = random_fn(rng_for(f"signs-{spec.genus}"), spec)
    c = assemble_cocycle(cx, fn)
    neg = SurfaceCocycle(cx, {e: -m for e, m in c.values.items()})
    assert all(neg.values[e].a == -m.a for e, m in c.values.items())
    assert {f: c.face_residual(f) for f in cx.faces} == {
        f: neg.face_residual(f) for f in cx.faces
    }
    words = [curve_loop_word(spec, cid) for cid in spec.curve_ids()]
    words += [face.cycle for face in cx.faces.values()]
    for word in words:
        h, hn = holonomy(c, word), holonomy(neg, word)
        assert h.rep.entries() == hn.rep.entries()
        assert h.trace_abs() == hn.trace_abs()
        try:
            length = translation_length(h)
        except NonHyperbolicError:
            with pytest.raises(NonHyperbolicError):
                translation_length(hn)
        else:
            assert translation_length(hn) == length
    back, back_neg = extract_fn(c), extract_fn(neg)
    assert (back.lengths, back.twists) == (back_neg.lengths, back_neg.twists)
    assert wp_matrix(c, fn) == wp_matrix(neg, fn)


@pytest.mark.parametrize(
    "record, fields",
    [
        (Curve, {"id": 3, "left": (0, 1), "right": ("a", 2)}),
        (SurfaceSpec, {"genus": 2, "pants": (0, 1), "curves": (Curve(0, (0, 0), (1, 0)),)}),
        (Edge, {"start": "p0.v00", "end": "p0.v01", "kind": "arc0"}),
        (Face, {"kind": "square", "cycle": (("c0.x0", 1), ("p1.b01", -1))}),
        (
            DiagonalTerm,
            {"sign": -1, "first": ("e", 1), "second": ("f", -1),
             "path_first": (), "path_second": (("e", 1),)},
        ),
        (FaceChain, {"face_id": "p0.hex+", "basepoint": "p0.v00", "terms": ()}),
    ],
)
def test_records_are_immutable_values(record, fields):
    # equal fields give equal records with equal hashes, built by
    # position or by name; the repr names every field; no field can
    # be replaced and no attribute added
    by_position = record(*fields.values())
    by_name = record(**fields)
    assert by_position == by_name and by_position is not by_name
    assert hash(by_position) == hash(by_name)
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(by_position) == f"{record.__name__}({shown})"
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        with pytest.raises(AttributeError):
            setattr(by_position, name, value)
    with pytest.raises(AttributeError):
        by_position.extra = None
