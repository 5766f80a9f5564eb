import math

import pytest

from fnhol.mat2 import Mat2, NonHyperbolicError, translation_length
from fnhol.surface import (
    Curve,
    CurveCells,
    Edge,
    FNPoint,
    NonStandardCocycleError,
    SurfaceCocycle,
    SurfaceSpec,
    assemble_cocycle,
    build_complex,
    extract_fn,
    holonomy,
    parse_word,
    validate_surface,
)
from fnhol.wp import DiagonalTerm, FaceChain, wp_matrix
from conftest import caterpillar, genus2_spec, genus3_spec, handle_spec, random_fn, rng_for


def test_validate_good_specs():
    assert not validate_surface(genus2_spec())
    assert not validate_surface(genus3_spec())
    assert not validate_surface(handle_spec())


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
    problems = validate_surface(spec)
    assert problems
    assert any("(0, 0)" in p for p in problems)


def test_validate_catches_bad_counts_and_genus():
    assert validate_surface(SurfaceSpec(1, (0,), ()))
    spec = SurfaceSpec(2, (0, 1), (Curve(0, (0, 0), (1, 0)),))
    assert validate_surface(spec)


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
    assert validate_surface(spec)


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
    problems = validate_surface(spec)
    assert problems
    assert any("connected" in p for p in problems)


def test_validate_ids_with_one_string_form():
    # cell names are built from str(id), so 1 and "1" cannot both be ids
    spec = SurfaceSpec(2, (1, "1"), tuple(Curve(i, (1, i), ("1", i)) for i in range(3)))
    assert validate_surface(spec) == [
        "pants ids 1 and '1' have the same string form"
    ]
    spec = SurfaceSpec(
        2, (0, 1), (Curve(0, (0, 0), (1, 0)), Curve("0", (0, 1), (1, 1)), Curve(2, (0, 2), (1, 2)))
    )
    assert validate_surface(spec) == [
        "curve ids 0 and '0' have the same string form"
    ]
    with pytest.raises(ValueError, match="same string form"):
        build_complex(spec)


def test_assemble_refuses_missing_twists_by_curve():
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {0: 0.3, 2: 0.3})
    with pytest.raises(ValueError, match=r"coordinates missing for curves \['1'\]"):
        assemble_cocycle(spec, fn)


@pytest.mark.parametrize("twist", [2000.0, -2000.0, 1419.6])
def test_assemble_refuses_twists_beyond_the_crossing_range(twist):
    # exp(-twist/2) underflows to zero, overflows, or has an infinite
    # inverse: the crossing entries T and 1/T would not both be finite
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {0: 0.3, 1: twist, 2: 0.3})
    with pytest.raises(ValueError, match=f"twist of curve 1: {twist!r} makes exp"):
        assemble_cocycle(spec, fn)


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
    assert holonomy(c, ()).proj_dist(Mat2.identity()) <= 1e-15
    word = parse_word(cx, "p0.seam0 p0.b21 p0.b20 p0.seam0~")
    there_and_back = word + tuple((e, -s) for e, s in reversed(word))
    assert holonomy(c, there_and_back).proj_dist(Mat2.identity()) <= 1e-10
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
        loop = c.complex.curves[i].loop
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
    c = SurfaceCocycle(c.complex, {**c.values, "c0.x0": Mat2.diagonal(2.0)}, fn)
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
    loop = c1.complex.curves[0].loop
    tr1 = abs(holonomy(c1, loop).trace())
    tr2 = abs(holonomy(c2, loop).trace())
    assert abs(tr1 - tr2) <= 1e-9 * max(1.0, tr1)


def test_face_check_rejects_broken_cycles():
    # a face word must be composable, close up, and with the other faces
    # use every edge once with each sign
    cx = build_complex(genus2_spec())
    cycle = cx.faces["c0.sq0"]
    broken = (
        (ValueError, cycle[1:2] + cycle[:1] + cycle[2:]),  # not composable
        (ValueError, cycle[:3]),  # does not close up
        (AssertionError, tuple((e, -s) for e, s in reversed(cycle))),  # signs used twice
    )
    for error, word in broken:
        cx.faces["c0.sq0"] = word
        with pytest.raises(error):
            cx._check_faces()
    cx.faces["c0.sq0"] = cycle
    cx._check_faces()


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
    neg = SurfaceCocycle(cx, {e: -m for e, m in c.values.items()}, fn)
    assert all(neg.values[e].a == -m.a for e, m in c.values.items())
    assert {f: c.face_residual(f) for f in cx.faces} == {
        f: neg.face_residual(f) for f in cx.faces
    }
    words = [cx.curves[cid].loop for cid in spec.curve_ids()]
    words += list(cx.faces.values())
    for word in words:
        h, hn = holonomy(c, word), holonomy(neg, word)
        assert h.proj_dist(hn) == 0.0
        assert abs(h.trace()) == abs(hn.trace())
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
        (
            CurveCells,
            {"crossings": ("c0.x0", "c0.x1"), "squares": ("c0.sq0", "c0.sq1"),
             "pants": (0, 1), "loop": (("p0.b00", 1), ("p0.b01", 1))},
        ),
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
