import itertools
import math
import re

import pytest

import fnhol.surface
from fnhol.cli import DocumentError, SurfaceDocument, run_command
from fnhol.mat2 import Mat2, NonHyperbolicError, _max_or_nan, translation_length
from fnhol.pants import PantsLengths
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
)
from fnhol.spin import (SpinSignError, SpinSurfaceCocycle, _check_pants_lift, assemble_spin,
                        enumerate_spin, rot2)
from fnhol.variation import TangentVector, variation_cocycle
from fnhol.wp import DiagonalTerm, FaceChain, wp_matrix
from conftest import (
    caterpillar,
    check_face_tables,
    comb,
    genus2_spec,
    genus3_spec,
    handle_spec,
    problems_of,
    random_fn,
    random_gluing,
    random_tangent,
    rng_for,
)
import oracles
from oracles import close_to, identity, proj_dist


def test_validate_good_specs():
    assert not problems_of(genus2_spec())
    assert not problems_of(genus3_spec())
    assert not problems_of(handle_spec())


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
    problems = problems_of(spec)
    assert problems
    assert any("(0, 0)" in p for p in problems)


def test_validate_catches_bad_counts_and_genus():
    assert problems_of(SurfaceSpec(1, (0,), ()))
    spec = SurfaceSpec(2, (0, 1), (Curve(0, (0, 0), (1, 0)),))
    assert problems_of(spec)


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
    assert problems_of(spec)


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
    problems = problems_of(spec)
    assert problems
    assert any("connected" in p for p in problems)


def test_validate_ids_with_one_string_form():
    # cell names are built from str(id), so 1 and "1" cannot both be ids
    spec = SurfaceSpec(2, (1, "1"), tuple(Curve(i, (1, i), ("1", i)) for i in range(3)))
    assert problems_of(spec) == [
        "pants ids 1 and '1' have the same string form"
    ]
    spec = SurfaceSpec(
        2, (0, 1), (Curve(0, (0, 0), (1, 0)), Curve("0", (0, 1), (1, 1)), Curve(2, (0, 2), (1, 2)))
    )
    assert problems_of(spec) == [
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


@pytest.mark.parametrize("length", [1e4, 1e-320, math.inf])
def test_assemble_refuses_lengths_its_closed_forms_cannot_take(length):
    # 1e4 overflowed cosh with a bare OverflowError; 1e-320 and inf gave
    # a cocycle whose face residuals were nan
    spec = genus2_spec()
    fn = FNPoint({0: length, 1: 2.0, 2: 2.0}, {i: 0.3 for i in range(3)})
    with pytest.raises(ValueError,
                       match=re.escape(f"length of curve 0: {length!r} outside [1e-06, 50.0]")):
        assemble_cocycle(spec, fn)


def test_assemble_refuses_lengths_that_overflow_together():
    # cosh((1400 + 50)/2) is not finite, but 1400 is refused on its own,
    # outside the accepted range, before any pants is assembled
    spec = genus2_spec()
    fn = FNPoint({0: 1400.0, 1: 50.0, 2: 2.0}, {i: 0.3 for i in range(3)})
    with pytest.raises(ValueError,
                       match=re.escape("length of curve 0: 1400.0 outside [1e-06, 50.0]")):
        assemble_cocycle(spec, fn)


def test_assemble_takes_every_corner_of_the_document_length_range():
    spec = genus2_spec()
    for lengths in itertools.product((1e-6, 50.0), repeat=3):
        fn = FNPoint(dict(enumerate(lengths)), {i: 0.3 for i in range(3)})
        assert all(m.is_finite() for m in assemble_cocycle(spec, fn).values.values())


@pytest.mark.parametrize("entry", ["assemble_cocycle", "variation_cocycle", "wp_matrix",
                                   "assemble_spin"])
@pytest.mark.parametrize("length", [0.0, -1.0, math.nan, 1e-15, 1e-7, 9.99e-7, 50.000001,
                                    60.0, 100.0, 1e4, math.inf])
def test_every_entry_point_refuses_a_length_outside_the_range(entry, length):
    # one rule for every entry point, with the message the command line
    # prints; at 1e-15, 1e-7 and 60 the cocycle was wrong (face residuals
    # 0.79, 1.1e-8, 7.6e-4), and at 100 its face residual raised
    spec = genus2_spec()
    fn = FNPoint({0: 2.0, 1: length, 2: 2.0}, {i: 0.3 for i in range(3)})
    calls = {
        "assemble_cocycle": lambda: assemble_cocycle(spec, fn),
        "variation_cocycle": lambda: variation_cocycle(build_complex(spec), fn,
                                                       TangentVector({0: 1.0})),
        "wp_matrix": lambda: wp_matrix(spec, fn),
        "assemble_spin": lambda: assemble_spin(build_complex(spec), fn, {i: -1 for i in range(3)}),
    }
    message = f"length of curve 1: {length!r} outside [1e-06, 50.0]"
    with pytest.raises(ValueError, match=re.escape(message)):
        calls[entry]()


def _entries(cocycle):
    return {e: m.entries() for e, m in cocycle.values.items()}


def test_a_complex_keeps_the_cocycle_of_its_last_point(monkeypatch):
    # a point with equal lengths and twists, a distinct object, gets the
    # same base; a change of any one coordinate gets a new one, the same
    # to the bit as a fresh assembly
    spec = genus3_spec()
    cx = build_complex(spec)
    rng = rng_for("complex-slot")
    fn = random_fn(rng, spec)
    tangent = random_tangent(rng, spec)
    calls = []
    assemble = fnhol.surface.assemble_cocycle

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    # every base cocycle is chosen in surface, which assembles through its own name
    monkeypatch.setattr(fnhol.surface, "assemble_cocycle", counted)
    base = variation_cocycle(cx, fn, tangent).base
    assert len(calls) == 1 and base.fn is not fn
    twin = FNPoint(dict(fn.lengths), dict(fn.twists))
    assert variation_cocycle(cx, twin, tangent).base is base and len(calls) == 1
    assert wp_matrix(cx, fn) == wp_matrix(base, fn) and len(calls) == 1
    for cid in fn.lengths:
        for moved in (FNPoint({**fn.lengths, cid: fn.lengths[cid] + 0.5}, fn.twists),
                      FNPoint(fn.lengths, {**fn.twists, cid: fn.twists[cid] - 0.25})):
            base = variation_cocycle(cx, fn, tangent).base
            calls.clear()
            other = variation_cocycle(cx, moved, tangent).base
            assert other is not base and len(calls) == 1
            assert _entries(other) == _entries(assemble_cocycle(spec, moved))


def test_a_complex_back_at_an_earlier_point_gives_its_bits():
    # points A, B, A: each base, and the pairing matrix over it, are
    # those of a fresh assembly to the bit
    spec = caterpillar(3)
    cx = build_complex(spec)
    rng = rng_for("complex-slot-aba")
    a, b = random_fn(rng, spec), random_fn(rng, spec)
    for fn in (a, b, a):
        fresh = assemble_cocycle(spec, fn)
        assert repr(wp_matrix(cx, fn)) == repr(wp_matrix(fresh, fn))
        base = variation_cocycle(cx, fn, random_tangent(rng, spec)).base
        assert _entries(base) == _entries(fresh)


def test_a_complex_never_returns_the_cocycle_of_a_point_changed_since():
    # the complex compares against copies of the coordinates, and the
    # cocycle it returns carries a copy, so changing the caller's point
    # in place gives the new point's cocycle and leaves the old one as it was
    spec = genus2_spec()
    cx = build_complex(spec)
    fn = FNPoint({0: 2.0, 1: 1.4, 2: 3.0}, {0: 0.5, 1: -0.3, 2: 7.3})
    tangent = random_tangent(rng_for("complex-slot-mutate"), spec)
    first = variation_cocycle(cx, fn, tangent).base
    for coords, value in ((fn.lengths, 2.5), (fn.twists, -1.0)):
        coords[1] = value
        base = variation_cocycle(cx, fn, tangent).base
        assert base is not first
        assert _entries(base) == _entries(assemble_cocycle(spec, fn))
        assert base.fn.lengths == fn.lengths and base.fn.twists == fn.twists
    assert first.fn.lengths[1] == 1.4 and first.fn.twists[1] == -0.3


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
        assert proj_dist(c.values[f"c{i}.x0"], quarter_turn) <= 1e-15
        assert proj_dist(c.values[f"c{i}.x1"], quarter_turn) <= 1e-15


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
            assert close_to(c.values[f"p{jl}.b{kl}{eps}"], c.values[f"p{jr}.b{kr}{eps}"], 1e-14)
            assert close_to(c.values[f"p{jl}.b{kl}{eps}"], expected, 1e-14)


def test_holonomy_words():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("holwords")
    c = assemble_cocycle(cx, random_fn(rng, spec))
    assert proj_dist(holonomy(c, ()), identity()) <= 1e-15
    word = parse_word(cx, "p0.seam0 p0.b21 p0.b20 p0.seam0~")
    there_and_back = word + tuple((e, -s) for e, s in reversed(word))
    assert proj_dist(holonomy(c, there_and_back), identity()) <= 1e-10
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
            check_face_tables(cx)
    cx.faces["c0.sq0"] = cycle
    check_face_tables(cx)


def test_every_complex_has_closed_face_tables():
    # the faces come from two templates, the pants hexagons and the curve
    # squares, so building a complex checks nothing: self-glued pants,
    # double curves and every boundary index of the random gluings included
    specs = [shape(g) for shape in (caterpillar, comb) for g in range(2, 9)]
    rng = rng_for("face-tables")
    specs += [random_gluing(rng, 2 + i % 7) for i in range(49)]
    for spec in specs:
        check_face_tables(build_complex(spec))


def _readme_fn():
    return FNPoint({0: 2.0, 1: 1.4, 2: 3.0}, {0: 0.5, 1: -0.3, 2: 7.3})


def _readme_cocycle(values=None):
    """The cocycle of README's library example; with ``values``, a
    hand-built cocycle at its point that holds these edge values."""
    c = assemble_cocycle(genus2_spec(), _readme_fn())
    return SurfaceCocycle(c.complex, {**c.values, **values}, c.fn) if values else c


def _lift_with_a_stretched_crossing():
    # T on c0.x1 off by 1e-6: both hexagons of each pants still lift,
    # and the squares of curve 0 miss +I by about 1e-6
    m = _readme_cocycle().values["c0.x1"]
    s = 1.0 + 1e-6
    base = _readme_cocycle({"c0.x1": Mat2(m.a, m.b / s, m.c * s, m.d, check=False)})
    return assemble_spin(base, base.fn, {0: -1, 1: -1, 2: -1})


def _rot2_of_a_face():
    lift = assemble_spin(genus2_spec(), _readme_fn(), {0: -1, 1: -1, 2: -1})
    return rot2(lift, lift.complex.faces["p0.hex+"])


# What the library refuses of values a caller builds by hand from its
# public types, as (call, exception, start of the message).  The
# command line never builds these; tests/test_imports.py runs them too.
LIBRARY_REFUSALS = {
    "determinant-not-1": (lambda: Mat2(2.0, 0.0, 0.0, 0.6), ValueError,
                          "determinant 1.2 is not 1"),
    "renormalize-nonpositive-determinant": (
        lambda: Mat2(1.0, 0.0, 0.0, -1.0, check=False).renormalized(), ValueError,
        "cannot renormalize matrix with det -1.0"),
    "pants-length-not-positive": (lambda: PantsLengths(1.0, 0.0, 1.0), ValueError,
                                  "boundary length 0.0 must be positive"),
    "invalid-surface": (lambda: build_complex(SurfaceSpec(1, (0,), ())), ValueError,
                        "invalid surface: genus 1 must be at least 2"),
    "coordinates-missing": (
        lambda: assemble_cocycle(genus2_spec(), FNPoint(dict.fromkeys(range(3), 2.0), {0: 0.3})),
        ValueError, "coordinates missing for curves ['1', '2']"),
    "cocycle-at-another-point": (
        lambda: variation_cocycle(_readme_cocycle(), FNPoint({0: 2.5, 1: 1.4, 2: 3.0},
                                                             _readme_fn().twists),
                                  TangentVector({0: 1.0})),
        ValueError, "the cocycle was assembled at another point than fn"),
    "spin-listing-of-a-curve-on-an-unknown-pants": (
        lambda: enumerate_spin(SurfaceSpec(2, (0, 1), genus2_spec().curves[:2]
                                           + (Curve(2, (0, 2), (7, 2)),))),
        ValueError, "invalid surface: curve 2 refers to unknown pants 7; "),
    "spin-listing-of-another-genus": (
        lambda: enumerate_spin(SurfaceSpec(3, (0, 1), genus2_spec().curves)), ValueError,
        "invalid surface: expected 4 pants, got 2; expected 6 curves, got 3"),
    "spin-signs": (lambda: assemble_spin(genus2_spec(), _readme_fn(), {0: 1, 1: 1, 2: 1}),
                   SpinSignError, "eps: boundary signs must multiply to -1 around every pants"),
    "lift-built-with-spin-signs": (
        lambda: SpinSurfaceCocycle(_readme_cocycle(), {0: -1, 1: 1, 2: -1}), SpinSignError,
        "eps: boundary signs must multiply to -1 around every pants"),
    "lift-built-with-a-tree-crossing-sign": (
        lambda: SpinSurfaceCocycle(_readme_cocycle(), {0: -1, 1: -1, 2: -1}, {0: -1}),
        SpinSignError, "crossing_signs: crossing sign on tree curve 0 must be +1"),
    "lift-off-plus-identity": (_lift_with_a_stretched_crossing, SpinSignError,
                               "face word failed to lift to +I (residual "),
    "lift-of-a-nan-crossing": (
        lambda: assemble_spin(_readme_cocycle({"c0.x1": Mat2(*[math.nan] * 4, check=False)}),
                              _readme_fn(), {0: -1, 1: -1, 2: -1}),
        SpinSignError, "face word failed to lift to +I (residual nan)"),
    "crossing-not-antidiagonal": (lambda: extract_fn(_readme_cocycle({"c0.x0": Mat2.diagonal(2.0)})),
                                  NonStandardCocycleError,
                                  "crossing edge of curve 0 is not antidiagonal"),
    "crossing-singular": (
        lambda: extract_fn(_readme_cocycle({"c0.x0": Mat2(0.0, 0.0, 0.0, 0.0, check=False)})),
        NonStandardCocycleError, "crossing edge of curve 0 is singular"),
    "unknown-edge": (lambda: holonomy(_readme_cocycle(), (("p9.b00", 1),)), ValueError,
                     "unknown edge 'p9.b00'"),
    "face-not-hyperbolic": (_rot2_of_a_face, NonHyperbolicError, "loop holonomy trace "),
    "unknown-command": (lambda: run_command(SurfaceDocument(genus2_spec(), _readme_fn(), None),
                                            "nosuch"),
                        DocumentError, "unknown command 'nosuch'"),
    "document-built-with-an-invalid-surface": (
        lambda: SurfaceDocument(SurfaceSpec(1, (0,), ()), _readme_fn(), None).complex,
        ValueError, "invalid surface: genus 1 must be at least 2"),
    "face-product-not-renormalizable": (
        lambda: _readme_cocycle({"c0.x0": Mat2(0.0, 0.0, 0.0, 0.0, check=False)})
        .max_face_residual(),
        ValueError, "cannot renormalize matrix with det 0.0"),
}


@pytest.mark.parametrize("call, error, message", list(LIBRARY_REFUSALS.values()),
                         ids=list(LIBRARY_REFUSALS))
def test_the_library_refuses_hand_built_values_outside_its_domain(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)


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
        assert proj_dist(h, hn) == 0.0
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


# The accepted domain's corners and a twist near each side of its bound,
# where a square word is walked from a rotation after its crossing edge
REFERENCE_LENGTHS = (1e-6, 1e-3, 2.0, 50.0)
REFERENCE_TWISTS = (0.3, 1419.5, -1419.5)


def _reference_points(name):
    """(complex, fn) on a random gluing at each genus 2..8: every length
    of REFERENCE_LENGTHS on all curves, then three points with each
    curve's length and twist drawn from the two sets."""
    rng = rng_for(name)
    for genus in range(2, 9):
        spec = random_gluing(rng, genus)
        cx = build_complex(spec)
        ids = spec.curve_ids()
        for length in REFERENCE_LENGTHS:
            yield cx, FNPoint(dict.fromkeys(ids, length),
                              {c: rng.choice(REFERENCE_TWISTS) for c in ids})
        for _ in range(3):
            yield cx, FNPoint({c: rng.choice(REFERENCE_LENGTHS) for c in ids},
                              {c: rng.choice(REFERENCE_TWISTS) for c in ids})


def _outcome(call, *args):
    """``call(*args)`` as a float's hex, another value as it is, or a
    raised ValueError or AssertionError as (its type name, its text)."""
    try:
        value = call(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    return value.hex() if isinstance(value, float) else value


def _lengths(read):
    return {c: length.hex() for c, length in read().items()}


def test_a_stamped_complex_is_the_complex_of_named_cells():
    # the ids stamped from one prefix per pants and per curve are the
    # ones a dict of names per pants made, in the same order
    rng = rng_for("stamped-complex")
    specs = [genus2_spec(), handle_spec(), caterpillar(5), comb(4)]
    specs += [random_gluing(rng, genus) for genus in range(2, 9)]
    relabelled = random_gluing(rng, 4)
    names = {p: f"P-{p}" for p in relabelled.pants}
    specs.append(SurfaceSpec(4, tuple(names.values()), tuple(
        Curve(f"c{c.id}", (names[c.left[0]], c.left[1]), (names[c.right[0]], c.right[1]))
        for c in relabelled.curves)))
    for spec in specs:
        cx = build_complex(spec)
        vertices, edges, faces, pants, curves = oracles.complex_cells(spec)
        assert cx.vertices == vertices
        assert list(cx.edges.items()) == list(edges.items())
        assert list(cx.faces.items()) == list(faces.items())
        assert [(pid, cells[:3]) for pid, cells in cx.pants.items()] == list(pants.items())
        assert list(cx.curves.items()) == list(curves.items())
        for cells in cx.pants.values():
            assert cells.loops == tuple(((a0, 1), (a1, 1)) for a0, a1, _ in cells.edges)


def test_face_residuals_and_lengths_match_the_reference_bit_for_bit():
    # each face walked once, its residual read off the product's entries,
    # and each loop read off one walk per cocycle give the values and
    # the raised texts of a renormalized matrix per face and a fresh walk
    # per loop; a cocycle assembled at the same point twice is the
    # reference's, so the two share no kept product
    raised = {"face": 0, "length": 0}
    for cx, fn in _reference_points("reference-faces"):
        c, ref = assemble_cocycle(cx, fn), assemble_cocycle(cx, fn)
        faces = sorted(cx.faces)
        got = [_outcome(c.face_residual, fid) for fid in faces]
        want = [_outcome(oracles.face_residual, ref, fid) for fid in faces]
        assert got == want, fn
        assert _outcome(c.max_face_residual) == _outcome(
            lambda: _max_or_nan(oracles.face_residual(ref, f) for f in cx.faces))
        raised["face"] += any(isinstance(x, tuple) for x in got)
        got = _outcome(_lengths, lambda: extract_fn(c).lengths)
        want = _outcome(_lengths, lambda: {cid: oracles.loop_length(ref, cells.loop)
                                           for cid, cells in cx.curves.items()})
        assert got == want, fn
        raised["length"] += isinstance(got, tuple)
    assert all(raised.values()), raised


def test_lift_residuals_and_rotation_numbers_match_the_reference_bit_for_bit():
    # the per-base residual table, its one maximum and rot2 read off the
    # base's loop products give the values and raised texts of the
    # negated face product per face and of holonomy(base, loop) per loop;
    # rot2 of a doubled loop and of a face word goes through holonomy
    outcomes = {"found 0": 0, "lifted": 0, "not hyperbolic": 0}
    rng = rng_for("reference-lifts")
    for cx, fn in _reference_points("reference-lifts"):
        base, ref = assemble_cocycle(cx, fn), assemble_cocycle(cx, fn)
        eps_list, classes = enumerate_spin(cx.spec)
        loops = [loop for cells in cx.pants.values() for loop in cells.loops]
        words = loops + [loop + loop for loop in loops] + [next(iter(cx.faces.values()))]
        for eps, signs in [(rng.choice(eps_list), rng.choice(classes)) for _ in range(2)]:
            lifted = _outcome(SpinSurfaceCocycle, base, eps, signs)
            if isinstance(lifted, tuple):
                assert lifted == ("AssertionError", "expected a unique sign assignment, found 0")
                with pytest.raises(AssertionError, match="found 0"):
                    for cells in cx.pants.values():
                        _check_pants_lift(
                            (ref.values[seam] for _, _, seam in cells.edges),
                            ((oracles.lift_residual(ref, f), ref.face_walk(f)[1].norm())
                             for f in cells.hexagons))
                outcomes["found 0"] += 1
                continue
            outcomes["lifted"] += 1
            want = {fid: oracles.lift_residual(ref, fid) for fid in cx.faces}
            assert {fid: lifted.face_residual(fid).hex() for fid in cx.faces} == {
                fid: r.hex() for fid, r in want.items()}
            assert lifted.max_face_residual().hex() == _max_or_nan(want.values()).hex()
            ref_lift = SpinSurfaceCocycle(ref, eps, signs)
            for word in words:
                got = _outcome(rot2, lifted, word)
                assert got == _outcome(oracles.rot2, ref_lift, word), (fn, word)
                outcomes["not hyperbolic"] += isinstance(got, tuple)
    assert all(outcomes.values()), outcomes


def test_extract_fn_walks_only_the_loops_it_reads():
    # a hand-built cocycle without values on the boundary arcs that are
    # no curve's left side reads its coordinates; the loop along those
    # arcs raises when, and only when, it is read
    spec = caterpillar(3)
    c = assemble_cocycle(spec, random_fn(rng_for("unread-loops"), spec))
    cx = c.complex
    curve_loops = {cells.loop for cells in cx.curves.values()}
    unread = [loop for cells in cx.pants.values() for loop in cells.loops
              if loop not in curve_loops]
    assert unread
    values = {e: m for e, m in c.values.items()
              if all(e != eid for loop in unread for eid, _ in loop)}
    hand_built = SurfaceCocycle(cx, values, c.fn)
    back = extract_fn(hand_built)
    assert back.lengths == extract_fn(c).lengths
    assert hand_built.loop_product(cx.faces["p0.hex+"]) is None
    with pytest.raises(KeyError):
        hand_built.loop_product(unread[0])
