import gc
import itertools
import math
import re
import weakref

import pytest

from fnhol.mat2 import Mat2, NonHyperbolicError, walk
from fnhol.pants import PANTS_FACES, PantsLengths, seam_matrix
from fnhol.surface import FNPoint, SurfaceCocycle, assemble_cocycle, build_complex, holonomy
from fnhol.spin import (
    SpinSignError,
    SpinSurfaceCocycle,
    assemble_spin,
    enumerate_spin,
    rot2,
    sl2_pants_cocycle,
)
import fnhol.spin
import fnhol.surface
from fnhol.surface import Curve, SurfaceSpec, spanning_tree_curves
from conftest import (
    caterpillar,
    comb,
    genus2_spec,
    genus3_spec,
    handle_spec,
    random_fn,
    rng_for,
)


def test_boundary_signs_constraint():
    l = PantsLengths(2, 2, 2)
    sl2_pants_cocycle(l, (1, 1, -1))
    sl2_pants_cocycle(l, (-1, -1, -1))
    with pytest.raises(SpinSignError):
        sl2_pants_cocycle(l, (1, 1, 1))
    with pytest.raises(SpinSignError):
        sl2_pants_cocycle(l, (1, -1, -1))
    with pytest.raises(SpinSignError):
        sl2_pants_cocycle(l, (2, 1, -1))


def _face_value(values, word):
    m = Mat2.identity()
    for edge, sign in word:
        rep = values[edge]
        m = m @ (rep if sign > 0 else rep.inv())
    return m


def _pants_lift_oracle(l, eps, is_plus_identity):
    """Every one of the 64 seam and b{k}0 sign choices whose hexagon
    words pass ``is_plus_identity`` and whose seams and b{k}0 arcs have
    positive (1,1) entry."""
    seams = [seam_matrix(l, k) for k in range(3)]
    arcs = [Mat2.diagonal(math.exp(0.25 * l[k])) for k in range(3)]
    hits = []
    for signs in itertools.product((1, -1), repeat=6):
        vals = {}
        for k in range(3):
            vals[f"seam{k}"] = seams[k] if signs[k] > 0 else -seams[k]
            a = arcs[k] if signs[3 + k] > 0 else -arcs[k]
            vals[f"b{k}0"] = a
            vals[f"b{k}1"] = a if eps[k] > 0 else -a
        plus_faces = all(
            is_plus_identity(_face_value(vals, PANTS_FACES[f])) for f in PANTS_FACES
        )
        positive = all(vals[f"seam{k}"].a > 0 for k in range(3)) and all(
            vals[f"b{k}0"].a > 0 for k in range(3)
        )
        if plus_faces and positive:
            hits.append(vals)
    return hits


def test_pants_lift_brute_force_uniqueness():
    # independent sweep over all 64 sign choices: exactly one satisfies
    # the two +I face relations together with the positivity rules
    rng = rng_for("spin-unique")
    for _ in range(10):
        l = PantsLengths(*(rng.uniform(0.4, 5.0) for _ in range(3)))
        eps = rng.choice([(1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)])
        hits = _pants_lift_oracle(
            l, eps, lambda m: m.dist(Mat2.identity()) < 1e-8
        )
        assert len(hits) == 1
        found = sl2_pants_cocycle(l, eps)
        assert all(found[e].dist(hits[0][e]) < 1e-12 for e in found)


def test_pants_lift_matches_oracle_down_to_thin_part():
    # lengths across [1e-6, 50]: with the face test the lift applies
    # (distance to +I at most 1e-8 times max(1, norm)), the closed form
    # fails with the same message exactly where the 64-way search finds
    # nothing, and otherwise returns the search's matrices bit for bit
    def plus_identity(m):
        return m.dist(Mat2.identity()) <= 1e-8 * max(1.0, m.norm())

    rng = rng_for("spin-sweep")
    ladder = [10.0**e for e in range(-6, 2)] + [50.0]
    cases = [(x, x, x) for x in ladder]
    cases += [(x, y, 2.0) for x in ladder for y in ladder]
    cases += [
        tuple(math.exp(rng.uniform(math.log(1e-6), math.log(50.0))) for _ in range(3))
        for _ in range(60)
    ]
    outcomes = {0: 0, 1: 0}
    for lengths in cases:
        l = PantsLengths(*lengths)
        eps = rng.choice([(1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)])
        hits = _pants_lift_oracle(l, eps, plus_identity)
        assert len(hits) <= 1, lengths
        outcomes[len(hits)] += 1
        if not hits:
            with pytest.raises(AssertionError) as info:
                sl2_pants_cocycle(l, eps)
            assert str(info.value) == "expected a unique sign assignment, found 0"
            continue
        found = sl2_pants_cocycle(l, eps)
        assert list(found) == list(hits[0])
        for e, m in found.items():
            want = hits[0][e]
            assert (m.a, m.b, m.c, m.d) == (want.a, want.b, want.c, want.d), e
    assert outcomes[0] and outcomes[1]


def test_pants_lift_boundary_trace_signs():
    l = PantsLengths(1.7, 0.9, 2.4)
    for eps in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)):
        vals = sl2_pants_cocycle(l, eps)
        for k in range(3):
            tr = (vals[f"b{k}0"] @ vals[f"b{k}1"]).trace()
            assert (1 if tr > 0 else -1) == eps[k]


def test_pants_lift_rejects_bad_signs():
    with pytest.raises(SpinSignError):
        sl2_pants_cocycle(PantsLengths(2, 2, 2), (1, 1, 1))


def test_genus2_enumeration():
    spec = genus2_spec()
    eps_list, classes = enumerate_spin(spec)
    # brute-force check of the sign constraint over all 8 assignments
    expected = [
        eps
        for eps in (
            dict(zip(range(3), combo))
            for combo in itertools.product((1, -1), repeat=3)
        )
        if eps[0] * eps[1] * eps[2] == -1
    ]
    assert len(eps_list) == 4
    assert {tuple(sorted(e.items())) for e in eps_list} == {
        tuple(sorted(e.items())) for e in expected
    }
    assert len(classes) == 2**spec.genus
    assert spanning_tree_curves(spec) == (0,)
    for signs in classes:
        assert signs[0] == 1


def test_genus3_and_handle_class_counts():
    for spec in (genus3_spec(), handle_spec()):
        eps_list, classes = enumerate_spin(spec)
        assert len(classes) == 2**spec.genus
        assert len(spanning_tree_curves(spec)) == len(spec.pants) - 1
        for eps in eps_list:
            prod = {p: 1 for p in spec.pants}
            for c in spec.curves:
                prod[c.left[0]] *= eps[c.id]
                prod[c.right[0]] *= eps[c.id]
            assert all(v == -1 for v in prod.values())


def test_handle_forces_connector_sign():
    # both self-glued curves hit their pants twice, so the connecting
    # curve alone must carry the minus sign
    eps_list, _ = enumerate_spin(handle_spec())
    assert all(eps[1] == -1 for eps in eps_list)
    assert len(eps_list) == 4


def test_assemble_spin_faces_and_reduction():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("spin-assemble")
    fn = random_fn(rng, spec)
    base = assemble_cocycle(cx, fn)
    eps_list, classes = enumerate_spin(spec)
    seen = set()
    for eps in eps_list:
        for signs in classes:
            lifted = assemble_spin(cx, fn, eps, signs)
            assert lifted.max_face_residual() <= 1e-8
            # forgetting the signs gives the projective cocycle
            assert all(
                m.proj_dist(base.values[e]) <= 1e-12 for e, m in lifted.values.items()
            )
            key = tuple(
                1 if lifted.values[e].a + lifted.values[e].b + lifted.values[e].c >= 0 else -1
                for e in sorted(lifted.values)
            )
            seen.add(key)
    assert len(seen) == len(eps_list) * len(classes)  # all lifts distinct


def _closed_form_lift(cx, fn, eps, signs):
    """The lift built pants by pants: :func:`sl2_pants_cocycle` on every
    pants, s (0, -1/T; T, 0) on x0 and eps s times that on x1."""
    values = {}
    for pid, cells in cx.pants.items():
        sides = cells.curves
        lengths = PantsLengths(*(fn.lengths[c] for c in sides))
        for e, m in sl2_pants_cocycle(lengths, [eps[c] for c in sides]).items():
            values[f"p{pid}.{e}"] = m
    for c in cx.spec.curves:
        t = math.exp(-0.5 * fn.twists[c.id])
        m = Mat2(0.0, -1.0 / t, t, 0.0, check=False)
        m = m if signs[c.id] > 0 else -m
        values[f"c{c.id}.x0"] = m
        values[f"c{c.id}.x1"] = m if eps[c.id] > 0 else -m
    return values


def _same_entries(m, want):
    """Equal entry by entry, the signs of zeros included."""
    return all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(m.entries(), want.entries())
    )


@pytest.mark.parametrize(
    "shape, genus",
    [(caterpillar, g) for g in range(2, 6)] + [(comb, g) for g in range(2, 5)],
)
def test_lift_is_the_closed_form_as_sign_flips(shape, genus):
    # built from the assembled cocycle or from the complex, the lift is
    # the per-pants closed form bit for bit, and its face residuals,
    # read off the base's face products, are those of its own words
    spec = shape(genus)
    cx = build_complex(spec)
    fn = random_fn(rng_for(f"spin-flips-{shape.__name__}-{genus}"), spec)
    base = assemble_cocycle(cx, fn)
    eps_list, classes = enumerate_spin(spec)
    for eps in eps_list:
        for signs in classes[:: len(classes) // 4]:
            want = _closed_form_lift(cx, fn, eps, signs)
            for lifted in (
                assemble_spin(base, fn, eps, signs),
                assemble_spin(cx, fn, eps, signs),
            ):
                assert lifted.values.keys() == want.keys()
                for e, m in want.items():
                    assert _same_entries(lifted.values[e], m), e
                for fid, cycle in cx.faces.items():
                    own = walk(lifted.values, cycle).dist(Mat2.identity())
                    assert lifted.face_residual(fid) == own, fid
                assert lifted.max_face_residual() <= 1e-8


def _lift_or_failure(build):
    """The lift's values, or the message of the AssertionError it raised."""
    try:
        return build()
    except AssertionError as exc:
        return str(exc)


def test_lift_on_a_short_curve_fails_as_the_closed_form():
    # curve 0 from 1e-6 to 1e-1 on the handle (a short self-glued curve),
    # genus 2 and caterpillar(3), for every eps: the lift from the
    # cocycle, from the complex and from the spec, and the per-pants
    # closed form, either all fail with "found 0" or all give the same
    # entries, so the lift test of a pants is the closed form's
    outcomes = {"raised": 0, "lifted": 0}
    for spec in (handle_spec(), genus2_spec(), caterpillar(3)):
        cx = build_complex(spec)
        eps_list, _ = enumerate_spin(spec)
        for e in range(-6, 0):
            lengths = {c.id: 2.0 for c in spec.curves}
            lengths[0] = 10.0**e
            fn = FNPoint(lengths, {c.id: 0.3 for c in spec.curves})
            for eps in eps_list:
                signs = {c.id: 1 for c in spec.curves}
                want = _lift_or_failure(lambda: _closed_form_lift(cx, fn, eps, signs))
                for source in (assemble_cocycle(cx, fn), cx, spec):
                    got = _lift_or_failure(lambda: assemble_spin(source, fn, eps, signs).values)
                    if isinstance(want, str):
                        assert got == want == "expected a unique sign assignment, found 0"
                        continue
                    assert got.keys() == want.keys()
                    for edge, m in want.items():
                        assert _same_entries(got[edge], m), (spec, e, eps, edge)
                outcomes["raised" if isinstance(want, str) else "lifted"] += 1
    assert outcomes["raised"] and outcomes["lifted"], outcomes


@pytest.mark.parametrize("entry", [1, 2])
def test_a_nan_off_the_diagonal_of_a_hexagon_is_not_plus_identity(entry):
    # the distance to +I kept a nan only in the first entry, so a
    # hexagon product with a nan in b or c read as +I and the lift passed
    spec = genus2_spec()
    cx = build_complex(spec)
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.3 for i in range(3)})
    eps = {0: -1, 1: -1, 2: -1}
    assert assemble_spin(assemble_cocycle(cx, fn), fn, eps).max_face_residual() <= 1e-8
    base = assemble_cocycle(cx, fn)
    products = base.face_products()
    entries = list(products["p1.hex-"].entries())
    entries[entry] = math.nan
    products["p1.hex-"] = Mat2(*entries, check=False)
    with pytest.raises(AssertionError) as info:
        assemble_spin(base, fn, eps)
    assert str(info.value) == "expected a unique sign assignment, found 0"


def test_lifts_from_one_complex_share_one_base(monkeypatch):
    # eight lifts at one point from the complex assemble its cocycle once
    # and are, value by value and residual by residual, the lifts of a
    # freshly assembled cocycle
    spec = caterpillar(4)
    cx = build_complex(spec)
    rng = rng_for("spin-one-base")
    fn = random_fn(rng, spec)
    eps_list, classes = enumerate_spin(spec)
    pairs = [(rng.choice(eps_list), rng.choice(classes)) for _ in range(8)]
    calls = []
    assemble = fnhol.surface.assemble_cocycle

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(fnhol.surface, "assemble_cocycle", counted)
    lifts = [assemble_spin(cx, fn, eps, signs) for eps, signs in pairs]
    assert len(calls) == 1
    monkeypatch.undo()
    for lifted, (eps, signs) in zip(lifts, pairs):
        want = assemble_spin(assemble_cocycle(cx, fn), fn, eps, signs)
        assert lifted.values.keys() == want.values.keys()
        assert all(_same_entries(lifted.values[e], m) for e, m in want.values.items())
        assert repr(lifted.max_face_residual()) == repr(want.max_face_residual())


def test_a_complex_and_its_lifts_form_no_reference_cycle():
    # the complex remembers its last cocycle weakly, and a lift keeps its
    # base: once the complex and the lifts are dropped, reference counting
    # alone frees the complex and the base, with the cyclic collector off
    spec = caterpillar(3)
    fn = random_fn(rng_for("spin-no-cycle"), spec)
    cx = build_complex(spec)
    eps_list, classes = enumerate_spin(spec)
    lifts = [assemble_spin(cx, fn, eps_list[0], signs) for signs in classes[:2]]
    assert lifts[0].base is lifts[1].base
    refs = (weakref.ref(cx), weakref.ref(lifts[0].base))
    gc.disable()
    try:
        del cx, lifts
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_nan_face_residual_fails_the_lift():
    # the lift check read "residual > 1e-8", which a nan passes; a nan
    # in a square's product (the hexagons pass) must fail it
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.3 for i in range(3)})
    base = assemble_cocycle(spec, fn)
    nan = math.nan
    base.face_products()["c2.sq1"] = Mat2(nan, nan, nan, nan, check=False)
    with pytest.raises(SpinSignError, match=r"residual nan\)"):
        assemble_spin(base, fn, {0: -1, 1: -1, 2: -1})


def test_assemble_spin_rejects_bad_data():
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.0 for i in range(3)})
    with pytest.raises(SpinSignError):
        assemble_spin(spec, fn, {0: 1, 1: 1, 2: 1})
    with pytest.raises(SpinSignError):
        # tree curve (id 0) must keep a positive crossing sign
        assemble_spin(spec, fn, {0: -1, 1: -1, 2: -1}, {0: -1, 1: 1, 2: 1})


@pytest.mark.parametrize(
    "eps, signs, message",
    [
        ({0: -1, 1: -1}, None, "eps: must assign a sign to every curve"),
        ({0: True, 1: 1, 2: -1}, None, "eps.0: expected +-1, got True"),
        ({0: "-1", 1: "-1", 2: "-1"}, None, "eps.0: expected +-1, got '-1'"),
        ({0: -1, 1: -1, 2: -1}, {1: 1.5}, "crossing_signs.1: expected +-1, got 1.5"),
        ({0: -1, 1: -1, 2: -1}, {9: -1}, "crossing_signs: unknown curve 9"),
    ],
    ids=["missing-eps", "boolean-eps", "string-eps", "fractional-crossing-sign",
         "unknown-curve"],
)
def test_assemble_spin_takes_only_signs_the_command_line_takes(eps, signs, message):
    # a missing curve was a bare KeyError, True and "-1" were taken as
    # signs, 1.5 was cut down to 1 and a key naming no curve was ignored
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.3 for i in range(3)})
    with pytest.raises(SpinSignError, match=re.escape(message)):
        assemble_spin(spec, fn, eps, signs)


def test_float_signs_lift_as_integer_signs():
    # the command line takes -1.0 as a sign, so the library does too
    cx = build_complex(genus2_spec())
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.3 for i in range(3)})
    def entries(values):
        return {e: m.entries() for e, m in values.items()}

    want = assemble_spin(cx, fn, {0: -1, 1: -1, 2: -1}, {1: -1})
    got = assemble_spin(cx, fn, {0: -1.0, 1: -1.0, 2: -1.0}, {1: -1.0})
    assert entries(got.values) == entries(want.values)
    l = PantsLengths(2, 2, 2)
    assert entries(sl2_pants_cocycle(l, (1.0, 1, -1.0))) == entries(
        sl2_pants_cocycle(l, (1, 1, -1)))


@pytest.mark.parametrize("signs", [(True, 1, -1), (1, 1, "-1"), (1.5, 1, -1), (1, -1)])
def test_pants_lift_takes_only_signs_the_command_line_takes(signs):
    with pytest.raises(SpinSignError):
        sl2_pants_cocycle(PantsLengths(2, 2, 2), signs)


def test_face_minus_identity_counts_as_failure():
    m = -Mat2.identity()
    assert m.dist(Mat2.identity()) == 2.0


def apply_pants_gauge(spec, pid, crossing_signs):
    """Crossing signs after gauging by -I on all vertices of one pants:
    curves meeting the pants once flip, a curve glued to it twice is
    fixed."""
    out = dict(crossing_signs)
    for c in spec.curves:
        touches = (c.left[0] == pid) + (c.right[0] == pid)
        if touches == 1:
            out[c.id] = -out[c.id]
    return out


def test_gauge_action_properties():
    spec = genus2_spec()
    signs = {0: 1, 1: -1, 2: 1}
    once = apply_pants_gauge(spec, 0, signs)
    twice = apply_pants_gauge(spec, 0, once)
    assert twice == signs
    # the product of every pants gauge is the identity on signs
    total = dict(signs)
    for pid in spec.pants:
        total = apply_pants_gauge(spec, pid, total)
    assert total == signs
    # self-glued curves are fixed
    hspec = handle_spec()
    hsigns = {0: -1, 1: 1, 2: -1}
    moved = apply_pants_gauge(hspec, 0, hsigns)
    assert moved[0] == hsigns[0]  # self-glued on pants 0
    assert moved[1] == -hsigns[1]


def test_gauge_orbits_match_normal_forms():
    # normal forms (tree signs +1) meet each gauge orbit exactly once
    spec = genus2_spec()
    _, classes = enumerate_spin(spec)
    frozen = {tuple(sorted(s.items())) for s in classes}
    for signs in classes:
        orbit = set()
        for subset in itertools.product((0, 1), repeat=len(spec.pants)):
            moved = dict(signs)
            for pid, bit in zip(spec.pants, subset):
                if bit:
                    moved = apply_pants_gauge(spec, pid, moved)
            orbit.add(tuple(sorted(moved.items())))
        assert orbit & frozen == {tuple(sorted(signs.items()))}


def test_rot_numbers():
    spec = genus2_spec()
    cx = build_complex(spec)
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.7 for i in range(3)})
    eps = {0: -1, 1: -1, 2: -1}
    lifted = assemble_spin(cx, fn, eps)
    for c in range(3):
        loop = cx.curves[c].loop
        assert rot2(lifted, loop) == 1  # negative trace for eps = -1
        doubled = loop + loop
        assert rot2(lifted, doubled) == 0
    for pid in spec.pants:
        s = sum(
            rot2(lifted, ((f"p{pid}.b{k}0", 1), (f"p{pid}.b{k}1", 1)))
            for k in range(3)
        )
        assert s % 2 == 1
    with pytest.raises(NonHyperbolicError):
        rot2(lifted, ())


def test_crossing_sign_flip_changes_lift_not_reduction():
    spec = genus2_spec()
    cx = build_complex(spec)
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.3 for i in range(3)})
    eps = {0: 1, 1: 1, 2: -1}
    a = assemble_spin(cx, fn, eps, {0: 1, 1: 1, 2: 1})
    b = assemble_spin(cx, fn, eps, {0: 1, 1: -1, 2: 1})
    assert a.values["c1.x0"].dist(b.values["c1.x0"]) > 0.1
    assert all(m.proj_dist(b.values[e]) <= 1e-14 for e, m in a.values.items())
    # and the flipped lift changes the rotation number of a loop that
    # crosses curve 1 exactly once (returning through curve 2)
    word = (
        ("c1.x0", 1),
        ("p1.b10", 1),
        ("p1.seam2", -1),
        ("c2.x0", -1),
        ("p0.seam2", 1),
        ("p0.b10", -1),
    )
    assert rot2(a, word) != rot2(b, word)


def test_holonomy_on_a_lift_checks_the_word():
    spec = genus2_spec()
    cx = build_complex(spec)
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.0 for i in range(3)})
    lifted = assemble_spin(cx, fn, {0: -1, 1: -1, 2: -1})
    with pytest.raises(ValueError):
        holonomy(lifted, (("p0.b00", 1), ("p0.b10", 1)))


def test_a_lift_is_a_surface_cocycle(monkeypatch):
    # a lift is the base's complex and point with flipped values; its
    # face products and maximum residual are the standard cocycle's
    # methods, and it keeps no sign data of its own
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.3 for i in range(3)})
    base = assemble_cocycle(spec, fn)
    residuals = []
    face_residual = SpinSurfaceCocycle.face_residual

    def counted(self, fid):
        residuals.append(face_residual(self, fid))
        return residuals[-1]

    monkeypatch.setattr(SpinSurfaceCocycle, "face_residual", counted)
    lifted = assemble_spin(base, fn, {0: -1, 1: -1, 2: -1}, {1: -1})
    assert isinstance(lifted, SurfaceCocycle)
    assert lifted.complex is base.complex and lifted.fn is base.fn
    assert type(lifted).face_products is SurfaceCocycle.face_products
    assert type(lifted).max_face_residual is SurfaceCocycle.max_face_residual
    # the lift's own check evaluates each face residual once, and the
    # maximum is kept: asking for it again evaluates none
    faces = len(base.complex.faces)
    assert len(residuals) == faces
    assert lifted.max_face_residual() == lifted.max_face_residual() == max(residuals) <= 1e-8
    assert len(residuals) == faces
    flipped = {e for e, m in lifted.values.items() if m is not base.values[e]}
    assert flipped and all(
        lifted.values[e].entries() == (-base.values[e]).entries() for e in flipped
    )
    for name in ("flipped", "eps", "crossing_signs"):
        assert not hasattr(lifted, name)


@pytest.mark.parametrize("spec_fn", [genus2_spec, genus3_spec])
def test_lifted_trace_signs_give_rot2_and_eps(spec_fn):
    # for every lift, the sign of a curve loop's holonomy trace is the
    # curve's boundary sign, and rot2 reads the same sign
    spec = spec_fn()
    cx = build_complex(spec)
    fn = random_fn(rng_for(f"trace-signs-{spec.genus}"), spec)
    base = assemble_cocycle(cx, fn)
    eps_list, classes = enumerate_spin(spec)
    for eps in eps_list:
        for signs in classes:
            lifted = assemble_spin(base, fn, eps, signs)
            for cid, cells in cx.curves.items():
                tr = holonomy(lifted, cells.loop).trace()
                assert abs(tr) > 2.0
                assert rot2(lifted, cells.loop) == (0 if tr > 0.0 else 1)
                assert eps[cid] == (1 if tr > 0.0 else -1)


def _relabel(spec, rng):
    """The same decomposition with pants and curve ids permuted and the
    curves listed in a random order."""
    pants = dict(zip(spec.pants, rng.sample(spec.pants, len(spec.pants))))
    ids = rng.sample(range(len(spec.curves)), len(spec.curves))
    curves = [
        Curve(cid, (pants[c.left[0]], c.left[1]), (pants[c.right[0]], c.right[1]))
        for cid, c in zip(ids, spec.curves)
    ]
    rng.shuffle(curves)
    return SurfaceSpec(spec.genus, tuple(sorted(pants.values())), tuple(curves))


def _brute_force_eps(spec):
    """Every sign vector over the curves sorted by str(id), in
    itertools.product order, whose signs multiply to -1 around every
    pants (a curve glued to one pants twice counts twice)."""
    curve_ids = sorted((c.id for c in spec.curves), key=str)
    around = {p: [] for p in spec.pants}
    for c in spec.curves:
        around[c.left[0]].append(c.id)
        around[c.right[0]].append(c.id)
    out = []
    for combo in itertools.product((1, -1), repeat=len(curve_ids)):
        eps = dict(zip(curve_ids, combo))
        if all(math.prod(eps[c] for c in cs) == -1 for cs in around.values()):
            out.append(eps)
    return out


def test_enumeration_matches_brute_force_in_order():
    rng = rng_for("spin-gf2")
    specs = [handle_spec(), genus2_spec(), genus3_spec()]
    for g in range(2, 7):
        for shape in (caterpillar, comb):
            specs += [shape(g), _relabel(shape(g), rng), _relabel(shape(g), rng)]
    for spec in specs:
        eps_list, _ = enumerate_spin(spec)
        want = _brute_force_eps(spec)
        assert len(eps_list) == 2**spec.genus
        assert [list(e.items()) for e in eps_list] == [list(e.items()) for e in want]


def test_enumeration_never_tests_every_sign_vector(monkeypatch):
    calls = []
    constraint = fnhol.spin._check_eps

    def counted(eps, pants_curves, name):
        calls.append(1)
        return constraint(eps, pants_curves, name)

    monkeypatch.setattr(fnhol.spin, "_check_eps", counted)
    rng = rng_for("spin-count")
    for g in (6, 12):
        spec = _relabel(caterpillar(g), rng)
        calls.clear()
        eps_list, classes = enumerate_spin(spec)
        assert len(calls) <= len(eps_list) < 2 ** (3 * g - 3)
        assert len(eps_list) == 2**g and len(classes) == 2**g
        assert len({tuple(sorted(e.items())) for e in eps_list}) == 2**g
        for eps in eps_list:
            prod = {p: 1 for p in spec.pants}
            for c in spec.curves:
                prod[c.left[0]] *= eps[c.id]
                prod[c.right[0]] *= eps[c.id]
            assert all(v == -1 for v in prod.values())
