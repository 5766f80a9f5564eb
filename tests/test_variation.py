import math

import pytest

import fnhol.surface
import fnhol.variation
import fnhol.wp
from fnhol.mat2 import TracelessMat2, ad_action
from fnhol.pants import PantsLengths, bc_magnitude
from fnhol.surface import FNPoint, assemble_cocycle, build_complex
from fnhol.variation import (
    SignLiftError,
    TangentVector,
    check_cocycle_condition,
    coboundary,
    fd_variation,
    grad_log_bc,
    variation_cocycle,
)
from fnhol.spin import assemble_spin
from fnhol.wp import killing_form, wp_matrix, wp_pairing
from conftest import (
    caterpillar,
    comb,
    genus2_spec,
    genus3_spec,
    random_fn,
    random_tangent,
    rng_for,
)

H = TracelessMat2.diag(1.0)


def test_grad_log_bc_matches_finite_differences():
    rng = rng_for("gradfd")
    for _ in range(30):
        l = PantsLengths(*(rng.uniform(0.3, 6.0) for _ in range(3)))
        for k in range(3):
            grad = grad_log_bc(l, k)
            h = 1e-5
            for j in range(3):
                def at(e):
                    vals = list(l.l)
                    vals[j] += e
                    return math.log(bc_magnitude(PantsLengths(*vals), k))

                fd = (at(h) - at(-h)) / (2 * h)
                assert abs(fd - grad[j]) <= 1e-8 * max(1.0, abs(grad[j]))


def test_grad_log_bc_symmetry_and_plus_term():
    l = PantsLengths(2, 2, 2)
    grads = [grad_log_bc(l, k) for k in range(3)]
    for k in range(3):
        for j in range(3):
            # cyclic relabelling shifts the gradient components
            assert abs(grads[k][j] - grads[0][(j - k) % 3]) < 1e-14
    # the component in the opposite boundary has the short closed form
    rng = rng_for("gradplus")
    for _ in range(50):
        l = PantsLengths(*(rng.uniform(0.3, 6.0) for _ in range(3)))
        for k in range(3):
            num = math.sinh(0.5 * l[k + 1])
            den = 2.0 * (
                math.cosh(0.5 * l[k + 1]) + math.cosh(0.5 * (l[k - 1] + l[k]))
            )
            assert abs(grad_log_bc(l, k)[(k + 1) % 3] - num / den) < 1e-14


def test_zero_tangent_gives_zero_cocycle():
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.5 for i in range(3)})
    z = variation_cocycle(spec, fn, TangentVector())
    assert all(v.norm() == 0.0 for v in z.values.values())
    zfd = fd_variation(spec, fn, TangentVector())
    assert all(v.norm() <= 1e-12 for v in zfd.values.values())


def test_pure_twist_hits_only_crossing_edges():
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.5 for i in range(3)})
    z = variation_cocycle(spec, fn, TangentVector({}, {1: 1.0}))
    for eid, val in z.values.items():
        if eid in ("c1.x0", "c1.x1"):
            assert val.dist(TracelessMat2.diag(0.5)) == 0.0
        else:
            assert val.norm() == 0.0


def test_boundary_arc_value_is_quarter_diag():
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.5 for i in range(3)})
    z = variation_cocycle(spec, fn, TangentVector({0: 1.0}, {}))
    assert z.values["p0.b00"].dist(TracelessMat2.diag(0.25)) == 0.0
    zfd = fd_variation(spec, fn, TangentVector({0: 1.0}, {}), h=1e-5)
    assert zfd.values["p0.b00"].dist(TracelessMat2.diag(0.25)) <= 1e-9


def test_closed_form_matches_finite_differences():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("fdmatch")
    for _ in range(30):
        fn = random_fn(rng, spec)
        v = random_tangent(rng, spec)
        z = variation_cocycle(cx, fn, v)
        zfd = fd_variation(cx, fn, v, h=1e-5)
        err = max(z.values[e].dist(zfd.values[e]) for e in z.values)
        assert err <= 1e-6


def test_second_order_convergence():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("richardson")
    fn = random_fn(rng, spec)
    v = random_tangent(rng, spec)
    z = variation_cocycle(cx, fn, v)
    errs = []
    for h in (1e-3, 5e-4):
        zfd = fd_variation(cx, fn, v, h=h)
        errs.append(max(z.values[e].dist(zfd.values[e]) for e in z.values))
    factor = errs[0] / errs[1]
    assert 3.2 <= factor <= 4.8


def test_twisted_cocycle_condition():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("twisted")
    for _ in range(20):
        fn = random_fn(rng, spec)
        v = random_tangent(rng, spec)
        z = variation_cocycle(cx, fn, v)
        assert check_cocycle_condition(z.base, z) <= 1e-8


def test_cocycle_condition_sensitivity():
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.5 for i in range(3)})
    v = TangentVector({i: 0.3 for i in range(3)}, {i: -0.2 for i in range(3)})
    z = variation_cocycle(spec, fn, v)
    z.values["p0.seam1"] = z.values["p0.seam1"] + TracelessMat2.diag(1e-3)
    assert check_cocycle_condition(z.base, z) >= 1e-4


def combined(u, v, s, t):
    """The tangent vector s * u + t * v."""
    keys = set(u.dl) | set(v.dl)
    dl = {c: s * u.dl.get(c, 0.0) + t * v.dl.get(c, 0.0) for c in keys}
    keys = set(u.dtau) | set(v.dtau)
    dtau = {c: s * u.dtau.get(c, 0.0) + t * v.dtau.get(c, 0.0) for c in keys}
    return TangentVector(dl, dtau)


def test_linearity():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("linear")
    fn = random_fn(rng, spec)
    u = random_tangent(rng, spec)
    v = random_tangent(rng, spec)
    a, b = 0.7, -1.9
    lhs = variation_cocycle(cx, fn, combined(u, v, a, b))
    rhs = variation_cocycle(cx, fn, u).combined(variation_cocycle(cx, fn, v), a, b)
    assert max(lhs.values[e].dist(rhs.values[e]) for e in lhs.values) <= 1e-13


def test_seam_values_orthogonal_to_diag():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("ortho")
    fn = random_fn(rng, spec)
    v = random_tangent(rng, spec)
    z = variation_cocycle(cx, fn, v)
    for pid in (0, 1):
        for k in range(3):
            eid = f"p{pid}.seam{k}"
            val = z.values[eid]
            moved = ad_action(z.base.values[eid], val)
            assert killing_form(val, H) == 0.0
            assert abs(killing_form(moved, H)) <= 1e-12 * max(1.0, moved.norm())
            # conjugating a seam value by its own edge negates it
            assert moved.dist(-val) <= 1e-10 * max(1.0, val.norm())


def test_arc_values_fixed_by_their_edge():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("arcfix")
    fn = random_fn(rng, spec)
    v = random_tangent(rng, spec)
    z = variation_cocycle(cx, fn, v)
    for pid in (0, 1):
        for k in range(3):
            for eps in (0, 1):
                eid = f"p{pid}.b{k}{eps}"
                val = z.values[eid]
                moved = ad_action(z.base.values[eid], val)
                assert moved.dist(val) <= 1e-12


def test_cocycle_condition_keeps_a_nan():
    # a nan entry anywhere in a face sum makes the check nan, wherever
    # it falls in the per-face norm and in the order of the faces
    spec = caterpillar(2)
    fn = random_fn(rng_for("nan-check"), spec)
    z = variation_cocycle(spec, fn, random_tangent(rng_for("nan-check-2"), spec))
    z.values["c0.x0"] = TracelessMat2(0.0, math.nan, 0.0)
    assert math.isnan(check_cocycle_condition(z.base, z))


def test_cocycle_condition_near_the_twist_bound():
    # the squares of curve 0 overflow when walked from their crossing
    # edges; the check sums them along the rotation the face walk chose,
    # so no face is nan (a nan face would make the result nan)
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {0: 1419.5, 1: 0.3, 2: 0.3})
    base = assemble_cocycle(spec, fn)
    assert {f for f in base.complex.faces if base.face_walk(f)[0]} == {"c0.sq0", "c0.sq1"}
    rng = rng_for("near-bound-check")
    tangents = [TangentVector({0: 1.0}, {}), TangentVector({}, {0: 1.0})]
    tangents += [random_tangent(rng, spec) for _ in range(5)]
    for tangent in tangents:
        z = variation_cocycle(base, fn, tangent)
        assert check_cocycle_condition(base, z) <= 1e-8


def test_coboundary_is_closed():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("cobound")
    fn = random_fn(rng, spec)
    base = assemble_cocycle(cx, fn)
    zero = coboundary(base, {})
    assert all(v.norm() == 0.0 for v in zero.values.values())
    x = TracelessMat2(0.4, -1.1, 0.7)
    const = coboundary(base, {v: x for v in cx.vertices})
    assert check_cocycle_condition(base, const) <= 1e-10
    w = {
        v: TracelessMat2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        for v in cx.vertices
    }
    assert check_cocycle_condition(base, coboundary(base, w)) <= 1e-10


def test_reversal_rule():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("reversal")
    fn = random_fn(rng, spec)
    v = random_tangent(rng, spec)
    z = variation_cocycle(cx, fn, v)
    for eid in ("p0.seam0", "p0.b00", "c0.x0"):
        rho = z.base.values[eid]
        expect = -ad_action(rho.inv(), z.values[eid])
        assert z.value(eid, -1).dist(expect) == 0.0


def test_sign_lift_error_for_coarse_steps():
    spec = genus2_spec()
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.0 for i in range(3)})
    with pytest.raises(SignLiftError):
        fd_variation(spec, fn, TangentVector({}, {0: 8.0}), h=0.5)


def test_variations_share_one_base(monkeypatch):
    # a cocycle passed in is the base: two variations on it assemble it
    # once, and pair exactly as two variations on fresh bases do
    spec = caterpillar(4)
    cx = build_complex(spec)
    rng = rng_for("shared-base")
    fn = random_fn(rng, spec)
    u, v = random_tangent(rng, spec), random_tangent(rng, spec)
    z1, z2 = variation_cocycle(cx, fn, u), variation_cocycle(cx, fn, v)
    old = wp_pairing(z1.base, z1, z2)

    calls = []
    assemble = fnhol.surface.assemble_cocycle

    def counted(*args):
        calls.append(1)
        return assemble(*args)

    # every base is chosen in surface, which assembles through its own name
    for module in (fnhol.surface, fnhol.variation):
        monkeypatch.setattr(module, "assemble_cocycle", counted)
    base = fnhol.surface.assemble_cocycle(cx, fn)
    y1, y2 = variation_cocycle(base, fn, u), variation_cocycle(base, fn, v)
    assert y1.base is base and y2.base is base
    assert len(calls) == 1
    assert wp_pairing(base, y1, y2) == old
    assert all(y1.values[e].entries() == z1.values[e].entries() for e in z1.values)
    # the pairing matrix assembles its base once on a fresh complex, and
    # not at all when given it, or given the complex the two variations
    # were taken on at the same point
    calls.clear()
    labels, matrix = wp_matrix(build_complex(spec), fn)
    assert len(calls) == 1
    assert wp_matrix(base, fn) == (labels, matrix) and len(calls) == 1
    assert z1.base is z2.base
    assert wp_matrix(cx, fn) == (labels, matrix) and len(calls) == 1


@pytest.mark.parametrize(
    "spec", [genus3_spec(), comb(4), caterpillar(5)], ids=["genus3", "comb4", "caterpillar5"]
)
def test_coordinate_directions_carry_values_where_they_act(spec):
    # dl[c] on the arcs and seams of the pants at c, dtau[c] on the two
    # crossings of c; every other edge is left out and reads as zero
    cx = build_complex(spec)
    fn = random_fn(rng_for("where-they-act"), spec)
    base = assemble_cocycle(cx, fn)
    for c in spec.curves:
        z = variation_cocycle(base, fn, TangentVector({c.id: 1.0}, {}))
        assert set(z.values) == {
            f"p{pid}.{e}{k}{eps}"
            for pid in (c.left[0], c.right[0])
            for k in range(3)
            for e, eps in (("b", 0), ("b", 1), ("seam", ""))
        }
        assert z.value(f"c{c.id}.x0", -1).norm() == 0.0
        assert check_cocycle_condition(base, z) <= 1e-8
        z = variation_cocycle(base, fn, TangentVector({}, {c.id: 1.0}))
        assert set(z.values) == {f"c{c.id}.x0", f"c{c.id}.x1"}
        assert check_cocycle_condition(base, z) <= 1e-8


def test_a_cocycle_is_used_only_at_its_own_point():
    # a cocycle stands for the point it was assembled at; given another
    # point beside it, variations, the pairing matrix and spin lifts
    # refuse it, before any seam data are evaluated at the wrong point,
    # and an equal point built separately gives the same bits
    spec = genus2_spec()
    fn = FNPoint({0: 2.0, 1: 1.4, 2: 3.0}, {0: 0.5, 1: -0.3, 2: 7.3})
    tangent = TangentVector({0: 1.0, 1: -0.5}, {2: 0.25})
    eps = {0: -1, 1: -1, 2: -1}
    base = assemble_cocycle(spec, fn)
    for other in (FNPoint({**fn.lengths, 1: 1.5}, fn.twists),
                  FNPoint(fn.lengths, {**fn.twists, 2: 7.0})):
        with pytest.raises(ValueError, match="another point"):
            variation_cocycle(base, other, tangent)
        with pytest.raises(ValueError, match="another point"):
            wp_matrix(base, other)
        with pytest.raises(ValueError, match="another point"):
            assemble_spin(base, other, eps)
    assert base._seam_data is None

    def bits(fn_given):
        z = variation_cocycle(base, fn_given, tangent)
        lifted = assemble_spin(base, fn_given, eps)
        assert z.base is base
        return (
            {e: v.entries() for e, v in z.values.items()},
            repr(wp_matrix(base, fn_given)),
            {e: m.entries() for e, m in lifted.values.items()},
            lifted.max_face_residual(),
        )

    fresh = assemble_cocycle(spec, fn)
    want = (
        {e: v.entries() for e, v in variation_cocycle(fresh, fn, tangent).values.items()},
        repr(wp_matrix(fresh, fn)),
    )
    assert bits(FNPoint(dict(fn.lengths), dict(fn.twists))) == bits(fn)
    assert bits(fn)[:2] == want


def test_wp_pairing_refuses_variations_at_another_point():
    # variations read reversed edges through their own base, so pairing
    # them through a cocycle at another point mixes two surfaces; on
    # README's surface this was off the twist-length reference by up to
    # 21 without an error
    spec = genus2_spec()
    fn = FNPoint({0: 2.0, 1: 1.4, 2: 3.0}, {0: 0.5, 1: -0.3, 2: 7.3})
    far = FNPoint({0: 0.2, 1: 5.0, 2: 9.0}, fn.twists)
    cocycle, other = assemble_cocycle(spec, fn), assemble_cocycle(spec, far)
    u = TangentVector({0: 1.0}, {})
    v = TangentVector({}, {0: 1.0})
    z_far = variation_cocycle(other, far, u)
    z_here = variation_cocycle(cocycle, fn, v)
    for z1, z2 in ((z_far, z_here), (z_here, z_far), (z_far, z_far)):
        with pytest.raises(ValueError, match="another point"):
            wp_pairing(cocycle, z1, z2)
    # a base with equal coordinates is the same point
    twin = assemble_cocycle(spec, FNPoint(dict(fn.lengths), dict(fn.twists)))
    z_twin = variation_cocycle(twin, twin.fn, u)
    z_own = variation_cocycle(cocycle, fn, u)
    assert wp_pairing(cocycle, z_twin, z_here) == wp_pairing(cocycle, z_own, z_here)
    assert abs(wp_pairing(other, z_far, variation_cocycle(other, far, v)) + 1.0) <= 1e-8


def test_seam_data_is_evaluated_once_per_base(monkeypatch):
    # three gradients and three seam coefficients per pants for the whole
    # pairing matrix, none while the cocycle is assembled
    spec = caterpillar(5)
    cx = build_complex(spec)
    fn = random_fn(rng_for("seam-data"), spec)
    calls = {"grad_log_bc": 0, "seam_variation_coefficient": 0}
    for name in calls:
        original = getattr(fnhol.variation, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(fnhol.variation, name, counted)
    base = assemble_cocycle(cx, fn)
    assert calls == {"grad_log_bc": 0, "seam_variation_coefficient": 0}
    wp_matrix(base, fn)
    once = 3 * len(spec.pants)
    assert calls == {"grad_log_bc": once, "seam_variation_coefficient": once}
    variation_cocycle(base, fn, random_tangent(rng_for("seam-data-2"), spec))
    wp_matrix(base, fn)
    assert calls == {"grad_log_bc": once, "seam_variation_coefficient": once}


def test_curves_outside_the_complex_are_ignored():
    # a tangent naming curves the complex does not have gives the values
    # of the same tangent without them, to the bit
    spec = comb(4)
    fn = random_fn(rng_for("stray-curves"), spec)
    base = assemble_cocycle(build_complex(spec), fn)
    tangent = random_tangent(rng_for("stray-curves-2"), spec)
    stray = TangentVector({**tangent.dl, "stray": 1.0, 99: -2.0}, {**tangent.dtau, "stray": 3.0})
    z = variation_cocycle(base, fn, tangent)
    y = variation_cocycle(base, fn, stray)
    assert set(y.values) == set(z.values) == set(base.values)
    assert all(y.values[e].entries() == z.values[e].entries() for e in z.values)
