"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines."""

import itertools
import math

from fnhol.mat2 import (
    Mat2,
    TracelessMat2,
    nearest_point_on_imaginary_axis,
    translation_length,
    walk,
)
from fnhol.pants import (
    PANTS_EDGES,
    PANTS_FACES,
    PANTS_VERTICES,
    PantsLengths,
    gauge_transform,
    pants_cocycle,
    standardize,
)
from fnhol.surface import FNPoint, assemble_cocycle, build_complex, extract_fn, holonomy
from fnhol.variation import (
    check_cocycle_condition,
    coboundary,
    fd_variation,
    variation_cocycle,
)
from fnhol.wp import (
    block_form_deviation,
    pair_chain,
    pair_on_face,
    pants_bigon_chain,
    wolpert_reference,
    wp_matrix,
    wp_pairing,
)
from fnhol.spin import assemble_spin, enumerate_spin, rot2
from conftest import (
    genus2_spec,
    genus3_spec,
    random_fn,
    random_mat2,
    random_tangent,
    rng_for,
)


def _report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_acceptance_1_pants_construction():
    rng = rng_for("acc1")
    for _ in range(1000):
        l = PantsLengths(*(rng.uniform(0.1, 10.0) for _ in range(3)))
        c = pants_cocycle(l)
        # (a) both hexagon words are trivial
        assert all(
            walk(c, word).renormalized().proj_dist(Mat2.identity()) <= 1e-9
            for word in PANTS_FACES.values()
        )
        for k in range(3):
            # (b) seams square to the identity class
            a = c[f"seam{k}"]
            assert (a @ a).proj_dist(Mat2.identity()) <= 1e-10
            # (c) boundary words translate by the prescribed lengths
            length = translation_length(
                walk(c, ((f"b{k}0", 1), (f"b{k}1", 1))).renormalized()
            )
            assert abs(length - l[k]) <= 1e-10
            # (d) normalized seams sit at unit distance marker
            assert abs(nearest_point_on_imaginary_axis(a) - 1.0) <= 1e-10
        # (e) the middle boundary's axis is nearest the imaginary axis
        # at height lambda_0
        conj = Mat2.diagonal(math.sqrt(l.lam(0))) @ c["seam1"].inv()
        assert abs(nearest_point_on_imaginary_axis(conj) - l.lam(0)) <= 1e-8
    _report(1, "pants construction, 1000 random length triples")


def test_acceptance_2_standardization_roundtrip():
    rng = rng_for("acc2")
    for _ in range(200):
        l = PantsLengths(*(rng.uniform(0.1, 10.0) for _ in range(3)))
        c = pants_cocycle(l)
        gauge = {v: random_mat2(rng) for v in PANTS_VERTICES}
        _, recovered, _ = standardize(gauge_transform(c, gauge))
        assert all(recovered[e].proj_dist(c[e]) <= 1e-8 for e in PANTS_EDGES)
    _report(2, "gauge + standardize recovers the cocycle, 200 trials")


def test_acceptance_3_fn_roundtrip():
    for spec in (genus2_spec(), genus3_spec()):
        cx = build_complex(spec)
        rng = rng_for(f"acc3-{spec.genus}")
        for _ in range(50):
            fn = random_fn(rng, spec)  # lengths [0.5, 5], twists [-10, 10]
            back = extract_fn(assemble_cocycle(cx, fn))
            for c in spec.curves:
                assert abs(back.lengths[c.id] - fn.lengths[c.id]) <= 1e-12
                assert abs(back.twists[c.id] - fn.twists[c.id]) <= 1e-12
    # twists keep their global value, not the reduction mod length
    spec = genus2_spec()
    fn = FNPoint({0: 2.0, 1: 2.0, 2: 2.0}, {0: 7.3, 1: -13.0, 2: 0.0})
    back = extract_fn(assemble_cocycle(spec, fn))
    assert abs(back.twists[0] - 7.3) <= 1e-12
    assert abs(back.twists[1] + 13.0) <= 1e-12
    _report(3, "coordinate round trip at genus 2 and 3")


def test_acceptance_4_variation():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("acc4")
    for _ in range(100):
        fn = random_fn(rng, spec)
        v = random_tangent(rng, spec)
        z = variation_cocycle(cx, fn, v)
        zfd = fd_variation(cx, fn, v, h=1e-5)
        assert max(z.values[e].dist(zfd.values[e]) for e in z.values) <= 1e-6
        assert check_cocycle_condition(z.base, z) <= 1e-8
    for seed in ("acc4-r1", "acc4-r2", "acc4-r3"):
        rng = rng_for(seed)
        fn = random_fn(rng, spec)
        v = random_tangent(rng, spec)
        z = variation_cocycle(cx, fn, v)
        errs = []
        for h in (2e-3, 1e-3):
            zfd = fd_variation(cx, fn, v, h=h)
            errs.append(max(z.values[e].dist(zfd.values[e]) for e in z.values))
        assert 3.2 <= errs[0] / errs[1] <= 4.8
    _report(4, "closed-form variation vs central differences")


def test_acceptance_5_twist_length_formula():
    for spec, trials in ((genus2_spec(), 200), (genus3_spec(), 20)):
        cx = build_complex(spec)
        rng = rng_for(f"acc5-{spec.genus}")
        for _ in range(trials):
            fn = random_fn(rng, spec)
            u = random_tangent(rng, spec)
            v = random_tangent(rng, spec)
            zu = variation_cocycle(cx, fn, u)
            zv = variation_cocycle(cx, fn, v)
            assert abs(wp_pairing(zu.base, zu, zv) - wolpert_reference(u, v)) <= 1e-8
        _, matrix = wp_matrix(cx, random_fn(rng, spec))
        assert block_form_deviation(matrix) <= 1e-8
    _report(5, "pairing equals the twist-length form, genus 2 and 3")


def test_acceptance_6_localization():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("acc6")
    for _ in range(50):
        fn = random_fn(rng, spec)
        u = random_tangent(rng, spec)
        v = random_tangent(rng, spec)
        zu = variation_cocycle(cx, fn, u)
        zv = variation_cocycle(cx, fn, v)
        base = zu.base
        for c in spec.curves:
            got = sum(pair_on_face(base, zu, zv, f) for f in cx.curves[c.id].squares)
            expect = u.dtau[c.id] * v.dl[c.id] - u.dl[c.id] * v.dtau[c.id]
            assert abs(got - expect) <= 1e-9
        for pid in spec.pants:
            chain = pants_bigon_chain(cx, pid)
            bigons = [
                pair_chain(base, zu, zv, type(chain)(chain.face_id, chain.basepoint, (t,)))
                for t in chain.terms
            ]
            assert abs(bigons[0] + bigons[1]) <= 1e-12
            hexes = sum(
                pair_on_face(base, zu, zv, f) for f in cx.pants[pid].hexagons
            )
            assert abs(hexes + bigons[0] + bigons[1]) <= 1e-9
    _report(6, "pairing localizes on the annuli; pants terms vanish")


def test_acceptance_7_cohomological_invariance():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("acc7")
    fn = random_fn(rng, spec)
    u = random_tangent(rng, spec)
    v = random_tangent(rng, spec)
    zu = variation_cocycle(cx, fn, u)
    zv = variation_cocycle(cx, fn, v)
    base = zu.base
    reference = wp_pairing(base, zu, zv)
    for _ in range(50):
        w = {
            vx: TracelessMat2(
                rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
            for vx in cx.vertices
        }
        dw = coboundary(base, w)
        assert abs(wp_pairing(base, zu.combined(dw, 1.0, 1.0), zv) - reference) <= 1e-8
        assert abs(wp_pairing(base, zu, zv.combined(dw, 1.0, 1.0)) - reference) <= 1e-8
    _report(7, "pairing unchanged by coboundary shifts, 50 cochains")


def test_acceptance_8_spin():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("acc8")
    fn = random_fn(rng, spec)
    eps_list, classes = enumerate_spin(spec)

    # boundary-sign solutions are exactly the four with product -1
    brute = [
        dict(zip((0, 1, 2), combo))
        for combo in itertools.product((1, -1), repeat=3)
        if combo[0] * combo[1] * combo[2] == -1
    ]
    assert len(eps_list) == 4
    assert {tuple(sorted(e.items())) for e in eps_list} == {
        tuple(sorted(e.items())) for e in brute
    }
    assert len(classes) == 2**spec.genus

    for eps in eps_list:
        for signs in classes:
            lifted = assemble_spin(cx, fn, eps, signs)
            assert lifted.max_face_residual() <= 1e-8
            for c in spec.curves:
                hol = holonomy(lifted, cx.curves[c.id].loop)
                assert (1 if hol.trace() > 0 else -1) == eps[c.id]
            for pid in spec.pants:
                total = sum(
                    rot2(lifted, ((f"p{pid}.b{k}0", 1), (f"p{pid}.b{k}1", 1)))
                    for k in range(3)
                )
                assert total % 2 == 1
    _report(8, "spin lifts: counts, +I faces, trace signs, rot parity")
