import math

import numpy as np
import pytest

from fnhol.mat2 import (
    AxisLocationError,
    Mat2,
    NonHyperbolicError,
    ProjMat2,
    TracelessMat2,
    ad_action,
    nearest_point_on_imaginary_axis,
    translation_length,
)
from conftest import random_projmat, rng_for


def test_det_check():
    Mat2(2.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        Mat2(2.0, 0.0, 0.0, 0.6)


def test_proj_sign_insensitive():
    m = Mat2(0.0, -2.0, 0.5, 3.0)
    assert ProjMat2(m) == ProjMat2(-m)
    # canonical representative has its first significant entry positive
    assert ProjMat2(m).rep.b > 0


def _dist_to_geodesic(z, p, q):
    """Hyperbolic distance from z to the geodesic with real feet p, q."""
    u = (z - p) / (z - q)
    if u.imag < 0:
        u = (z - q) / (z - p)
    return math.asinh(abs(u.real) / u.imag)


def test_nearest_point_oracle():
    # minimize the distance from points of the imaginary axis to the
    # other geodesic numerically and compare with sqrt(ab/cd)
    from scipy.optimize import minimize_scalar

    rng = rng_for("nearest")
    checked = 0
    while checked < 20:
        conj = random_projmat(rng)
        m = conj.rep
        if abs(m.c) < 0.1 or abs(m.d) < 0.1 or (m.a * m.b) / (m.c * m.d) <= 0.01:
            continue
        r = nearest_point_on_imaginary_axis(conj)
        p, q = m.a / m.c, m.b / m.d  # axis feet

        best = minimize_scalar(
            lambda s: _dist_to_geodesic(complex(0.0, math.exp(s)), p, q),
            bounds=(math.log(r) - 3.0, math.log(r) + 3.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(math.exp(best.x) - r) < 1e-6 * max(1.0, r)
        checked += 1


def test_nearest_point_cases():
    assert abs(nearest_point_on_imaginary_axis(ProjMat2.of(2, 1, 1, 1)) - math.sqrt(2)) < 1e-15
    with pytest.raises(AxisLocationError):
        nearest_point_on_imaginary_axis(ProjMat2.of(2, -0.5, 1, 0.25))


def test_translation_length():
    assert abs(translation_length(ProjMat2.diagonal(math.e)) - 2.0) < 1e-14
    rng = rng_for("tlength")
    for _ in range(50):
        p = random_projmat(rng)
        lam = rng.uniform(1.1, 10.0)
        conj = ProjMat2(p.rep @ Mat2.diagonal(lam) @ p.rep.inv())
        assert abs(translation_length(conj) - 2 * math.log(lam)) < 1e-10
    with pytest.raises(NonHyperbolicError):
        translation_length(ProjMat2.rotation_j())
    with pytest.raises(NonHyperbolicError):
        translation_length(ProjMat2.identity())


def _random_unimodular(rng):
    while True:
        a, b, c, d = (rng.uniform(-10, 10) for _ in range(4))
        det = a * d - b * c
        if abs(det) < 0.5:
            continue
        if det < 0:
            a, b = -a, -b
            det = -det
        s = 1 / math.sqrt(det)
        return Mat2(a * s, b * s, c * s, d * s, check=False)


def test_det_preserved_over_products():
    # 100 renormalized multiplications along a bounded word (each factor
    # is undone so the running norm stays in the regime holonomy
    # products live in; unconstrained random products blow up and make
    # the determinant meaningless in double precision)
    rng = rng_for("detdrift")
    m = Mat2.identity()
    for _ in range(50):
        f = _random_unimodular(rng)
        m = (m @ f).renormalized()
        m = (m @ f.inv()).renormalized()
    assert abs(m.det() - 1.0) < 1e-10
    # and each single product of fresh factors satisfies the class
    # invariant outright
    for _ in range(100):
        p = _random_unimodular(rng) @ _random_unimodular(rng)
        assert abs(p.det() - 1.0) < 1e-12 * max(1.0, p.norm())


def test_ad_action_is_conjugation():
    rng = rng_for("ad")
    for _ in range(30):
        m = random_projmat(rng).rep
        t = TracelessMat2(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        out = ad_action(m, t)
        a = np.array(m.entries()).reshape(2, 2)
        x = np.array(t.entries()).reshape(2, 2)
        expect = a @ x @ np.linalg.inv(a)
        got = np.array(out.entries()).reshape(2, 2)
        assert np.max(np.abs(got - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_traceless_projection():
    t = TracelessMat2.from_entries(3.0, 1.0, -2.0, 1.0)
    assert t.x == 1.0 and t.y == 1.0 and t.z == -2.0
