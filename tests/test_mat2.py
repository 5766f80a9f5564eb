import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fnhol.mat2 import (
    Mat2,
    NonHyperbolicError,
    ProjMat2,
    ad_action,
    translation_length,
    walk,
)
from conftest import random_mat2, rng_for
from oracles import (AxisLocationError, close_to, dist, from_entries, identity,
                     nearest_point_on_imaginary_axis, proj_dist, t_dist, t_norm)


def test_det_check():
    Mat2(2.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        Mat2(2.0, 0.0, 0.0, 0.6)


@pytest.mark.parametrize("zero", [0.0, Fraction(0), Decimal(0)], ids=["float", "Fraction", "Decimal"])
def test_diagonal_of_zero_divides_by_zero(zero):
    # 1 / h refuses a zero of each scalar type; no check of its own
    with pytest.raises(ZeroDivisionError):
        Mat2.diagonal(zero)


def test_proj_sign_insensitive():
    m = Mat2(0.0, -2.0, 0.5, 3.0)
    assert ProjMat2(m).rep.entries() == ProjMat2(-m).rep.entries()
    assert proj_dist(ProjMat2(m).rep, ProjMat2(-m).rep) == 0.0
    assert proj_dist(m, -m) == 0.0 and dist(m, -m) == 6.0
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
        m = random_mat2(rng)
        if abs(m.c) < 0.1 or abs(m.d) < 0.1 or (m.a * m.b) / (m.c * m.d) <= 0.01:
            continue
        r = nearest_point_on_imaginary_axis(m)
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
    assert abs(nearest_point_on_imaginary_axis(Mat2(2, 1, 1, 1)) - math.sqrt(2)) < 1e-15
    with pytest.raises(AxisLocationError):
        nearest_point_on_imaginary_axis(Mat2(2, -0.5, 1, 0.25))


def test_translation_length():
    assert abs(translation_length(Mat2.diagonal(math.e)) - 2.0) < 1e-14
    assert abs(translation_length(-Mat2.diagonal(math.e)) - 2.0) < 1e-14
    rng = rng_for("tlength")
    for _ in range(50):
        p = random_mat2(rng)
        lam = rng.uniform(1.1, 10.0)
        conj = p @ Mat2.diagonal(lam) @ p.inv()
        assert abs(translation_length(conj) - 2 * math.log(lam)) < 1e-10
    with pytest.raises(NonHyperbolicError):
        translation_length(Mat2(0.0, -1.0, 1.0, 0.0))
    with pytest.raises(NonHyperbolicError):
        translation_length(identity())


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
    m = identity()
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
        m = random_mat2(rng)
        x, y, z = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)
        p, q, r = ad_action(m, (x, y, z))
        a = np.array(m.entries()).reshape(2, 2)
        expect = a @ np.array([[x, y], [z, -x]]) @ np.linalg.inv(a)
        got = np.array([[p, q], [r, -p]])
        assert np.max(np.abs(got - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_traceless_projection():
    assert from_entries(3.0, 1.0, -2.0, 1.0) == (1.0, 1.0, -2.0)


def test_walk_is_the_left_to_right_product():
    # bit for bit, signed zeros included, the product I @ r_1 @ ... @ r_n
    # with reversed edges read as inverses; ``prefixes`` receives the
    # running product after every step
    rng = rng_for("walk")
    values = {i: random_mat2(rng) for i in range(4)}
    values[4] = Mat2.diagonal(1.7)
    values[5] = -Mat2(0.0, -0.5, 2.0, 0.0)
    for _ in range(200):
        word = [(rng.randrange(6), rng.choice((1, -1))) for _ in range(rng.randrange(1, 9))]
        want = identity()
        for eid, sign in word:
            want = want @ (values[eid] if sign > 0 else values[eid].inv())
        assert repr(walk(values, word)) == repr(want)
        prefixes = []
        assert repr(walk(values, word, prefixes)) == repr(want)
        assert len(prefixes) == len(word)
        for k, prefix in enumerate(prefixes):
            assert repr(prefix) == repr(walk(values, word[: k + 1]).entries())
    prefixes = []
    assert walk(values, (), prefixes).entries() == (1, 0, 0, 1)
    assert prefixes == []


def test_scalar_generic_on_fractions():
    F = Fraction
    m = Mat2(F(2), F(3), F(1), F(2))
    n = Mat2(F(1, 3), F(0), F(5), F(3))
    with pytest.raises(ValueError):
        Mat2(F(2), F(0), F(0), F(3, 5))
    diag = Mat2.diagonal(F(3))
    assert diag.entries() == (3, 0, 0, F(1, 3)) and all(type(x) is F for x in diag.entries())
    values = {"m": m, "n": n}
    p = walk(values, (("m", 1), ("n", -1), ("m", 1)))
    assert p.entries() == (m @ n.inv() @ m).entries()
    assert all(type(x) is F for x in p.entries() + m.inv().entries())
    assert p.det() == 1 and (m @ m.inv()).entries() == (1, 0, 0, 1)
    x, y, z = F(1, 2), F(-3), F(7, 4)
    moved = ad_action(p, (x, y, z))
    full = p @ Mat2(x, y, z, -x, check=False) @ p.inv()
    assert moved == full.entries()[:3] and full.d == -full.a
    assert all(type(v) is F for v in moved)
    # scalars that do not mix with floats keep their type too
    d = walk({"m": Mat2(Decimal(2), Decimal(3), Decimal(1), Decimal(2))}, (("m", -1),))
    assert d.entries() == (2, -3, -1, 2) and type(d.a) is Decimal


@pytest.mark.parametrize("position", range(4))
def test_distances_keep_a_nan_in_any_entry(position):
    # Python's max drops a nan unless it comes first; every max-entry
    # norm and distance must give nan instead, so that no bound passes it
    nan = math.nan
    entries = [1.0, 0.0, 0.0, 1.0]
    entries[position] = nan
    m = Mat2(*entries, check=False)
    assert math.isnan(m.norm())
    for other in (identity(), -identity(), Mat2(2.0, 3.0, 1.0, 2.0)):
        assert math.isnan(dist(m, other)) and math.isnan(dist(other, m))
        assert math.isnan(proj_dist(m, other)) and math.isnan(proj_dist(other, m))
    assert not close_to(m, identity())
    if position < 3:
        t = [0.0, 0.0, 0.0]
        t[position] = nan
        assert math.isnan(t_norm(t))
        assert math.isnan(t_dist(t, (0.0, 0.0, 0.0)))


def test_finite_distances_are_the_largest_entry():
    m = Mat2(2.0, -3.0, -1.0, 2.0)
    assert m.norm() == 3.0
    assert dist(m, identity()) == 3.0
    assert proj_dist(m, identity()) == 3.0
    assert Mat2(math.inf, 0.0, 0.0, 1.0, check=False).norm() == math.inf
    assert t_norm((0.5, -4.0, 2.0)) == 4.0
    F = Fraction
    f = Mat2(F(2), F(3), F(1), F(2))
    assert f.norm() == 3 and dist(f, Mat2(F(1), F(0), F(0), F(1))) == 3
    assert proj_dist(f, Mat2(F(-2), F(-3), F(-1), F(-2))) == 0
    assert t_norm((F(1, 2), F(-3), F(7, 4))) == 3
