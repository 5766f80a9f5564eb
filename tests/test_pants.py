import math

import pytest

from fnhol.mat2 import (
    Mat2,
    _max_or_nan,
    nearest_point_on_imaginary_axis,
    translation_length,
    walk,
)
from fnhol.pants import (
    NotFuchsianError,
    PANTS_EDGES,
    PANTS_FACES,
    PANTS_VERTICES,
    PantsLengths,
    bc_magnitude,
    bc_magnitude_minus_one,
    gauge_transform,
    pants_cocycle,
    seam_matrix,
    standardize,
)
from conftest import random_mat2, rng_for


# Loops gamma_k around the three boundary circles, based at v00.
# gamma2 * gamma1 * gamma0 is trivial in the fundamental group.
GAMMA_WORDS = {
    0: (("b00", 1), ("b01", 1)),
    1: (
        ("seam0", 1),
        ("b20", -1),
        ("seam2", 1),
        ("b11", 1),
        ("b10", 1),
        ("seam2", -1),
        ("b20", 1),
        ("seam0", -1),
    ),
    2: (("seam0", 1), ("b21", 1), ("b20", 1), ("seam0", -1)),
}


def random_lengths(rng, lo=0.1, hi=10.0):
    return PantsLengths(*(rng.uniform(lo, hi) for _ in range(3)))


def hol(values, word):
    return walk(values, word).renormalized()


def face_residuals(values):
    """Face id -> distance of the face word from +-I."""
    return {f: hol(values, w).proj_dist(Mat2.identity()) for f, w in PANTS_FACES.items()}


def is_standard(lengths, values, tol=1e-9):
    """Whether arcs are the diagonal matrices of the boundary lengths, up
    to sign, and seams satisfy the a*b = c*d normalization."""
    for k in range(3):
        arc = Mat2.diagonal(math.exp(0.25 * lengths[k]))
        for eps in (0, 1):
            m = values[f"b{k}{eps}"]
            if m.proj_dist(arc) > tol * max(1.0, m.norm(), arc.norm()):
                return False
        m = values[f"seam{k}"]
        if abs(m.a * m.b - m.c * m.d) > tol * max(1.0, m.norm() ** 2):
            return False
    return True


def test_bc_magnitude_reference_value():
    l = PantsLengths(2, 2, 2)
    expected = (math.cosh(1) + math.cosh(2)) / (2 * math.sinh(1) ** 2)
    for k in range(3):
        assert abs(bc_magnitude(l, k) - expected) < 1e-15
    assert abs(expected - 1.9206735942077926) < 1e-12


def test_bc_magnitude_two_forms_agree():
    # the sum-of-cosh and product-of-cosh expressions are the same number
    rng = rng_for("bc-forms")
    for _ in range(1000):
        l = random_lengths(rng)
        s = 0.25 * (l[0] + l[1] + l[2])
        for k in range(3):
            prod_form = (
                math.cosh(s) * math.cosh(s - 0.5 * l[k + 1])
                / (math.sinh(0.5 * l[k - 1]) * math.sinh(0.5 * l[k]))
            )
            f = bc_magnitude(l, k)
            assert abs(f - prod_form) <= 1e-12 * prod_form


def test_bc_magnitude_minus_one_identity():
    rng = rng_for("bc-minus")
    for _ in range(1000):
        l = random_lengths(rng)
        for k in range(3):
            lhs = bc_magnitude(l, k) - 1.0
            rhs = bc_magnitude_minus_one(l, k)
            assert rhs > 0.0
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_seam_matrix_reference_entries():
    m = seam_matrix(PantsLengths(2, 2, 2), 0)
    assert abs(m.a - 0.9595) < 1e-4
    assert abs(m.b + 1.3859) < 1e-4
    assert abs(m.c - 1.3859) < 1e-4
    assert abs(m.d + 0.9595) < 1e-4


def test_seam_matrix_involution_and_normalization():
    rng = rng_for("seam")
    for _ in range(200):
        l = random_lengths(rng)
        for k in range(3):
            a = seam_matrix(l, k)
            assert (a @ a).proj_dist(Mat2.identity()) <= 1e-10
            m = a
            assert abs(m.a * m.b - m.c * m.d) < 1e-12 * m.norm() ** 2
            assert abs(nearest_point_on_imaginary_axis(a) - 1.0) <= 1e-10
            # entry signs: off-diagonal product negative, diagonal
            # product negative, both off-diagonal dominate the diagonal
            assert m.b * m.c < 0
            assert m.a * m.d < 0
            assert abs(m.b * m.c) > abs(m.a * m.d)


def test_pants_cocycle_faces_and_lengths():
    rng = rng_for("pants-faces")
    for _ in range(200):
        l = random_lengths(rng)
        c = pants_cocycle(l)
        assert is_standard(l, c)
        assert all(r <= 1e-9 for r in face_residuals(c).values())
        for k in range(3):
            loop = ((f"b{k}0", 1), (f"b{k}1", 1))
            assert abs(translation_length(hol(c, loop)) - l[k]) <= 1e-10


def test_max_face_residual_keeps_a_nan():
    # hex+ comes first and is finite; a nan on b01 shows only in hex-
    c = pants_cocycle(PantsLengths(2, 2, 2))
    c["b01"] = Mat2(math.nan, 0.0, 0.0, math.nan, check=False)
    residuals = face_residuals(c)
    assert residuals["hex+"] <= 1e-9
    assert math.isnan(residuals["hex-"])
    assert math.isnan(_max_or_nan(residuals.values()))
    assert not all(r <= 1e-9 for r in residuals.values())


def test_gamma_relation_and_trace():
    l = PantsLengths(2, 2, 2)
    c = pants_cocycle(l)
    g = {k: hol(c, GAMMA_WORDS[k]) for k in range(3)}
    prod = g[2] @ g[1] @ g[0]
    assert prod.proj_dist(Mat2.identity()) <= 1e-12
    # the middle boundary word has trace -(lambda_1 + 1/lambda_1)
    assert abs(abs(g[1].trace()) - (math.e + 1 / math.e)) < 1e-12
    assert abs(translation_length(g[1]) - 2.0) < 1e-10


def test_boundary_trace_sign_is_negative():
    # the determinant-one product D(lam0) A0 D(lam2) A0^-1 has trace
    # below -2 for every length triple
    rng = rng_for("keen")
    for _ in range(200):
        l = random_lengths(rng)
        a = seam_matrix(l, 0)
        m = Mat2.diagonal(l.lam(0)) @ a @ Mat2.diagonal(l.lam(2)) @ a.inv()
        assert m.trace() < -2.0
        assert abs(m.trace() + l.lam(1) + 1.0 / l.lam(1)) < 1e-9 * l.lam(1)


def test_seam_foot_of_middle_boundary():
    # the point of the imaginary axis nearest the middle boundary's axis
    # sits at height lambda_0
    rng = rng_for("foot")
    for _ in range(100):
        l = random_lengths(rng, 0.2, 6.0)
        c = pants_cocycle(l)
        conj = Mat2.diagonal(math.sqrt(l.lam(0))) @ c["seam1"].inv()
        assert abs(nearest_point_on_imaginary_axis(conj) - l.lam(0)) <= 1e-8 * l.lam(0)


def test_gamma1_two_expressions_agree():
    rng = rng_for("gamma1")
    for _ in range(50):
        l = random_lengths(rng, 0.3, 6.0)
        c = pants_cocycle(l)
        word_val = hol(c, GAMMA_WORDS[1])
        a1 = c["seam1"]
        d0 = Mat2.diagonal(math.sqrt(l.lam(0)))
        alt = d0 @ a1.inv() @ Mat2.diagonal(l.lam(1)) @ a1 @ d0.inv()
        assert word_val.proj_dist(alt) <= 1e-10 * max(1.0, alt.norm())


def test_cyclic_symmetry():
    l = PantsLengths(1.0, 2.0, 3.0)
    shifted = PantsLengths(2.0, 3.0, 1.0)  # boundary k of shifted = boundary k+1 of l
    for k in range(3):
        assert seam_matrix(shifted, k).close_to(seam_matrix(l, k + 1), 1e-12)
    sym = PantsLengths(2, 2, 2)
    assert seam_matrix(sym, 0).close_to(seam_matrix(sym, 1), 1e-15)


def test_gauge_identity_and_constant():
    rng = rng_for("gauge")
    l = PantsLengths(1.3, 2.1, 0.8)
    c = pants_cocycle(l)
    same = gauge_transform(c, {v: Mat2.identity() for v in PANTS_VERTICES})
    assert all(same[e].close_to(c[e], 1e-14) for e in PANTS_EDGES)
    assert is_standard(l, same)

    p = random_mat2(rng)
    conj = gauge_transform(c, {v: p for v in PANTS_VERTICES})
    assert all(r <= 1e-9 for r in face_residuals(conj).values())


def test_gauge_diagonal_preserves_arcs():
    rng = rng_for("gauge-diag")
    l = PantsLengths(1.3, 2.1, 0.8)
    c = pants_cocycle(l)
    gauge = {}
    for k in range(3):
        t = Mat2.diagonal(rng.uniform(0.3, 3.0))
        gauge[f"v{k}0"] = t
        gauge[f"v{k}1"] = t
    moved = gauge_transform(c, gauge)
    for k in range(3):
        arc = Mat2.diagonal(math.exp(0.25 * l[k]))
        assert moved[f"b{k}0"].close_to(arc, 1e-12)
        assert moved[f"b{k}1"].close_to(arc, 1e-12)


def test_standardize_idempotent():
    c = pants_cocycle(PantsLengths(1.2, 2.3, 0.7))
    lengths, out, gauge = standardize(c)
    assert all(out[e].proj_dist(c[e]) <= 1e-12 for e in PANTS_EDGES)
    assert all(gauge[v].proj_dist(Mat2.identity()) <= 1e-12 for v in PANTS_VERTICES)
    assert is_standard(lengths, out)


def test_standardize_roundtrip():
    rng = rng_for("standardize")
    for _ in range(50):
        l = random_lengths(rng, 0.3, 6.0)
        c = pants_cocycle(l)
        gauge = {v: random_mat2(rng) for v in PANTS_VERTICES}
        moved = gauge_transform(c, gauge)
        assert not is_standard(l, moved)
        lengths, recovered, found = standardize(moved)
        assert all(
            recovered[e].proj_dist(c[e]) <= 1e-8 for e in PANTS_EDGES
        )
        # the returned gauge actually produces the standard cocycle
        check = gauge_transform(moved, found)
        assert all(
            check[e].proj_dist(recovered[e]) <= 1e-9 for e in PANTS_EDGES
        )
        for k in range(3):
            assert abs(lengths[k] - l[k]) <= 1e-10 * max(1.0, l[k])


def test_standardize_rejects_non_hyperbolic_boundary():
    c = pants_cocycle(PantsLengths(1.0, 1.0, 1.0))
    broken = dict(c)
    broken["b00"] = Mat2(0.0, -1.0, 1.0, 0.0)
    broken["b01"] = broken["b00"]
    with pytest.raises(NotFuchsianError):
        standardize(broken)


def test_lengths_validation():
    with pytest.raises(ValueError):
        PantsLengths(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        PantsLengths(0.0, 1.0, 1.0)
