"""Unimodular 2x2 matrices, the word walk, and upper half-plane
utilities.

Conventions used throughout the package:

* ``Mat2(a, b, c, d)`` is the matrix ``(a b; c d)`` with ``det = 1``.
  Cocycle values are sign-free representatives of their projective
  classes; "projective" is only a comparison (:meth:`Mat2.proj_dist`)
  and, when the command line writes a holonomy, a canonical sign
  (:class:`ProjMat2`).
* ``TracelessMat2(x, y, z)`` is ``(x y; z -x)``, a tangent direction in
  the 2x2 traceless matrices.
* Matrices act on the upper half-plane by ``z -> (az+b)/(cz+d)``.

The product path (``@``, :func:`walk`, ``inv``, :func:`ad_action`)
converts no scalar and calls no ``math`` function, so it runs unchanged
on entries such as ``fractions.Fraction``.
"""

import math

DET_TOL = 1e-12
# default relative tolerance for matrix comparisons
CMP_TOL = 1e-9
# margin above |trace| = 2 before an element counts as hyperbolic
HYPERBOLIC_MARGIN = 1e-12


class NonHyperbolicError(ValueError):
    """The element does not translate along an axis (|trace| <= 2)."""


class AxisLocationError(ValueError):
    """The requested axis data is degenerate (axis through infinity or
    meeting the imaginary axis)."""


class Mat2:
    """A 2x2 matrix of determinant one."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d, check=True):
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        if check:
            err = abs(self.det() - 1)
            # divided rather than multiplied, so that scalars which do
            # not mix with floats (Decimal) compare too
            if err / max(1, self.norm()) > DET_TOL:
                raise ValueError(f"determinant {self.det()!r} is not 1")

    @staticmethod
    def identity():
        return Mat2(1.0, 0.0, 0.0, 1.0, check=False)

    @staticmethod
    def diagonal(h):
        """diag(h, 1/h) for h != 0."""
        if h == 0:
            raise ValueError("diagonal entry must be nonzero")
        zero = type(h)(0)
        return Mat2(h, zero, zero, 1 / h, check=False)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def norm(self):
        """Max-entry norm, nan if an entry is nan."""
        return _max_or_nan((abs(self.a), abs(self.b), abs(self.c), abs(self.d)))

    def __matmul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            check=False,
        )

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d, check=False)

    def inv(self):
        """Inverse via the adjugate; exact for det = 1."""
        return Mat2(self.d, -self.b, -self.c, self.a, check=False)

    def renormalized(self):
        """Rescale so the determinant is exactly 1 again.

        Used on the result of a long product to stop determinant drift;
        not scalar-generic (a float square root)."""
        det = self.det()
        if det <= 0.0:
            raise ValueError(f"cannot renormalize matrix with det {det!r}")
        s = 1.0 / math.sqrt(det)
        return Mat2(self.a * s, self.b * s, self.c * s, self.d * s, check=False)

    def is_finite(self):
        """Whether no entry overflowed or became nan."""
        return (math.isfinite(self.a) and math.isfinite(self.b)
                and math.isfinite(self.c) and math.isfinite(self.d))

    def dist(self, other):
        """Max-entry distance, nan if a compared entry is nan."""
        return _max_or_nan((
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        ))

    def proj_dist(self, other):
        """Max-entry distance between the classes {+self, -self} and
        {+other, -other}: the smaller of the distances to +other and to
        -other.  With ``other`` the identity this is a face residual.  A
        nan entry makes both distances nan, and so their ``min``."""
        return min(
            self.dist(other),
            _max_or_nan((
                abs(self.a + other.a),
                abs(self.b + other.b),
                abs(self.c + other.c),
                abs(self.d + other.d),
            )),
        )

    def close_to(self, other, tol=CMP_TOL):
        return self.dist(other) <= tol * max(1.0, self.norm(), other.norm())

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"Mat2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def walk(values, word, prefixes=None):
    """The product of the values along an edge word.

    ``values`` maps edge ids to Mat2; ``word`` is a sequence of
    (edge id, +1/-1), where -1 reads the edge backwards, as its inverse
    (d, -b, -c, a).  The product runs left to right from the identity
    and is not renormalized.  The running product is kept in four
    locals; when ``prefixes`` is a list, the running product after each
    step is appended to it as an entry tuple (a, b, c, d), so its k-th
    item holds the product of the first k+1 values.  The word is not
    checked for composability: face cycles were checked when the complex
    was built, and user words are checked where they come in."""
    a, b, c, d = 1, 0, 0, 1
    for eid, sign in word:
        m = values[eid]
        if sign > 0:
            p, q, r, s = m.a, m.b, m.c, m.d
        else:
            p, q, r, s = m.d, -m.b, -m.c, m.a
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        if prefixes is not None:
            prefixes.append((a, b, c, d))
    return Mat2(a, b, c, d, check=False)


def _max_or_nan(values):
    """The largest of the values, or nan if any of them is nan (Python's
    ``max`` keeps a nan only when it comes first).  An empty input gives
    0.0."""
    worst = 0.0
    for x in values:
        if x > worst or x != x:
            worst = x
    return worst


class ProjMat2:
    """The class {+M, -M} of a unimodular matrix, as a report shows it.

    The representative stored in ``.rep`` has its first entry of
    significant size (in the order a, b, c, d) positive, so a written
    matrix does not depend on the sign a product happened to carry.
    """

    __slots__ = ("rep",)

    def __init__(self, m):
        scale = m.norm()
        if scale == 0.0:
            raise ValueError("zero matrix has no projective class")
        self.rep = m
        for x in m.entries():
            if abs(x) > 1e-12 * scale:
                if x < 0.0:
                    self.rep = -m
                break

    def __repr__(self):
        return f"ProjMat2({self.rep!r})"


class TracelessMat2:
    """The traceless matrix (x y; z -x); values of variation cocycles."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x = x
        self.y = y
        self.z = z

    @staticmethod
    def zero():
        return TracelessMat2(0.0, 0.0, 0.0)

    @staticmethod
    def diag(x):
        """x * (1 0; 0 -1)."""
        return TracelessMat2(x, 0.0, 0.0)

    @staticmethod
    def offdiag(y):
        """y * (0 1; 1 0)."""
        return TracelessMat2(0.0, y, y)

    @staticmethod
    def from_entries(a, b, c, d):
        """Project a 2x2 matrix onto its traceless part."""
        x = 0.5 * (a - d)
        return TracelessMat2(x, b, c)

    def __add__(self, other):
        return TracelessMat2(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return TracelessMat2(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return TracelessMat2(-self.x, -self.y, -self.z)

    def scale(self, t):
        return TracelessMat2(t * self.x, t * self.y, t * self.z)

    def norm(self):
        return _max_or_nan((abs(self.x), abs(self.y), abs(self.z)))

    def dist(self, other):
        return (self - other).norm()

    def entries(self):
        return (self.x, self.y, self.z, -self.x)

    def __repr__(self):
        return f"TracelessMat2({self.x!r}, {self.y!r}, {self.z!r})"


def ad_action(m, t):
    """Conjugation m @ t @ m^-1 of a traceless matrix by a Mat2 (the
    sign of m does not matter)."""
    a, b, c, d = m.a, m.b, m.c, m.d
    x, y, z = t.x, t.y, t.z
    # (a b; c d) (x y; z -x) (d -b; -c a), using det = 1
    p = a * x + b * z
    q = a * y - b * x
    r = c * x + d * z
    s = c * y - d * x
    return TracelessMat2(p * d - q * c, -p * b + q * a, r * d - s * c)


def nearest_point_on_imaginary_axis(conj):
    """Height R of the point R*i on the imaginary axis closest to the
    axis of conj @ diag(lam, 1/lam) @ conj^-1, which does not depend on lam.

    Requires the two axes to be disjoint, i.e. ab/cd > 0; then
    R = sqrt(ab/cd)."""
    scale = conj.norm()
    if abs(conj.c) <= 1e-12 * scale or abs(conj.d) <= 1e-12 * scale:
        raise AxisLocationError("axis passes through infinity (c or d vanishes)")
    ratio = (conj.a * conj.b) / (conj.c * conj.d)
    if ratio <= 0.0:
        raise AxisLocationError("axis meets the imaginary axis (ab/cd <= 0)")
    return math.sqrt(ratio)


def translation_length(m):
    """Translation length 2*log(lambda) of a hyperbolic class, where
    lambda = (|tr| + sqrt(tr^2 - 4))/2; either sign of m gives it."""
    t = abs(m.trace())
    if t <= 2.0 + HYPERBOLIC_MARGIN:
        raise NonHyperbolicError(f"|trace| = {t!r} is not above 2")
    lam = 0.5 * (t + math.sqrt(t * t - 4.0))
    return 2.0 * math.log(lam)
