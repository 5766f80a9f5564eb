"""Unimodular 2x2 matrices, the word walk, and translation lengths.

Conventions used throughout the package:

* ``Mat2(a, b, c, d)`` is the matrix ``(a b; c d)`` with ``det = 1``.
  Cocycle values are sign-free representatives of their projective
  classes; "projective" is only a comparison (a face residual is the
  distance to the nearer of +-I) and, when the command line writes a
  holonomy, a canonical sign (:class:`ProjMat2`).
* A tangent direction in the 2x2 traceless matrices, the value of a
  variation cocycle, is the entry tuple ``(x, y, z)`` of ``(x y; z -x)``.

The product path (``@``, :func:`walk`, ``inv``, :func:`ad_action`)
converts no scalar and calls no ``math`` function, so it runs unchanged
on entries such as ``fractions.Fraction``.
"""

import math

DET_TOL = 1e-12
# margin above |trace| = 2 before an element counts as hyperbolic
HYPERBOLIC_MARGIN = 1e-12


class NonHyperbolicError(ValueError):
    """The element does not translate along an axis (|trace| <= 2)."""


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
    def diagonal(h):
        """diag(h, 1/h); ZeroDivisionError for h == 0."""
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
        """Rescale so the determinant is exactly 1 again (:func:`_renormalized`).

        Used on the result of a long product to stop determinant drift;
        not scalar-generic (a float square root)."""
        return Mat2(*_renormalized(self.a, self.b, self.c, self.d), check=False)

    def is_finite(self):
        """Whether no entry overflowed or became nan."""
        return (math.isfinite(self.a) and math.isfinite(self.b)
                and math.isfinite(self.c) and math.isfinite(self.d))

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
    checked for composability: a face cycle closes up by the way the
    complex is built, and a user's word is checked where it comes in
    (:func:`fnhol.surface.holonomy`)."""
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


def _renormalized(a, b, c, d):
    """The entries of (a b; c d) rescaled to determinant 1, as a tuple; the
    one renormalization of the package, and ValueError for a determinant
    of 0 or below."""
    det = a * d - b * c
    if det <= 0.0:
        raise ValueError(f"cannot renormalize matrix with det {det!r}")
    s = 1.0 / math.sqrt(det)
    return a * s, b * s, c * s, d * s


def _identity_distances(a, b, c, d):
    """Max-entry distances of (a b; c d) from +I and -I, both nan if an entry is."""
    if a != a or b != b or c != c or d != d:
        return math.nan, math.nan
    off = max(abs(b), abs(c))
    return max(abs(a - 1.0), off, abs(d - 1.0)), max(abs(a + 1.0), off, abs(d + 1.0))


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
        self.rep = m
        for x in m.entries():
            if abs(x) > 1e-12 * scale:
                if x < 0.0:
                    self.rep = -m
                break

    def __repr__(self):
        return f"ProjMat2({self.rep!r})"


def ad_action(m, t):
    """Conjugation m @ t @ m^-1 of a traceless matrix t = (x, y, z) by a
    Mat2, as an entry tuple (the sign of m does not matter)."""
    a, b, c, d = m.a, m.b, m.c, m.d
    x, y, z = t
    # (a b; c d) (x y; z -x) (d -b; -c a), using det = 1
    p = a * x + b * z
    q = a * y - b * x
    r = c * x + d * z
    s = c * y - d * x
    return (p * d - q * c, -p * b + q * a, r * d - s * c)


def translation_length(m):
    """Translation length 2*log(lambda) of a hyperbolic class, where
    lambda = (|tr| + sqrt(tr^2 - 4))/2; either sign of m gives it."""
    t = abs(m.trace())
    if t <= 2.0 + HYPERBOLIC_MARGIN:
        raise NonHyperbolicError(f"|trace| = {t!r} is not above 2")
    # t * t overflows above about 1.3e154, where lambda is t to double precision
    lam = t if t > 1e154 else 0.5 * (t + math.sqrt(t * t - 4.0))
    return 2.0 * math.log(lam)
