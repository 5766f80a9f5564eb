"""The normalized holonomy cocycle of a hyperbolic pair of pants.

A pair of pants carries a fixed cell structure: two vertices on each
boundary circle, two boundary arcs per circle, one seam between every
pair of circles, and two hexagonal faces.  Given the three boundary
lengths there is exactly one holonomy cocycle on this structure whose
boundary arcs are diagonal matrices diag(lambda_k^(1/2), ...) and whose
seam values satisfy a*b = c*d; this module constructs it in closed
form, applies gauge moves to it, and recovers it from any gauged copy.

A pants cocycle is its nine values, edge id -> :class:`fnhol.mat2.Mat2`,
each a sign-free representative of its projective class.

Labels (k runs over Z/3):

* vertices ``v{k}0``, ``v{k}1`` on boundary k,
* arcs ``b{k}0``: v{k}0 -> v{k}1 and ``b{k}1``: v{k}1 -> v{k}0,
* seams ``seam{k}``: v{k}0 -> v{k-1}1,
* faces ``hex+`` (through the ``b{k}0`` arcs) and ``hex-``.
"""

import math

from .mat2 import Mat2

__all__ = [
    "PantsLengths",
    "NotFuchsianError",
    "bc_magnitude",
    "bc_magnitude_minus_one",
    "seam_matrix",
    "pants_cocycle",
    "gauge_transform",
    "standardize",
    "PANTS_EDGES",
    "PANTS_VERTICES",
    "PANTS_FACES",
]


class NotFuchsianError(ValueError):
    """The cocycle is not a hyperbolic holonomy (boundary not hyperbolic,
    or seam values out of position)."""


class PantsLengths:
    """Boundary lengths (l0, l1, l2) of a hyperbolic pair of pants."""

    __slots__ = ("l",)

    def __init__(self, l0, l1, l2):
        self.l = (float(l0), float(l1), float(l2))
        for v in self.l:
            if not v > 0.0:
                raise ValueError(f"boundary length {v!r} must be positive")

    def __getitem__(self, k):
        return self.l[k % 3]

    def lam(self, k):
        """Boundary eigenvalue exp(l_k / 2) > 1."""
        return math.exp(0.5 * self[k])

    def __iter__(self):
        return iter(self.l)

    def __repr__(self):
        return f"PantsLengths{self.l!r}"


PANTS_VERTICES = tuple(f"v{k}{eps}" for k in range(3) for eps in (0, 1))

# edge id -> (start vertex, end vertex, kind)
PANTS_EDGES = {}
for _k in range(3):
    PANTS_EDGES[f"seam{_k}"] = (f"v{_k}0", f"v{(_k - 1) % 3}1", "seam")
    PANTS_EDGES[f"b{_k}0"] = (f"v{_k}0", f"v{_k}1", "arc0")
    PANTS_EDGES[f"b{_k}1"] = (f"v{_k}1", f"v{_k}0", "arc1")

# Face boundary words, counterclockwise, as (edge id, +1/-1) with -1 for
# traversal against the edge orientation.  Transcribed once from the
# fixed cell structure; the cocycle condition tests guard them.
PANTS_FACES = {
    "hex+": (
        ("seam1", -1),
        ("b10", 1),
        ("seam2", -1),
        ("b20", 1),
        ("seam0", -1),
        ("b00", 1),
    ),
    "hex-": (
        ("b01", 1),
        ("seam0", 1),
        ("b21", 1),
        ("seam2", 1),
        ("b11", 1),
        ("seam1", 1),
    ),
}


def bc_magnitude(lengths, k):
    """|b_k c_k| for the seam between boundaries k-1 and k.

    Equals (cosh(l_{k+1}/2) + cosh((l_{k-1}+l_k)/2))
    / (2 sinh(l_{k-1}/2) sinh(l_k/2)), and always exceeds 1."""
    num = math.cosh(0.5 * lengths[k + 1]) + math.cosh(0.5 * (lengths[k - 1] + lengths[k]))
    den = 2.0 * math.sinh(0.5 * lengths[k - 1]) * math.sinh(0.5 * lengths[k])
    return num / den


def bc_magnitude_minus_one(lengths, k):
    """|b_k c_k| - 1 in a product form that avoids cancellation.

    Equals cosh(s - l_{k-1}/2) cosh(s - l_k/2)
    / (sinh(l_{k-1}/2) sinh(l_k/2)) with s = (l0+l1+l2)/4."""
    s = 0.25 * (lengths[0] + lengths[1] + lengths[2])
    num = math.cosh(s - 0.5 * lengths[k - 1]) * math.cosh(s - 0.5 * lengths[k])
    den = math.sinh(0.5 * lengths[k - 1]) * math.sinh(0.5 * lengths[k])
    return num / den


def seam_matrix(lengths, k):
    """Seam value A_k = (sqrt(f-1), -sqrt(f); sqrt(f), -sqrt(f-1)) with
    f = |b_k c_k|; it squares to minus the identity, so to the identity
    in the projective class, and satisfies the normalization a*b = c*d.
    This representative, with positive (1,1) entry, is also the one the
    determinant-one lift uses."""
    alpha = math.sqrt(bc_magnitude_minus_one(lengths, k))
    beta = math.sqrt(bc_magnitude(lengths, k))
    return Mat2(alpha, -beta, beta, -alpha, check=False)


def pants_cocycle(lengths):
    """The normalized cocycle of the pants with the given boundary
    lengths, edge id -> Mat2: arcs carry diag(exp(l_k/4), ...), seams
    carry seam_matrix.  Each k's values come in the order seam{k},
    b{k}0, b{k}1."""
    values = {}
    for k in range(3):
        arc = Mat2.diagonal(math.exp(0.25 * lengths[k]))
        values[f"seam{k}"] = seam_matrix(lengths, k)
        values[f"b{k}0"] = arc
        values[f"b{k}1"] = arc
    return values


def gauge_transform(values, gauge):
    """Conjugate every edge value by the vertex function ``gauge``:
    an edge from v0 to v1 becomes gauge(v0)^-1 @ value @ gauge(v1).
    Vertices missing from ``gauge`` are treated as the identity."""
    ident = Mat2.identity()
    return {
        edge: gauge.get(v0, ident).inv() @ values[edge] @ gauge.get(v1, ident)
        for edge, (v0, v1, _) in PANTS_EDGES.items()
    }


def _eigen_conjugator(m):
    """A determinant-one matrix whose columns are the expanding and
    contracting eigenvectors of the hyperbolic matrix ``m``."""
    if m.trace() < 0.0:
        m = -m
    t = m.trace()
    if t <= 2.0 + 1e-9:
        raise NotFuchsianError(f"boundary holonomy trace {t!r} is not hyperbolic")
    lam = 0.5 * (t + math.sqrt(t * t - 4.0))
    cols = []
    for other in (1.0 / lam, lam):
        # the columns of (m - other*I) span the complementary eigenspace
        c1 = (m.a - other, m.c)
        c2 = (m.b, m.d - other)
        col = c1 if max(abs(c1[0]), abs(c1[1])) >= max(abs(c2[0]), abs(c2[1])) else c2
        cols.append(col)
    (ux, uy), (wx, wy) = cols
    det = ux * wy - uy * wx
    if det < 0.0:
        wx, wy = -wx, -wy
        det = -det
    if det == 0.0:
        raise NotFuchsianError("eigenvectors are degenerate")
    s = 1.0 / math.sqrt(det)
    return Mat2(ux * s, wx * s, uy * s, wy * s, check=False)


def standardize(values):
    """Gauge an arbitrary pants holonomy cocycle (edge id -> Mat2) into
    the normalized form, returning ``(lengths, standard values, gauge)``
    with the recovered :class:`PantsLengths` and
    ``gauge_transform(values, gauge)`` equal to the standard values.

    Proceeds in three vertex-gauge steps: diagonalize the two boundary
    holonomies at each circle, rescale the arcs to the symmetric
    diagonal value, then rescale each circle by the fourth root of
    a*b/(c*d) of its seam so the seams become normalized."""
    ident = Mat2.identity()

    # step 1: make both arcs at each boundary diagonal
    g1 = {}
    for k in range(3):
        m0 = values[f"b{k}0"]
        m1 = values[f"b{k}1"]
        g1[f"v{k}0"] = _eigen_conjugator(m0 @ m1)
        g1[f"v{k}1"] = _eigen_conjugator(m1 @ m0)
    step1 = gauge_transform(values, g1)

    # step 2: move each arc value to diag(lambda_k^(1/2), ...)
    g2 = {}
    lengths = []
    for k in range(3):
        nu = abs(step1[f"b{k}0"].a)
        lam = nu * abs(step1[f"b{k}1"].a)
        if lam <= 1.0:
            raise NotFuchsianError(f"boundary {k} eigenvalue {lam!r} is not above 1")
        lengths.append(2.0 * math.log(lam))
        g2[f"v{k}0"] = ident
        g2[f"v{k}1"] = Mat2.diagonal(math.sqrt(lam) / nu)
    step2 = gauge_transform(step1, g2)

    # step 3: normalize the seams with one diagonal scale per boundary
    g3 = {}
    for k in range(3):
        m = step2[f"seam{k}"]
        if abs(m.c * m.d) <= 1e-14 * m.norm() ** 2:
            raise NotFuchsianError("seam value has c*d = 0")
        ratio = (m.a * m.b) / (m.c * m.d)
        if ratio <= 0.0:
            raise NotFuchsianError("seam value has a*b/(c*d) <= 0")
        t = ratio**0.25
        g3[f"v{k}0"] = Mat2.diagonal(t)
        g3[f"v{k}1"] = Mat2.diagonal(t)
    result = gauge_transform(step2, g3)

    gauge = {}
    for v in PANTS_VERTICES:
        gauge[v] = (g1[v] @ g2[v] @ g3[v]).renormalized()
    return PantsLengths(*lengths), result, gauge
