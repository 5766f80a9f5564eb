"""The normalized holonomy cocycle of a hyperbolic pair of pants.

A pair of pants carries a fixed cell structure: two vertices on each
boundary circle, two boundary arcs per circle, one seam between every
pair of circles, and two hexagonal faces.  Given the three boundary
lengths there is exactly one holonomy cocycle on this structure whose
boundary arcs are diagonal matrices diag(lambda_k^(1/2), ...) and whose
seam values satisfy a*b = c*d; this module constructs it in closed
form.

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
    "bc_magnitude",
    "bc_magnitude_minus_one",
    "seam_matrix",
    "pants_cocycle",
    "PANTS_EDGES",
    "PANTS_VERTICES",
    "PANTS_FACES",
]


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
