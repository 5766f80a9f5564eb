"""The normalized holonomy cocycle of a hyperbolic pair of pants.

A pair of pants carries a fixed cell structure: two vertices on each
boundary circle, two boundary arcs per circle, one seam between every
pair of circles, and two hexagonal faces.  Given the three boundary
lengths there is exactly one holonomy cocycle on this structure whose
boundary arcs are diagonal matrices diag(lambda_k^(1/2), ...) and whose
seam values satisfy a*b = c*d; this module constructs it in closed
form.

A pants cocycle is its nine values, edge id -> :class:`fnhol.mat2.Mat2`,
each a sign-free representative of its projective class.  The lengths
are a plain sequence (l0, l1, l2), each in :data:`LENGTH_RANGE`.  That
range is the one length rule of the library and the command line, and
it lives here, in the lowest module that takes a length:
:func:`_check_length` refuses any other length with a ValueError that
names it, and :mod:`fnhol.surface` and :mod:`fnhol.cli` import it.

Labels (k runs over Z/3):

* vertices ``v{k}0``, ``v{k}1`` on boundary k,
* arcs ``b{k}0``: v{k}0 -> v{k}1 and ``b{k}1``: v{k}1 -> v{k}0,
* seams ``seam{k}``: v{k}0 -> v{k-1}1,
* faces ``hex+`` (through the ``b{k}0`` arcs) and ``hex-``.
"""

import math
import sys

from .mat2 import Mat2

__all__ = [
    "LENGTH_RANGE",
    "pants_cocycle",
    "PANTS_EDGES",
    "PANTS_VERTICES",
    "PANTS_FACES",
]

# The accepted curve lengths, the one rule of the library and the command
# line (:func:`_check_length`): arcs are at most exp(12.5), and |b_k c_k| at
# most (cosh 25 + cosh 50) / (2 sinh(5e-7)^2), about 5e33, so every pants is finite
LENGTH_RANGE = (1e-6, 50.0)


def _written(n, form=str):
    """``form(n)``, ``str`` or ``repr``; for an integer with more digits than
    Python writes (:func:`sys.get_int_max_str_digits`), the power of ten it
    passes."""
    try:
        return form(n)
    except ValueError:
        bound = f"10^{sys.get_int_max_str_digits()}"
        return f"at least {bound}" if n > 0 else f"at most -{bound}"


def _check_length(length, name):
    """``length`` as a float if it lies in :data:`LENGTH_RANGE` (nan does
    not); ValueError, naming the length by ``name``, if not."""
    lo, hi = LENGTH_RANGE
    if not lo <= length <= hi:
        raise ValueError(f"{name}: {_written(length, repr)} outside [{lo}, {hi}]")
    return float(length)


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
# per boundary k: arcs b{k}0, b{k}1 and seam k
_EDGES_BY_K = tuple((f"b{k}0", f"b{k}1", f"seam{k}") for k in range(3))


def _pants_table(lengths):
    """The closed forms of one pants with boundary lengths (l0, l1, l2),
    each evaluated once, as lists indexed by boundary k: l_k as a float,
    sinh(l_k/2), the numerator n_k = cosh(l_{k+1}/2) +
    cosh((l_{k-1}+l_k)/2), f_k = |b_k c_k| = n_k / (2 sinh(l_{k-1}/2)
    sinh(l_k/2)) for the seam between boundaries k-1 and k, which always
    exceeds 1, and f_k - 1 in the product form cosh(s - l_{k-1}/2)
    cosh(s - l_k/2) / (sinh(l_{k-1}/2) sinh(l_k/2)), s = (l0+l1+l2)/4,
    which avoids cancellation.  ValueError naming the boundary for a
    length outside :data:`LENGTH_RANGE` (:func:`_check_length`)."""
    l0, l1, l2 = lengths
    l = [_check_length(l0, "length of boundary 0"), _check_length(l1, "length of boundary 1"),
         _check_length(l2, "length of boundary 2")]
    s = 0.25 * (l[0] + l[1] + l[2])
    sh, ch, cs = [], [], []
    for x in l:
        half = 0.5 * x
        sh.append(math.sinh(half))
        ch.append(math.cosh(half))
        cs.append(math.cosh(s - half))
    num, f, fm1 = [], [], []
    for k in range(3):
        num.append(ch[(k + 1) % 3] + math.cosh(0.5 * (l[k - 1] + l[k])))
        f.append(num[k] / (2.0 * sh[k - 1] * sh[k]))
        fm1.append(cs[k - 1] * cs[k] / (sh[k - 1] * sh[k]))
    return l, sh, num, f, fm1


def pants_cocycle(lengths):
    """The normalized cocycle of the pants with boundary lengths
    (l0, l1, l2), edge id -> Mat2: arcs carry diag(exp(l_k/4), ...), seams
    carry A_k = (sqrt(f-1), -sqrt(f); sqrt(f), -sqrt(f-1)) with
    f = |b_k c_k| (:func:`_pants_table`).  A_k squares to minus the
    identity, so to the identity in the projective class, and satisfies
    the normalization a*b = c*d; this representative, with positive (1,1)
    entry, is also the one the determinant-one lift uses.  Each k's
    values come in the order seam{k}, b{k}0, b{k}1.  ValueError naming the
    boundary for a length outside :data:`LENGTH_RANGE`."""
    l, _, _, f, fm1 = _pants_table(lengths)
    values = {}
    for k, (arc0, arc1, seam) in enumerate(_EDGES_BY_K):
        alpha, beta = math.sqrt(fm1[k]), math.sqrt(f[k])
        values[seam] = Mat2(alpha, -beta, beta, -alpha, check=False)
        values[arc0] = values[arc1] = Mat2.diagonal(math.exp(0.25 * l[k]))
    return values
