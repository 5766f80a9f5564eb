"""Determinant-one lifts of the normalized cocycle and the spin
structures they classify.

A lift assigns a genuine SL2 matrix to every edge so that each face
word multiplies to +I (never -I); trace signs of lifted holonomies are
then mod-2 rotation numbers of the corresponding loops, read off
:func:`fnhol.surface.holonomy` like any other word.  A lift has the
matrices of the assembled normalized cocycle up to one sign per edge,
so it is a :class:`~fnhol.surface.SurfaceCocycle` built as sign flips on
that cocycle's values.  Negation is exact, so each lifted face product
is the cocycle's own face product, walked once and shared by the
cocycle and all its lifts, times -1 per flipped edge on the face.

On one pair of pants the boundary trace signs eps_k always satisfy
eps_0 eps_1 eps_2 = -1, and under that constraint there is at most one
lift whose seam and b{k}0 arc values have positive (1,1) entry: the
positivity rules fix every seam and b{k}0 sign to +1, the signs the
assembled cocycle stores, b{k}1 is eps_k times b{k}0, and the one
candidate is checked against both hexagon words.  That check is one
rule, applied by :func:`assemble_spin` to every pants of a surface and
by :func:`sl2_pants_cocycle`, the one-pants candidate kept as a
reference: :func:`fnhol.pants.pants_cocycle` with b{k}1 negated where
eps_k = -1.

Globally, the boundary signs form an affine system over GF(2), one
equation per pants, of rank 2g-3; Gaussian elimination gives its 2^g
solutions directly.  The free data beyond the per-pants lifts is one
sign per crossing edge pair.  Gauging by the per-pants transformations
(-I on all six vertices of one pants) lets the signs on a spanning tree
of the gluing graph be fixed to +1; the remaining g signs enumerate the
2^g spin structures compatible with a given boundary-sign assignment.
"""

import itertools

from .mat2 import HYPERBOLIC_MARGIN, Mat2, NonHyperbolicError, walk
from . import pants as pants_mod
from .surface import (CellComplex, SpinSignError, SurfaceCocycle, _check_crossing_signs,
                      _check_eps, _cocycle_at, holonomy, spanning_tree_curves)

__all__ = [
    "SpinSignError",
    "SpinSurfaceCocycle",
    "sl2_pants_cocycle",
    "assemble_spin",
    "enumerate_spin",
    "rot2",
]

_FACE_TOL = 1e-8


def _check_pants_lift(seams, hexagon_products):
    """The lift test of one pants: every seam value has positive (1,1)
    entry, and then both hexagon products are +I; AssertionError
    ("found 0") if not."""
    if not (
        all(seam.a > 0.0 for seam in seams)
        and all(m.close_to(Mat2.identity(), _FACE_TOL) for m in hexagon_products)
    ):
        raise AssertionError("expected a unique sign assignment, found 0")


def sl2_pants_cocycle(lengths, signs):
    """The unique determinant-one lift of the normalized pants cocycle
    with the given boundary trace signs (eps_0, eps_1, eps_2), which pass
    :func:`fnhol.surface._check_eps` as curves 0, 1, 2 of one pants.

    Returns edge id -> Mat2: :func:`fnhol.pants.pants_cocycle` with
    b{k}1 negated where eps_k = -1.  Both hexagon words evaluate to +I;
    the seams and the b{k}0 arcs have positive (1,1) entry, and each
    boundary holonomy b{k}0 b{k}1 has trace of sign eps_k.
    AssertionError ("found 0") when that candidate fails the lift test,
    as happens for very short boundaries."""
    eps = _check_eps(dict(enumerate(signs)), {0: (0, 1, 2)}, "eps")
    values = pants_mod.pants_cocycle(lengths)
    for k, e in eps.items():
        if e < 0:
            values[f"b{k}1"] = -values[f"b{k}1"]
    _check_pants_lift(
        (values[f"seam{k}"] for k in range(3)),
        (walk(values, word) for word in pants_mod.PANTS_FACES.values()),
    )
    return values


class SpinSurfaceCocycle(SurfaceCocycle):
    """A determinant-one cocycle lifting the normalized cocycle ``base``,
    at the base's point: the base values, negated on the edges in
    ``flipped``.  It keeps ``base``, so while a lift is in use, a lift
    at the same point from the same complex reuses its base.

    Negation is exact, so the product along a face word is the base's
    face product times -1 per flipped edge on the face, up to the signs
    of zero entries; :meth:`face_products` holds these, read off the
    base without walking a word."""

    __slots__ = ("base",)

    def __init__(self, base, flipped):
        self.base = base
        flipped = frozenset(flipped)
        super().__init__(
            base.complex,
            {eid: -m if eid in flipped else m for eid, m in base.values.items()},
            base.fn,
        )
        faces = self.complex.faces
        self._face_products = {}
        for fid, m in base.face_products().items():
            odd = False
            for eid, _ in faces[fid]:
                odd ^= eid in flipped
            self._face_products[fid] = -m if odd else m

    def face_residual(self, fid):
        """Distance of the face word from +I (not from -I)."""
        return self.face_products()[fid].dist(Mat2.identity())


def assemble_spin(spec, fn, eps, crossing_signs=None):
    """Assemble the determinant-one cocycle with boundary signs ``eps``
    (curve id -> +-1) and crossing-edge signs (curve id -> +-1,
    defaulting to +1, required to be +1 on the spanning tree), checked by
    the command line's rules (:func:`fnhol.surface._check_eps` and
    ``_check_crossing_signs``; SpinSignError naming the field).

    ``spec`` is a decomposition, assembled at fn; a cell complex, which
    reuses the cocycle of the last point asked of it while that cocycle
    is in use and has fn's lengths and twists, so lifts at one point
    from one complex share one base as long as one of them is held; or
    a cocycle at fn, which is then the base and is not assembled again
    (a cocycle at another point raises ValueError).
    The lift negates the base values on b{k}1 where eps_k = -1, on x0
    where s_i = +1 and on x1 where s_i eps_i = +1: the base crossing
    value is -(0, -1/T_i; T_i, 0), and the lift's are
    s_i (0, -1/T_i; T_i, 0) on side 0 and eps_i times that on side 1.
    AssertionError ("found 0"), as from :func:`sl2_pants_cocycle`, when
    a pants has no lift, as happens for very short boundaries, and
    SpinSignError when the largest face residual of the lift is above
    1e-8 or nan."""
    base = _cocycle_at(spec, fn)
    pants = {pid: cells.curves for pid, cells in base.complex.pants.items()}
    out = _lift(base, _check_eps(eps, pants, "eps"),
                _check_crossing_signs(crossing_signs, base.complex.spec, "crossing_signs"))
    residual = out.max_face_residual()
    if not residual <= _FACE_TOL:
        raise SpinSignError(f"face word failed to lift to +I (residual {residual:g})")
    return out


def _lift(base, eps, crossing_signs):
    """The lift of :func:`assemble_spin` over ``base`` for checked sign
    data (a crossing sign on every curve), checked pants by pants but
    not for its face residuals; the command line reports those against
    its own tolerance."""
    complex_ = base.complex
    flipped = [
        arc1
        for cells in complex_.pants.values()
        for c, (_, arc1, _) in zip(cells.curves, cells.edges)
        if eps[c] < 0
    ]
    for cid, cells in complex_.curves.items():
        x0, x1 = cells.crossings
        if crossing_signs[cid] > 0:
            flipped.append(x0)
        if crossing_signs[cid] * eps[cid] > 0:
            flipped.append(x1)
    out = SpinSurfaceCocycle(base, flipped)
    products = out.face_products()
    for cells in complex_.pants.values():
        _check_pants_lift(
            (base.values[seam] for _, _, seam in cells.edges),
            (products[f] for f in cells.hexagons),
        )
    return out


def _solve_pants_signs(curve_ids, spec):
    """Every eps: curve id -> +-1 that multiplies to -1 around every
    pants of ``spec``, in the order of itertools.product((1, -1), ...)
    over ``curve_ids``.

    Over GF(2), with bit i of a mask standing for curve_ids[i] and a set
    bit for -1, each pants gives the equation (row . x) = 1, where a
    curve glued to the pants twice cancels out of its row.  Rows are
    reduced with each pivot at the highest index in its row, so a pivot
    depends only on lower-index free variables; two solutions then first
    differ at a free variable, and doubling the list over the free
    variables, lowest index first, keeps the product order."""
    bit = {cid: 1 << i for i, cid in enumerate(curve_ids)}
    rows = dict.fromkeys(spec.pants, 0)
    for c in spec.curves:
        rows[c.left[0]] ^= bit[c.id]
        rows[c.right[0]] ^= bit[c.id]
    pivots = {}  # pivot index -> [row mask, right-hand side]
    for row in rows.values():
        rhs = 1
        for p, (prow, prhs) in pivots.items():
            if row >> p & 1:
                row ^= prow
                rhs ^= prhs
        if not row:
            # every row has odd weight, so only an even number of rows
            # can sum to zero and their right-hand sides cancel: the
            # system is always consistent
            continue
        p = row.bit_length() - 1
        for entry in pivots.values():
            if entry[0] >> p & 1:
                entry[0] ^= row
                entry[1] ^= rhs
        pivots[p] = [row, rhs]

    # setting free variable i flips x_i and every pivot whose row holds i
    masks = [sum(rhs << p for p, (_, rhs) in pivots.items())]
    for i in range(len(curve_ids)):
        if i not in pivots:
            flip = 1 << i
            for p, (row, _) in pivots.items():
                flip |= (row >> i & 1) << p
            masks = [y for x in masks for y in (x, x ^ flip)]
    return [
        {cid: -1 if x >> i & 1 else 1 for i, cid in enumerate(curve_ids)}
        for x in masks
    ]


def enumerate_spin(spec):
    """All boundary-sign assignments satisfying every pants constraint,
    and the crossing-sign classes (one per choice of sign on the g
    curves outside the spanning tree; tree curves are held at +1).

    Returns (eps assignments, crossing-sign classes), each a list of
    dicts over the curve ids sorted by str, in itertools.product order
    of the signs (1, -1).  Every pair combines into a valid lift, so
    there are len(eps) * 2^g lifts in normal form."""
    if isinstance(spec, CellComplex):
        spec = spec.spec
    curve_ids = sorted((c.id for c in spec.curves), key=str)
    eps_assignments = _solve_pants_signs(curve_ids, spec)

    tree = set(spanning_tree_curves(spec))
    free = [c for c in curve_ids if c not in tree]
    classes = []
    for combo in itertools.product((1, -1), repeat=len(free)):
        signs = {c: 1 for c in curve_ids}
        signs.update(dict(zip(free, combo)))
        classes.append(signs)
    return eps_assignments, classes


def rot2(spin_cocycle, loop):
    """Mod-2 rotation number of a loop with hyperbolic holonomy:
    0 when the lifted trace is positive, 1 when negative."""
    tr = holonomy(spin_cocycle, loop).trace()
    if abs(tr) <= 2.0 + HYPERBOLIC_MARGIN:
        raise NonHyperbolicError(f"loop holonomy trace {tr!r} is not hyperbolic")
    return 0 if tr > 0.0 else 1
