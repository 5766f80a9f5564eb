"""Determinant-one lifts of the normalized cocycle and the spin
structures they classify.

A lift assigns a genuine SL2 matrix to every edge so that each face
word multiplies to +I (never -I); trace signs of lifted holonomies are
then mod-2 rotation numbers of the corresponding loops.  A lift has the
matrices of the assembled normalized cocycle up to one sign per edge,
so it is built as sign flips on that cocycle's values.  Negation is
exact, so each lifted face product is the cocycle's own face product,
walked once and shared by the cocycle and all its lifts, times -1 per
flipped edge on the face.

On one pair of pants the boundary trace signs eps_k always satisfy
eps_0 eps_1 eps_2 = -1, and under that constraint there is at most one
lift whose seam and b{k}0 arc values have positive (1,1) entry: the
positivity rules fix every seam and b{k}0 sign to +1, the signs the
assembled cocycle stores, b{k}1 is eps_k times b{k}0, and the one
candidate is checked against both hexagon words.
:func:`sl2_pants_cocycle` builds that candidate for one pants on its
own, as a reference.

Globally, the boundary signs form an affine system over GF(2), one
equation per pants, of rank 2g-3; Gaussian elimination gives its 2^g
solutions directly.  The free data beyond the per-pants lifts is one
sign per crossing edge pair.  Gauging by the per-pants transformations
(-I on all six vertices of one pants) lets the signs on a spanning tree
of the gluing graph be fixed to +1; the remaining g signs enumerate the
2^g spin structures compatible with a given boundary-sign assignment.
"""

import itertools
import math

from .mat2 import Mat2, NonHyperbolicError, _max_or_nan, walk
from . import pants as pants_mod
from .surface import (
    CellComplex,
    SurfaceCocycle,
    assemble_cocycle,
    check_word,
)

__all__ = [
    "SpinSignError",
    "BoundarySigns",
    "SpinSurfaceCocycle",
    "sl2_pants_cocycle",
    "assemble_spin",
    "enumerate_spin",
    "spanning_tree_curves",
    "apply_pants_gauge",
    "rot2",
    "sl2_holonomy",
]

_FACE_TOL = 1e-8


class SpinSignError(ValueError):
    """Sign data violates the per-pants constraint or the tree-curve
    normalization."""


class BoundarySigns:
    """Signs of the three boundary eigenvalues of one pants; their
    product must be -1."""

    __slots__ = ("eps",)

    def __init__(self, e0, e1, e2):
        self.eps = (int(e0), int(e1), int(e2))
        if any(e not in (-1, 1) for e in self.eps):
            raise SpinSignError(f"signs must be +-1, got {self.eps}")
        if self.eps[0] * self.eps[1] * self.eps[2] != -1:
            raise SpinSignError(f"boundary signs {self.eps} must multiply to -1")

    def __getitem__(self, k):
        return self.eps[k % 3]

    def __repr__(self):
        return f"BoundarySigns{self.eps!r}"


def _is_plus_identity(m, tol=_FACE_TOL):
    return m.dist(Mat2.identity()) <= tol * max(1.0, m.norm())


def sl2_pants_cocycle(lengths, signs):
    """The unique determinant-one lift of the normalized pants cocycle
    with the given boundary trace signs.

    Returns edge id -> Mat2.  Both hexagon words evaluate to +I; the
    seams and the b{k}0 arcs have positive (1,1) entry, and each
    boundary holonomy b{k}0 b{k}1 has trace of sign eps_k.  Positivity
    leaves one candidate: seam_matrix and diag(exp(l_k/4)) unsigned,
    with b{k}1 = eps_k b{k}0.  AssertionError ("found 0") when that
    candidate fails a hexagon word or has a seam with (1,1) entry not
    positive, as happens for very short boundaries."""
    if not isinstance(signs, BoundarySigns):
        signs = BoundarySigns(*signs)
    seams = [pants_mod.seam_matrix(lengths, k) for k in range(3)]
    arcs = [Mat2.diagonal(math.exp(0.25 * lengths[k])) for k in range(3)]

    values = {}
    for k in range(3):
        values[f"seam{k}"] = seams[k]
        values[f"b{k}0"] = arcs[k]
        values[f"b{k}1"] = arcs[k] if signs[k] > 0 else -arcs[k]
    if not (
        all(seam.a > 0.0 for seam in seams)
        and _is_plus_identity(walk(values, pants_mod.PANTS_FACES["hex+"]))
        and _is_plus_identity(walk(values, pants_mod.PANTS_FACES["hex-"]))
    ):
        raise AssertionError("expected a unique sign assignment, found 0")
    return values


def spanning_tree_curves(spec):
    """Curve ids of a spanning tree of the pants gluing multigraph,
    chosen greedily over curves sorted by id (union-find)."""
    parent = {p: p for p in spec.pants}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for c in sorted(spec.curves, key=lambda c: str(c.id)):
        a, b = find(c.left[0]), find(c.right[0])
        if a != b:
            parent[a] = b
            tree.append(c.id)
    return tuple(tree)


class SpinSurfaceCocycle:
    """A determinant-one cocycle (edge id -> Mat2) lifting the
    normalized cocycle ``base``, with its classifying sign data.

    ``values`` are the base values, negated on the edges in ``flipped``.
    Negation is exact, so the product along a face word is the base's
    face product times -1 per flipped edge on the face, up to the signs
    of zero entries; ``face_products`` (face id -> Mat2) holds these,
    read off the base without walking a word.  ``max_residual`` is
    :meth:`max_face_residual`, evaluated once when the cocycle is made."""

    __slots__ = ("complex", "values", "flipped", "eps", "crossing_signs",
                 "face_products", "max_residual")

    def __init__(self, base, flipped, eps, crossing_signs):
        self.complex = base.complex
        self.flipped = flipped = frozenset(flipped)
        self.values = dict(base.values)
        for eid in flipped:
            self.values[eid] = -self.values[eid]
        self.eps = dict(eps)
        self.crossing_signs = dict(crossing_signs)
        faces = self.complex.faces
        self.face_products = {}
        for fid, m in base.face_products().items():
            odd = False
            for eid, _ in faces[fid].cycle:
                odd ^= eid in flipped
            self.face_products[fid] = -m if odd else m
        self.max_residual = self.max_face_residual()

    def face_residual(self, fid):
        """Distance of the face word from +I (not from -I)."""
        return self.face_products[fid].dist(Mat2.identity())

    def max_face_residual(self):
        return _max_or_nan(self.face_residual(f) for f in self.complex.faces)


def _pants_sign_constraint(pants_sides, eps):
    """Check eps: curve id -> +-1 multiplies to -1 around every pants
    (a curve glued to one pants twice contributes +1); ``pants_sides``
    maps pants id -> the curves at its boundaries 0, 1, 2."""
    return all(
        eps[c0] * eps[c1] * eps[c2] == -1 for c0, c1, c2 in pants_sides.values()
    )


def assemble_spin(spec, fn, eps, crossing_signs=None):
    """Assemble the determinant-one cocycle with boundary signs ``eps``
    (curve id -> +-1) and crossing-edge signs (curve id -> +-1,
    defaulting to +1, required to be +1 on the spanning tree).

    ``spec`` is a decomposition, its cell complex, or the cocycle that
    ``assemble_cocycle`` returns at fn, which is then the base and is not
    assembled again.  The lift negates the base values on b{k}1 where
    eps_k = -1, on x0 where s_i = +1 and on x1 where s_i eps_i = +1: the
    base crossing value is -(0, -1/T_i; T_i, 0), and the lift's are
    s_i (0, -1/T_i; T_i, 0) on side 0 and eps_i times that on side 1.
    AssertionError ("found 0"), as from :func:`sl2_pants_cocycle`, when
    a pants has no lift, as happens for very short boundaries."""
    base = spec if isinstance(spec, SurfaceCocycle) else assemble_cocycle(spec, fn)
    complex_ = base.complex
    spec = complex_.spec
    eps = {c.id: int(eps[c.id]) for c in spec.curves}
    if any(e not in (-1, 1) for e in eps.values()):
        raise SpinSignError("boundary signs must be +-1")
    if not _pants_sign_constraint(complex_.pants_lengths_order, eps):
        raise SpinSignError(
            "boundary signs must multiply to -1 around every pants"
        )
    crossing_signs = {
        c.id: int(crossing_signs.get(c.id, 1)) if crossing_signs else 1
        for c in spec.curves
    }
    if any(s not in (-1, 1) for s in crossing_signs.values()):
        raise SpinSignError("crossing signs must be +-1")
    for cid in spanning_tree_curves(spec):
        if crossing_signs[cid] != 1:
            raise SpinSignError(f"crossing sign on tree curve {cid} must be +1")

    flipped = [
        f"p{pid}.b{k}1"
        for pid, sides in complex_.pants_lengths_order.items()
        for k in range(3)
        if eps[sides[k]] < 0
    ]
    for c in spec.curves:
        if crossing_signs[c.id] > 0:
            flipped.append(f"c{c.id}.x0")
        if crossing_signs[c.id] * eps[c.id] > 0:
            flipped.append(f"c{c.id}.x1")
    out = SpinSurfaceCocycle(base, flipped, eps, crossing_signs)
    for pid in spec.pants:
        if not (
            all(base.values[f"p{pid}.seam{k}"].a > 0.0 for k in range(3))
            and all(_is_plus_identity(out.face_products[f])
                    for f in complex_.hexagons_of_pants(pid))
        ):
            raise AssertionError("expected a unique sign assignment, found 0")
    if out.max_residual > _FACE_TOL:
        raise SpinSignError(
            f"face word failed to lift to +I (residual {out.max_residual:g})"
        )
    return out


def _solve_pants_signs(curve_ids, pants_sides):
    """Every eps: curve id -> +-1 that multiplies to -1 around every
    pants, in the order of itertools.product((1, -1), ...) over
    ``curve_ids``.

    Over GF(2), with bit i of a mask standing for curve_ids[i] and a set
    bit for -1, each pants gives the equation (row . x) = 1, where a
    curve glued to the pants twice cancels out of its row.  Rows are
    reduced with each pivot at the highest index in its row, so a pivot
    depends only on lower-index free variables; two solutions then first
    differ at a free variable, and doubling the list over the free
    variables, lowest index first, keeps the product order."""
    bit = {cid: 1 << i for i, cid in enumerate(curve_ids)}
    pivots = {}  # pivot index -> [row mask, right-hand side]
    for c0, c1, c2 in pants_sides.values():
        row, rhs = bit[c0] ^ bit[c1] ^ bit[c2], 1
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
    eps_assignments = _solve_pants_signs(curve_ids, spec.pants_sides())

    tree = set(spanning_tree_curves(spec))
    free = [c for c in curve_ids if c not in tree]
    classes = []
    for combo in itertools.product((1, -1), repeat=len(free)):
        signs = {c: 1 for c in curve_ids}
        signs.update(dict(zip(free, combo)))
        classes.append(signs)
    return eps_assignments, classes


def apply_pants_gauge(spec, pid, crossing_signs):
    """Crossing signs after gauging by -I on all vertices of one pants:
    curves meeting the pants once flip, a curve glued to it twice is
    fixed."""
    if isinstance(spec, CellComplex):
        spec = spec.spec
    out = dict(crossing_signs)
    for c in spec.curves:
        touches = (c.left[0] == pid) + (c.right[0] == pid)
        if touches == 1:
            out[c.id] = -out[c.id]
    return out


def sl2_holonomy(spin_cocycle, word):
    """Product of the determinant-one edge values along a composable
    word of (edge id, +-1), renormalized."""
    check_word(spin_cocycle.complex, word)
    return walk(spin_cocycle.values, word).renormalized()


def rot2(spin_cocycle, loop):
    """Mod-2 rotation number of a loop with hyperbolic holonomy:
    0 when the lifted trace is positive, 1 when negative."""
    tr = sl2_holonomy(spin_cocycle, loop).trace()
    if abs(tr) <= 2.0 + 1e-12:
        raise NonHyperbolicError(f"loop holonomy trace {tr!r} is not hyperbolic")
    return 0 if tr > 0.0 else 1
