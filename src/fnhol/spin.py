"""Determinant-one lifts of the normalized cocycle and the spin
structures they classify.

A lift assigns a genuine SL2 matrix to every edge so that each face
word multiplies to +I (never -I); trace signs of lifted holonomies are
then mod-2 rotation numbers of the corresponding loops.  A lift has the
matrices of the assembled normalized cocycle up to one sign per edge,
so it is a :class:`~fnhol.surface.SurfaceCocycle` built as sign flips on
that cocycle's values: a sign vector over its base, made only by
:class:`SpinSurfaceCocycle` from boundary and crossing signs.  Negation
is exact, so every lifted product along a word is the base's product
times -1 per step along a flipped edge, bit for bit up to the signs of
zero entries.  The flip rule puts an odd number of flipped edges on
every ``hex-`` face and an even number on every other face, whatever
the signs, so every lift of a base has the same face residuals and
passes or fails the pants lift test alike.  The base therefore keeps,
once for all its lifts, one residual per face and their largest, built
and tested when its first lift is made, the negated values the lifts
hold, and the trace of each loop a lift's :func:`rot2` is asked of; no
lift walks a word for them.

On one pair of pants the boundary trace signs eps_k always satisfy
eps_0 eps_1 eps_2 = -1, and under that constraint there is at most one
lift whose seam and b{k}0 arc values have positive (1,1) entry: the
positivity rules fix every seam and b{k}0 sign to +1, the signs the
assembled cocycle stores, b{k}1 is eps_k times b{k}0, and the one
candidate is checked against both hexagon words.  That check is one
rule, applied to every pants of a surface by the first lift of a base
and by :func:`sl2_pants_cocycle`, the one-pants candidate kept as a
reference: :func:`fnhol.pants.pants_cocycle` with b{k}1 negated where
eps_k = -1.

Globally, the boundary signs form an affine system over GF(2), one
equation per pants, of rank 2g-3; Gaussian elimination gives its 2^g
solutions directly, as bit masks over the curves sorted by str.  The
free data beyond the per-pants lifts is one sign per crossing edge pair.
Gauging by the per-pants transformations (-I on all six vertices of one
pants) lets the signs on a spanning tree of the gluing graph be fixed to
+1; the remaining g signs enumerate the 2^g spin structures compatible
with a given boundary-sign assignment, masks again, from the same
doubling over the bits of the curves outside the tree.
:func:`enumerate_spin` validates the decomposition as
:func:`fnhol.surface.build_complex` does and writes both lists from
their masks, each row a copy of the row before it with the signs
changed only at the bits where the two masks differ.
"""

from .mat2 import HYPERBOLIC_MARGIN, NonHyperbolicError, _identity_distances, _max_or_nan, walk
from . import pants as pants_mod
from .surface import (SpinSignError, SurfaceCocycle, _check_crossing_signs, _check_eps,
                      _cocycle_at, _renormalized_product, _valid_tree, holonomy)

__all__ = [
    "SpinSignError",
    "SpinSurfaceCocycle",
    "sl2_pants_cocycle",
    "assemble_spin",
    "enumerate_spin",
    "rot2",
]

_FACE_TOL = 1e-8


def _check_pants_lift(seams, hexagons):
    """The lift test of one pants: every seam value has positive (1,1)
    entry, and then both hexagon products, each given as (its distance
    from +I, its norm), are +I to within 1e-8 times max(1, norm);
    AssertionError ("found 0") if not, a nan included."""
    if not (
        all(seam.a > 0.0 for seam in seams)
        and all(dist <= _FACE_TOL * max(1.0, norm) for dist, norm in hexagons)
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
    hexagons = (walk(values, word) for word in pants_mod.PANTS_FACES.values())
    _check_pants_lift(
        (values[f"seam{k}"] for k in range(3)),
        ((_identity_distances(m.a, m.b, m.c, m.d)[0], m.norm()) for m in hexagons),
    )
    return values


def _lift_residuals(base):
    """(face id -> its residual in every lift of ``base``, their largest):
    the distance from +I of the base's face product, from -I on ``hex-``
    faces.  AssertionError ("found 0") when a pants fails the lift test."""
    products = base.face_products()
    odd = {cells.hexagons[1] for cells in base.complex.pants.values()}
    # (distance from +I, from -I)[1] on the odd faces
    residuals = {fid: _identity_distances(m.a, m.b, m.c, m.d)[fid in odd]
                 for fid, m in products.items()}
    for cells in base.complex.pants.values():
        _check_pants_lift(
            (base.values[seam] for _, _, seam in cells.edges),
            ((residuals[f], products[f].norm()) for f in cells.hexagons),
        )
    return residuals, _max_or_nan(residuals.values())


class SpinSurfaceCocycle(SurfaceCocycle):
    """The determinant-one lift of the normalized cocycle ``base`` with
    boundary signs ``eps`` and crossing signs ``crossing_signs`` (curve
    id -> +-1; crossing signs default to +1 and must be +1 on the
    complex's spanning tree), at the base's point: the one way a lift is
    made.  SpinSignError naming the field unless the signs pass
    :func:`fnhol.surface._check_eps` and ``_check_crossing_signs``.

    The lift negates the base values on b{k}1 where eps_k = -1, on x0
    where s_i = +1 and on x1 where s_i eps_i = +1 (the base crossing
    value is -(0, -1/T_i; T_i, 0)), through the base's negated values.
    It keeps ``base``, so lifts at one point from one complex share it
    while one of them is held.  The first lift of a base builds
    :func:`_lift_residuals`, which the residual methods read, or raises
    its "found 0"; no residual is judged here (:func:`assemble_spin`
    judges them).  :meth:`face_products`, which nothing in the package
    asks of a lift, walks the lift's own face words."""

    __slots__ = ("base", "_flipped")

    def __init__(self, base, eps, crossing_signs=None):
        complex_ = base.complex
        eps = _check_eps(eps, {pid: cells.curves for pid, cells in complex_.pants.items()},
                         "eps")
        signs = _check_crossing_signs(crossing_signs, complex_.spec, complex_.tree,
                                      "crossing_signs")
        if base._face_table is None:
            base._face_table = _lift_residuals(base)
            base._negated = {}
            base._traces = {}
        flipped = {arc1 for cells in complex_.pants.values()
                   for c, (_, arc1, _) in zip(cells.curves, cells.edges) if eps[c] < 0}
        for cid, cells in complex_.curves.items():
            x0, x1 = cells.crossings
            if signs[cid] > 0:
                flipped.add(x0)
            if signs[cid] * eps[cid] > 0:
                flipped.add(x1)
        self.base = base
        self._flipped = flipped
        super().__init__(complex_, base.values, base.fn)
        values, negated = self.values, base._negated
        for eid in flipped:
            values[eid] = negated[eid] if eid in negated else negated.setdefault(eid, -values[eid])

    def face_residual(self, fid):
        """Distance of the face word from +I (not from -I)."""
        return self.base._face_table[0][fid]

    def max_face_residual(self):
        """The largest :meth:`face_residual`, nan if any is nan."""
        return self.base._face_table[1]


def assemble_spin(spec, fn, eps, crossing_signs=None):
    """The :class:`SpinSurfaceCocycle` with boundary signs ``eps`` and
    crossing signs ``crossing_signs`` over the base cocycle at fn, with
    the constructor's errors, and SpinSignError when its largest face
    residual is above 1e-8 or nan.

    ``spec`` is a decomposition, assembled at fn; a cell complex, which
    reuses the cocycle of the last point asked of it while that cocycle
    is in use and has fn's lengths and twists, so lifts at one point
    from one complex share one base as long as one of them is held; or
    a cocycle at fn, which is then the base and is not assembled again
    (a cocycle at another point raises ValueError)."""
    out = SpinSurfaceCocycle(_cocycle_at(spec, fn), eps, crossing_signs)
    residual = out.max_face_residual()
    if not residual <= _FACE_TOL:
        raise SpinSignError(f"face word failed to lift to +I (residual {residual:g})")
    return out


def _doubled(masks, flips):
    """``masks`` doubled once per flip, in order: each mask x followed by
    x ^ flip, so the first flip varies slowest, as the first factor of
    itertools.product does."""
    for flip in flips:
        masks = [y for x in masks for y in (x, x ^ flip)]
    return masks


def _sign_rows(curve_ids, masks):
    """One dict over ``curve_ids`` per mask (bit i for curve_ids[i]), -1
    at its set bits and +1 elsewhere: each row a copy of the row before it
    with the signs negated at the bits where the two masks differ."""
    rows, row, prev = [], dict.fromkeys(curve_ids, 1), 0
    for x in masks:
        row = row.copy()
        diff = x ^ prev
        while diff:
            i = diff.bit_length() - 1
            row[curve_ids[i]] = -row[curve_ids[i]]
            diff ^= 1 << i
        rows.append(row)
        prev = x
    return rows


def _solve_pants_signs(curve_ids, spec):
    """The mask of every eps: curve id -> +-1 that multiplies to -1
    around every pants of ``spec``, in the order of
    itertools.product((1, -1), ...) over ``curve_ids``.

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
    flips = []
    for i in range(len(curve_ids)):
        if i not in pivots:
            flip = 1 << i
            for p, (row, _) in pivots.items():
                flip |= (row >> i & 1) << p
            flips.append(flip)
    return _doubled([sum(rhs << p for p, (_, rhs) in pivots.items())], flips)


def enumerate_spin(spec):
    """All boundary-sign assignments of the decomposition ``spec`` (a
    :class:`~fnhol.surface.SurfaceSpec`; it needs no cell complex)
    satisfying every pants constraint, and the crossing-sign classes
    (one per choice of sign on the g curves outside the spanning tree;
    tree curves are held at +1).  ValueError ("invalid surface: ...",
    as :func:`fnhol.surface.build_complex` raises it) unless ``spec`` is
    a valid decomposition.

    Returns (eps assignments, crossing-sign classes), each a list of
    distinct dicts over the curve ids sorted by str, in itertools.product
    order of the signs (1, -1).  Every pair combines into a valid lift,
    so there are len(eps) * 2^g lifts in normal form."""
    tree = set(_valid_tree(spec))
    curve_ids = sorted((c.id for c in spec.curves), key=str)
    classes = _doubled([0], [1 << i for i, c in enumerate(curve_ids) if c not in tree])
    return (_sign_rows(curve_ids, _solve_pants_signs(curve_ids, spec)),
            _sign_rows(curve_ids, classes))


def rot2(spin_cocycle, loop):
    """Mod-2 rotation number of a loop with hyperbolic holonomy:
    0 when the lifted trace is positive, 1 when negative.

    ``loop`` is a sequence of (edge id, +1/-1) steps, tuples or lists,
    as :func:`fnhol.surface.holonomy` takes it.  The trace of
    ``holonomy(base, loop)`` is taken once per base and word and kept
    with the base, keyed by the tuple of the loop's steps, from the base's
    ``loop_product`` for a boundary loop; the lift's trace is that times
    -1 per step of the loop along a flipped edge, which is the trace of
    ``holonomy(spin_cocycle, loop)``."""
    base, flipped = spin_cocycle.base, spin_cocycle._flipped
    word = tuple(loop)
    traces = base._traces
    try:
        tr = traces.get(word)
    except TypeError:
        # a step that cannot be hashed, such as a list: key it as a tuple
        word = tuple(map(tuple, word))
        tr = traces.get(word)
    if tr is None:
        product = base.loop_product(word)
        tr = traces[word] = (holonomy(base, word) if product is None
                             else _renormalized_product(product)).trace()
    for eid, _ in word:
        if eid in flipped:
            tr = -tr
    if abs(tr) <= 2.0 + HYPERBOLIC_MARGIN:
        raise NonHyperbolicError(f"loop holonomy trace {tr!r} is not hyperbolic")
    return 0 if tr > 0.0 else 1
