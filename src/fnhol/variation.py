"""First variations of the assembled holonomy cocycle.

A tangent direction (dl_i, dtau_i) of the coordinates deforms the
cocycle rho; the logarithmic derivative z(e) = rho'(e) rho(e)^-1 is a
traceless matrix attached to the start vertex of each edge, and
satisfies the twisted cocycle condition

    sum_i Ad(rho(e_1 ... e_{i-1})) z(e_i) = 0

around every face, with z(e^-1) = -Ad(rho(e))^-1 z(e) on reversed
edges.  The closed forms are:

* boundary arcs:     (1/4) diag(1,-1) dl,
* crossing edges:    (1/2) diag(1,-1) dtau,
* seams:  (1/2) sqrt(f/(f-1)) (0 1; 1 0) dlog f  with f = |b_k c_k|.

The seam coefficient is the derivative of the closed-form seam matrix;
a central-difference evaluation of the same logarithmic derivative is
provided as an independent check.
"""

import math

from .mat2 import Mat2, TracelessMat2, _max_or_nan, ad_action
from .pants import bc_magnitude, bc_magnitude_minus_one
from .surface import (
    CellComplex,
    SurfaceCocycle,
    assemble_cocycle,
    build_complex,
    pants_boundary_lengths,
)

__all__ = [
    "TangentVector",
    "VariationCocycle",
    "grad_log_bc",
    "variation_cocycle",
    "fd_variation",
    "coboundary",
    "check_cocycle_condition",
    "SignLiftError",
]


class SignLiftError(ValueError):
    """Representatives of nearby projective classes could not be aligned
    by continuity."""


class TangentVector:
    """A tangent direction of the coordinates: dl and dtau per curve.

    Curves absent from either dict contribute zero."""

    __slots__ = ("dl", "dtau")

    def __init__(self, dl=None, dtau=None):
        self.dl = dict(dl or {})
        self.dtau = dict(dtau or {})

    def combined(self, other, s, t):
        """s * self + t * other."""
        keys = set(self.dl) | set(other.dl)
        dl = {c: s * self.dl.get(c, 0.0) + t * other.dl.get(c, 0.0) for c in keys}
        keys = set(self.dtau) | set(other.dtau)
        dtau = {c: s * self.dtau.get(c, 0.0) + t * other.dtau.get(c, 0.0) for c in keys}
        return TangentVector(dl, dtau)

    def __repr__(self):
        return f"TangentVector({self.dl!r}, {self.dtau!r})"


class VariationCocycle:
    """Traceless values (edge id -> TracelessMat2) over a base cocycle.

    An edge missing from ``values`` carries zero."""

    __slots__ = ("base", "values")

    def __init__(self, base, values):
        self.base = base
        self.values = dict(values)

    def value(self, eid, sign=1):
        """z on the edge, or on its reversal via
        z(e^-1) = -Ad(rho(e))^-1 z(e)."""
        z = self.values.get(eid)
        if z is None:
            return TracelessMat2.zero()
        if sign > 0:
            return z
        return -ad_action(self.base.values[eid].inv(), z)

    def combined(self, other, s, t):
        zero = TracelessMat2.zero()
        values = {
            e: self.values.get(e, zero).scale(s) + other.values.get(e, zero).scale(t)
            for e in {**self.values, **other.values}
        }
        return VariationCocycle(self.base, values)


def grad_log_bc(lengths, k):
    """Gradient of log |b_k c_k| with respect to (l0, l1, l2)."""
    num = math.cosh(0.5 * lengths[k + 1]) + math.cosh(0.5 * (lengths[k - 1] + lengths[k]))
    cross = math.sinh(0.5 * (lengths[k - 1] + lengths[k])) / (2.0 * num)
    grad = [0.0, 0.0, 0.0]
    grad[(k + 1) % 3] = math.sinh(0.5 * lengths[k + 1]) / (2.0 * num)
    grad[k % 3] = cross - 0.5 / math.tanh(0.5 * lengths[k])
    grad[(k - 1) % 3] = cross - 0.5 / math.tanh(0.5 * lengths[k - 1])
    return tuple(grad)


def seam_variation_coefficient(lengths, k):
    """The off-diagonal factor (1/2) sqrt(f/(f-1)) of the seam value's
    logarithmic derivative."""
    f = bc_magnitude(lengths, k)
    return 0.5 * math.sqrt(f / bc_magnitude_minus_one(lengths, k))


def variation_cocycle(spec, fn, tangent):
    """Closed-form variation cocycle of the tangent direction at fn.

    ``spec`` is a decomposition, its cell complex, or the cocycle
    assembled at fn; a cocycle is reused as the base, so variations
    that share it assemble it, and evaluate its seam data, once.  The
    values sit on the edges where the direction acts: the arcs and seams
    of each pants with a curve in ``tangent.dl``, and the crossings of
    each curve in ``tangent.dtau``."""
    base = spec if isinstance(spec, SurfaceCocycle) else assemble_cocycle(spec, fn)
    return VariationCocycle(base, _variation_values(base, fn, tangent))


def _seam_data(base, fn):
    """Per pants: its curves at boundaries 0, 1, 2 and, for each k, the
    edge ids of boundary arc k and seam k with grad log |b_k c_k| and the
    seam coefficient at fn, the point the base was assembled at.  With
    it, per curve: the positions of its pants in that list (one for a
    self-glued curve) and the ids of its two crossings.  Evaluated once
    per base cocycle, when the first variation over it is taken."""
    if base._seam_data is None:
        complex_ = base.complex
        data = []
        for pid in complex_.spec.pants:
            lengths = pants_boundary_lengths(complex_, fn, pid)
            data.append((
                complex_.pants_lengths_order[pid],
                tuple(
                    (f"p{pid}.b{k}0", f"p{pid}.b{k}1", f"p{pid}.seam{k}",
                     grad_log_bc(lengths, k), seam_variation_coefficient(lengths, k))
                    for k in range(3)
                ),
            ))
        at = {pid: i for i, pid in enumerate(complex_.spec.pants)}
        curves = complex_.spec.curves
        pants_of = {c.id: {at[c.left[0]], at[c.right[0]]} for c in curves}
        crossings_of = {c.id: (f"c{c.id}.x0", f"c{c.id}.x1") for c in curves}
        base._seam_data = (data, pants_of, crossings_of)
    return base._seam_data


def _variation_values(base, fn, tangent):
    """The closed-form values (edge id -> TracelessMat2) of the tangent
    direction at fn, on the edges where it acts.  Only the curves of the
    tangent are visited; those not in the complex are ignored."""
    data, pants_of, crossings_of = _seam_data(base, fn)
    values = {}
    dl_of = tangent.dl
    for i in {i for c in dl_of for i in pants_of.get(c, ())}:
        curves, seams = data[i]
        dl = tuple(dl_of.get(c, 0.0) for c in curves)
        for k, (arc0, arc1, seam, grad, coef) in enumerate(seams):
            arc = TracelessMat2.diag(0.25 * dl[k])
            values[arc0] = arc
            values[arc1] = arc
            dlogf = grad[0] * dl[0] + grad[1] * dl[1] + grad[2] * dl[2]
            values[seam] = TracelessMat2.offdiag(coef * dlogf)
    for c, dtau in tangent.dtau.items():
        crossings = crossings_of.get(c)
        if crossings is not None:
            cross = TracelessMat2.diag(0.5 * dtau)
            values[crossings[0]] = cross
            values[crossings[1]] = cross
    return values


def _aligned_rep(target, base_rep):
    """The sign of ``target`` nearest to ``base_rep``."""
    d_plus = target.dist(base_rep)
    d_minus = (-target).dist(base_rep)
    best = target if d_plus <= d_minus else -target
    if min(d_plus, d_minus) > 0.25 * max(1.0, base_rep.norm()):
        raise SignLiftError("projective representatives are too far apart to align")
    return best


def fd_variation(spec, fn, tangent, h=1e-5):
    """Central-difference variation cocycle:
    (rho_{+h}(e) rho(e)^-1 - rho_{-h}(e) rho(e)^-1) / (2h), with the
    sign lifts of the displaced cocycles aligned edge by edge to the
    base representative, projected onto the traceless part."""
    complex_ = spec if isinstance(spec, CellComplex) else build_complex(spec)
    base = assemble_cocycle(complex_, fn)
    plus = assemble_cocycle(complex_, fn.shifted(tangent, h))
    minus = assemble_cocycle(complex_, fn.shifted(tangent, -h))
    values = {}
    for eid in complex_.edges:
        rep = base.values[eid]
        p = _aligned_rep(plus.values[eid], rep)
        m = _aligned_rep(minus.values[eid], rep)
        diff = Mat2(
            (p.a - m.a) / (2.0 * h),
            (p.b - m.b) / (2.0 * h),
            (p.c - m.c) / (2.0 * h),
            (p.d - m.d) / (2.0 * h),
            check=False,
        )
        z = diff @ rep.inv()
        values[eid] = TracelessMat2.from_entries(*z.entries())
    return VariationCocycle(base, values)


def coboundary(cocycle, vertex_cochain):
    """The variation cocycle of an infinitesimal gauge move:
    (dw)(e) = Ad(rho(e)) w(v1) - w(v0) for an edge from v0 to v1.
    Vertices missing from ``vertex_cochain`` count as zero."""
    zero = TracelessMat2.zero()
    values = {}
    for eid, edge in cocycle.complex.edges.items():
        w0 = vertex_cochain.get(edge.start, zero)
        w1 = vertex_cochain.get(edge.end, zero)
        values[eid] = ad_action(cocycle.values[eid], w1) - w0
    return VariationCocycle(cocycle, values)


def check_cocycle_condition(cocycle, variation):
    """Largest face residual of the twisted cocycle condition, nan if
    any entry of a face sum is nan.

    Each face is summed along the rotation of its cycle that the
    cocycle's face walk chose, with that walk's prefix products as the
    transports.  Where the face word closes up, the sum from another
    rotation is this one moved by Ad of a prefix product, so the two
    vanish together."""
    entries = []
    for fid, face in cocycle.complex.faces.items():
        prefixes = []
        start, _ = cocycle.face_walk(fid, prefixes)
        rotated = face.cycle[start:] + face.cycle[:start]
        total = variation.value(*rotated[0])
        for step, prefix in zip(rotated[1:], prefixes):
            total = total + ad_action(Mat2(*prefix, check=False), variation.value(*step))
        entries += (abs(total.x), abs(total.y), abs(total.z))
    return _max_or_nan(entries)
