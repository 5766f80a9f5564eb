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

The seam coefficient is the derivative of the closed-form seam matrix.
"""

import math

from .mat2 import ad_action
from .pants import _pants_table
from .surface import _cocycle_at

__all__ = [
    "TangentVector",
    "VariationCocycle",
    "variation_cocycle",
]


class TangentVector:
    """A tangent direction of the coordinates: dl and dtau per curve.

    Curves absent from either dict contribute zero."""

    __slots__ = ("dl", "dtau")

    def __init__(self, dl=None, dtau=None):
        self.dl = dict(dl or {})
        self.dtau = dict(dtau or {})

    def __repr__(self):
        return f"TangentVector({self.dl!r}, {self.dtau!r})"


class VariationCocycle:
    """Traceless values over a base cocycle: edge id -> the entry tuple
    (x, y, z) of (x y; z -x).

    An edge missing from ``values`` carries zero."""

    __slots__ = ("base", "values")

    def __init__(self, base, values):
        self.base = base
        self.values = dict(values)

    def value(self, eid, sign=1):
        """z on the edge, or on its reversal via
        z(e^-1) = -Ad(rho(e))^-1 z(e), as an entry tuple."""
        z = self.values.get(eid)
        if z is None:
            return (0.0, 0.0, 0.0)
        if sign > 0:
            return z
        x, y, w = ad_action(self.base.values[eid].inv(), z)
        return (-x, -y, -w)


def variation_cocycle(spec, fn, tangent):
    """Closed-form variation cocycle of the tangent direction at fn.

    ``spec`` is a decomposition, assembled at fn; a cell complex, which
    reuses the cocycle of the last point asked of it while that cocycle
    is in use and has fn's lengths and twists; or a cocycle, which must be at fn (a cocycle
    at another point raises ValueError).  Variations that share a base,
    given as that cocycle or through one complex at one point, assemble
    it, and evaluate its seam data, once.  The
    values sit on the edges where the direction acts: the arcs and seams
    of each pants with a curve in ``tangent.dl``, and the crossings of
    each curve in ``tangent.dtau``."""
    base = _cocycle_at(spec, fn)
    return VariationCocycle(base, _variation_values(base, tangent))


def _seam_data(base):
    """Pants id -> per boundary k, grad log f_k in (l0, l1, l2) and the seam
    coefficient (1/2) sqrt(f_k/(f_k-1)), f_k = |b_k c_k|, at ``base.fn``,
    the point the base was assembled at; read off the pants' table
    (:func:`fnhol.pants._pants_table`) once per base cocycle."""
    if base._seam_data is None:
        data = {}
        lengths = base.fn.lengths
        for pid, cells in base.complex.pants.items():
            l, sh, num, f, fm1 = _pants_table([lengths[c] for c in cells.curves])
            coth = [0.5 / math.tanh(0.5 * x) for x in l]  # (1/2) coth(l_k/2)
            rows = []
            for k in range(3):
                cross = math.sinh(0.5 * (l[k - 1] + l[k])) / (2.0 * num[k])
                grad = [0.0, 0.0, 0.0]
                grad[(k + 1) % 3] = sh[(k + 1) % 3] / (2.0 * num[k])
                grad[k] = cross - coth[k]
                grad[k - 1] = cross - coth[k - 1]
                rows.append((tuple(grad), 0.5 * math.sqrt(f[k] / fm1[k])))
            data[pid] = tuple(rows)
        base._seam_data = data
    return base._seam_data


def _variation_values(base, tangent):
    """The closed-form values (edge id -> entry tuple) of the tangent
    direction at the base's point, on the edges where it acts.  Only the
    curves of the tangent are visited; those not in the complex are
    ignored."""
    seams = _seam_data(base)
    pants, curves = base.complex.pants, base.complex.curves
    values = {}
    dl_of = tangent.dl
    for pid in {pid for c in dl_of if c in curves for pid in curves[c].pants}:
        cells = pants[pid]
        dl = tuple(dl_of.get(c, 0.0) for c in cells.curves)
        for (arc0, arc1, seam), (grad, coef), dl_k in zip(cells.edges, seams[pid], dl):
            arc = (0.25 * dl_k, 0.0, 0.0)
            values[arc0] = arc
            values[arc1] = arc
            dlogf = grad[0] * dl[0] + grad[1] * dl[1] + grad[2] * dl[2]
            y = coef * dlogf
            values[seam] = (0.0, y, y)
    for c, dtau in tangent.dtau.items():
        cells = curves.get(c)
        if cells is not None:
            cross = (0.5 * dtau, 0.0, 0.0)
            for eid in cells.crossings:
                values[eid] = cross
    return values
