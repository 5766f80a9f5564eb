"""The pants cocycle's closed forms in mpmath at 60 significant digits.

Written from the paper's formulas and sharing no code with the package:
for boundary lengths (l0, l1, l2) and k in Z/3, the seam between
boundaries k-1 and k has

    f_k = |b_k c_k| = (cosh(l_{k+1}/2) + cosh((l_{k-1}+l_k)/2))
                      / (2 sinh(l_{k-1}/2) sinh(l_k/2)),

and the seam value is (sqrt(f_k - 1), -sqrt(f_k); sqrt(f_k), -sqrt(f_k - 1)),
while the arcs of boundary k carry diag(exp(l_k/4), exp(-l_k/4)).  Here
f_k - 1 is the difference itself, taken at 60 digits, not the product
form the package uses to avoid cancellation.

A second derivation checks f_k itself.  Cutting the pants along its
seams gives two right-angled hexagons with alternate sides l_0/2, l_1/2,
l_2/2; the seam between boundaries k-1 and k is the opposite side, of
length d_k, and the hexagon law of cosines (Buser, *Geometry and
Spectra of Compact Riemann Surfaces*, 2.4) gives

    cosh d_k = (cosh(l_{k+1}/2) + cosh(l_{k-1}/2) cosh(l_k/2))
               / (sinh(l_{k-1}/2) sinh(l_k/2)),

from which f_k = cosh^2(d_k/2) and f_k - 1 = sinh^2(d_k/2).
"""

from mpmath import mp, mpf

DPS = 60


def pants_closed_forms(lengths):
    """Per boundary k, the mpf values (f_k, f_k - 1, sqrt(f_k - 1),
    sqrt(f_k), exp(l_k/4), exp(-l_k/4)) for the float lengths, each
    converted exactly."""
    with mp.workdps(DPS):
        l = [mpf(x) for x in lengths]
        rows = []
        for k in range(3):
            f = ((mp.cosh(l[(k + 1) % 3] / 2) + mp.cosh((l[k - 1] + l[k]) / 2))
                 / (2 * mp.sinh(l[k - 1] / 2) * mp.sinh(l[k] / 2)))
            rows.append((f, f - 1, mp.sqrt(f - 1), mp.sqrt(f), mp.exp(l[k] / 4),
                         mp.exp(-l[k] / 4)))
        return rows


def hexagon_seam_forms(lengths):
    """Per boundary k, the mpf values (cosh^2(d_k/2), sinh^2(d_k/2)) for
    the float lengths, d_k from the hexagon law of cosines through
    acosh, not from the paper's f_k."""
    with mp.workdps(DPS):
        h = [mpf(x) / 2 for x in lengths]
        rows = []
        for k in range(3):
            d = mp.acosh((mp.cosh(h[(k + 1) % 3]) + mp.cosh(h[k - 1]) * mp.cosh(h[k]))
                         / (mp.sinh(h[k - 1]) * mp.sinh(h[k])))
            rows.append((mp.cosh(d / 2) ** 2, mp.sinh(d / 2) ** 2))
        return rows


def relative_error(x, exact):
    """|x - exact| / |exact| for a float or mpf ``x``, as a float."""
    with mp.workdps(DPS):
        return float(abs((mpf(x) - exact) / exact))
