"""Reference computations the tests compare the package against.

Each one computes independently something the package's pipeline
computes in closed form or through its kernel, and none of them runs in
the pipeline:

* the per-boundary closed forms of a pants, one function per value:
  |b_k c_k|, |b_k c_k| - 1 in product form, the seam matrix, the
  gradient of log |b_k c_k| and the seam variation coefficient, as the
  package evaluated them before it kept one table per pants;
* pants gauges and their standardization, which recovers the normalized
  pants cocycle from any gauged copy;
* the central-difference variation cocycle, the coboundary of a vertex
  cochain and the twisted cocycle-condition check;
* the length gradient of a closed word, read off a variation cocycle;
* the pairing of one face chain at a time, the bigon correction chain of
  a pants and Wolpert's twist-length expression;
* the nearest point of a hyperbolic axis on the imaginary axis;
* the identity, the distance of two matrices and of their projective
  classes, and a relative comparison of two matrices;
* the per-document work as the package did it before it stamped its
  cell ids and kept one face pass and one boundary loop pass per
  cocycle: a cell complex built from a dict of names per pants, a face
  residual through a renormalized matrix, a lift's residual through the
  negated product, and a loop's length and rotation number through
  :func:`fnhol.surface.holonomy` and a fresh walk;
* the spin listing as the package wrote it before it copied each sign
  row off the one before it: one dict per boundary-sign mask, the
  crossing-sign classes from itertools.product, and a report row and
  text line read with one lookup per curve.

The tests import them from here; the package does not ship them.
"""

import itertools
import math

from fnhol.mat2 import (HYPERBOLIC_MARGIN, Mat2, NonHyperbolicError, _max_or_nan, ad_action,
                        translation_length, walk)
from fnhol.pants import PANTS_EDGES, PANTS_FACES, PANTS_VERTICES
from fnhol.spin import _solve_pants_signs
from fnhol.surface import (CellComplex, CurveCells, Edge, FNPoint, _pants_curves,
                           assemble_cocycle, build_complex, holonomy, spanning_tree_curves)
from fnhol.variation import VariationCocycle, variation_cocycle
from fnhol.wp import DiagonalTerm, FaceChain, diagonal_chain, pair_chain


# default relative tolerance for matrix comparisons
CMP_TOL = 1e-9


def identity():
    return Mat2(1.0, 0.0, 0.0, 1.0, check=False)


def dist(m, other):
    """Max-entry distance of two Mat2, nan if a compared entry is nan."""
    return _max_or_nan((abs(m.a - other.a), abs(m.b - other.b), abs(m.c - other.c),
                        abs(m.d - other.d)))


def proj_dist(m, other):
    """Max-entry distance between the classes {+m, -m} and {+other,
    -other}: the smaller of the distances to +other and to -other.  A nan
    entry makes both distances nan, and so their ``min``."""
    return min(dist(m, other), _max_or_nan((abs(m.a + other.a), abs(m.b + other.b),
                                            abs(m.c + other.c), abs(m.d + other.d))))


def close_to(m, other, tol=CMP_TOL):
    """Whether Mat2 ``m`` is within ``tol`` times the larger of 1 and the
    two norms of ``other``, entry by entry; a nan entry is never close."""
    return dist(m, other) <= tol * max(1.0, m.norm(), other.norm())


def bc_magnitude(lengths, k):
    """|b_k c_k| for the seam between boundaries k-1 and k.

    Equals (cosh(l_{k+1}/2) + cosh((l_{k-1}+l_k)/2))
    / (2 sinh(l_{k-1}/2) sinh(l_k/2)), and always exceeds 1."""
    num = math.cosh(0.5 * lengths[(k + 1) % 3]) + math.cosh(0.5 * (lengths[k - 1] + lengths[k]))
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


def grad_log_bc(lengths, k):
    """Gradient of log |b_k c_k| with respect to (l0, l1, l2)."""
    num = math.cosh(0.5 * lengths[(k + 1) % 3]) + math.cosh(0.5 * (lengths[k - 1] + lengths[k]))
    cross = math.sinh(0.5 * (lengths[k - 1] + lengths[k])) / (2.0 * num)
    grad = [0.0, 0.0, 0.0]
    grad[(k + 1) % 3] = math.sinh(0.5 * lengths[(k + 1) % 3]) / (2.0 * num)
    grad[k % 3] = cross - 0.5 / math.tanh(0.5 * lengths[k])
    grad[(k - 1) % 3] = cross - 0.5 / math.tanh(0.5 * lengths[k - 1])
    return tuple(grad)


def seam_variation_coefficient(lengths, k):
    """The off-diagonal factor (1/2) sqrt(f/(f-1)) of the seam value's
    logarithmic derivative."""
    f = bc_magnitude(lengths, k)
    return 0.5 * math.sqrt(f / bc_magnitude_minus_one(lengths, k))


class AxisLocationError(ValueError):
    """The requested axis data is degenerate (axis through infinity or
    meeting the imaginary axis)."""


def scaled(z, t):
    """t * z for a traceless matrix z = (x, y, z)."""
    return (t * z[0], t * z[1], t * z[2])


def t_add(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def t_sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def t_norm(z):
    """Max-entry norm of a traceless matrix (x, y, z), nan if an entry is nan."""
    return _max_or_nan((abs(z[0]), abs(z[1]), abs(z[2])))


def t_dist(u, v):
    return t_norm(t_sub(u, v))


def from_entries(a, b, c, d):
    """Project a 2x2 matrix onto its traceless part (x, y, z)."""
    return (0.5 * (a - d), b, c)


def nearest_point_on_imaginary_axis(conj):
    """Height R of the point R*i on the imaginary axis closest to the
    axis of conj @ diag(lam, 1/lam) @ conj^-1, which does not depend on lam.

    Requires the two axes to be disjoint, i.e. ab/cd > 0; then
    R = sqrt(ab/cd)."""
    scale = conj.norm()
    if abs(conj.c) <= 1e-12 * scale or abs(conj.d) <= 1e-12 * scale:
        raise AxisLocationError("axis passes through infinity (c or d vanishes)")
    ratio = (conj.a * conj.b) / (conj.c * conj.d)
    if ratio <= 0.0:
        raise AxisLocationError("axis meets the imaginary axis (ab/cd <= 0)")
    return math.sqrt(ratio)


class NotFuchsianError(ValueError):
    """The cocycle is not a hyperbolic holonomy (boundary not hyperbolic,
    or seam values out of position)."""


def gauge_transform(values, gauge):
    """Conjugate every edge value by the vertex function ``gauge``:
    an edge from v0 to v1 becomes gauge(v0)^-1 @ value @ gauge(v1).
    Vertices missing from ``gauge`` are treated as the identity."""
    ident = identity()
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
    with the recovered boundary lengths (l0, l1, l2) and
    ``gauge_transform(values, gauge)`` equal to the standard values.

    Proceeds in three vertex-gauge steps: diagonalize the two boundary
    holonomies at each circle, rescale the arcs to the symmetric
    diagonal value, then rescale each circle by the fourth root of
    a*b/(c*d) of its seam so the seams become normalized."""
    ident = identity()

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
    return tuple(lengths), result, gauge


class SignLiftError(ValueError):
    """Representatives of nearby projective classes could not be aligned
    by continuity."""


def shifted(fn, tangent, h):
    """The point fn + h * tangent, for finite differencing."""
    lengths = {c: l + h * tangent.dl.get(c, 0.0) for c, l in fn.lengths.items()}
    twists = {c: t + h * tangent.dtau.get(c, 0.0) for c, t in fn.twists.items()}
    return FNPoint(lengths, twists)


def linear_combination(z1, z2, s, t):
    """The variation cocycle s * z1 + t * z2 over the base of z1."""
    zero = (0.0, 0.0, 0.0)
    values = {
        e: t_add(scaled(z1.values.get(e, zero), s), scaled(z2.values.get(e, zero), t))
        for e in {**z1.values, **z2.values}
    }
    return VariationCocycle(z1.base, values)


def _aligned_rep(target, base_rep):
    """The sign of ``target`` nearest to ``base_rep``."""
    d_plus = dist(target, base_rep)
    d_minus = dist(-target, base_rep)
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
    plus = assemble_cocycle(complex_, shifted(fn, tangent, h))
    minus = assemble_cocycle(complex_, shifted(fn, tangent, -h))
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
        values[eid] = from_entries(*z.entries())
    return VariationCocycle(base, values)


def coboundary(cocycle, vertex_cochain):
    """The variation cocycle of an infinitesimal gauge move:
    (dw)(e) = Ad(rho(e)) w(v1) - w(v0) for an edge from v0 to v1.
    Vertices missing from ``vertex_cochain`` count as zero."""
    zero = (0.0, 0.0, 0.0)
    values = {}
    for eid, edge in cocycle.complex.edges.items():
        w0 = vertex_cochain.get(edge.start, zero)
        w1 = vertex_cochain.get(edge.end, zero)
        values[eid] = t_sub(ad_action(cocycle.values[eid], w1), w0)
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
    for fid, cycle in cocycle.complex.faces.items():
        prefixes = []
        start, _ = cocycle.face_walk(fid, prefixes)
        rotated = cycle[start:] + cycle[:start]
        total = variation.value(*rotated[0])
        for step, prefix in zip(rotated[1:], prefixes):
            total = t_add(total, ad_action(Mat2(*prefix, check=False), variation.value(*step)))
        entries += (abs(total[0]), abs(total[1]), abs(total[2]))
    return _max_or_nan(entries)


def length_gradient(cocycle, word, tangent):
    """The derivative in the tangent direction of the translation length of
    a closed word's holonomy P, read off the variation cocycle: with P_i
    the product of the word's first i steps, P moves by D P, where
    D = sum_i Ad(P_{i-1}) z(e_i^{s_i}), so the length, 2 arccosh(|t|/2)
    at t = tr P, moves by 2 sgn(t) tr(D P) / sqrt(t^2 - 4)."""
    z = variation_cocycle(cocycle, cocycle.fn, tangent)
    prefixes = []
    p = walk(cocycle.values, word, prefixes)
    moves = [identity()] + [Mat2(*q, check=False) for q in prefixes[:-1]]
    d = (0.0, 0.0, 0.0)
    for move, step in zip(moves, word):
        d = t_add(d, ad_action(move, z.value(*step)))
    x, y, w = d
    t = p.trace()
    trace_dp = x * p.a + y * p.c + w * p.b - x * p.d
    return 2.0 * math.copysign(1.0, t) * trace_dp / math.sqrt(t * t - 4.0)


def pants_bigon_chain(complex_, pid):
    """The two bigon correction terms of a pants, along its boundary
    circle 1: +b10 x b10 and -b11 x b11.  Their contributions are
    (1/8) dl1 dl1 with opposite signs and cancel exactly."""
    b10, b11, _ = complex_.pants[pid].edges[1]
    path = ((b10, 1),)
    return FaceChain(
        f"p{pid}.bigons",
        complex_.edges[b10].start,
        (
            DiagonalTerm(1, (b10, 1), (b10, 1), (), ()),
            DiagonalTerm(-1, (b11, 1), (b11, 1), path, path),
        ),
    )


def pair_on_face(cocycle, z1, z2, fid, start=0):
    return pair_chain(cocycle, z1, z2, diagonal_chain(cocycle.complex, fid, start))


def wolpert_reference(u, v):
    """sum_i (dtau_i(u) dl_i(v) - dl_i(u) dtau_i(v)), the twist-length
    expression the pairing must reproduce."""
    curves = set(u.dl) | set(u.dtau) | set(v.dl) | set(v.dtau)
    return math.fsum(
        u.dtau.get(c, 0.0) * v.dl.get(c, 0.0) - u.dl.get(c, 0.0) * v.dtau.get(c, 0.0)
        for c in curves
    )


def complex_cells(spec):
    """(vertices, edges, faces, pants, curves) of the cell complex of a
    valid ``spec``, each cell id formatted from a dict of the cell names
    of its pants or curve; ``pants`` maps a pants id to (curves, edges,
    hexagons) and ``curves`` a curve id to its ``CurveCells``."""
    vertices, edges, faces, pants, curves = [], {}, {}, {}, {}
    sides = _pants_curves(spec)
    pants_cells = PANTS_VERTICES + tuple(PANTS_EDGES) + tuple(PANTS_FACES)
    for pid in spec.pants:
        name = {cell: f"p{pid}.{cell}" for cell in pants_cells}
        vertices += (name[v] for v in PANTS_VERTICES)
        for e, (v0, v1, kind) in PANTS_EDGES.items():
            edges[name[e]] = Edge(name[v0], name[v1], kind)
        for f, cycle in PANTS_FACES.items():
            faces[name[f]] = tuple((name[e], s) for e, s in cycle)
        pants[pid] = (sides[pid],
                      tuple((name[f"b{k}0"], name[f"b{k}1"], name[f"seam{k}"]) for k in range(3)),
                      (name["hex+"], name["hex-"]))
    for c in spec.curves:
        (jl, kl), (jr, kr) = c.left, c.right
        (l0, l1, _), (r0, r1, _) = pants[jl][1][kl], pants[jr][1][kr]
        x0, x1, sq0, sq1 = (f"c{c.id}.{cell}" for cell in ("x0", "x1", "sq0", "sq1"))
        edges[x0] = Edge(edges[l0].start, edges[r0].start, "crossing")
        edges[x1] = Edge(edges[l1].start, edges[r1].start, "crossing")
        faces[sq0] = ((x0, 1), (r1, -1), (x1, -1), (l0, -1))
        faces[sq1] = ((x1, 1), (r0, -1), (x0, -1), (l1, -1))
        curves[c.id] = CurveCells((x0, x1), (sq0, sq1), (jl,) if jl == jr else (jl, jr),
                                  ((l0, 1), (l1, 1)))
    return vertices, edges, faces, pants, curves


def face_residual(cocycle, fid):
    """Distance from +-I of the face word, walked afresh and renormalized."""
    return proj_dist(cocycle.face_walk(fid)[1].renormalized(), identity())


def lift_residual(base, fid):
    """A face's residual in every lift of ``base``: the distance from +I
    of the base's face product, walked afresh, negated on ``hex-`` faces."""
    m = base.face_walk(fid)[1]
    return dist(-m if fid.endswith(".hex-") else m, identity())


def loop_length(cocycle, loop):
    """The translation length of a loop word, walked afresh."""
    return translation_length(walk(cocycle.values, loop).renormalized())


def rot2(spin_cocycle, loop):
    """The mod-2 rotation number of a loop, from the trace of the base's
    :func:`fnhol.surface.holonomy` of it with one sign per step along a
    flipped edge."""
    tr = holonomy(spin_cocycle.base, loop).trace()
    for eid, _ in loop:
        if eid in spin_cocycle._flipped:
            tr = -tr
    if abs(tr) <= 2.0 + HYPERBOLIC_MARGIN:
        raise NonHyperbolicError(f"loop holonomy trace {tr!r} is not hyperbolic")
    return 0 if tr > 0.0 else 1


def enumerate_spin(spec):
    """(eps assignments, crossing-sign classes) of a valid ``spec``, as
    :func:`fnhol.spin.enumerate_spin` returns them: one dict per mask of
    ``_solve_pants_signs``, a sign read off each bit, and one dict of +1
    per sign combination of the curves outside the spanning tree."""
    curve_ids = sorted((c.id for c in spec.curves), key=str)
    eps_assignments = [
        {cid: -1 if x >> i & 1 else 1 for i, cid in enumerate(curve_ids)}
        for x in _solve_pants_signs(curve_ids, spec)
    ]

    tree = set(spanning_tree_curves(spec))
    free = [c for c in curve_ids if c not in tree]
    classes = []
    for combo in itertools.product((1, -1), repeat=len(free)):
        signs = {c: 1 for c in curve_ids}
        signs.update(dict(zip(free, combo)))
        classes.append(signs)
    return eps_assignments, classes


def spin_list(spec):
    """The ``spin --list`` report of a valid ``spec`` over
    :func:`enumerate_spin` above, each row read with one lookup per curve."""
    eps_list, classes = enumerate_spin(spec)
    order = sorted(spec.curve_ids(), key=str)
    names = [str(c) for c in order]
    tree = [n for n, c in zip(names, order) if classes[-1][c] == 1]
    tokens = [{1: f"{n}:+1", -1: f"{n}:-1"} for n in names]
    lines = [
        f"boundary-sign assignments {len(eps_list)}",
        f"crossing-sign classes per assignment {len(classes)}",
        f"total lifts in normal form {len(eps_list) * len(classes)}",
        f"tree curves {' '.join(tree)}",
    ]
    listed = {}
    for kind, assignments in (("eps", eps_list), ("class", classes)):
        rows = listed[kind] = []
        for signs in assignments:
            values = [signs[c] for c in order]
            rows.append(dict(zip(names, values)))
            lines.append(kind + " " + " ".join([t[v] for t, v in zip(tokens, values)]))
    return {
        "command": "spin",
        "eps_assignments": listed["eps"],
        "crossing_classes": listed["class"],
        "tree_curves": tree,
        "lines": lines,
    }
