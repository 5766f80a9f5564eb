"""Pants decompositions of closed surfaces, the associated cell complex,
and holonomy cocycles in Fenchel-Nielsen coordinates.

A genus-g surface cut along 3g-3 disjoint curves falls into 2g-2 pairs
of pants.  Each pants keeps the cell structure of :mod:`fnhol.pants`;
each cutting curve acquires an annular neighborhood with two crossing
edges and two square faces joining the arcs on its two sides.  Global
ids are ``p{pants}.seam{k}`` / ``p{pants}.b{k}{eps}`` / ``c{curve}.x{eps}``
for edges, the same with ``v`` for vertices, and ``p{pants}.hex+|-`` /
``c{curve}.sq0|1`` for faces.

Holonomy values are sign-free ``Mat2`` representatives of their
projective classes; only :func:`holonomy` wraps its result in a
``ProjMat2`` for reports.  In the assembled cocycle the
boundary arcs on both sides of curve i carry diag(lambda_i^(1/2), ...)
and the crossing edges carry (0, -1/T_i; T_i, 0) with
T_i = exp(-twist_i / 2), so twists are recovered globally (not modulo
the curve length) as -2 log T_i.
"""

import math
from collections import namedtuple

from .mat2 import Mat2, ProjMat2, _max_or_nan, translation_length, walk
from . import pants as pants_mod

__all__ = [
    "SurfaceSpec",
    "Curve",
    "Diagnostics",
    "CellComplex",
    "FNPoint",
    "SurfaceCocycle",
    "validate_surface",
    "build_complex",
    "assemble_cocycle",
    "holonomy",
    "extract_fn",
    "parse_word",
    "check_word",
    "curve_loop_word",
    "NonStandardCocycleError",
]


class NonStandardCocycleError(ValueError):
    """The cocycle does not have the normalized shape this operation
    reads its data from."""


class Curve(namedtuple("Curve", "id left right")):
    """A decomposition curve with its two pants sides.

    ``left`` and ``right`` are (pants id, boundary index) pairs; the
    ordering fixes the orientation of the curve."""

    __slots__ = ()


class SurfaceSpec(namedtuple("SurfaceSpec", "genus pants curves")):
    """A labelled pants decomposition of a closed genus-g surface:
    the genus, a tuple of pants ids and a tuple of :class:`Curve`."""

    __slots__ = ()

    def curve_ids(self):
        return tuple(c.id for c in self.curves)

    def pants_sides(self):
        """Pants id -> the curves glued at its boundary indices 0, 1, 2,
        from one pass over the curves."""
        sides = {pid: [None, None, None] for pid in self.pants}
        for c in self.curves:
            for (p, k) in (c.left, c.right):
                sides[p][k] = c.id
        return {pid: tuple(s) for pid, s in sides.items()}


class Diagnostics:
    """Validation report; ``ok`` is True iff ``problems`` is empty."""

    __slots__ = ("problems",)

    def __init__(self):
        self.problems = []

    @property
    def ok(self):
        return not self.problems

    def add(self, msg):
        self.problems.append(msg)

    def __str__(self):
        return "ok" if self.ok else "; ".join(self.problems)


def validate_surface(spec):
    """Check the pairing, connectivity and genus bookkeeping of a
    decomposition; returns Diagnostics instead of raising."""
    diag = Diagnostics()
    if spec.genus < 2:
        diag.add(f"genus {spec.genus} must be at least 2")
        return diag
    if len(set(spec.pants)) != len(spec.pants):
        diag.add("pants ids are not distinct")
    if len(set(c.id for c in spec.curves)) != len(spec.curves):
        diag.add("curve ids are not distinct")
    # cell names and JSON keys are built from str(id)
    for kind, ids in (("pants", spec.pants), ("curve", spec.curve_ids())):
        by_str = {}
        for x in ids:
            y = by_str.setdefault(str(x), x)
            if y != x:
                diag.add(f"{kind} ids {y!r} and {x!r} have the same string form")
    if len(spec.pants) != 2 * spec.genus - 2:
        diag.add(f"expected {2 * spec.genus - 2} pants, got {len(spec.pants)}")
    if len(spec.curves) != 3 * spec.genus - 3:
        diag.add(f"expected {3 * spec.genus - 3} curves, got {len(spec.curves)}")

    pants_set = set(spec.pants)
    seen = {}
    for c in spec.curves:
        if c.left == c.right:
            diag.add(f"curve {c.id} glues a boundary to itself")
        for side in (c.left, c.right):
            pid, k = side
            if pid not in pants_set:
                diag.add(f"curve {c.id} refers to unknown pants {pid}")
                continue
            if k not in (0, 1, 2):
                diag.add(f"curve {c.id} uses boundary index {k} outside 0..2")
                continue
            if side in seen:
                diag.add(f"boundary {side} used by curves {seen[side]} and {c.id}")
            seen[side] = c.id
    for pid in spec.pants:
        for k in range(3):
            if (pid, k) not in seen:
                diag.add(f"boundary ({pid}, {k}) is not glued to any curve")

    if diag.ok and spec.pants:
        # connectivity of the gluing multigraph
        reached = {spec.pants[0]}
        frontier = [spec.pants[0]]
        adj = {p: [] for p in spec.pants}
        for c in spec.curves:
            adj[c.left[0]].append(c.right[0])
            adj[c.right[0]].append(c.left[0])
        while frontier:
            p = frontier.pop()
            for q in adj[p]:
                if q not in reached:
                    reached.add(q)
                    frontier.append(q)
        if len(reached) != len(spec.pants):
            diag.add("gluing graph is not connected")
    if diag.ok and 2 - 2 * spec.genus != -len(spec.pants):
        diag.add("Euler characteristic mismatch")
    return diag


# kind is "seam" | "arc0" | "arc1" | "crossing"
Edge = namedtuple("Edge", "start end kind")
# kind is "hexagon" | "square"; cycle is ((edge id, +1/-1), ...)
# counterclockwise
Face = namedtuple("Face", "kind cycle")


class CellComplex:
    """The cell structure of the decomposed surface."""

    def __init__(self, spec):
        self.spec = spec
        self.vertices = []
        self.edges = {}
        self.faces = {}
        self.pants_lengths_order = spec.pants_sides()
        for pid in spec.pants:
            for v in pants_mod.PANTS_VERTICES:
                self.vertices.append(f"p{pid}.{v}")
            for e, (v0, v1, kind) in pants_mod.PANTS_EDGES.items():
                self.edges[f"p{pid}.{e}"] = Edge(f"p{pid}.{v0}", f"p{pid}.{v1}", kind)
            for f, cycle in pants_mod.PANTS_FACES.items():
                word = tuple((f"p{pid}.{e}", s) for e, s in cycle)
                self.faces[f"p{pid}.{f}"] = Face("hexagon", word)
        for c in spec.curves:
            (jl, kl), (jr, kr) = c.left, c.right
            for eps in (0, 1):
                self.edges[f"c{c.id}.x{eps}"] = Edge(
                    f"p{jl}.v{kl}{eps}", f"p{jr}.v{kr}{eps}", "crossing"
                )
            self.faces[f"c{c.id}.sq0"] = Face(
                "square",
                (
                    (f"c{c.id}.x0", 1),
                    (f"p{jr}.b{kr}1", -1),
                    (f"c{c.id}.x1", -1),
                    (f"p{jl}.b{kl}0", -1),
                ),
            )
            self.faces[f"c{c.id}.sq1"] = Face(
                "square",
                (
                    (f"c{c.id}.x1", 1),
                    (f"p{jr}.b{kr}0", -1),
                    (f"c{c.id}.x0", -1),
                    (f"p{jl}.b{kl}1", -1),
                ),
            )
        self._check_faces()

    def _check_faces(self):
        # every face word must close up, and every edge must be used
        # once with each sign across all faces; walks along face cycles
        # rely on this and check nothing per step
        use = {e: [0, 0] for e in self.edges}
        for fid, face in self.faces.items():
            at = None
            first = None
            for eid, sign in face.cycle:
                edge = self.edges[eid]
                start, end = (edge.start, edge.end) if sign > 0 else (edge.end, edge.start)
                if at is not None and at != start:
                    raise AssertionError(f"face {fid} breaks at {eid}")
                if first is None:
                    first = start
                at = end
                use[eid][0 if sign > 0 else 1] += 1
            if at != first:
                raise AssertionError(f"face {fid} does not close up")
        for eid, (plus, minus) in use.items():
            if plus != 1 or minus != 1:
                raise AssertionError(f"edge {eid} used {plus}+/{minus}- times")

    def squares_of_curve(self, cid):
        return (f"c{cid}.sq0", f"c{cid}.sq1")

    def hexagons_of_pants(self, pid):
        return (f"p{pid}.hex+", f"p{pid}.hex-")


def build_complex(spec):
    """Build the cell complex of a valid decomposition."""
    diag = validate_surface(spec)
    if not diag.ok:
        raise ValueError(f"invalid surface: {diag}")
    return CellComplex(spec)


class FNPoint:
    """Fenchel-Nielsen coordinates: a length and a twist per curve."""

    __slots__ = ("lengths", "twists")

    def __init__(self, lengths, twists):
        self.lengths = dict(lengths)
        self.twists = dict(twists)
        for cid, l in self.lengths.items():
            if not l > 0.0:
                raise ValueError(f"length of curve {cid} must be positive")

    def shifted(self, tangent, h):
        """The point fn + h * tangent, for finite differencing."""
        lengths = {c: l + h * tangent.dl.get(c, 0.0) for c, l in self.lengths.items()}
        twists = {c: t + h * tangent.dtau.get(c, 0.0) for c, t in self.twists.items()}
        return FNPoint(lengths, twists)

    def __repr__(self):
        return f"FNPoint({self.lengths!r}, {self.twists!r})"


class SurfaceCocycle:
    """A holonomy cocycle on the cell complex (edge id -> Mat2, each a
    sign-free representative of its projective class).

    The values are fixed once the cocycle is constructed.  Every product
    along a face word is taken by :meth:`face_walk`; the face products
    are walked once, on first use, and kept with it, and lifts of the
    cocycle (:mod:`fnhol.spin`) read them too.  So are the seam data
    that variations over it (:mod:`fnhol.variation`) read."""

    __slots__ = ("complex", "values", "_face_products", "_seam_data")

    def __init__(self, complex_, values):
        self.complex = complex_
        self.values = dict(values)
        self._face_products = None
        self._seam_data = None

    def face_walk(self, fid, prefixes=None):
        """(start, product): the product along the face word, not
        renormalized, walked from rotation ``start`` of its cycle.

        A face word is a cycle, so walked from another of its edges it
        gives a conjugate of the product, which is +-I exactly when the
        product is.  The walk begins at the first rotation whose product
        is finite: for a twist near the accepted bound, a square word
        walked from its crossing edge multiplies 1/T by an arc entry
        before T brings it back, and walked from an arc it does not.
        When ``prefixes`` is a list, it receives the running products of
        that walk as entry tuples (:func:`fnhol.mat2.walk`); the pairing
        kernel and the cocycle-condition check read their transports
        from them."""
        cycle = self.complex.faces[fid].cycle
        for start in range(len(cycle)):
            if prefixes is not None:
                prefixes.clear()
            product = walk(self.values, cycle[start:] + cycle[:start], prefixes)
            if product.is_finite():
                break
        return start, product

    def face_products(self):
        """Face id -> the product of :meth:`face_walk`."""
        if self._face_products is None:
            self._face_products = {
                fid: self.face_walk(fid)[1] for fid in self.complex.faces
            }
        return self._face_products

    def face_residual(self, fid):
        """Distance of the face word from +-I."""
        hol = self.face_products()[fid].renormalized()
        return hol.proj_dist(Mat2.identity())

    def max_face_residual(self):
        return _max_or_nan(self.face_residual(f) for f in self.complex.faces)


def pants_boundary_lengths(complex_, fn, pid):
    c0, c1, c2 = complex_.pants_lengths_order[pid]
    return pants_mod.PantsLengths(fn.lengths[c0], fn.lengths[c1], fn.lengths[c2])


def assemble_cocycle(spec, fn):
    """The normalized cocycle of the hyperbolic structure with the given
    Fenchel-Nielsen coordinates."""
    complex_ = spec if isinstance(spec, CellComplex) else build_complex(spec)
    missing = set(c.id for c in complex_.spec.curves) - set(fn.lengths)
    if missing or set(c.id for c in complex_.spec.curves) - set(fn.twists):
        raise ValueError(f"coordinates missing for curves {sorted(map(str, missing))}")
    values = {}
    for pid in complex_.spec.pants:
        cocycle = pants_mod.pants_cocycle(pants_boundary_lengths(complex_, fn, pid))
        for e, v in cocycle.values.items():
            values[f"p{pid}.{e}"] = v
    for c in complex_.spec.curves:
        t = math.exp(-0.5 * fn.twists[c.id])
        # either sign represents the class; this one, (-0.0, 1/T; -T, -0.0),
        # is the canonical sign of a report, chosen because the sign of a
        # zero entry can show in a written holonomy matrix
        crossing = -Mat2(0.0, -1.0 / t, t, 0.0, check=False)
        values[f"c{c.id}.x0"] = crossing
        values[f"c{c.id}.x1"] = crossing
    return SurfaceCocycle(complex_, values)


def holonomy(cocycle, word):
    """The projective class of the product of the edge values along a
    composable edge word, renormalized, for reports.

    ``word`` is a sequence of (edge id, +1/-1); reversed edges
    contribute inverses.  The empty word gives the identity."""
    check_word(cocycle.complex, word)
    return ProjMat2(walk(cocycle.values, word).renormalized())


def check_word(complex_, word):
    """Raise ValueError unless every edge of ``word`` is in the complex
    and each step starts where the one before it ended."""
    edges = complex_.edges
    at = None
    for eid, sign in word:
        edge = edges.get(eid)
        if edge is None:
            raise ValueError(f"unknown edge {eid!r}")
        start, end = (edge.start, edge.end) if sign > 0 else (edge.end, edge.start)
        if at is not None and at != start:
            raise ValueError(f"word is not composable at {eid}: {at} != {start}")
        at = end


def curve_loop_word(spec, cid):
    """The loop running around curve ``cid`` along the two boundary arcs
    on its left side."""
    for c in spec.curves:
        if c.id == cid:
            pid, k = c.left
            return ((f"p{pid}.b{k}0", 1), (f"p{pid}.b{k}1", 1))
    raise ValueError(f"unknown curve {cid!r}")


def extract_fn(cocycle):
    """Read the Fenchel-Nielsen coordinates back off a normalized
    cocycle: lengths from the boundary loops, twists as -2 log T from
    the crossing edges (a real number, not reduced modulo the length)."""
    complex_ = cocycle.complex
    lengths = {}
    twists = {}
    for c in complex_.spec.curves:
        loop = curve_loop_word(complex_.spec, c.id)
        lengths[c.id] = translation_length(walk(cocycle.values, loop).renormalized())
        m = cocycle.values[f"c{c.id}.x0"]
        scale = m.norm()
        if abs(m.a) > 1e-8 * scale or abs(m.d) > 1e-8 * scale:
            raise NonStandardCocycleError(
                f"crossing edge of curve {c.id} is not antidiagonal"
            )
        t = m.c if m.c > 0.0 else -m.c
        if t == 0.0:
            raise NonStandardCocycleError(f"crossing edge of curve {c.id} is singular")
        twists[c.id] = -2.0 * math.log(t)
    return FNPoint(lengths, twists)


def parse_word(complex_, text):
    """Parse an edge word like ``"p0.seam1 c2.x0~ p1.b00"`` where a
    trailing ``~`` reverses the edge."""
    word = []
    for token in text.split():
        sign = 1
        if token.endswith("~"):
            sign = -1
            token = token[:-1]
        if token not in complex_.edges:
            raise ValueError(f"unknown edge {token!r}")
        word.append((token, sign))
    return tuple(word)
