"""Pants decompositions of closed surfaces, the associated cell complex,
and holonomy cocycles in Fenchel-Nielsen coordinates.

A genus-g surface cut along 3g-3 disjoint curves falls into 2g-2 pairs
of pants.  Each pants keeps the cell structure of :mod:`fnhol.pants`;
each cutting curve acquires an annular neighborhood with two crossing
edges and two square faces joining the arcs on its two sides.  Global
ids are ``p{pants}.seam{k}`` / ``p{pants}.b{k}{eps}`` / ``c{curve}.x{eps}``
for edges, the same with ``v`` for vertices, and ``p{pants}.hex+|-`` /
``c{curve}.sq0|1`` for faces.  Only :class:`CellComplex` formats them;
every other module reads them off its tables.

Holonomy values are sign-free ``Mat2`` representatives of their
projective classes, and so is what :func:`holonomy` returns for them;
only the command line gives a written matrix its canonical sign.  In
the assembled cocycle the boundary arcs on both sides of curve i carry
diag(lambda_i^(1/2), ...) and the crossing edges carry (0, -1/T_i; T_i, 0) with
T_i = exp(-twist_i / 2), so twists are recovered globally (not modulo
the curve length) as -2 log T_i.
"""

import math
from collections import namedtuple

from .mat2 import Mat2, _max_or_nan, translation_length, walk
from . import pants as pants_mod
from .pants import PANTS_EDGES, PANTS_FACES, PANTS_VERTICES

__all__ = [
    "SurfaceSpec",
    "Curve",
    "CellComplex",
    "FNPoint",
    "SurfaceCocycle",
    "validate_surface",
    "spanning_tree_curves",
    "build_complex",
    "assemble_cocycle",
    "holonomy",
    "extract_fn",
    "parse_word",
    "check_word",
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


def validate_surface(spec):
    """Check the pairing, connectivity and genus bookkeeping of a
    decomposition; returns the list of problems (empty when there are
    none) instead of raising."""
    problems = []
    if spec.genus < 2:
        problems.append(f"genus {spec.genus} must be at least 2")
        return problems
    if len(set(spec.pants)) != len(spec.pants):
        problems.append("pants ids are not distinct")
    if len(set(c.id for c in spec.curves)) != len(spec.curves):
        problems.append("curve ids are not distinct")
    # cell names and JSON keys are built from str(id)
    for kind, ids in (("pants", spec.pants), ("curve", spec.curve_ids())):
        by_str = {}
        for x in ids:
            y = by_str.setdefault(str(x), x)
            if y != x:
                problems.append(f"{kind} ids {y!r} and {x!r} have the same string form")
    if len(spec.pants) != 2 * spec.genus - 2:
        problems.append(f"expected {2 * spec.genus - 2} pants, got {len(spec.pants)}")
    if len(spec.curves) != 3 * spec.genus - 3:
        problems.append(f"expected {3 * spec.genus - 3} curves, got {len(spec.curves)}")

    pants_set = set(spec.pants)
    seen = {}
    for c in spec.curves:
        if c.left == c.right:
            problems.append(f"curve {c.id} glues a boundary to itself")
        for side in (c.left, c.right):
            pid, k = side
            if pid not in pants_set:
                problems.append(f"curve {c.id} refers to unknown pants {pid}")
                continue
            if k not in (0, 1, 2):
                problems.append(f"curve {c.id} uses boundary index {k} outside 0..2")
                continue
            if side in seen:
                problems.append(f"boundary {side} used by curves {seen[side]} and {c.id}")
            seen[side] = c.id
    for pid in spec.pants:
        for k in range(3):
            if (pid, k) not in seen:
                problems.append(f"boundary ({pid}, {k}) is not glued to any curve")

    if not problems and len(spanning_tree_curves(spec)) != len(spec.pants) - 1:
        problems.append("gluing graph is not connected")
    return problems


def spanning_tree_curves(spec):
    """Curve ids of a spanning tree of the pants gluing multigraph,
    chosen greedily over curves sorted by id (union-find); a tree of
    the whole graph has one curve fewer than there are pants exactly
    when the graph is connected."""
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


# kind is "seam" | "arc0" | "arc1" | "crossing"
Edge = namedtuple("Edge", "start end kind")
# per pants: the curves glued at its boundaries 0, 1, 2; per boundary k
# the ids of arcs b{k}0, b{k}1 and seam k; its faces hex+ and hex-
PantsCells = namedtuple("PantsCells", "curves edges hexagons")
# per curve: the ids of its crossings x0, x1 and squares sq0, sq1, the
# pants on its sides (one for a self-glued curve), and the loop word
# around it along the arcs on its left side
CurveCells = namedtuple("CurveCells", "crossings squares pants loop")

_PANTS_CELLS = PANTS_VERTICES + tuple(PANTS_EDGES) + tuple(PANTS_FACES)
_PANTS_EDGES_BY_K = tuple((f"b{k}0", f"b{k}1", f"seam{k}") for k in range(3))
_CURVE_CELLS = ("x0", "x1", "sq0", "sq1")


def _cell_names(kind, xid, local):
    """Local cell name -> ``{kind}{xid}.{name}``, its id in the complex for
    pants ("p") and curve ("c") cells; only the complex calls this."""
    return {name: f"{kind}{xid}.{name}" for name in local}


class CellComplex:
    """The cell structure of the decomposed surface and every cell name;
    it depends on the decomposition alone, and a cocycle is the complex
    plus values.  ``faces`` maps a face id to its cycle, the word
    ((edge id, +1/-1), ...) around it counterclockwise.  ``pants``
    (pants id -> ``PantsCells``) and ``curves`` (curve id ->
    ``CurveCells``), in spec order, hold the ids cocycles are written
    and read through.  ``pairing_layout`` is the pairing kernel's part
    (:mod:`fnhol.wp`), a dict keyed by (face id, rotation), empty until
    the first kernel over the complex fills it."""

    def __init__(self, spec):
        self.spec = spec
        self.vertices = []
        self.edges = {}
        self.faces = {}
        self.pants = {}
        self.curves = {}
        self.pairing_layout = {}
        sides = {pid: [None, None, None] for pid in spec.pants}
        for c in spec.curves:
            for (p, k) in (c.left, c.right):
                sides[p][k] = c.id
        for pid in spec.pants:
            name = _cell_names("p", pid, _PANTS_CELLS)
            self.vertices += (name[v] for v in PANTS_VERTICES)
            for e, (v0, v1, kind) in PANTS_EDGES.items():
                self.edges[name[e]] = Edge(name[v0], name[v1], kind)
            for f, cycle in PANTS_FACES.items():
                self.faces[name[f]] = tuple((name[e], s) for e, s in cycle)
            self.pants[pid] = PantsCells(
                tuple(sides[pid]),
                tuple(tuple(name[e] for e in by_k) for by_k in _PANTS_EDGES_BY_K),
                (name["hex+"], name["hex-"]),
            )
        for c in spec.curves:
            (jl, kl), (jr, kr) = c.left, c.right
            (l0, l1, _), (r0, r1, _) = self.pants[jl].edges[kl], self.pants[jr].edges[kr]
            x0, x1, sq0, sq1 = _cell_names("c", c.id, _CURVE_CELLS).values()
            # crossing x{eps} joins the starts of arcs b{k}{eps} on the two sides
            self.edges[x0] = Edge(self.edges[l0].start, self.edges[r0].start, "crossing")
            self.edges[x1] = Edge(self.edges[l1].start, self.edges[r1].start, "crossing")
            self.faces[sq0] = ((x0, 1), (r1, -1), (x1, -1), (l0, -1))
            self.faces[sq1] = ((x1, 1), (r0, -1), (x0, -1), (l1, -1))
            self.curves[c.id] = CurveCells(
                (x0, x1), (sq0, sq1), (jl,) if jl == jr else (jl, jr), ((l0, 1), (l1, 1))
            )
        self._check_faces()

    def _check_faces(self):
        # every face word must close up, checked as a word read on to its
        # first edge again, and every edge must be used once with each
        # sign across all faces; walks along face cycles rely on this and
        # check nothing per step
        use = {e: [0, 0] for e in self.edges}
        for cycle in self.faces.values():
            check_word(self, cycle + cycle[:1])
            for eid, sign in cycle:
                use[eid][sign < 0] += 1
        for eid, (plus, minus) in use.items():
            if plus != 1 or minus != 1:
                raise AssertionError(f"edge {eid} used {plus}+/{minus}- times")


def build_complex(spec):
    """Build the cell complex of a valid decomposition."""
    problems = validate_surface(spec)
    if problems:
        raise ValueError(f"invalid surface: {'; '.join(problems)}")
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
    sign-free representative of its projective class) and ``fn``, the
    point of Teichmueller space it represents.

    The values are fixed once the cocycle is constructed.  Every product
    along a face word is taken by :meth:`face_walk`; the face products
    are walked once, on first use, and kept with it, and lifts of the
    cocycle (:class:`fnhol.spin.SpinSurfaceCocycle`, a subclass) read
    theirs off them.  So are the seam data that variations over it
    (:mod:`fnhol.variation`) read at ``fn``."""

    __slots__ = ("complex", "values", "fn", "_face_products", "_seam_data")

    def __init__(self, complex_, values, fn):
        self.complex = complex_
        self.values = dict(values)
        self.fn = fn
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
        cycle = self.complex.faces[fid]
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
    c0, c1, c2 = complex_.pants[pid].curves
    return pants_mod.PantsLengths(fn.lengths[c0], fn.lengths[c1], fn.lengths[c2])


def _crossing_entry(twist, name):
    """T = exp(-twist/2), which the crossing edges carry with 1/T;
    ValueError, naming the twist by ``name``, unless T and 1/T are both
    finite and nonzero (about |twist| <= 1419.56)."""
    try:
        t = math.exp(-0.5 * twist)
    except OverflowError:
        t = math.inf
    if not (0.0 < t < math.inf and 1.0 / t < math.inf):
        raise ValueError(f"{name}: {twist!r} makes exp(-twist/2) or its inverse "
                         "zero or not finite")
    return t


def assemble_cocycle(spec, fn):
    """The normalized cocycle of the hyperbolic structure with the given
    Fenchel-Nielsen coordinates."""
    complex_ = spec if isinstance(spec, CellComplex) else build_complex(spec)
    missing = complex_.curves.keys() - (fn.lengths.keys() & fn.twists.keys())
    if missing:
        raise ValueError(f"coordinates missing for curves {sorted(map(str, missing))}")
    values = {}
    for pid, cells in complex_.pants.items():
        local = pants_mod.pants_cocycle(pants_boundary_lengths(complex_, fn, pid))
        for names, ids in zip(_PANTS_EDGES_BY_K, cells.edges):
            for e, eid in zip(names, ids):
                values[eid] = local[e]
    for cid, cells in complex_.curves.items():
        t = _crossing_entry(fn.twists[cid], f"twist of curve {cid}")
        # either sign represents the class; this one, (-0.0, 1/T; -T, -0.0),
        # is the canonical sign of a report, chosen because the sign of a
        # zero entry can show in a written holonomy matrix
        crossing = -Mat2(0.0, -1.0 / t, t, 0.0, check=False)
        for eid in cells.crossings:
            values[eid] = crossing
    return SurfaceCocycle(complex_, values, fn)


def _cocycle_at(spec, fn):
    """The base cocycle at fn of a variation, a pairing matrix or a spin
    lift: a decomposition or complex assembled at fn, or a cocycle as it
    is, which must have been assembled at fn (the same point or one with
    equal lengths and twists); ValueError if it was not."""
    if not isinstance(spec, SurfaceCocycle):
        return assemble_cocycle(spec, fn)
    at = spec.fn
    if fn is not at and (fn.lengths != at.lengths or fn.twists != at.twists):
        raise ValueError("the cocycle was assembled at another point than fn")
    return spec


def holonomy(cocycle, word):
    """The product of the edge values along a composable edge word,
    renormalized: a sign-free representative for the assembled cocycle,
    the determinant-one matrix whose trace sign counts for a spin lift.

    ``word`` is a sequence of (edge id, +1/-1); reversed edges
    contribute inverses.  The empty word gives the identity."""
    check_word(cocycle.complex, word)
    return walk(cocycle.values, word).renormalized()


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


def extract_fn(cocycle):
    """Read the Fenchel-Nielsen coordinates back off a normalized
    cocycle: lengths from the boundary loops, twists as -2 log T from
    the crossing edges (a real number, not reduced modulo the length)."""
    lengths = {}
    twists = {}
    for cid, cells in cocycle.complex.curves.items():
        lengths[cid] = translation_length(walk(cocycle.values, cells.loop).renormalized())
        m = cocycle.values[cells.crossings[0]]
        scale = m.norm()
        if abs(m.a) > 1e-8 * scale or abs(m.d) > 1e-8 * scale:
            raise NonStandardCocycleError(
                f"crossing edge of curve {cid} is not antidiagonal"
            )
        t = m.c if m.c > 0.0 else -m.c
        if t == 0.0:
            raise NonStandardCocycleError(f"crossing edge of curve {cid} is singular")
        twists[cid] = -2.0 * math.log(t)
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
