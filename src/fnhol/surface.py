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

Lengths pass the one length rule of :mod:`fnhol.pants`: assembly checks
each curve's length by name, then hands each pants its three lengths,
read off the complex's tables and the point.  The accepted twists and
spin sign data, the rest of the domain, are checked here.
"""

import math
import weakref
from collections import namedtuple

from .mat2 import Mat2, _identity_distances, _max_or_nan, _renormalized, translation_length, walk
from . import pants as pants_mod
from .pants import _EDGES_BY_K, PANTS_EDGES, PANTS_FACES, PANTS_VERTICES, _check_length, _written

__all__ = [
    "SurfaceSpec",
    "Curve",
    "CellComplex",
    "FNPoint",
    "SurfaceCocycle",
    "spanning_tree_curves",
    "build_complex",
    "assemble_cocycle",
    "holonomy",
    "extract_fn",
    "parse_word",
    "check_word",
    "NonStandardCocycleError",
    "SpinSignError",
]

class NonStandardCocycleError(ValueError):
    """The cocycle does not have the normalized shape this operation
    reads its data from."""


class SpinSignError(ValueError):
    """Spin sign data outside the accepted domain (:func:`_check_eps`,
    :func:`_check_crossing_signs`), or a lift that fails its check."""


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


def _problems_and_tree(spec):
    """(the problems with a decomposition's pairing, connectivity and
    genus bookkeeping, the curves of :func:`spanning_tree_curves` or None
    when a problem is found before the tree is sought)."""
    problems = []
    if spec.genus < 2:
        problems.append(f"genus {_written(spec.genus)} must be at least 2")
        return problems, None
    if len(set(spec.pants)) != len(spec.pants):
        problems.append("pants ids are not distinct")
    if len(set(c.id for c in spec.curves)) != len(spec.curves):
        problems.append("curve ids are not distinct")
    # cell names and JSON keys are built from str(id)
    for kind, ids in (("pants", spec.pants), ("curve", spec.curve_ids())):
        by_str = {}
        for x in ids:
            try:
                y = by_str.setdefault(str(x), x)
            except ValueError:  # the messages below name the ids
                problems.append(f"{kind} id {_written(x)} has no string form")
                return problems, None
            if y != x:
                problems.append(f"{kind} ids {y!r} and {x!r} have the same string form")
    if len(spec.pants) != 2 * spec.genus - 2:
        problems.append(f"expected {_written(2 * spec.genus - 2)} pants, got {len(spec.pants)}")
    if len(spec.curves) != 3 * spec.genus - 3:
        problems.append(f"expected {_written(3 * spec.genus - 3)} curves, got {len(spec.curves)}")

    pants_set = set(spec.pants)
    seen = {}
    for c in spec.curves:
        if c.left == c.right:
            problems.append(f"curve {c.id} glues a boundary to itself")
        for side in (c.left, c.right):
            pid, k = side
            if pid not in pants_set:
                problems.append(f"curve {c.id} refers to unknown pants {_written(pid)}")
                continue
            if k not in (0, 1, 2):
                problems.append(f"curve {c.id} uses boundary index {_written(k)} outside 0..2")
                continue
            if side in seen:
                problems.append(f"boundary {side} used by curves {seen[side]} and {c.id}")
            seen[side] = c.id
    for pid in spec.pants:
        for k in range(3):
            if (pid, k) not in seen:
                problems.append(f"boundary ({pid}, {k}) is not glued to any curve")

    if problems:
        return problems, None
    tree = spanning_tree_curves(spec)
    if len(tree) != len(spec.pants) - 1:
        problems.append("gluing graph is not connected")
    return problems, tree


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
# per pants: the curves glued at its boundaries 0, 1, 2; per boundary k the
# ids of arcs b{k}0, b{k}1 and seam k; hex+ and hex-; per boundary k its loop
PantsCells = namedtuple("PantsCells", "curves edges hexagons loops")
# per curve: the ids of its crossings x0, x1 and squares sq0, sq1, the pants
# on its sides (one for a self-glued curve), and its left side's loop word
CurveCells = namedtuple("CurveCells", "crossings squares pants loop")

# A pants' local cell names (vertices, edges, then hex+ and hex-), whose
# ids the complex stamps from one prefix, and its rows as positions there
_PANTS_CELLS = PANTS_VERTICES + tuple(PANTS_EDGES) + tuple(PANTS_FACES)
_AT = {name: i for i, name in enumerate(_PANTS_CELLS)}
_PANTS_EDGE_ROWS = [(_AT[e], _AT[v0], _AT[v1], kind) for e, (v0, v1, kind) in PANTS_EDGES.items()]
_PANTS_FACE_ROWS = [(_AT[f], [(_AT[e], s) for e, s in cycle]) for f, cycle in PANTS_FACES.items()]
_PANTS_ROWS_BY_K = [[_AT[e] for e in by_k] for by_k in _EDGES_BY_K]
_CURVE_CELLS = ("x0", "x1", "sq0", "sq1")


def _pants_curves(spec):
    """Pants id -> the ids of the curves glued at its boundaries 0, 1, 2."""
    sides = {pid: [None, None, None] for pid in spec.pants}
    for c in spec.curves:
        for p, k in (c.left, c.right):
            sides[p][k] = c.id
    return {pid: tuple(curves) for pid, curves in sides.items()}


class CellComplex:
    """The cell structure of the decomposed surface and every cell name;
    it depends on the decomposition alone, and a cocycle is the complex
    plus values.  ``faces`` maps a face id to its cycle, the word
    ((edge id, +1/-1), ...) around it counterclockwise.  Each is a pants
    hexagon (:data:`fnhol.pants.PANTS_FACES`) or a curve square with the
    complex's names filled in, so on any valid decomposition every cycle
    closes up and the faces use every edge once with each sign: a
    property of this code, not of its input, which the tests hold and
    building a complex does not check.  ``pants``
    (pants id -> ``PantsCells``) and ``curves`` (curve id ->
    ``CurveCells``), in spec order, hold the ids cocycles are written
    and read through, stamped once from a prefix per pants and curve;
    ``tree`` holds the curves of :func:`spanning_tree_curves`, found when
    the decomposition was validated, whose crossing signs every spin lift
    keeps at +1.
    ``pairing_layout`` is the pairing kernel's part
    (:mod:`fnhol.wp`), a dict keyed by (face id, rotation), empty until
    the first kernel over the complex fills it.  The complex also
    remembers the standard cocycle of the last point a library entry
    point asked of it (:func:`_cocycle_at`)."""

    def __init__(self, spec, tree):
        self.spec = spec
        self.tree = tree
        self.vertices = vertices = []
        self.edges = edges = {}
        self.faces = faces = {}
        self.pants = pants = {}
        self.curves = {}
        self.pairing_layout = {}
        # (lengths, twists, weak reference to the cocycle): copies of
        # the point's coordinates and the cocycle assembled there.  Weak,
        # because the cocycle refers to the complex: a strong slot would
        # make every complex a reference cycle that outlives its last
        # user until the cyclic garbage collector runs
        self._last_cocycle = None
        sides = _pants_curves(spec)
        for pid in spec.pants:
            prefix = f"p{pid}."
            ids = [prefix + name for name in _PANTS_CELLS]
            vertices += ids[:len(PANTS_VERTICES)]
            for e, v0, v1, kind in _PANTS_EDGE_ROWS:
                edges[ids[e]] = Edge(ids[v0], ids[v1], kind)
            for f, cycle in _PANTS_FACE_ROWS:
                faces[ids[f]] = tuple([(ids[e], s) for e, s in cycle])
            by_k = tuple([(ids[a0], ids[a1], ids[seam]) for a0, a1, seam in _PANTS_ROWS_BY_K])
            pants[pid] = PantsCells(sides[pid], by_k, tuple(ids[-2:]),
                                    tuple([((a0, 1), (a1, 1)) for a0, a1, _ in by_k]))
        for c in spec.curves:
            (jl, kl), (jr, kr) = c.left, c.right
            (l0, l1, _), (r0, r1, _) = pants[jl].edges[kl], pants[jr].edges[kr]
            prefix = f"c{c.id}."
            x0, x1, sq0, sq1 = [prefix + name for name in _CURVE_CELLS]
            # crossing x{eps} joins the starts of arcs b{k}{eps} on the two sides
            edges[x0] = Edge(edges[l0].start, edges[r0].start, "crossing")
            edges[x1] = Edge(edges[l1].start, edges[r1].start, "crossing")
            faces[sq0] = ((x0, 1), (r1, -1), (x1, -1), (l0, -1))
            faces[sq1] = ((x1, 1), (r0, -1), (x0, -1), (l1, -1))
            self.curves[c.id] = CurveCells(
                (x0, x1), (sq0, sq1), (jl,) if jl == jr else (jl, jr), pants[jl].loops[kl]
            )


def _valid_tree(spec):
    """The spanning tree of a valid decomposition; ValueError naming every
    problem of :func:`_problems_and_tree` if it is not valid."""
    problems, tree = _problems_and_tree(spec)
    if problems:
        raise ValueError(f"invalid surface: {'; '.join(problems)}")
    return tree


def build_complex(spec):
    """Build the cell complex of a valid decomposition; it keeps the
    spanning tree its validation found."""
    return CellComplex(spec, _valid_tree(spec))


class FNPoint:
    """Fenchel-Nielsen coordinates: a length and a twist per curve."""

    __slots__ = ("lengths", "twists")

    def __init__(self, lengths, twists):
        self.lengths = dict(lengths)
        self.twists = dict(twists)

    def __repr__(self):
        return f"FNPoint({self.lengths!r}, {self.twists!r})"


class SurfaceCocycle:
    """A holonomy cocycle on the cell complex (edge id -> Mat2, each a
    sign-free representative of its projective class) and ``fn``, the
    point of Teichmueller space it represents.

    The values are fixed once the cocycle is constructed.  Every product
    along a face word is taken by :meth:`face_walk`; the face products
    are walked once, on first use, and kept, and :meth:`face_residual`
    reads its face's kept product on every call.  The cocycle also
    keeps, each made on first use, every boundary loop's product
    (:meth:`loop_product`), the seam data that variations over it
    (:mod:`fnhol.variation`) read at ``fn``, the pairing kernel over it
    (:mod:`fnhol.wp`) and ``_lifts``, what its lifts
    (:class:`fnhol.spin.SpinSurfaceCocycle`, a subclass) share, which
    only :mod:`fnhol.spin` reads or writes."""

    __slots__ = ("complex", "values", "fn", "_face_products", "_loops", "_seam_data",
                 "_pairing_kernel", "_lifts", "__weakref__")

    def __init__(self, complex_, values, fn):
        self.complex = complex_
        self.values = dict(values)
        self.fn = fn
        self._face_products = None
        self._loops = None
        self._seam_data = None
        self._pairing_kernel = None
        self._lifts = None

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
        kernel reads its transports from them."""
        cycle = self.complex.faces[fid]
        for start in range(len(cycle)):
            if prefixes is not None:
                prefixes.clear()
            product = walk(self.values, cycle[start:] + cycle[:start], prefixes)
            if product.is_finite():
                break
        return start, product

    def face_products(self):
        """Face id -> the product of :meth:`face_walk`, one walk per face,
        walked on the first call and kept."""
        if self._face_products is None:
            self._face_products = {fid: self.face_walk(fid)[1] for fid in self.complex.faces}
        return self._face_products

    def face_residual(self, fid):
        """Distance of the renormalized face product from +-I (ValueError if det <= 0)."""
        m = self.face_products()[fid]
        return min(_identity_distances(*_renormalized(m.a, m.b, m.c, m.d)))

    def max_face_residual(self):
        """The largest :meth:`face_residual`, nan if any is nan."""
        return _max_or_nan(map(self.face_residual, self.complex.faces))

    def loop_product(self, word):
        """The product along a pants boundary loop (``PantsCells.loops``),
        walked on its first read and kept; None for any other word."""
        loops = self._loops
        if loops is None:
            loops = self._loops = dict.fromkeys(
                loop for cells in self.complex.pants.values() for loop in cells.loops)
        product = loops.get(word)
        if product is None and word in loops:
            product = loops[word] = walk(self.values, word)
        return product


def _crossing_entry(twist, name):
    """T = exp(-twist/2), which the crossing edges carry with 1/T;
    ValueError, naming the twist by ``name``, unless T and 1/T are both
    finite and nonzero (about |twist| <= 1419.56)."""
    try:
        t = math.exp(-0.5 * twist)
    except OverflowError:
        t = math.inf
    if not (0.0 < t < math.inf and 1.0 / t < math.inf):
        raise ValueError(f"{name}: {_written(twist, repr)} makes exp(-twist/2) or its inverse "
                         "zero or not finite")
    return t


# The accepted spin sign data, one rule for the library and the command line:
# each sign a number equal to +1 or -1 and not a bool (so -1.0 passes)
def _check_signs(signs, curves, name):
    """SpinSignError naming the field ``name`` unless each key is in ``curves``
    with a sign; ``"<name>.<key>"`` is formatted only for a refused sign."""
    for key, value in signs.items():
        if key not in curves:
            raise SpinSignError(f"{name}: unknown curve {_written(key, repr)}")
        if isinstance(value, bool) or value not in (-1, 1):
            raise SpinSignError(f"{name}.{key}: expected +-1, got {_written(value, repr)}")


def _check_eps(eps, pants_curves, name):
    """``eps`` (curve id -> boundary sign) if it holds a sign for each curve
    of ``pants_curves`` (pants id -> its three curve ids) and nothing else,
    multiplying to -1 around every pants (a curve glued to one pants twice
    contributes +1); SpinSignError naming the field ``name`` if not."""
    curves = {c for sides in pants_curves.values() for c in sides}
    _check_signs(eps, curves, name)
    if len(eps) != len(curves):
        raise SpinSignError(f"{name}: must assign a sign to every curve")
    for c0, c1, c2 in pants_curves.values():
        if eps[c0] * eps[c1] * eps[c2] != -1:
            raise SpinSignError(f"{name}: boundary signs must multiply to -1 around every pants")
    return eps


def _check_crossing_signs(signs, spec, tree, name):
    """The crossing sign of every curve of ``spec``: ``signs`` (curve id ->
    sign, or None), +1 where it holds none.  SpinSignError naming the field
    ``name`` unless each key names a curve and holds a sign, and every curve
    of ``tree``, the spanning tree of ``spec``'s validation, keeps +1."""
    out = dict.fromkeys(spec.curve_ids(), 1)
    if signs:
        _check_signs(signs, out, name)
        out.update(signs)
        for cid in tree:
            if out[cid] != 1:
                raise SpinSignError(f"{name}: crossing sign on tree curve {cid} must be +1")
    return out


def assemble_cocycle(spec, fn):
    """The normalized cocycle of the hyperbolic structure with the given
    Fenchel-Nielsen coordinates, a fresh one on every call.  ValueError,
    naming the curve, when a coordinate is missing, when a length is
    outside the accepted range (:func:`fnhol.pants._check_length`) or
    when a twist is outside what the crossing entries take
    (:func:`_crossing_entry`); every cocycle it returns is finite."""
    complex_ = spec if isinstance(spec, CellComplex) else build_complex(spec)
    missing = complex_.curves.keys() - (fn.lengths.keys() & fn.twists.keys())
    if missing:
        raise ValueError(f"coordinates missing for curves {sorted(map(str, missing))}")
    lengths = fn.lengths
    for cid in complex_.curves:
        _check_length(lengths[cid], f"length of curve {cid}")
    values = {}
    for cells in complex_.pants.values():
        local = pants_mod.pants_cocycle([lengths[c] for c in cells.curves])
        for names, ids in zip(_EDGES_BY_K, cells.edges):
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
    lift.  A cocycle is used as it is, and must have been assembled at
    fn (the same point or one with equal lengths and twists); ValueError
    if it was not.  A decomposition is assembled at fn on a fresh
    complex.  A complex reuses the cocycle of the last point asked of it
    when fn has equal lengths and twists and that cocycle is still in
    use (held by the caller, a variation over it or a lift of it), and
    otherwise assembles one at a copy of fn and remembers it in place of
    that one; the complex compares against copies of its own, so a
    caller who changes fn afterwards is never handed a cocycle of the
    old point."""
    if isinstance(spec, SurfaceCocycle):
        at = spec.fn
        if fn is not at and (fn.lengths != at.lengths or fn.twists != at.twists):
            raise ValueError("the cocycle was assembled at another point than fn")
        return spec
    if not isinstance(spec, CellComplex):
        return assemble_cocycle(spec, fn)
    last = spec._last_cocycle
    if last is not None and fn.lengths == last[0] and fn.twists == last[1]:
        cocycle = last[2]()
        if cocycle is not None:
            return cocycle
    cocycle = assemble_cocycle(spec, FNPoint(fn.lengths, fn.twists))
    spec._last_cocycle = (dict(fn.lengths), dict(fn.twists), weakref.ref(cocycle))
    return cocycle


def holonomy(cocycle, word):
    """The product of the edge values along a composable edge word,
    renormalized: a sign-free representative for the assembled cocycle,
    the determinant-one matrix whose trace sign counts for a spin lift.

    ``word`` is any iterable of (edge id, +1/-1) steps, read once;
    reversed edges contribute inverses.  The empty word gives the
    identity.  ValueError when the word is not composable, or when its
    product overflows a double (an entry or the determinant is not
    finite)."""
    word = tuple(word)
    check_word(cocycle.complex, word)
    return _renormalized_product(walk(cocycle.values, word))


def _renormalized_product(product):
    """A walked word's product as :func:`holonomy` returns it, or ValueError."""
    if not math.isfinite(product.det()):
        raise ValueError("word: its product overflows a double")
    return product.renormalized()


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
        lengths[cid] = translation_length(cocycle.loop_product(cells.loop).renormalized())
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
