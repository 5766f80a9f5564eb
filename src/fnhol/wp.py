"""The Weil-Petersson pairing as a cellular cup product.

Two variation cocycles z1, z2 are paired by the trace form
B(X, Y) = trace(XY) against a cellular approximation of the diagonal
map of the surface.  On a face whose counterclockwise boundary reads
s_1 ... s_n (signed edges hat{s}_i = sigma_i e_i), a valid degree-(1,1)
diagonal chain is

    - sum_{i<j} hat{s}_j x hat{s}_i  -  sum_{sigma_i = -1} e_i x e_i,

together with corner terms that never meet a (1,1) pairing.  Any two
chains with the same restriction to the boundary pair identically
against closed cocycles (the closed face is contractible), so the
result is independent of the basepoint, the transport paths, and the
interior filling; the tests exercise that freedom.

Orientation bookkeeping: boundary arcs ``b{k}1`` enter the diagonal
chains with reversed orientation throughout (one global convention for
all faces), which is what localizes the pairing on the annuli: the two
squares of curve i contribute exactly (dtau_i ^ dl_i) and each pants'
hexagons plus its two bigon corrections contribute zero.

The bigon corrections are the self-terms +b10 x b10 - b11 x b11 along
one boundary circle of each pants; their pairings cancel exactly and
they are kept as explicit terms rather than omitted.

The terms of a chain, their signs and which positions of the cycle they
pair, depend only on the exponents with which the cycle runs its
generators; :func:`_chain_shape` computes them once per pattern, and a
surface has only a few (its hexagons and squares).

The pairing is a bilinear form on H^1, so :class:`PairingKernel` builds
it once per base cocycle, and the cocycle keeps it: per face, the
prefix products of the cocycle's one face walk
(:meth:`SurfaceCocycle.face_walk`) are the transport matrices of every
position of its cycle.  A variation cocycle is transported once,
visiting only the edges it carries, into its values per face id at the
positions of that face's cycle, and the pairing of two transported
cocycles is a contraction over the faces they share, one face at a
time.  Values that are exactly zero are left out; every sum is a
``math.fsum``, which is correctly rounded in any order, and
:func:`pair_on_face` transports along the same left-to-right products,
so the result is the same to the bit as the face-by-face sum.

:func:`wp_matrix` transports each coordinate direction once through
one kernel.  A direction carries values on a few faces only, so it
pairs only the directions that share a face, each pair by the kernel's
one contraction; the rest of the matrix is zero.  Its cost grows
linearly in the genus.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .mat2 import Mat2, _max_or_nan, ad_action, walk
from .surface import _cocycle_at
from .variation import TangentVector, variation_cocycle

__all__ = [
    "killing_form",
    "DiagonalTerm",
    "FaceChain",
    "diagonal_chain",
    "pants_bigon_chain",
    "pair_chain",
    "pair_on_face",
    "PairingKernel",
    "wp_pairing",
    "wolpert_reference",
    "wp_matrix",
    "block_form_deviation",
]

# boundary arcs b{k}1 are carried with reversed orientation in every
# diagonal chain
_REVERSED_KINDS = frozenset({"arc1"})


def killing_form(x, y):
    """trace(XY) = 2 x_X x_Y + y_X z_Y + z_X y_Y on traceless matrices."""
    return 2.0 * x.x * y.x + x.y * y.z + x.z * y.y


class DiagonalTerm(
    namedtuple("DiagonalTerm", "sign first second path_first path_second")
):
    """One product cell e' x e'' of a diagonal chain.

    ``first``/``second`` are (edge id, +1/-1) giving the edge with the
    orientation the chain carries it in; ``path_first``/``path_second``
    run from the face basepoint to the start vertex of that oriented
    edge along the face boundary."""

    __slots__ = ()


class FaceChain(namedtuple("FaceChain", "face_id basepoint terms")):
    """Degree-(1,1) part of a diagonal chain on one face."""

    __slots__ = ()


def _oriented_cycle(complex_, fid, start):
    """The face cycle rewritten in the chain orientations, rotated to
    begin at position ``start``: a list of ((edge id, orientation),
    exponent) pairs, where the oriented edge is the generator the chain
    uses and the exponent is how the rotated cycle traverses it."""
    cycle = complex_.faces[fid]
    n = len(cycle)
    out = []
    for i in range(n):
        eid, sign = cycle[(start + i) % n]
        orient = -1 if complex_.edges[eid].kind in _REVERSED_KINDS else 1
        out.append(((eid, orient), sign * orient))
    return out


@lru_cache(maxsize=None)
def _chain_shape(exponents):
    """The diagonal chain of a face cycle that runs its i-th generator
    with exponent ``exponents[i]``, by positions: the terms as
    (sign, j, i) for sign * gen_j x gen_i, and per position the length
    of the cycle prefix that runs from the basepoint to the start of the
    generator (one step longer when the cycle runs it backwards).

    Faces have cycles of length 4 or 6, so there are at most 80 patterns
    and the cache stays small."""
    terms = []
    for j, exp_j in enumerate(exponents):
        for i in range(j):
            terms.append((-exponents[i] * exp_j, j, i))
        if exp_j < 0:
            terms.append((-1, j, j))
    uptos = tuple(i if e > 0 else i + 1 for i, e in enumerate(exponents))
    return tuple(terms), uptos


def diagonal_chain(complex_, fid, start=0):
    """Diagonal chain of the face, based at the vertex where the
    (rotated) boundary cycle begins.

    ``start`` rotates the boundary cycle; all rotations pair
    identically against closed cocycles."""
    if fid not in complex_.faces:
        raise KeyError(f"unknown face {fid!r}")
    cycle = complex_.faces[fid]
    n = len(cycle)
    rotated = tuple(cycle[(start + i) % n] for i in range(n))
    gens = _oriented_cycle(complex_, fid, start)

    first_eid, first_sign = rotated[0]
    edge0 = complex_.edges[first_eid]
    basepoint = edge0.start if first_sign > 0 else edge0.end

    terms, uptos = _chain_shape(tuple(exponent for _, exponent in gens))
    paths = [rotated[:upto] for upto in uptos]
    return FaceChain(
        fid,
        basepoint,
        tuple(
            DiagonalTerm(sign, gens[j][0], gens[i][0], paths[j], paths[i])
            for sign, j, i in terms
        ),
    )


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


def _transported(cocycle, variation, oriented_edge, path):
    """The variation value on the oriented edge, moved to the basepoint
    along ``path`` (which runs basepoint -> start-of-edge)."""
    eid, orient = oriented_edge
    z = variation.value(eid, orient)
    if path:
        z = ad_action(walk(cocycle.values, path).renormalized(), z)
    return z


# The raw cup-product sum reproduces wedge products in the averaged
# convention (a^b = (a@b - b@a)/2); this factor converts to the
# determinant convention used by wolpert_reference, under which the
# pairing of the dtau_i and dl_i directions is exactly 1.
PAIRING_NORMALIZATION = 2.0


def pair_chain(cocycle, z1, z2, chain):
    """Pair two variation cocycles against one face chain."""
    total = []
    for term in chain.terms:
        a = _transported(cocycle, z1, term.first, term.path_first)
        b = _transported(cocycle, z2, term.second, term.path_second)
        total.append(term.sign * killing_form(a, b))
    return PAIRING_NORMALIZATION * math.fsum(total)


def pair_on_face(cocycle, z1, z2, fid, start=0):
    return pair_chain(cocycle, z1, z2, diagonal_chain(cocycle.complex, fid, start))


def _face_part(terms, values1, values2):
    """One face's part of the pairing of two transported variations, each
    its values at the positions of the face cycle: the fsum of the chain
    terms.  With finite values, a term with an exactly zero value (None)
    contributes an exact zero, which no fsum can see."""
    total = []
    for sign, j, i in terms:
        x = values1[j]
        if x is not None:
            y = values2[i]
            if y is not None:
                total.append(sign * killing_form(x, y))
    return PAIRING_NORMALIZATION * math.fsum(total)


def _face_layout(complex_, fid, start):
    """The face's part of the kernel at rotation ``start`` of its cycle,
    less the cocycle's moves: the :func:`_chain_shape` terms, the
    distinct nonzero prefix lengths whose products are the moves, and
    per position (edge id, chain orientation, prefix length).  It is
    kept in the complex's ``pairing_layout`` under (face id, start),
    made when a face walk first begins there."""
    layout = complex_.pairing_layout.get((fid, start))
    if layout is None:
        gens = _oriented_cycle(complex_, fid, start)
        terms, uptos = _chain_shape(tuple(exponent for _, exponent in gens))
        positions = tuple(
            (eid, orient, upto) for ((eid, orient), _), upto in zip(gens, uptos)
        )
        layout = complex_.pairing_layout[fid, start] = (
            terms, tuple(set(uptos) - {0}), positions
        )
    return layout


class PairingKernel:
    """The pairing against one base cocycle, assembled once.

    Per face the kernel takes the running products of the cocycle's face
    walk, begun at the rotation the walk chose, and positions count from
    there: the move of a position is its prefix product P_upto of the
    edge values, renormalized, the holonomy of the path from the
    basepoint to the start of the edge carried there.  Everything else,
    the chain terms of that rotation and which prefix each position
    reads, is the complex's layout (:func:`_face_layout`)."""

    def __init__(self, cocycle):
        complex_ = cocycle.complex
        self._edge_positions = {}  # edge id -> (orientation, [(face id, position, move or None)])
        self._face_terms = {}  # face id -> (cycle length, chain terms)
        for fid, cycle in complex_.faces.items():
            prefixes = []
            start, _ = cocycle.face_walk(fid, prefixes)
            terms, stops, positions = _face_layout(complex_, fid, start)
            moves = {0: None}  # the empty path needs no move
            for upto in stops:
                moves[upto] = Mat2(*prefixes[upto - 1], check=False).renormalized()
            for pos, (eid, orient, upto) in enumerate(positions):
                held = self._edge_positions.setdefault(eid, (orient, []))[1]
                held.append((fid, pos, moves[upto]))
            self._face_terms[fid] = (len(cycle), terms)

    def transport(self, variation):
        """The variation's values on the faces of the edges it carries,
        moved to each face basepoint: face id -> its values at the
        positions of the face cycle, None where a value is exactly zero.
        Faces where every value is exactly zero are left out."""
        transported = {}
        edge_positions = self._edge_positions
        face_terms = self._face_terms
        for eid, z in variation.values.items():
            if not (z.x or z.y or z.z):
                continue  # every transport of an exact zero is one
            orient, held = edge_positions[eid]
            if orient < 0:
                z = variation.value(eid, orient)
            for fid, pos, move in held:
                v = z if move is None else ad_action(move, z)
                if v.x or v.y or v.z:
                    values = transported.get(fid)
                    if values is None:
                        values = transported[fid] = [None] * face_terms[fid][0]
                    values[pos] = v
        return transported

    def pair(self, t1, t2):
        """The pairing of two transported variation cocycles: the fsum of
        their parts on the faces they share (:func:`_face_part`), which
        is correctly rounded in any face order."""
        face_terms = self._face_terms
        return math.fsum(
            _face_part(face_terms[fid][1], t1[fid], t2[fid]) for fid in t1.keys() & t2.keys()
        )


def _kernel(cocycle):
    """The pairing kernel over the cocycle, built on first use and kept
    with it."""
    if cocycle._pairing_kernel is None:
        cocycle._pairing_kernel = PairingKernel(cocycle)
    return cocycle._pairing_kernel


def wp_pairing(cocycle, z1, z2):
    """The Weil-Petersson pairing of two variation cocycles: the sum of
    all face contributions, correctly rounded.

    The face chains already assemble into a diagonal cycle, so the bigon
    corrections of :func:`pants_bigon_chain` are not part of the sum
    (their two terms cancel identically on variation cocycles).  Both
    variations must be taken at the cocycle's point (ValueError if not),
    since their values on reversed edges are read through their own
    base."""
    for z in (z1, z2):
        _cocycle_at(cocycle, z.base.fn)
    kernel = _kernel(cocycle)
    return kernel.pair(kernel.transport(z1), kernel.transport(z2))


def wolpert_reference(u, v):
    """sum_i (dtau_i(u) dl_i(v) - dl_i(u) dtau_i(v)), the twist-length
    expression the pairing must reproduce."""
    curves = set(u.dl) | set(u.dtau) | set(v.dl) | set(v.dtau)
    return math.fsum(
        u.dtau.get(c, 0.0) * v.dl.get(c, 0.0) - u.dl.get(c, 0.0) * v.dtau.get(c, 0.0)
        for c in curves
    )


def wp_matrix(spec, fn):
    """The pairing matrix over the coordinate directions, ordered as all
    length directions then all twist directions (curves sorted by id).

    ``spec`` is a decomposition, assembled at fn; a cell complex, which
    reuses the cocycle of the last point asked of it while that cocycle
    is in use and has fn's lengths and twists; or a cocycle at fn.  The cocycle is the
    base of every direction.
    Returns (labels, matrix) with matrix[i][j] the pairing of direction
    i against direction j; the exact value is the block form with
    matrix[dl_i][dtau_i] = -1 and matrix[dtau_i][dl_i] = +1.

    Each direction acts on a few faces only, so only the pairs of
    directions present on a common face are paired
    (:meth:`PairingKernel.pair`); every other entry is zero."""
    base = _cocycle_at(spec, fn)
    curves = sorted((c.id for c in base.complex.spec.curves), key=str)
    labels = [f"dl[{c}]" for c in curves] + [f"dtau[{c}]" for c in curves]
    basis = [TangentVector({c: 1.0}, {}) for c in curves] + [
        TangentVector({}, {c: 1.0}) for c in curves
    ]
    kernel = _kernel(base)
    transported = [kernel.transport(variation_cocycle(base, base.fn, v)) for v in basis]
    present = {}  # face id -> the directions with a nonzero value on it
    for d, values in enumerate(transported):
        for fid in values:
            present.setdefault(fid, []).append(d)
    matrix = [[0.0] * len(basis) for _ in basis]
    for i, j in {(i, j) for ds in present.values() for i in ds for j in ds}:
        matrix[i][j] = kernel.pair(transported[i], transported[j])
    return labels, matrix


def block_form_deviation(matrix):
    """Largest |matrix[i][j] - expected| over a pairing matrix in the
    order of :func:`wp_matrix`, where expected is the twist-length block
    form (-1 at [dl_i][dtau_i], +1 at [dtau_i][dl_i], 0 elsewhere).  A
    NaN entry makes the result NaN, so no bound can pass it."""
    n = len(matrix) // 2
    deviations = []
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            expected = 0.0
            if i < n and j == n + i:
                expected = -1.0
            elif i >= n and j == i - n:
                expected = 1.0
            deviations.append(abs(value - expected))
    return _max_or_nan(deviations)
