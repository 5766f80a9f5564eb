import math
from collections import defaultdict

import pytest

import fnhol.surface
import fnhol.variation
import fnhol.wp
from fnhol.mat2 import Mat2, TracelessMat2
from fnhol.surface import (
    FNPoint,
    SurfaceCocycle,
    assemble_cocycle,
    build_complex,
    validate_surface,
)
from fnhol.variation import (
    TangentVector,
    VariationCocycle,
    coboundary,
    fd_variation,
    variation_cocycle,
)
from fnhol.wp import (
    PairingKernel,
    block_form_deviation,
    diagonal_chain,
    killing_form,
    pair_chain,
    pair_on_face,
    pants_bigon_chain,
    wolpert_reference,
    wp_matrix,
    wp_pairing,
)
from conftest import (
    caterpillar,
    comb,
    genus2_spec,
    genus3_spec,
    handle_spec,
    random_fn,
    random_tangent,
    rng_for,
)


def test_killing_form_values():
    H = TracelessMat2.diag(1.0)
    K = TracelessMat2.offdiag(1.0)
    J = TracelessMat2(0.0, -1.0, 1.0)
    assert killing_form(H, H) == 2.0
    assert killing_form(H, K) == 0.0
    assert killing_form(K, J) == 0.0
    X = TracelessMat2(0.3, -1.2, 0.4)
    Y = TracelessMat2(-0.8, 0.1, 2.0)
    assert abs(killing_form(X, Y) - (2 * 0.3 * -0.8 + -1.2 * 2.0 + 0.4 * 0.1)) < 1e-15


# -- formal verification that each face chain really approximates the
# -- diagonal: its boundary must equal the image of the face boundary
# -- under the edgewise approximation e -> e x start + end x e


def _edge_chain_orientation(complex_, eid):
    return -1 if complex_.edges[eid].kind == "arc1" else 1


def _formal_boundary_of_chain(complex_, chain, fid):
    """Boundary of [terms + E x base + base x E] as a chain over the
    product cells e x v and v x e."""
    out = defaultdict(float)
    for term in chain.terms:
        (e1, o1), (e2, o2) = term.first, term.second
        coef = term.sign * o1 * o2  # oriented edges as +-(natural cell)
        a, b = complex_.edges[e1], complex_.edges[e2]
        # d(e1 x e2) = (de1) x e2 - e1 x (de2)
        out[("VE", a.end, e2)] += coef
        out[("VE", a.start, e2)] -= coef
        out[("EV", e1, b.end)] -= coef
        out[("EV", e1, b.start)] += coef
    for eid, sign in complex_.faces[fid]:
        out[("EV", eid, chain.basepoint)] += sign  # from d(E x base)
        out[("VE", chain.basepoint, eid)] += sign  # from d(base x E)
    return out


def _formal_diagonal_of_face_boundary(complex_, fid):
    # the edgewise approximation maps the natural generator e to
    # e x (oriented start) + (oriented end) x e, where "oriented" refers
    # to the chain orientation of the edge (reversed for b{k}1 arcs)
    out = defaultdict(float)
    for eid, sign in complex_.faces[fid]:
        edge = complex_.edges[eid]
        orient = _edge_chain_orientation(complex_, eid)
        v0, v1 = (edge.start, edge.end) if orient > 0 else (edge.end, edge.start)
        out[("EV", eid, v0)] += sign
        out[("VE", v1, eid)] += sign
    return out


@pytest.mark.parametrize("spec_fn", [genus2_spec, handle_spec])
def test_diagonal_chains_have_correct_boundary(spec_fn):
    complex_ = build_complex(spec_fn())
    for fid in complex_.faces:
        chain = diagonal_chain(complex_, fid)
        lhs = _formal_boundary_of_chain(complex_, chain, fid)
        rhs = _formal_diagonal_of_face_boundary(complex_, fid)
        keys = set(lhs) | set(rhs)
        for key in keys:
            assert abs(lhs.get(key, 0.0) - rhs.get(key, 0.0)) < 1e-12, (fid, key)


def test_chain_shape():
    complex_ = build_complex(genus2_spec())
    sq = diagonal_chain(complex_, "c0.sq0")
    hx = diagonal_chain(complex_, "p0.hex+")
    # n(n-1)/2 ordered pairs plus one self-term per reversed edge
    assert len(sq.terms) == 6 + 2
    assert len(hx.terms) == 15 + 3
    for term in sq.terms + hx.terms:
        for path in (term.path_first, term.path_second):
            # transport paths stay on the face boundary
            face_edges = {e for e, _ in complex_.faces[sq.face_id]} | {
                e for e, _ in complex_.faces[hx.face_id]
            }
            assert all(e in face_edges for e, _ in path)


def test_unknown_face_rejected():
    complex_ = build_complex(genus2_spec())
    with pytest.raises(KeyError):
        diagonal_chain(complex_, "c9.sq0")


def _setup(spec, seed, fn=None, u=None, v=None):
    cx = build_complex(spec)
    rng = rng_for(seed)
    fn = fn or random_fn(rng, spec)
    u = u or random_tangent(rng, spec)
    v = v or random_tangent(rng, spec)
    zu = variation_cocycle(cx, fn, u)
    zv = variation_cocycle(cx, fn, v)
    return cx, zu.base, u, v, zu, zv


def test_square_pair_carries_twist_length_term():
    spec = genus2_spec()
    cx, base, u, v, zu, zv = _setup(spec, "squares")
    for c in range(3):
        total = sum(pair_on_face(base, zu, zv, f) for f in cx.curves[c].squares)
        expect = u.dtau[c] * v.dl[c] - u.dl[c] * v.dtau[c]
        assert abs(total - expect) <= 1e-9
    # coordinate directions split evenly between the two squares
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.0 for i in range(3)})
    ztau = variation_cocycle(cx, fn, TangentVector({}, {0: 1.0}))
    zl = variation_cocycle(cx, fn, TangentVector({0: 1.0}, {}))
    for f in cx.curves[0].squares:
        assert abs(pair_on_face(ztau.base, ztau, zl, f) - 0.5) <= 1e-12


def test_pants_contribution_vanishes():
    spec = genus2_spec()
    cx, base, u, v, zu, zv = _setup(spec, "pantszero")
    for pid in (0, 1):
        hexes = sum(pair_on_face(base, zu, zv, f) for f in cx.pants[pid].hexagons)
        bigons = pair_chain(base, zu, zv, pants_bigon_chain(cx, pid))
        assert abs(hexes + bigons) <= 1e-9


def test_bigon_terms_cancel_exactly():
    spec = genus2_spec()
    cx, base, u, v, zu, zv = _setup(spec, "bigons")
    for pid in (0, 1):
        chain = pants_bigon_chain(cx, pid)
        parts = [
            pair_chain(base, zu, zv, type(chain)(chain.face_id, chain.basepoint, (t,)))
            for t in chain.terms
        ]
        # each bigon alone sees the square of the length differential of
        # the circle it sits on
        c1 = cx.pants[pid].curves[1]
        expect = 0.25 * u.dl[c1] * v.dl[c1]
        assert abs(parts[0] - expect) <= 1e-12 * max(1.0, abs(expect))
        assert abs(parts[0] + parts[1]) <= 1e-12
        assert pair_chain(base, zu, zv, chain) == parts[0] + parts[1]


def test_wp_reproduces_twist_length_form():
    spec = genus2_spec()
    cx = build_complex(spec)
    fn = FNPoint({i: 2.0 for i in range(3)}, {i: 0.0 for i in range(3)})
    ztau = variation_cocycle(cx, fn, TangentVector({}, {0: 1.0}))
    zl = variation_cocycle(cx, fn, TangentVector({0: 1.0}, {}))
    assert abs(wp_pairing(ztau.base, ztau, zl) - 1.0) <= 1e-10
    rng = rng_for("wolpert2")
    for _ in range(25):
        fn = random_fn(rng, spec)
        u, v = random_tangent(rng, spec), random_tangent(rng, spec)
        zu = variation_cocycle(cx, fn, u)
        zv = variation_cocycle(cx, fn, v)
        got = wp_pairing(zu.base, zu, zv)
        assert abs(got - wolpert_reference(u, v)) <= 1e-8


def test_wp_antisymmetry_and_self_pairing():
    spec = genus2_spec()
    cx, base, u, v, zu, zv = _setup(spec, "antisym")
    assert abs(wp_pairing(base, zu, zu)) <= 1e-10
    assert abs(wp_pairing(base, zu, zv) + wp_pairing(base, zv, zu)) <= 1e-9


def test_wp_gauge_invariance():
    spec = genus2_spec()
    cx, base, u, v, zu, zv = _setup(spec, "gaugeinv")
    rng = rng_for("gaugeinv-w")
    w = {
        vx: TracelessMat2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        for vx in cx.vertices
    }
    dw = coboundary(base, w)
    reference = wp_pairing(base, zu, zv)
    assert abs(wp_pairing(base, zu.combined(dw, 1.0, 1.0), zv) - reference) <= 1e-8
    assert abs(wp_pairing(base, zu, zv.combined(dw, 1.0, 1.0)) - reference) <= 1e-8


def test_basepoint_independence():
    spec = genus2_spec()
    cx, base, u, v, zu, zv = _setup(spec, "basepoint")
    for fid, cycle in sorted(cx.faces.items()):
        vals = [
            pair_on_face(base, zu, zv, fid, start=s) for s in range(len(cycle))
        ]
        assert max(vals) - min(vals) <= 1e-10


def test_wp_on_finite_difference_variations():
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("wpfd")
    fn = random_fn(rng, spec)
    u, v = random_tangent(rng, spec), random_tangent(rng, spec)
    zu = fd_variation(cx, fn, u, h=1e-5)
    zv = fd_variation(cx, fn, v, h=1e-5)
    got = wp_pairing(zu.base, zu, zv)
    assert abs(got - wolpert_reference(u, v)) <= 1e-5


def test_wolpert_reference_values():
    u = TangentVector({}, {1: 1.0})
    v = TangentVector({1: 1.0}, {})
    assert wolpert_reference(u, v) == 1.0
    assert wolpert_reference(v, u) == -1.0
    assert wolpert_reference(TangentVector({1: 1.0}, {}), TangentVector({2: 1.0}, {})) == 0.0


def test_caterpillar_specs_are_valid():
    assert caterpillar(2) == handle_spec()
    for g in (3, 5, 8, 12):
        assert not validate_surface(caterpillar(g))
    for g in (2, 3, 5, 8, 12):
        spec = comb(g)
        assert not validate_surface(spec)
        self_glued = [c for c in spec.curves if c.left[0] == c.right[0]]
        assert sorted(c.left[0] for c in self_glued) == list(range(g))


def test_wp_matrix_block_form():
    for spec in (genus2_spec(), handle_spec(), caterpillar(5), caterpillar(8)):
        cx = build_complex(spec)
        rng = rng_for(f"matrix-{len(spec.pants)}")
        fn = random_fn(rng, spec)
        labels, matrix = wp_matrix(cx, fn)
        assert len(labels) == len(matrix) == 2 * (3 * spec.genus - 3)
        assert all(len(row) == len(matrix) for row in matrix)
        assert block_form_deviation(matrix) <= 1e-8


def test_block_form_deviation():
    exact = [[0.0, -1.0], [1.0, 0.0]]
    assert block_form_deviation(exact) == 0.0
    assert block_form_deviation([[0.0, -1.0], [1.0, 0.25]]) == 0.25
    assert block_form_deviation([[0.5, 0.0], [1.0, 0.0]]) == 1.0
    assert math.isnan(block_form_deviation([[math.nan, -1.0], [1.0, 2.0]]))


def _face_by_face(base, zu, zv):
    return math.fsum(pair_on_face(base, zu, zv, f) for f in sorted(base.complex.faces))


def comb4_spec():
    return comb(4)  # four self-glued pants


def caterpillar5_spec():
    return caterpillar(5)


@pytest.mark.parametrize(
    "spec_fn", [genus2_spec, handle_spec, genus3_spec, comb4_spec, caterpillar5_spec]
)
def test_kernel_equals_face_by_face_sum_exactly(spec_fn, monkeypatch):
    # pair_on_face transports a slot again for every term that uses it;
    # reusing the oracle's own results keeps its arithmetic and makes
    # the larger surfaces affordable (values keep their keys' objects
    # alive, so no id is reused)
    cache = {}
    transported = fnhol.wp._transported

    def reused(cocycle, variation, oriented_edge, path):
        key = (id(cocycle), id(variation), oriented_edge, path)
        if key not in cache:
            z = transported(cocycle, variation, oriented_edge, path)
            cache[key] = (cocycle, variation, z)
        return cache[key][2]

    monkeypatch.setattr(fnhol.wp, "_transported", reused)
    spec = spec_fn()
    cx = build_complex(spec)
    rng = rng_for(f"exact-{spec_fn.__name__}")
    for _ in range(3):
        fn = random_fn(rng, spec)
        zu = variation_cocycle(cx, fn, random_tangent(rng, spec))
        zv = variation_cocycle(cx, fn, random_tangent(rng, spec))
        base = zu.base
        w = {
            vx: TracelessMat2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            for vx in cx.vertices
        }
        dense = zu.combined(coboundary(base, w), 1.0, 1.0)
        # every slot tiny but nonzero: a tolerance in place of the exact
        # zero test would drop them all
        tiny = zu.combined(zu, 1e-200, 0.0)
        for a, b in ((zu, zv), (dense, zv), (zv, dense), (tiny, zv)):
            assert wp_pairing(base, a, b) == _face_by_face(base, a, b)
    # sparse coordinate directions, where most slots are exactly zero
    labels, matrix = wp_matrix(cx, fn)
    curves = sorted((c.id for c in spec.curves), key=str)
    basis = [TangentVector({c: 1.0}, {}) for c in curves] + [
        TangentVector({}, {c: 1.0}) for c in curves
    ]
    cocycles = [variation_cocycle(cx, fn, v) for v in basis]
    for i, zi in enumerate(cocycles):
        for j, zj in enumerate(cocycles):
            assert matrix[i][j] == _face_by_face(zi.base, zi, zj)


@pytest.mark.parametrize("spec", [comb(6), caterpillar(8)], ids=["comb6", "caterpillar8"])
def test_face_local_matrix_equals_pairwise_kernel_exactly(spec):
    # the pairwise kernel over dense transports (every edge carries a
    # value, most of them exact zeros) is tested equal to the face-by-face
    # sum above; at these sizes it is the reference for the matrix
    cx = build_complex(spec)
    fn = random_fn(rng_for(f"face-local-{spec.genus}"), spec)
    base = assemble_cocycle(cx, fn)
    labels, matrix = wp_matrix(base, fn)
    curves = sorted((c.id for c in spec.curves), key=str)
    basis = [TangentVector({c: 1.0}, {}) for c in curves] + [
        TangentVector({}, {c: 1.0}) for c in curves
    ]
    kernel = PairingKernel(base)
    transported = []
    for v in basis:
        z = variation_cocycle(base, fn, v)
        dense = VariationCocycle(base, {e: z.value(e) for e in cx.edges})
        transported.append(kernel.transport(dense))
    for i, ti in enumerate(transported):
        for j, tj in enumerate(transported):
            assert repr(matrix[i][j]) == repr(kernel.pair(ti, tj)), (labels[i], labels[j])


def test_long_curve_matrix_is_the_face_by_face_sum():
    # README's genus-2 document with curve 1 at length 50 is 0.61 off the
    # block form; the face-by-face sum over the same variations is off by
    # the same entries, to the bit, so the error lies in the values paired
    # and not in the kernel.  (A twist near the bound would make the
    # kernel walk from a later rotation, where rotation-0 faces differ.)
    spec = genus2_spec()
    fn = FNPoint({0: 2.0, 1: 50.0, 2: 3.0}, {0: 0.5, 1: -0.3, 2: 7.3})
    base = assemble_cocycle(spec, fn)
    labels, matrix = wp_matrix(base, fn)
    curves = sorted(spec.curve_ids(), key=str)
    basis = [TangentVector({c: 1.0}, {}) for c in curves] + [
        TangentVector({}, {c: 1.0}) for c in curves
    ]
    cocycles = [variation_cocycle(base, fn, v) for v in basis]
    assert matrix == [[_face_by_face(base, zi, zj) for zj in cocycles] for zi in cocycles]


def test_wp_matrix_work_grows_linearly_in_genus(monkeypatch):
    # each added genus adds the same number of adjoint actions and trace
    # forms; pairing every direction with every other grew quadratically
    calls = [0]
    for module, name in ((fnhol.wp, "ad_action"), (fnhol.variation, "ad_action"),
                         (fnhol.wp, "killing_form")):
        original = getattr(module, name)

        def counted(*args, original=original):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    counts = []
    for g in (6, 12, 18):
        spec = caterpillar(g)
        calls[0] = 0
        wp_matrix(build_complex(spec), random_fn(rng_for(f"linear-{g}"), spec))
        counts.append(calls[0])
    assert counts[2] - counts[1] == counts[1] - counts[0] > 0


def _kernel_starts(kernel, cx):
    """Face id -> the rotation of its cycle the kernel's positions begin
    at: the position in the cycle of the edge the kernel holds at
    position 0 of the face (no face runs an edge twice)."""
    first_edge = {}
    for eid, (_, held) in kernel._edge_positions.items():
        for fid, pos, _ in held:
            if pos == 0:
                first_edge[fid] = eid
    starts = {}
    for fid, cycle in cx.faces.items():
        eids = [eid for eid, _ in cycle]
        assert len(set(eids)) == len(eids)
        starts[fid] = eids.index(first_edge[fid])
    return starts


def test_kernel_walks_an_overflowing_face_from_a_later_rotation():
    # near the twist bound the squares of curve 0 overflow when walked
    # from their crossing edges; the kernel begins each face at the
    # rotation the cocycle's face walk chose, and there its part of the
    # pairing is pair_on_face at that rotation, to the bit
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("near-bound")
    for length in (2.0, 50.0):
        fn = FNPoint({i: length for i in range(3)}, {0: 1419.5, 1: 0.3, 2: 0.3})
        base = assemble_cocycle(cx, fn)
        u, v = random_tangent(rng, spec), random_tangent(rng, spec)
        zu, zv = variation_cocycle(base, fn, u), variation_cocycle(base, fn, v)
        kernel = PairingKernel(base)
        tu, tv = kernel.transport(zu), kernel.transport(zv)
        starts = {fid: base.face_walk(fid)[0] for fid in cx.faces}
        assert _kernel_starts(kernel, cx) == starts
        for fid in cx.faces:
            part = kernel.pair({fid: tu[fid]}, {fid: tv[fid]})
            assert part == pair_on_face(base, zu, zv, fid, starts[fid])
        assert {f for f, start in starts.items() if start} == {"c0.sq0", "c0.sq1"}
        assert math.isnan(pair_on_face(base, zu, zv, "c0.sq0"))
        assert abs(wp_pairing(base, zu, zv) - wolpert_reference(u, v)) <= 1e-8


def test_kernel_build_walks_each_face_once(monkeypatch):
    """Building the kernel walks each face cycle once, through the
    cocycle's face walk, whose running products are the moves; it takes
    no Mat2 product and builds no diagonal chain.  The cocycle keeps its
    kernel, so later pairings over it walk nothing, and pair to the bit
    as a kernel built for each of them does."""
    spec = genus3_spec()
    cx = build_complex(spec)
    rng = rng_for("kernel-build")
    fn = random_fn(rng, spec)
    zu = variation_cocycle(cx, fn, random_tangent(rng, spec))
    zv = variation_cocycle(cx, fn, random_tangent(rng, spec))
    fresh = assemble_cocycle(cx, fn)
    calls = dict.fromkeys(("diagonal_chain", "products", "steps", "walks"), 0)
    face_walks = []
    building = []

    diagonal = fnhol.wp.diagonal_chain
    walk = fnhol.surface.walk
    face_walk = SurfaceCocycle.face_walk
    matmul = Mat2.__matmul__
    init = PairingKernel.__init__

    def counted_diagonal(*args, **kwargs):
        calls["diagonal_chain"] += 1
        return diagonal(*args, **kwargs)

    def counted_walk(values, word, prefixes=None):
        if building:
            calls["steps"] += len(word)
            calls["walks"] += 1
        return walk(values, word, prefixes)

    def counted_face_walk(self, fid, prefixes=None):
        if building:
            face_walks.append((fid, prefixes is not None))
        return face_walk(self, fid, prefixes)

    def counted_matmul(self, other):
        calls["products"] += bool(building)
        return matmul(self, other)

    def counted_init(self, cocycle):
        building.append(True)
        try:
            init(self, cocycle)
        finally:
            building.pop()

    monkeypatch.setattr(fnhol.wp, "diagonal_chain", counted_diagonal)
    monkeypatch.setattr(fnhol.surface, "walk", counted_walk)
    monkeypatch.setattr(SurfaceCocycle, "face_walk", counted_face_walk)
    monkeypatch.setattr(Mat2, "__matmul__", counted_matmul)
    monkeypatch.setattr(PairingKernel, "__init__", counted_init)
    expected = {
        "diagonal_chain": 0,
        "products": 0,
        "steps": sum(len(cycle) for cycle in cx.faces.values()),
        "walks": len(cx.faces),
    }
    builds = (
        (lambda: wp_matrix(cx, fn), True),
        # the variations' base, from the same complex at the same point,
        # is the one wp_matrix built its kernel for
        (lambda: wp_pairing(zu.base, zu, zv), False),
        (lambda: wp_pairing(fresh, zu, zv), True),
        (lambda: wp_pairing(fresh, zv, zu), False),
    )
    pairings = []
    for build, walks in builds:
        pairings.append(build())
        assert calls == (expected if walks else dict.fromkeys(calls, 0))
        assert sorted(face_walks) == [(fid, True) for fid in sorted(cx.faces) if walks]
        calls.update(dict.fromkeys(calls, 0))
        face_walks.clear()
    monkeypatch.undo()
    for pairing, base, (z1, z2) in zip(pairings[1:], (zu.base, fresh, fresh),
                                       ((zu, zv), (zu, zv), (zv, zu))):
        kernel = PairingKernel(base)
        assert pairing == kernel.pair(kernel.transport(z1), kernel.transport(z2))


def _walk(cx, vertex, word):
    """The vertex a composable edge word leads to from ``vertex``."""
    for eid, sign in word:
        edge = cx.edges[eid]
        start, end = (edge.start, edge.end) if sign > 0 else (edge.end, edge.start)
        assert start == vertex
        vertex = end
    return vertex


@pytest.mark.parametrize("spec_fn", [comb4_spec, caterpillar5_spec])
def test_diagonal_chain_terms_follow_chain_shape(spec_fn):
    cx = build_complex(spec_fn())
    for fid, cycle in sorted(cx.faces.items()):
        n = len(cycle)
        for start in range(n):
            rotated = cycle[start:] + cycle[:start]
            gens = [(eid, _edge_chain_orientation(cx, eid)) for eid, _ in rotated]
            exponents = tuple(s * o for (_, s), (_, o) in zip(rotated, gens))
            terms, uptos = fnhol.wp._chain_shape(exponents)
            assert len(terms) == n * (n - 1) // 2 + exponents.count(-1)
            chain = diagonal_chain(cx, fid, start)
            assert [
                (t.sign, t.first, t.second, t.path_first, t.path_second)
                for t in chain.terms
            ] == [
                (sign, gens[j], gens[i], rotated[: uptos[j]], rotated[: uptos[i]])
                for sign, j, i in terms
            ]
            # each path runs from the basepoint to the start of its
            # edge in the orientation the chain carries it in
            for t in chain.terms:
                for (eid, orient), path in (
                    (t.first, t.path_first),
                    (t.second, t.path_second),
                ):
                    edge = cx.edges[eid]
                    assert _walk(cx, chain.basepoint, path) == (
                        edge.start if orient > 0 else edge.end
                    )


def test_kernel_transport_keeps_only_nonzero_slots():
    spec = genus2_spec()
    cx = build_complex(spec)
    fn = random_fn(rng_for("sparse"), spec)
    z = variation_cocycle(cx, fn, TangentVector({}, {0: 1.0}))
    kernel = PairingKernel(z.base)
    transported = kernel.transport(z)
    # a twist direction lives on the crossings of its curve, which only
    # the two squares of that curve contain
    assert set(transported) == set(cx.curves[0].squares)
    for fid, values in transported.items():
        assert len(values) == len(cx.faces[fid])
        assert all(v.x or v.y or v.z for v in values if v is not None)
    zero = variation_cocycle(cx, fn, TangentVector())
    assert kernel.transport(zero) == {}
    assert kernel.pair(kernel.transport(zero), kernel.transport(z)) == 0.0


def test_wp_genus3():
    spec = genus3_spec()
    cx = build_complex(spec)
    rng = rng_for("wolpert3")
    for _ in range(5):
        fn = random_fn(rng, spec)
        u, v = random_tangent(rng, spec), random_tangent(rng, spec)
        zu = variation_cocycle(cx, fn, u)
        zv = variation_cocycle(cx, fn, v)
        assert abs(wp_pairing(zu.base, zu, zv) - wolpert_reference(u, v)) <= 1e-8


def test_layout_is_made_once_per_complex(monkeypatch):
    """Two cocycles on one complex, with a kernel and two variations
    each: each face is laid out once per rotation a face walk begins at,
    and no cell id is formatted after the complex is built.  The second
    point has a twist near the bound, where the squares of curve 0 are
    walked from rotation 1."""
    spec = genus2_spec()
    cx = build_complex(spec)
    rng = rng_for("layout-once")
    fns = [
        random_fn(rng, spec),
        FNPoint({i: 2.0 for i in range(3)}, {0: 1419.5, 1: 0.3, 2: 0.3}),
    ]
    laid_out = []
    named = []
    face_layout = fnhol.wp._face_layout
    cell_names = fnhol.surface._cell_names

    def counted_layout(complex_, fid, start):
        if (fid, start) not in complex_.pairing_layout:
            laid_out.append((fid, start))
        return face_layout(complex_, fid, start)

    def counted_names(*args):
        named.append(args)
        return cell_names(*args)

    monkeypatch.setattr(fnhol.wp, "_face_layout", counted_layout)
    monkeypatch.setattr(fnhol.surface, "_cell_names", counted_names)
    assert cx.pairing_layout == {}
    pairings = []
    for fn in fns:
        base = assemble_cocycle(cx, fn)
        u, v = random_tangent(rng, spec), random_tangent(rng, spec)
        zu, zv = variation_cocycle(base, fn, u), variation_cocycle(base, fn, v)
        kernel = PairingKernel(base)
        pairings.append((kernel.pair(kernel.transport(zu), kernel.transport(zv)), base, zu, zv))
        assert abs(pairings[-1][0] - wolpert_reference(u, v)) <= 1e-8
    assert named == []
    used = {(fid, 0) for fid in cx.faces} | {("c0.sq0", 1), ("c0.sq1", 1)}
    assert sorted(laid_out) == sorted(used)
    # more kernels and a pairing matrix over the same complex lay out
    # nothing more, and pair as a kernel over a fresh complex does
    for pairing, base, zu, zv in pairings:
        assert wp_pairing(base, zu, zv) == pairing
    wp_matrix(cx, fns[1])
    assert sorted(laid_out) == sorted(used) and named == []
    monkeypatch.undo()
    fresh = build_complex(spec)
    for fn, (pairing, base, zu, zv) in zip(fns, pairings):
        other = assemble_cocycle(fresh, fn)
        yu = VariationCocycle(other, zu.values)
        yv = VariationCocycle(other, zv.values)
        assert wp_pairing(other, yu, yv) == pairing
