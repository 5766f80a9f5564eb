import math
import random

import pytest

from fnhol.mat2 import Mat2
from fnhol.surface import (Curve, FNPoint, SurfaceSpec, _problems_and_tree, build_complex,
                           check_word)
from fnhol.variation import TangentVector


def genus2_spec():
    return SurfaceSpec(2, (0, 1), tuple(Curve(i, (0, i), (1, i)) for i in range(3)))


def genus3_spec():
    return SurfaceSpec(
        3,
        (0, 1, 2, 3),
        (
            Curve(0, (0, 0), (1, 0)),
            Curve(1, (0, 1), (1, 1)),
            Curve(2, (0, 2), (2, 0)),
            Curve(3, (1, 2), (3, 0)),
            Curve(4, (2, 1), (3, 1)),
            Curve(5, (2, 2), (3, 2)),
        ),
    )


def handle_spec():
    """Genus 2 with two self-glued pants joined by one curve."""
    return SurfaceSpec(
        2,
        (0, 1),
        (
            Curve(0, (0, 1), (0, 2)),
            Curve(1, (0, 0), (1, 0)),
            Curve(2, (1, 1), (1, 2)),
        ),
    )


def caterpillar(g):
    """Genus g >= 2 with 2g-2 pants in a row: pants 0 and 2g-3 each glue
    two of their own boundaries (1 to 2), a path of curves runs from
    boundary 0 of each pants to boundary 1 of the previous one (boundary
    0 of pants 0), and the free boundaries 2 of the interior pants are
    paired off, 1 with 2, 3 with 4, ...  At g = 2 this is handle_spec."""
    last = 2 * g - 3
    glued = [((0, 1), (0, 2))]
    glued += [((p - 1, 0 if p == 1 else 1), (p, 0)) for p in range(1, last + 1)]
    glued += [((last, 1), (last, 2))]
    glued += [((p, 2), (p + 1, 2)) for p in range(1, last - 1, 2)]
    curves = tuple(Curve(i, a, b) for i, (a, b) in enumerate(glued))
    assert len(curves) == 3 * g - 3
    return SurfaceSpec(g, tuple(range(last + 1)), curves)


def comb(g):
    """Genus g >= 2 with g self-glued leaf pants 0..g-1 (boundary 0 glued
    to 1) on a spine path of pants g..2g-3 (boundary 1 of each spine
    pants glued to boundary 0 of the next).  Boundary 2 of the leaves
    takes the free spine boundaries in order; at g = 2 the spine is
    empty and the two leaves are glued to each other."""
    leaves = range(g)
    spine = range(g, 2 * g - 2)
    glued = [((p, 0), (p, 1)) for p in leaves]
    glued += [((p, 1), (p + 1, 0)) for p in spine[:-1]]
    free = [
        (p, k)
        for p in spine
        for k in range(3)
        if not (k == 0 and p != spine[0]) and not (k == 1 and p != spine[-1])
    ]
    if g == 2:
        glued.append(((0, 2), (1, 2)))
    else:
        glued += [((leaf, 2), side) for leaf, side in zip(leaves, free)]
    curves = tuple(Curve(i, a, b) for i, (a, b) in enumerate(glued))
    assert len(curves) == 3 * g - 3
    return SurfaceSpec(g, tuple(range(2 * g - 2)), curves)


def problems_of(spec):
    """The problems of a decomposition that build_complex names, [] when
    it is valid."""
    return _problems_and_tree(spec)[0]


def random_gluing(rng, g):
    """A genus-g decomposition from the configuration model: the 6g-6
    boundaries (pants, k) of 2g-2 pants paired uniformly at random, and
    drawn again until :func:`problems_of` finds none (only a
    disconnected gluing fails).  Self-glued pants, double curves between
    two pants and every boundary index occur."""
    pants = tuple(range(2 * g - 2))
    sides = [(p, k) for p in pants for k in range(3)]
    while True:
        rng.shuffle(sides)
        curves = tuple(Curve(i, sides[2 * i], sides[2 * i + 1]) for i in range(3 * g - 3))
        spec = SurfaceSpec(g, pants, curves)
        if not problems_of(spec):
            return spec


def check_face_tables(cx):
    """The invariant of a cell complex's face tables, which every walk
    along a face cycle relies on and checks nothing for: every face word
    closes up, checked as a word read on to its first edge again
    (ValueError from ``check_word`` if not), and across all faces every
    edge is used once with each sign (AssertionError if not)."""
    use = {e: [0, 0] for e in cx.edges}
    for cycle in cx.faces.values():
        check_word(cx, cycle + cycle[:1])
        for eid, sign in cycle:
            use[eid][sign < 0] += 1
    for eid, (plus, minus) in use.items():
        if plus != 1 or minus != 1:
            raise AssertionError(f"edge {eid} used {plus}+/{minus}- times")


@pytest.fixture(scope="session")
def genus2_complex():
    return build_complex(genus2_spec())


@pytest.fixture(scope="session")
def genus3_complex():
    return build_complex(genus3_spec())


def random_fn(rng, spec, lrange=(0.5, 5.0), trange=(-10.0, 10.0)):
    ids = [c.id for c in spec.curves]
    return FNPoint(
        {c: rng.uniform(*lrange) for c in ids},
        {c: rng.uniform(*trange) for c in ids},
    )


def random_tangent(rng, spec):
    ids = [c.id for c in spec.curves]
    return TangentVector(
        {c: rng.uniform(-1.0, 1.0) for c in ids},
        {c: rng.uniform(-1.0, 1.0) for c in ids},
    )


def random_mat2(rng, spread=2.0):
    """A random unimodular matrix with moderate entries."""
    while True:
        a, b, c, d = (rng.uniform(-spread, spread) for _ in range(4))
        det = a * d - b * c
        if det > 0.25:
            s = 1.0 / math.sqrt(det)
            return Mat2(a * s, b * s, c * s, d * s, check=False)


def rng_for(name):
    return random.Random(name)
