"""Seeded input generator for the benchmark.

Produces plain surface documents (dicts in the schema that
``fnhol.cli.parse_document`` reads) without importing ``fnhol``, so the
program sees only the generated inputs.  Every function takes a
``random.Random`` (or a seed) explicitly; the same seed gives the same
documents.

Shapes (pants ids 0..2g-3, curve ids 0..3g-4, boundary index k in 0..2):

* ``caterpillar(g)``: pants 0 and 2g-3 each glue two of their own
  boundaries; a path runs through all pants, and the free legs of the
  interior pants are paired off (1 with 2, 3 with 4, ...).
* ``comb(g)``: g self-glued leaf pants hang off a spine path of g-2
  pants, so the gluing graph is a tree plus g loops.
"""

import math
import random

LENGTHS = (0.5, 5.0)
TWISTS = (-10.0, 10.0)
SHORT_LENGTHS = (1e-6, 1e-2)


def rng(seed, tag):
    """An independent stream for one purpose of one seed."""
    return random.Random(f"{seed}:{tag}")


def _spec(genus, gluings):
    """(genus, pants ids, curves) from a list of ((p, k), (q, k')) pairs."""
    curves = [{"id": i, "left": {"pants": a[0], "k": a[1]},
               "right": {"pants": b[0], "k": b[1]}}
              for i, (a, b) in enumerate(gluings)]
    return {"genus": genus, "pants": list(range(2 * genus - 2)), "curves": curves}


def caterpillar(genus):
    n = 2 * genus - 2
    glue = [((0, 0), (0, 1))]
    prev = (0, 2)
    for j in range(1, n - 1):
        glue.append((prev, (j, 0)))
        prev = (j, 1)
    glue.append((prev, (n - 1, 0)))
    glue.append(((n - 1, 1), (n - 1, 2)))
    for j in range(1, n - 1, 2):
        glue.append(((j, 2), (j + 1, 2)))
    return _spec(genus, glue)


def comb(genus):
    if genus == 2:
        return caterpillar(2)
    leaves = list(range(genus))
    spine = list(range(genus, 2 * genus - 2))
    glue = [((leaf, 0), (leaf, 1)) for leaf in leaves]
    for a, b in zip(spine, spine[1:]):
        glue.append(((a, 1), (b, 0)))
    # free spine boundaries in order, one leaf attached to each
    free = []
    for i, p in enumerate(spine):
        used = {1} if i < len(spine) - 1 else set()
        if i > 0:
            used.add(0)
        free += [(p, k) for k in range(3) if k not in used]
    glue += [((leaf, 2), side) for leaf, side in zip(leaves, free)]
    return _spec(genus, glue)


SHAPES = {"caterpillar": caterpillar, "comb": comb}


def relabel(spec, r):
    """The same surface under a random renumbering of its pants and
    curves, with the curves listed in random order: a fresh input to
    anything keyed on the spec, at the same cost."""
    pants = {p: q for p, q in zip(spec["pants"], r.sample(spec["pants"], len(spec["pants"])))}
    ids = r.sample(range(len(spec["curves"])), len(spec["curves"]))
    curves = [{"id": cid, **{side: {"pants": pants[c[side]["pants"]], "k": c[side]["k"]}
                             for side in ("left", "right")}}
              for cid, c in zip(ids, spec["curves"])]
    r.shuffle(curves)
    return {"genus": spec["genus"], "pants": sorted(pants.values()), "curves": curves}


def check_counts(spec):
    """The bookkeeping every generated spec must satisfy: 2g-2 pants,
    3g-3 curves, every boundary glued exactly once, connected."""
    g = spec["genus"]
    pants, curves = spec["pants"], spec["curves"]
    if len(pants) != 2 * g - 2 or len(curves) != 3 * g - 3:
        raise ValueError(f"genus {g}: {len(pants)} pants, {len(curves)} curves")
    sides = sorted((s["pants"], s["k"]) for c in curves for s in (c["left"], c["right"]))
    if sides != [(p, k) for p in pants for k in range(3)]:
        raise ValueError(f"genus {g}: boundaries are not glued exactly once")
    if len(tree_curves(spec)) != len(pants) - 1:
        raise ValueError(f"genus {g}: gluing graph is not connected")


def tree_curves(spec):
    """Curves of the spanning tree the document format fixes crossing
    signs on: greedy union-find over curves sorted by str(id)."""
    parent = {p: p for p in spec["pants"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for c in sorted(spec["curves"], key=lambda c: str(c["id"])):
        a, b = find(c["left"]["pants"]), find(c["right"]["pants"])
        if a != b:
            parent[a] = b
            tree.append(c["id"])
    return tree


def _tree_path(spec, tree, a, b):
    """Curve ids on the tree path between pants a and b."""
    adj = {p: [] for p in spec["pants"]}
    for c in spec["curves"]:
        if c["id"] in tree:
            p, q = c["left"]["pants"], c["right"]["pants"]
            adj[p].append((q, c["id"]))
            adj[q].append((p, c["id"]))
    back = {a: None}
    stack = [a]
    while stack:
        p = stack.pop()
        for q, cid in adj[p]:
            if q not in back:
                back[q] = (p, cid)
                stack.append(q)
    path = []
    while b != a:
        b, cid = back[b]
        path.append(cid)
    return path


def cycle_basis(spec):
    """Fundamental cycles of the gluing graph, one per curve outside the
    tree, as sets of curve ids (a self-glued curve is its own cycle)."""
    tree = set(tree_curves(spec))
    basis = []
    for c in spec["curves"]:
        if c["id"] not in tree:
            path = _tree_path(spec, tree, c["left"]["pants"], c["right"]["pants"])
            basis.append({c["id"], *path})
    return basis


def spin_block(spec, r):
    """eps = -1 on every curve, flipped along a random element of the
    cycle space (every valid assignment has this form), and random
    crossing signs on the curves outside the tree."""
    eps = {c["id"]: -1 for c in spec["curves"]}
    for cycle in cycle_basis(spec):
        if r.random() < 0.5:
            for cid in cycle:
                eps[cid] = -eps[cid]
    tree = set(tree_curves(spec))
    signs = {c["id"]: 1 if c["id"] in tree else r.choice((1, -1)) for c in spec["curves"]}
    return {"eps": {str(c): e for c, e in eps.items()},
            "crossing_signs": {str(c): s for c, s in signs.items()}}


def coordinates(spec, r, short=False):
    """Lengths uniform on LENGTHS and twists on TWISTS; with ``short``,
    one random curve gets a length log-uniform on SHORT_LENGTHS."""
    fn = [{"curve": c["id"], "length": r.uniform(*LENGTHS), "twist": r.uniform(*TWISTS)}
          for c in spec["curves"]]
    if short:
        lo, hi = (math.log(x) for x in SHORT_LENGTHS)
        r.choice(fn)["length"] = math.exp(r.uniform(lo, hi))
    return fn


def document(shape, genus, r, short=False):
    """A checked, randomly relabelled spec with coordinates and a spin
    block."""
    doc = relabel(SHAPES[shape](genus), r)
    check_counts(doc)
    doc["fn"] = coordinates(doc, r, short)
    doc["spin"] = spin_block(doc, r)
    return doc
