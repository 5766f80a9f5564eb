import itertools
import math
import sys

from fnhol.pants import LENGTH_RANGE, _pants_table, pants_cocycle
from conftest import rng_for
from mp_oracle import hexagon_seam_forms, pants_closed_forms, relative_error

EPS = sys.float_info.epsilon
# the bound, in units of EPS, on every value below; over 3000 such
# triples the worst reads were about 17 (f), 24 (f - 1), 12 (the seam
# entries) and 0.75 (the arcs)
BOUND = 64
# the bound on the gap between the two derivations of f_k and f_k - 1,
# both at 60 digits; the worst reads were 2.6e-60 (f) and 1.0e-40 (f - 1,
# which loses digits where two boundaries are long and f is near 1)
HEXAGON_BOUND = 1e-30


def test_pants_values_match_the_closed_forms_at_60_digits():
    # f_k, f_k - 1, the seam entries and the arc entries of the pants
    # table and cocycle, against the paper's closed forms in mpmath, over
    # log-uniform length triples across the accepted range and its corners;
    # those closed forms against the hexagon law of cosines on the same triples
    lo, hi = LENGTH_RANGE
    rng = rng_for("mp-oracle")
    triples = list(itertools.product((lo, 1.0, hi), repeat=3))
    triples += [tuple(math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(3))
                for _ in range(1000)]
    names = ("f", "f - 1", "seam sqrt(f - 1)", "seam sqrt(f)", "arc", "arc inverse")
    worst = dict.fromkeys(names, 0.0)
    for triple in triples:
        _, _, _, f, fm1 = _pants_table(triple)
        values = pants_cocycle(triple)
        closed_forms = pants_closed_forms(triple)
        for k, (exact, hexagon) in enumerate(zip(closed_forms, hexagon_seam_forms(triple))):
            for name, x, ref in zip(("f", "f - 1"), hexagon, exact):
                assert relative_error(x, ref) <= HEXAGON_BOUND, (triple, k, name)
        for k, exact in enumerate(closed_forms):
            seam, arc = values[f"seam{k}"], values[f"b{k}0"]
            assert (seam.b, seam.d) == (-seam.c, -seam.a)
            got = (f[k], fm1[k], seam.a, seam.c, arc.a, arc.d)
            for name, x, ref in zip(names, got, exact):
                err = relative_error(x, ref) / EPS
                assert err <= BOUND, (triple, k, name, err)
                worst[name] = max(worst[name], err)
    assert all(err > 0.0 for err in worst.values())
