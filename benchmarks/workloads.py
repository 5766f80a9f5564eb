"""The four benchmark workloads.

Each workload generates its inputs from the seed when constructed
(input generation is never timed), names the fixed inputs whose parse
and build the set-up probes time, checks those inputs in ``setup``,
and then serves requests: ``prepare(i)`` makes request
i's inputs, ``run`` is the timed call into fnhol's public API, and
``check`` returns one (problems, known defect) pair per operation in
the request, where problems lists the ways the output misses the
benchmark's own check (empty when correct).  All calls go through module
attributes, so the tracer's rebinding sees them.
"""

import json
import math
import re
from importlib import import_module

import gen

TOL = 1e-8


def fnhol(name):
    return import_module(f"fnhol.{name}")


def checked(text):
    """Parse a generated document (``parse_document`` runs
    ``validate_surface``) and build its complex, checking 2g-2 pants,
    3g-3 curves and 10g-10 faces before any timing."""
    doc = fnhol("cli").parse_document(text)
    complex_ = fnhol("surface").build_complex(doc.spec)
    g = doc.spec.genus
    counts = (len(doc.spec.pants), len(doc.spec.curves), len(complex_.faces))
    if counts != (2 * g - 2, 3 * g - 3, 10 * g - 10):
        raise ValueError(f"genus {g}: pants, curves, faces = {counts}")
    return doc, complex_


def loop_word(spec, cid):
    """The loop around curve ``cid`` along the arcs on its left side."""
    c = next(c for c in spec["curves"] if c["id"] == cid)
    p, k = c["left"]["pants"], c["left"]["k"]
    return f"p{p}.b{k}0 p{p}.b{k}1"


def _fn_dicts(fn_list):
    return ({x["curve"]: x["length"] for x in fn_list},
            {x["curve"]: x["twist"] for x in fn_list})


def _close(got, want, what):
    if got is None or not abs(got - want) <= TOL:
        return [f"{what}: got {got!r}, want {want!r}"]
    return []


def _eps_ok(spec, eps):
    """eps (curve id -> +-1) multiplies to -1 around every pants."""
    prod = {p: 1 for p in spec["pants"]}
    for c in spec["curves"]:
        for side in ("left", "right"):
            prod[c[side]["pants"]] *= eps[c["id"]]
    return all(v == -1 for v in prod.values())


def check_block_form(labels, matrix, curve_ids):
    """The pairing matrix is -1 at [dl_i][dtau_i], +1 at the transpose
    and 0 elsewhere."""
    want = [f"dl[{c}]" for c in curve_ids] + [f"dtau[{c}]" for c in curve_ids]
    if sorted(labels) != sorted(want) or len(matrix) != len(labels):
        return [f"labels {labels!r}"]
    worst = 0.0
    for i, li in enumerate(labels):
        if len(matrix[i]) != len(labels):
            return [f"row {i} has {len(matrix[i])} entries"]
        for j, lj in enumerate(labels):
            expected = 0.0
            if li.startswith("dl[") and lj == "dtau[" + li[3:]:
                expected = -1.0
            elif li.startswith("dtau[") and lj == "dl[" + li[5:]:
                expected = 1.0
            worst = max(worst, abs(matrix[i][j] - expected))
    return [] if worst <= TOL else [f"block form off by {worst!r}"]


def check_spin(spec, eps, residual, rot, pants_sums=None):
    """Face residual against +I, each loop's trace sign equal to eps
    (rot 1 for eps -1), and an odd rotation sum around every pants.
    ``rot`` maps curve id -> rot2 of its loop."""
    problems = []
    if not residual <= TOL:
        problems.append(f"spin face residual {residual!r}")
    for c in spec["curves"]:
        want = 0 if eps[c["id"]] > 0 else 1
        if rot.get(c["id"]) != want:
            problems.append(f"curve {c['id']} rot {rot.get(c['id'])!r}, eps {eps[c['id']]}")
    sums = {p: 0 for p in spec["pants"]}
    for c in spec["curves"]:
        for side in ("left", "right"):
            sums[c[side]["pants"]] += rot.get(c["id"], 0)
    for p, s in sums.items():
        if s % 2 != 1 or (pants_sums is not None and pants_sums.get(str(p)) != 1):
            problems.append(f"pants {p} rotation sum is not odd")
    return problems


class WpMatrix:
    """``run_command(doc, "wp")`` on a genus-3 caterpillar with fresh
    coordinates per request: the full pairing matrix.  Genus 3 keeps a
    request near a second, so that a run holds tens of them (see
    README.md); ``genus=5`` gives the larger case."""

    name = "wp-matrix"
    traced_batch = 1

    def __init__(self, seed, genus=3):
        self.seed = seed
        self.spec = gen.caterpillar(genus)
        gen.check_counts(self.spec)
        fn = gen.coordinates(self.spec, gen.rng(seed, "wp-base"))
        self.text = json.dumps(dict(self.spec, fn=fn))
        self.curve_ids = sorted((c["id"] for c in self.spec["curves"]), key=str)

    def fixed_inputs(self):
        return [self.text]

    def setup(self):
        self.cli = fnhol("cli")
        self.doc, _ = checked(self.text)

    def prepare(self, i):
        lengths, twists = _fn_dicts(gen.coordinates(self.spec, gen.rng(self.seed, f"wp-{i}")))
        fn = fnhol("surface").FNPoint(lengths, twists)
        return self.cli.SurfaceDocument(self.doc.spec, fn, None)

    def run(self, doc):
        return self.cli.run_command(doc, "wp")

    def check(self, doc, out):
        report, code = out
        problems = [f"exit {code}"] if code else []
        return [(problems + check_block_form(report["labels"], report["matrix"], self.curve_ids),
                 False)]


class PairOneoff:
    """Two variation cocycles and one pairing on a genus-8 caterpillar
    complex built in setup, with a fresh point and tangents per request."""

    name = "pair-oneoff"
    traced_batch = 20

    def __init__(self, seed, genus=8):
        self.seed = seed
        self.spec = gen.caterpillar(genus)
        gen.check_counts(self.spec)
        fn = gen.coordinates(self.spec, gen.rng(seed, "pair-base"))
        self.text = json.dumps(dict(self.spec, fn=fn))

    def fixed_inputs(self):
        return [self.text]

    def setup(self):
        _, self.complex = checked(self.text)

    def prepare(self, i):
        r = gen.rng(self.seed, f"pair-{i}")
        lengths, twists = _fn_dicts(gen.coordinates(self.spec, r))
        ids = [c["id"] for c in self.spec["curves"]]
        u = [({c: r.uniform(-1, 1) for c in ids}, {c: r.uniform(-1, 1) for c in ids})
             for _ in range(2)]
        (udl, udtau), (vdl, vdtau) = u
        ref = math.fsum(udtau[c] * vdl[c] - udl[c] * vdtau[c] for c in ids)
        variation = fnhol("variation")
        return (fnhol("surface").FNPoint(lengths, twists),
                variation.TangentVector(udl, udtau), variation.TangentVector(vdl, vdtau), ref)

    def run(self, job):
        fn, u, v, _ = job
        variation, wp = fnhol("variation"), fnhol("wp")
        z1 = variation.variation_cocycle(self.complex, fn, u)
        z2 = variation.variation_cocycle(self.complex, fn, v)
        return wp.wp_pairing(z1.base, z1, z2)

    def check(self, job, out):
        return [(_close(out, job[3], "pairing"), False)]


class Docs:
    """Caterpillar and comb documents at genus 2 to 12: each is parsed,
    then run through verify, fn, holonomy of a curve loop, and spin.
    One request is one round of the ten shapes, because the shapes' costs
    cluster by genus and a per-document median falls in the gap between
    genus 5 and genus 8.  Every round is freshly generated: relabelled
    specs, new coordinates and spin blocks.  Each document is one
    operation.  The timed rounds have no short curve; ``thin_part``
    gives a fixed batch of documents that each have one, which runs
    once per run outside the timing (see README.md)."""

    name = "docs"
    traced_batch = 2
    SHAPES = [(s, g) for g in (2, 3, 5, 8, 12) for s in ("caterpillar", "comb")]
    COMMANDS = ("verify", "fn", "holonomy", "spin")
    CLI_SAMPLE = 12
    THIN_PART_ROUNDS = 2
    # ROADMAP item 3's thin-part defect, as it shows on a document with a
    # short curve: the short loop reads as not hyperbolic, the spin signs
    # have no solution, or verify's face residuals miss the tolerance
    THIN_PART = re.compile(
        r"NonHyperbolicError: "
        r"(\|trace\| = \S+ is not above 2|loop holonomy trace \S+ is not hyperbolic)$"
        r"|(AssertionError: expected a unique sign assignment, found 0"
        r"|verify exit 1|face residual \S+)$")

    def __init__(self, seed):
        self.seed = seed

    def document(self, i, k, short=False):
        """Document k of round i, or of thin-part round i with ``short``."""
        shape, genus = self.SHAPES[k]
        r = gen.rng(self.seed, f"{'thin' if short else 'doc'}-{i}-{k}")
        doc = gen.document(shape, genus, r, short=short)
        cid = r.choice(doc["curves"])["id"]
        short_curve = min(doc["fn"], key=lambda x: x["length"])["curve"] if short else None
        return {"doc": doc, "text": json.dumps(doc), "curve": cid,
                "word": loop_word(doc, cid), "short": short_curve}

    def fixed_inputs(self):
        return [job["text"] for job in self.prepare(0)]

    def setup(self):
        self.cli = fnhol("cli")
        for text in self.fixed_inputs():
            checked(text)

    def prepare(self, i):
        return [self.document(i, k) for k in range(len(self.SHAPES))]

    def thin_part(self):
        """THIN_PART_ROUNDS rounds of the ten shapes, each document with
        one short curve: ROADMAP item 3's defect, kept in view."""
        return [self.document(i, k, short=True)
                for i in range(self.THIN_PART_ROUNDS) for k in range(len(self.SHAPES))]

    def run(self, jobs):
        out = []
        for job in jobs:
            try:
                doc = self.cli.parse_document(job["text"])
            except Exception as exc:
                out.append(f"{type(exc).__name__}: {exc}")
                continue
            res = {}
            for cmd in self.COMMANDS:
                # one command's failure must neither hide the others nor
                # make the round cheaper
                try:
                    res[cmd] = self.cli.run_command(doc, cmd, word=job["word"])
                except Exception as exc:
                    res[cmd] = f"{type(exc).__name__}: {exc}"
            out.append(res)
        return out

    def check(self, jobs, out):
        ops = []
        for job, res in zip(jobs, out):
            if isinstance(res, str):
                problems = [res]
            else:
                problems = [p for cmd in self.COMMANDS
                            for p in ([res[cmd]] if isinstance(res[cmd], str)
                                      else self.check_command(job, cmd, *res[cmd]))]
            ops.append((problems, self.known_defect(job, problems)))
        return ops

    @classmethod
    def known_defect(cls, job, problems):
        """Whether every problem is a symptom of the thin-part defect on
        this document's short curve.  Those failures are reported, but
        leave the run correct; any other failure, on any document, does
        not."""
        s = job["short"]
        if s is None:
            return False
        on_short = {f"length {s}", f"twist {s}", "fn exit 1"}
        if job["curve"] == s:
            on_short |= {"translation length", "length from the loop matrix"}
        return all(cls.THIN_PART.match(p) or p.split(":")[0] in on_short for p in problems)

    @staticmethod
    def check_command(job, cmd, report, code):
        doc = job["doc"]
        problems = [f"{cmd} exit {code}"] if code else []
        lengths, twists = _fn_dicts(doc["fn"])
        if cmd == "verify":
            residuals = report["residuals"].values()
            if len(residuals) != 10 * doc["genus"] - 10:
                problems.append(f"verify reports {len(residuals)} faces")
            if not max(residuals) <= TOL:
                problems.append(f"face residual {max(residuals)!r}")
        elif cmd == "fn":
            for c, l in lengths.items():
                problems += _close(report["lengths"].get(str(c)), l, f"length {c}")
                problems += _close(report["twists"].get(str(c)), twists[c], f"twist {c}")
        elif cmd == "holonomy":
            want = lengths[job["curve"]]
            problems += _close(report["translation_length"], want, "translation length")
            (a, _), (_, d) = report["matrix"]
            t = abs(a + d)
            got = 2.0 * math.acosh(0.5 * t) if t > 2.0 else None
            problems += _close(got, want, "length from the loop matrix")
        elif cmd == "spin":
            eps = {int(c): e for c, e in doc["spin"]["eps"].items()}
            rot = {int(c): r for c, r in report["rot"].items()}
            problems += check_spin(doc, eps, report["max_residual"], rot,
                                   report["pants_rot_sums"])
        return problems

    def cli_sample(self):
        """(job, command) pairs run as CLI subprocesses: the first
        documents of rounds 0 and 1, each with one command."""
        jobs = self.prepare(0) + self.prepare(1)
        return [(jobs[j], self.COMMANDS[j % 4]) for j in range(self.CLI_SAMPLE)]


class SpinList:
    """``spin --list`` on a genus-6 caterpillar, then eight lifts taken
    from the listing, each with its rotation numbers.  Every request has
    a fresh relabelling of the surface and fresh coordinates.  Genus 6
    keeps a request near half a second (see README.md); ``genus=7``
    gives the larger case."""

    name = "spin-list"
    traced_batch = 1
    LIFTS = 8

    def __init__(self, seed, genus=6):
        self.seed = seed
        self.genus = genus
        self.text = self.document(gen.rng(seed, "spin-base"))

    def document(self, r):
        spec = gen.relabel(gen.caterpillar(self.genus), r)
        gen.check_counts(spec)
        return json.dumps(dict(spec, fn=gen.coordinates(spec, r)))

    def fixed_inputs(self):
        return [self.text]

    def setup(self):
        self.cli = fnhol("cli")
        checked(self.text)

    def prepare(self, i):
        """The request's document, parsed and built outside the timing
        (the lifts need its complex), and its (eps, class) pairs."""
        r = gen.rng(self.seed, f"spin-{i}")
        text = self.document(r)
        spec = json.loads(text)
        doc = self.cli.parse_document(text)
        n = 2 ** self.genus
        return {"spec": spec, "doc": doc, "complex": fnhol("surface").build_complex(doc.spec),
                "tree": set(gen.tree_curves(spec)),
                "ids": {str(c["id"]): c["id"] for c in spec["curves"]},
                "pairs": [(r.randrange(n), r.randrange(n)) for _ in range(self.LIFTS)]}

    def run(self, job):
        spin, ids, doc = fnhol("spin"), job["ids"], job["doc"]
        report, code = self.cli.run_command(doc, "spin", list_spin=True)
        eps_list, classes = report["eps_assignments"], report["crossing_classes"]
        lifts = []
        for a, b in job["pairs"]:
            if a >= len(eps_list) or b >= len(classes):
                continue
            eps = {ids[c]: e for c, e in eps_list[a].items()}
            signs = {ids[c]: s for c, s in classes[b].items()}
            lifted = spin.assemble_spin(job["complex"], doc.fn, eps, signs)
            rot = {}
            for p in job["spec"]["pants"]:
                for k in range(3):
                    rot[(p, k)] = spin.rot2(lifted, ((f"p{p}.b{k}0", 1), (f"p{p}.b{k}1", 1)))
            lifts.append((eps, lifted.max_face_residual(), rot))
        return report, code, lifts

    def check(self, job, out):
        report, code, lifts = out
        spec, ids = job["spec"], job["ids"]
        problems = [f"exit {code}"] if code else []
        n = 2 ** self.genus
        eps_list = [{ids[c]: e for c, e in x.items()} for x in report["eps_assignments"]]
        classes = [{ids[c]: s for c, s in x.items()} for x in report["crossing_classes"]]
        if len(eps_list) != n or len({tuple(sorted(e.items())) for e in eps_list}) != n:
            problems.append(f"{len(eps_list)} boundary-sign assignments, want {n} distinct")
        if not all(_eps_ok(spec, e) for e in eps_list):
            problems.append("an assignment does not multiply to -1 around every pants")
        if len(classes) != n or len({tuple(sorted(s.items())) for s in classes}) != n:
            problems.append(f"{len(classes)} crossing classes, want {n} distinct")
        if any(s[c] != 1 for s in classes for c in job["tree"]):
            problems.append("a crossing class flips a tree curve")
        if len(lifts) != len(job["pairs"]):
            problems.append(f"{len(lifts)} of {len(job['pairs'])} lifts taken from the listing")
        for eps, residual, rot in lifts:
            by_curve = {}
            for c in spec["curves"]:
                left = rot[(c["left"]["pants"], c["left"]["k"])]
                right = rot[(c["right"]["pants"], c["right"]["k"])]
                by_curve[c["id"]] = left if left == right else None
            problems += check_spin(spec, eps, residual, by_curve)
        return [(problems, False)]


WORKLOADS = {w.name: w for w in (WpMatrix, PairOneoff, Docs, SpinList)}
