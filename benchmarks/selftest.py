"""Self-tests of the benchmark itself.

    python3 benchmarks/selftest.py

1. The output checks catch a deliberately wrong output of each
   workload (one perturbed matrix entry, pairing, coordinate, rotation
   number, or a missing crossing class), and run.py counts it as a
   failed operation that makes the run incorrect.
2. Only the thin-part defect's symptoms on a short-curve document are
   exempt from making the run incorrect, and the short-curve documents
   run apart from the timed docs rounds.
3. Two traced runs with the same seed give identical per-layer counts.

The costly workloads run at a smaller genus here; the checks and the
tracer are the same code the benchmark runs.  Exits 1 on the first
failed expectation.
"""

import copy
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def expect(cond, msg):
    if not cond:
        print(f"selftest FAILED: {msg}")
        sys.exit(1)


class Perturbed:
    """A workload whose outputs are corrupted by ``corrupt`` after the
    real run, so only the check stands between it and a pass."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt = wl, corrupt
        self.check = wl.check

    def run(self, job):
        out = copy.deepcopy(self.wl.run(job))
        return self.corrupt(out)


def _wp(out):
    out[0]["matrix"][0][1] += 1e-6
    return out


def _docs(out):
    report = out[0]["fn"][0]
    key = next(iter(report["lengths"]))
    report["lengths"][key] += 1e-6
    return out


def _docs_rot(out):
    report = out[0]["spin"][0]
    key = next(iter(report["rot"]))
    report["rot"][key] ^= 1
    return out


def _spin(out):
    out[0]["crossing_classes"].pop()
    return out


def small(name, seed):
    return {
        "wp-matrix": lambda: workloads.WpMatrix(seed, genus=3),
        "pair-oneoff": lambda: workloads.PairOneoff(seed, genus=3),
        "docs": lambda: workloads.Docs(seed),
        "spin-list": lambda: workloads.SpinList(seed, genus=3),
    }[name]()


def test_checks_catch_wrong_outputs():
    cases = [("wp-matrix", _wp), ("pair-oneoff", lambda x: x + 1e-6),
             ("docs", _docs), ("docs", _docs_rot), ("spin-list", _spin)]
    for name, corrupt in cases:
        wl = small(name, 1)
        wl.setup()
        good = run.Stats()
        run.one_request(wl, wl.prepare(0), good)
        expect(good.failed == 0 and good.correct, f"{name}: correct output rejected {good.problems}")
        bad = run.Stats()
        run.one_request(Perturbed(wl, corrupt), wl.prepare(0), bad)
        expect(bad.failed == 1 and not bad.correct,
               f"{name}: wrong output not counted as one failure")
        print(f"selftest ok: {name} wrong output counted as failed ({bad.problems[0][0]})")


def test_known_defect_is_narrow():
    """Only thin-part symptoms on a short-curve document are exempt."""
    job = {"short": 3, "curve": 5}
    cases = [
        ([], None, False),
        (["NonHyperbolicError: |trace| = 2.0000000000005 is not above 2"], 3, True),
        (["AssertionError: expected a unique sign assignment, found 0"], 3, True),
        (["verify exit 1", "face residual 3.1e-06"], 3, True),
        (["fn exit 1", "twist 3: got 1.0, want 2.0"], 3, True),
        (["fn exit 1", "twist 4: got 1.0, want 2.0"], 3, False),
        (["translation length: got None, want 0.001"], 3, False),
        (["KeyError: 'rot'"], 3, False),
        (["curve 3 rot 0, eps -1"], 3, False),
        (["NonHyperbolicError: |trace| = 2.0000000000005 is not above 2"], None, False),
    ]
    for problems, short, want in cases:
        got = workloads.Docs.known_defect(dict(job, short=short), problems) if problems else False
        expect(got == want, f"known_defect({problems!r}, short={short}) is {got}")
    on_loop = {"short": 3, "curve": 3}
    expect(workloads.Docs.known_defect(on_loop, ["translation length: got None, want 0.001"]),
           "a short loop's translation length is not exempt")
    print(f"selftest ok: the known-defect exemption holds for {len(cases) + 1} cases")


def test_thin_part_is_apart():
    """Timed docs rounds have no short curve; every thin-part document
    has one, and run.thin_part reports its failures apart."""
    wl = workloads.Docs(1)
    wl.setup()
    expect(all(job["short"] is None for i in range(3) for job in wl.prepare(i)),
           "a timed docs document has a short curve")
    jobs = wl.thin_part()
    expect(jobs and all(job["short"] is not None for job in jobs),
           "a thin-part document has no short curve")
    thin = run.thin_part(wl)
    expect(thin.attempted == len(jobs), f"thin part ran {thin.attempted} of {len(jobs)}")
    expect(thin.correct, f"thin part failed other than by the known defect {thin.problems}")
    print(f"selftest ok: thin part apart ({thin.failed} of {thin.attempted} fail by the defect)")


def test_traced_counts_repeat():
    for name in workloads.WORKLOADS:
        counts = []
        for _ in range(2):
            wl = small(name, 7)
            wl.setup()
            run.OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                _, layers, _ = run.traced_run(wl, 0, Path(tmp) / "spans")
            counts.append({k: v for k, (v, unit) in layers.items()
                           if unit == "count/req" or k.endswith("distinct_ratio")})
        expect(counts[0] == counts[1], f"{name}: traced counts differ between runs")
        expect(any(counts[0].values()), f"{name}: traced run counted nothing")
        print(f"selftest ok: {name} traced counts repeat ({len(counts[0])} counters)")


if __name__ == "__main__":
    test_checks_catch_wrong_outputs()
    test_known_defect_is_narrow()
    test_thin_part_is_apart()
    test_traced_counts_repeat()
