"""Benchmark runner for fnhol.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fnhol is imported from ``src/``.
With ``--trace 0`` it runs the workload as a closed loop with one
client for S seconds and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over a fixed
batch of the workload's requests and reports per-layer metrics.  Every
metric is printed by name and unit, then an environment block, and the
last line is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller record (every metric, every layer, the
environment, the first failures) goes to ``.perfbench/`` in the
checkout, with the spans of a traced run.  See README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 15
SUBPROCESS_TIMEOUT = 60


class Stats:
    """Request latencies, set-up probe times, and the outcome of every
    operation (a request holds one, or one per document on docs; a CLI
    run is one)."""

    def __init__(self):
        self.latencies = []
        self.setup_s = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def add(self, problems, known_defect):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = self.correct and known_defect
            if len(self.problems) < 20:
                self.problems.append(problems[:3])


def one_request(wl, job, stats):
    """Time, run and check one prepared request; returns its latency."""
    t0 = time.perf_counter()
    try:
        out = wl.run(job)
    except Exception as exc:  # a failed operation is a result, not a crash
        dt = time.perf_counter() - t0
        ops = [([f"{type(exc).__name__}: {exc}"], False)]
    else:
        dt = time.perf_counter() - t0
        try:
            ops = wl.check(job, out)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            ops = [([f"malformed output: {type(exc).__name__}: {exc}"], False)]
    stats.latencies.append(dt)
    for problems, known_defect in ops:
        stats.add(problems, known_defect)
    return dt


def percentile(sorted_values, p):
    """Nearest-rank percentile of sorted values."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def calibration_ms():
    """A fixed stdlib loop; shows host-speed drift next to the numbers."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(200_000):
        s += i * 0.5
    return (time.perf_counter() - t0) * 1e3


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SetupProbes:
    """Set-up time in fresh interpreters (probe.py): ``import fnhol``,
    then parse and build the workload's fixed inputs.  ``due`` runs the
    probes that are due, so that a closed loop spreads its probes evenly
    over its run: the host's speed drifts, and probes run back to back
    all read one stretch of it."""

    def __init__(self, wl, tmp, count=SETUP_PROBES):
        self.inputs = Path(tmp) / "inputs.json"
        self.inputs.write_text(json.dumps(wl.fixed_inputs()), encoding="utf-8")
        self.count = count
        self.setup_s, self.import_s = [], []

    def run_one(self):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), str(self.inputs)],
                             env=child_env(), capture_output=True, text=True,
                             timeout=SUBPROCESS_TIMEOUT, check=True)
        probe = json.loads(out.stdout)
        self.setup_s.append(probe["setup_s"])
        self.import_s.append(probe["import_s"])

    def due(self, elapsed, seconds):
        """Run the probes whose slot (k + 1/2) * seconds / count has passed;
        returns the time they took."""
        t0 = time.perf_counter()
        while (len(self.setup_s) < self.count
               and elapsed >= (len(self.setup_s) + 0.5) * seconds / self.count):
            self.run_one()
        return time.perf_counter() - t0

    def finish(self):
        while len(self.setup_s) < self.count:
            self.run_one()


def closed_loop(wl, seconds, stats, probes=None):
    """Requests back to back for ``seconds``, with the set-up probes run
    between them as they fall due; no request starts once the mean
    latency so far would carry it past the end.  Returns the number of
    requests and the loop's wall time without the probes."""
    start = time.perf_counter()
    deadline = start + seconds
    i, busy, aside = 0, 0.0, 0.0
    while True:
        now = time.perf_counter()
        if probes is not None:
            aside += probes.due(now - start, seconds)
            now = time.perf_counter()
        if now >= deadline or (i and now + busy / i > deadline):
            break
        busy += one_request(wl, wl.prepare(i), stats)
        i += 1
    wall = time.perf_counter() - start - aside
    if probes is not None:
        probes.finish()
    return i, wall


def cli_sample(wl, tmp, stats):
    """The docs workload's fixed sample, one CLI subprocess at a time."""
    times = []
    for n, (job, cmd) in enumerate(wl.cli_sample()):
        path = Path(tmp) / f"doc{n}.json"
        path.write_text(job["text"], encoding="utf-8")
        argv = [sys.executable, "-m", "fnhol.cli", cmd, "--input", str(path), "--format", "json"]
        if cmd == "holonomy":
            argv += ["--word", job["word"]]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        dt = time.perf_counter() - t0
        times.append(dt)
        try:
            problems = wl.check_command(job, cmd, json.loads(proc.stdout), proc.returncode)
        except (ValueError, KeyError, TypeError, IndexError):
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            problems = [f"cli {cmd} exit {proc.returncode}: {last[0][:200]}"]
        stats.add(problems, wl.known_defect(job, problems))
    return times


def untraced_run(wl, seconds, tmp):
    """The closed loop, with the set-up probes spread over it.  The gated
    latency is the 80th percentile: the host's speed swings, most of a
    run goes at the slow speed and a varying share at the fast one, so
    the median flips between the two from run to run, while the 80th
    percentile reads the slow speed and is still far enough from the
    slowest few requests to stay put (see README.md)."""
    stats = Stats()
    probes = SetupProbes(wl, tmp)
    n, wall = closed_loop(wl, seconds, stats, probes)
    stats.setup_s = probes.setup_s
    lat = sorted(stats.latencies)
    metrics = {
        "setup_s": (statistics.median(stats.setup_s), "s"),
        "req_p80_ms": (percentile(lat, 80) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"requests": (n, "count"), "req_per_s": (n / wall, "1/s"),
             "req_p50_ms": (statistics.median(lat) * 1e3, "ms"),
             "req_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
             "setup_probes": (len(stats.setup_s), "count")}
    if hasattr(wl, "cli_sample"):
        times = cli_sample(wl, tmp, stats)
        extra["cli_p50_ms"] = (statistics.median(times) * 1e3, "ms")
        extra["cli_runs"] = (len(times), "count")
    extra["fail_frac"] = (stats.failed / stats.attempted, "ratio")
    if hasattr(wl, "thin_part"):
        thin = thin_part(wl)
        stats.correct = stats.correct and thin.correct
        stats.problems += [["thin part, not in failed"] + p for p in thin.problems]
        extra["thin_part_docs"] = (thin.attempted, "count")
        extra["thin_part_failed"] = (thin.failed, "count")
    return stats, metrics, extra


def thin_part(wl):
    """The workload's short-curve documents, run and checked once, after
    the timing.  ROADMAP item 3's defect fails some of them on the seed
    code, and a failed operation in the result line must mean a
    regression, so these are reported on their own lines and kept out
    of ``attempted`` and ``failed``.  A failure that is not the
    defect's known symptom still makes the run incorrect."""
    thin = Stats()
    one_request(wl, wl.thin_part(), thin)
    return thin


def traced_run(wl, seconds, spans_path):
    """Alternate an untraced and a traced pass over the fixed batch until
    ``seconds`` are used (at least one pair).  Per-layer values are per
    traced request; the overhead compares request time in the two."""
    stats = Stats()
    tracer = Tracer()
    batch = range(wl.traced_batch)
    plain = traced = 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() + (plain + traced) / passes <= deadline:
        plain += sum(one_request(wl, wl.prepare(i), stats) for i in batch)
        jobs = [wl.prepare(i) for i in batch]  # preparing is not traced
        tracer.install()
        tracer.record_words = passes == 0
        try:
            for i, job in zip(batch, jobs):
                tracer.request = passes * len(batch) + i
                traced += one_request(wl, job, stats)
        finally:
            tracer.uninstall()
        passes += 1
    requests = passes * len(batch)
    layers = {}
    for name, (calls, self_s) in tracer.span_totals().items():
        layers[f"{name}.calls"] = (calls / requests, "count/req")
        layers[f"{name}.self_ms"] = (self_s * 1e3 / requests, "ms/req")
    for name, calls in tracer.counts.items():
        layers[f"{name}.calls"] = (calls / requests, "count/req")
    layers["wp.chain_terms"] = (tracer.chain_terms / requests, "count/req")
    # distinct words per base cocycle, over the first traced pass
    layers["surface.holonomy.distinct_ratio"] = (tracer.distinct_ratio(), "ratio")
    layers["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    tracer.write(spans_path)
    extra = {"traced_requests": (requests, "count"), "spans": (len(tracer.span_start), "count")}
    return stats, layers, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fnhol" / "__init__.py").is_file():
        print(f"run.py: no fnhol package under {SRC}", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "calibration_ms_start": calibration_ms(),
    }
    wl = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        sys.path.insert(0, str(SRC))
        import fnhol

        if Path(fnhol.__file__).resolve().parent != SRC / "fnhol":
            print(f"run.py: imported fnhol from {fnhol.__file__}, not {SRC}", file=sys.stderr)
            return 2
        wl.setup()
        if args.trace:
            probes = SetupProbes(wl, tmp)
            probes.finish()
            stats, metrics, extra = traced_run(wl, args.seconds, OUT / f"{args.workload}.spans")
            metrics["cli.import_ms"] = (statistics.median(probes.import_s) * 1e3, "ms")
        else:
            stats, metrics, extra = untraced_run(wl, args.seconds, tmp)
    env["calibration_ms_end"] = calibration_ms()

    # the last line carries exactly the metrics BENCHMARK.json lists
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in listed["per_layer" if args.trace else "end_to_end"]}
    for name, unit in wanted.items():
        if name not in metrics or metrics[name][1] != unit:
            raise ValueError(f"metric {name} in {unit} was not measured")
    for name, (value, unit) in sorted({**metrics, **extra}.items()):
        print(f"{name:40s} {value:16.6g} {unit}")
    for key, value in env.items():
        print(f"env.{key:36s} {value}")
    for problems in stats.problems:
        print("failure: " + "; ".join(problems))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": stats.correct,
              "attempted": stats.attempted, "failed": stats.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "failures": stats.problems, "latencies_s": stats.latencies,
              "setup_s": stats.setup_s}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    result = {"correct": stats.correct, "attempted": stats.attempted, "failed": stats.failed,
              "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in wanted.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
