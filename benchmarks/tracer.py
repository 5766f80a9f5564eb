"""In-memory spans and counters around fnhol's layers, installed from
outside the package.

Spans wrap every public module-level function of ``pants``,
``surface``, ``variation``, ``wp``, ``spin`` and ``cli`` plus the
residual methods that the workloads call (``SurfaceCocycle.face_residual``
and ``SpinSurfaceCocycle.max_face_residual``).  Each
function is rebound in every ``fnhol`` namespace that imported it
(``holonomy`` lives in ``surface``, ``wp``, ``cli`` and the package),
so calls between modules are seen too.  ``mat2`` is the arithmetic
kernel under everything; spans there would cost more than the work, so
its public functions, the ``Mat2`` product and inverse and the
``ProjMat2`` constructor (one canonical-sign evaluation each) are
counted only.

A span records name, start, end, parent span and request id in flat
arrays; self time is a span's duration minus that of its child spans.
"""

import array
import collections
import importlib
import inspect
import json
import time

SPAN_LAYERS = ("pants", "surface", "variation", "wp", "spin", "cli")
# (module, class, method, metric name) counted, not spanned
COUNTED_METHODS = (
    ("mat2", "Mat2", "__matmul__", "mat2.matmul"),
    ("mat2", "Mat2", "inv", "mat2.inv"),
    ("mat2", "ProjMat2", "__init__", "mat2.projmat2"),
)
SPANNED_METHODS = (
    ("surface", "SurfaceCocycle", "face_residual", "surface.face_residual"),
    ("spin", "SpinSurfaceCocycle", "max_face_residual", "spin.max_face_residual"),
)


def public_functions(module):
    """Names of the functions a module defines without a leading underscore."""
    return sorted(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ == module.__name__
    )


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_request = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.counts = collections.Counter()
        self.chain_terms = 0
        self.request = -1
        # surface.holonomy words seen per base cocycle, while recording
        self.record_words = False
        self.words = set()
        self.word_calls = 0
        self._alive = {}  # id -> cocycle, so that ids stay unique while recording
        self._stack = []
        self._undo = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name, fn, after=None):
        nid = self._name_id(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] += 0  # a counted function that never runs reads 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _holonomy_seen(self, args, _out):
        if self.record_words:
            cocycle, word = args[0], args[1]
            self._alive.setdefault(id(cocycle), cocycle)
            self.words.add((id(cocycle), hash(tuple(word))))
            self.word_calls += 1

    def _chain_built(self, _args, chain):
        self.chain_terms += len(chain.terms)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layers; ``uninstall`` restores every binding."""
        package = importlib.import_module("fnhol")
        mods = {m: importlib.import_module(f"fnhol.{m}") for m in SPAN_LAYERS + ("mat2",)}
        namespaces = [package, *mods.values()]
        hooks = {"surface.holonomy": self._holonomy_seen,
                 "wp.diagonal_chain": self._chain_built}
        for layer, mod in mods.items():
            for name in public_functions(mod):
                fn = getattr(mod, name)
                metric = f"{layer}.{name}"
                if layer == "mat2":
                    wrapper = self.counted(metric, fn)
                else:
                    wrapper = self.spanned(metric, fn, hooks.get(metric))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._set(ns, attr, wrapper)
        for mod, cls, meth, metric in COUNTED_METHODS:
            owner = getattr(mods[mod], cls)
            self._set(owner, meth, self.counted(metric, getattr(owner, meth)))
        for mod, cls, meth, metric in SPANNED_METHODS:
            owner = getattr(mods[mod], cls)
            self._set(owner, meth, self.spanned(metric, getattr(owner, meth)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._alive = {}

    def span_totals(self):
        """{name: (calls, self seconds)} over all recorded spans."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def distinct_ratio(self):
        return len(self.words) / self.word_calls if self.word_calls else 0.0

    def write(self, path):
        """Spans as one JSON header line followed by the raw arrays in
        header order (machine byte order)."""
        cols = ("span_name", "span_parent", "span_request", "span_start", "span_end")
        header = {"names": self.names, "spans": len(self.span_start),
                  "columns": [[c, getattr(self, c).typecode] for c in cols]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for c in cols:
                getattr(self, c).tofile(f)
