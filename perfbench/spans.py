"""In-memory span tracing attached to charp's layers from outside.

``Tracer`` records one span per call of a wrapped function: its name, start,
end and the span that was open when it began.  Spans stay in memory; the
per-name call counts and self times are computed once, at the end.  A span's
self time is its duration minus the durations of its direct children (calls
are single-threaded, so children are disjoint intervals inside the parent).

``install`` wraps charp's public layer functions by patching module and class
attributes.  A function imported by name into other modules (``from
.frobenius import frob_root``) is patched in every ``charp`` module that holds
it, so calls through any of those names are traced.  ``uninstall`` restores
the originals.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()  # counters fed by the observe hooks
        self.maxima = defaultdict(int)
        self._open = []

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(None)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx):
        self.ends[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def calls(self):
        return Counter(self.names)

    def self_times(self):
        """Total self time in seconds per span name."""
        if self._open:
            raise RuntimeError("self times asked for while spans are open")
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
        out = defaultdict(float)
        for name, d, c in zip(self.names, durations, covered):
            out[name] += d - c
        return out

    def child_names(self):
        """For each span index, the names of its direct children."""
        out = defaultdict(list)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent].append(self.names[i])
        return out


def _nbytes(args):
    return sum(a.nbytes for a in args if isinstance(a, np.ndarray))


def _observe_kernel(tracer, args, result):
    tracer.counts["kernels.bytes_computed"] += _nbytes(args)


def _observe_normal_form(tracer, args, result):
    _observe_kernel(tracer, args, result)
    tracer.counts["kernels.normal_form.terms_in"] += len(args[2])
    out = len(result[2])
    tracer.maxima["kernels.normal_form.max_terms_out"] = max(
        tracer.maxima["kernels.normal_form.max_terms_out"], out)
    if result[3] == 0 and out == 0:
        tracer.counts["kernels.normal_form.zero"] += 1


def _observe_frob_root(tracer, args, result):
    if not args[0].is_monomial():
        tracer.counts["frobenius.frob_root.elimination"] += 1


def _observe_f_closure(tracer, args, result):
    tracer.counts["frobenius.f_closure.steps"] += len(result.steps)


def _observe_decompose(tracer, args, result):
    tracer.counts["decomposition.components"] += len(result.components)


# (span name, module, class or None, attribute, observe hook or None)
LAYER_POINTS = (
    ("kernels.normal_form", "charp._kernels", None, "normal_form", _observe_normal_form),
    ("kernels.axpy", "charp._kernels", None, "axpy", _observe_kernel),
    ("kernels.mul", "charp._kernels", None, "mul", _observe_kernel),
    ("kernels.combine", "charp._kernels", None, "combine", _observe_kernel),
    ("poly.parse", "charp.poly", "Ring", "parse", None),
    ("ideals.groebner_basis", "charp.ideals", None, "groebner_basis", None),
    ("ideals.Ideal.groebner", "charp.ideals", "Ideal", "groebner", None),
    ("ideals.contains", "charp.ideals", "Ideal", "contains", None),
    ("ideals.intersect", "charp.ideals", "Ideal", "intersect", None),
    ("ideals.quotient", "charp.ideals", "Ideal", "quotient", None),
    ("frobenius.frob_root", "charp.frobenius", None, "frob_root", _observe_frob_root),
    ("frobenius.f_closure", "charp.frobenius", None, "f_closure", _observe_f_closure),
    ("perfection.term", "charp.perfection", "FSequence", "term", None),
    ("perfection.verify", "charp.perfection", "FSequence", "verify", None),
    ("perfection.member", "charp.perfection", "PerfectionIdeal", "member", None),
    ("decomposition.decompose_monomial", "charp.decomposition", None,
     "decompose_monomial", _observe_decompose),
    ("decomposition.ex8_build", "charp.decomposition", None, "ex8_build", None),
    ("cli.parse_spec", "charp.cli", None, "parse_spec", None),
    ("cli.main", "charp.cli", None, "main", None),
)


def traced(tracer, name, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


def install(tracer):
    """Wrap every layer point; returns the patches for ``uninstall``."""
    patches = []
    for name, module, cls, attr, observe in LAYER_POINTS:
        owner = sys.modules[module]
        if cls is not None:
            owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            targets = [owner]
        else:
            original = getattr(owner, attr)
            targets = [m for key, m in sorted(sys.modules.items())
                       if key.split(".")[0] == "charp" and m is not None
                       and getattr(m, attr, None) is original]
        wrapper = traced(tracer, name, original, observe)
        for target in targets:
            setattr(target, attr, wrapper)
            patches.append((target, attr, original))
    return patches


def uninstall(patches):
    for target, attr, original in reversed(patches):
        setattr(target, attr, original)
