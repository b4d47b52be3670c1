#!/usr/bin/env python3
"""Layered benchmark for charp: one workload per process, closed loop.

    python3 perfbench/run.py --workload gb_dense --seed 4057 --seconds 30 --trace 0

Run from the repository root (the script changes into it).  The package is
imported from ``src/`` as a library; the inputs are made from ``--seed`` by
``workloads.py``.  One caller runs the instances of a pass in order and waits
for each result before starting the next, cycling through the pass until
``--seconds`` have gone by.  Every output is checked outside the timed
region, against the workload's gates, against the first execution of the
same instance (a later pass must print the same bases and count the same
pairs), and for the default seed against the sha256 digests in
``reference.json``.

On a virtual machine whose cores other tenants share (the benchmark was
tuned on one with 2 vCPUs of a 2.0 GHz Xeon), their load changes how fast
the same instance runs by up to 2x within seconds, and the level drifts over
minutes.  So the loop also times a fixed slice of interpreter and numpy
sorting work that does not touch charp (``calibrate``) every
``CAL_EVERY_S`` seconds.  Each latency is scaled by ``NOMINAL_CAL_S`` over
the mean calibration time of its ``CAL_WINDOW_S`` window: the reported times
are what the instance takes when the calibration runs in ``NOMINAL_CAL_S``.
The unscaled figures are printed beside them.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s`` (the
median over this process and ``SETUP_PROBES`` fresh interpreters of
importing charp and charp.cli, generating the inputs and running one warm-up
instance, scaled by calibrations run right after it; writing the generated
spec files is not counted), ``instances_per_s``
(completed instances over their summed latencies), ``instance_ms.p50``,
``instance_ms.p90`` and ``peak_rss_mb``.  With ``--trace 1`` the same timed
loop runs, then one more pass with span wrappers installed (``spans.py``);
the result holds the per-layer metrics of that pass and the traced
throughput relative to the untraced one.

Progress and environment go to stdout as JSON lines; the last line is the
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6
SETUP_CALIBRATIONS = 15
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 1.0
NOMINAL_CAL_S = 0.001
PROBE_TIMEOUT_S = 120
DEFAULT_SEED = 4057
WORKLOAD_NAMES = ("gb_dense", "frobenius_closure", "cli_specs")

PER_LAYER = (
    ("kernels.normal_form.calls", "count"),
    ("kernels.normal_form.self_s", "s"),
    ("kernels.normal_form.terms_in", "count"),
    ("kernels.normal_form.max_terms_out", "count"),
    ("kernels.normal_form.zero_ratio", "ratio"),
    ("kernels.axpy.calls", "count"),
    ("kernels.axpy.self_s", "s"),
    ("kernels.mul.calls", "count"),
    ("kernels.mul.self_s", "s"),
    ("kernels.combine.calls", "count"),
    ("kernels.combine.self_s", "s"),
    ("kernels.bytes_computed", "bytes"),
    ("ideals.groebner_basis.calls", "count"),
    ("ideals.groebner_basis.self_s", "s"),
    ("ideals.pairs", "count"),
    ("ideals.Ideal.groebner.calls", "count"),
    ("ideals.gb_cache_hit_ratio", "ratio"),
    ("ideals.intersect.self_s", "s"),
    ("ideals.quotient.self_s", "s"),
    ("ideals.contains.calls", "count"),
    ("frobenius.frob_root.calls", "count"),
    ("frobenius.frob_root.self_s", "s"),
    ("frobenius.frob_root.elimination_ratio", "ratio"),
    ("frobenius.f_closure.calls", "count"),
    ("frobenius.f_closure.steps", "count"),
    ("perfection.term.calls", "count"),
    ("perfection.verify.self_s", "s"),
    ("perfection.member.self_s", "s"),
    ("decomposition.decompose_monomial.calls", "count"),
    ("decomposition.decompose_monomial.self_s", "s"),
    ("decomposition.components", "count"),
    ("decomposition.ex8_build.self_s", "s"),
    ("poly.parse.self_s", "s"),
    ("cli.parse_spec.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.instances_per_s_ratio", "ratio"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="layered charp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up in this fresh interpreter and print it")
    return ap.parse_args(argv)


def calibrate():
    """Time a fixed slice of interpreter and numpy sorting work that does not
    touch charp; its duration tracks how fast this machine runs right now."""
    import numpy as np
    keys = (np.arange(600, dtype=np.int64).reshape(200, 3) * 7919) % 1009
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    for _ in range(60):
        acc += int(np.lexsort(keys.T[::-1])[0])
    return time.perf_counter() - t0


def setup(name, seed):
    """Import charp, make the inputs, run one warm-up instance.

    Returns (scaled seconds, seconds, workload, instances).  The imports
    happen here, so the time covers them only when this is the first import
    in the process.  Calibration runs after the set-up, so that its own
    numpy import is not counted.  Writing generated spec files is left to
    the caller and not counted: a user's spec files already exist.
    """
    t0 = time.perf_counter()
    import charp  # noqa: F401
    import charp.cli  # noqa: F401
    from workloads import WORKLOADS
    wl = WORKLOADS[name]()
    instances = wl.generate(seed)
    wl.run(wl.warmup())
    seconds = time.perf_counter() - t0
    speed = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    return seconds * NOMINAL_CAL_S / speed, seconds, wl, instances


def probe_setup(name, seed):
    """(scaled, raw) set-up time of a fresh interpreter, measured by it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def run_loop(wl, instances, seconds=None, indices=None, checker=None):
    """The closed loop.  Runs ``indices`` once, or cycles through the pass
    until ``seconds`` have gone by, calibrating every ``CAL_EVERY_S``.

    Returns (records, calibrations).  A record is (index, start, latency,
    outcome).  With a checker the outcome is whether the instance failed,
    checked as soon as the instance returns (outside its timing); without
    one it is the (raw result, error, pair-count delta) to check later.  A
    calibration is (start, duration).
    """
    import charp.ideals as ideals_mod
    n = len(instances)
    records = []
    cals = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    last_cal = float("-inf")
    k = 0
    while True:
        if indices is not None:
            if k >= len(indices):
                break
            i = indices[k]
        else:
            i = k % n
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            last_cal = time.perf_counter()
            cals.append((last_cal, calibrate()))
        before = ideals_mod.pair_count
        t0 = time.perf_counter()
        try:
            raw, err = wl.run(instances[i]), None
        except Exception as e:  # a failing instance is counted, not fatal
            raw, err = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        outcome = (raw, err, ideals_mod.pair_count - before)
        if checker is not None:
            outcome = checker.failed(i, *outcome)
        records.append((i, t0, t1 - t0, outcome))
        k += 1
        if deadline is not None and t1 >= deadline:
            break
    return records, cals


def scaled_latencies(records, cals):
    """Latencies at nominal speed: each times NOMINAL_CAL_S over the mean
    calibration of its CAL_WINDOW_S window (of the whole loop if that window
    holds none).  The speed flips within fractions of a second, so a mean
    over the window follows it better than a median."""
    windows = defaultdict(list)
    for t, d in cals:
        windows[int(t // CAL_WINDOW_S)].append(d)
    means = {w: statistics.fmean(v) for w, v in windows.items()}
    overall = statistics.fmean(d for _, d in cals)
    return [lat * NOMINAL_CAL_S / means.get(int(t // CAL_WINDOW_S), overall)
            for _, t, lat, _ in records]


class Checker:
    """Checks results; keeps the first canonical output and pair count of
    every instance, which later passes must repeat exactly."""

    def __init__(self, wl, instances):
        self.wl = wl
        self.instances = instances
        self.canon = {}
        self.pairs = {}
        self.verdict = {}
        self.errors = []

    def failed(self, i, raw, err, dpairs):
        inst = self.instances[i]
        if err is None:
            text = self.wl.canon(inst, raw)
            pairs = self.wl.pairs(inst, raw) if hasattr(self.wl, "pairs") else dpairs
            if i not in self.canon:
                self.canon[i] = text
                self.pairs[i] = pairs
                self.verdict[i] = self.wl.check(inst, raw)
                err = self.verdict[i]
            elif text != self.canon[i]:
                err = "output differs from an earlier pass"
            elif pairs != self.pairs[i]:
                err = f"pair count {pairs} differs from an earlier pass ({self.pairs[i]})"
            else:
                err = self.verdict[i]
        if err is not None and len(self.errors) < 10:
            self.errors.append({"instance": i, "error": err})
        return err is not None

    def digest(self):
        h = hashlib.sha256()
        for i in range(len(self.instances)):
            h.update(self.canon.get(i, "<missing>").encode())
            h.update(b"\0")
        return h.hexdigest()


def percentile_ms(latencies):
    """(p50, p90) in milliseconds."""
    ms = [x * 1e3 for x in latencies]
    if len(ms) < 2:  # a run shorter than two instances
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, n):
    import numpy
    from charp import _kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "backend": _kernels.backend(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
            "instances_per_pass": n, "loop": "closed, one caller"}


def layer_metrics(tracer, pass_pairs, report_bytes, ratio):
    calls = tracer.calls()
    self_s = tracer.self_times()
    counts = tracer.counts
    children = tracer.child_names()
    gb_calls = [i for i, name in enumerate(tracer.names) if name == "ideals.Ideal.groebner"]
    hits = sum(1 for i in gb_calls if "ideals.groebner_basis" not in children.get(i, ()))

    def share(num, den):
        return num / den if den else 0.0

    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls[span]
        elif field == "self_s":
            values[name] = self_s.get(span, 0.0)
    values.update({
        "kernels.normal_form.terms_in": counts["kernels.normal_form.terms_in"],
        "kernels.normal_form.max_terms_out": tracer.maxima["kernels.normal_form.max_terms_out"],
        "kernels.normal_form.zero_ratio": share(counts["kernels.normal_form.zero"],
                                                calls["kernels.normal_form"]),
        "kernels.bytes_computed": counts["kernels.bytes_computed"],
        "ideals.pairs": pass_pairs,
        "ideals.gb_cache_hit_ratio": share(hits, len(gb_calls)),
        "frobenius.frob_root.elimination_ratio": share(counts["frobenius.frob_root.elimination"],
                                                       calls["frobenius.frob_root"]),
        "frobenius.f_closure.steps": counts["frobenius.f_closure.steps"],
        "decomposition.components": counts["decomposition.components"],
        "cli.report_bytes": report_bytes,
        "trace.instances_per_s_ratio": ratio,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def use_checkout():
    """Work from the checkout root and import charp from its sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "charp", "__init__.py")):
        print(f"no charp sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return False
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return True


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not use_checkout():
        return 2
    if args.setup_probe:
        print(json.dumps(setup(args.workload, args.seed)[:2]))
        return 0
    try:
        return bench(args)
    finally:
        shutil.rmtree(os.path.join(HERE, "_work"), ignore_errors=True)


def bench(args):
    scaled, raw, wl, instances = setup(args.workload, args.seed)
    setups = [(scaled, raw)]
    if not args.trace:
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    if hasattr(wl, "prepare"):
        wl.prepare(instances)
    n = len(instances)
    checker = Checker(wl, instances)

    records, cals = run_loop(wl, instances, seconds=args.seconds, checker=checker)
    attempted = len(records)
    failed = sum(r[3] for r in records)
    latencies = scaled_latencies(records, cals)
    raw_latencies = [r[2] for r in records]
    ips = (attempted - failed) / sum(latencies)
    raw_ips = (attempted - failed) / sum(raw_latencies)
    raw_p50, raw_p90 = percentile_ms(raw_latencies)

    missing = [i for i in range(n) if i not in checker.canon]
    if missing:  # a slow machine may not finish one pass; check the rest untimed
        extra, _ = run_loop(wl, instances, indices=missing, checker=checker)
        attempted += len(extra)
        failed += sum(r[3] for r in extra)

    info = {"env": environment(args, n), "samples": len(latencies),
            "passes": len(records) / n, "calibration_ms": [
                1e3 * min(d for _, d in cals), 1e3 * statistics.median(d for _, d in cals)],
            "ideals.pairs_per_pass": sum(checker.pairs.values()),
            "unscaled": {"setup_s": statistics.median(r for _, r in setups),
                         "instances_per_s": raw_ips,
                         "instance_ms.p50": raw_p50, "instance_ms.p90": raw_p90}}

    if args.trace:
        import spans
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            traced, traced_cals = run_loop(wl, instances, indices=list(range(n)))
        finally:
            spans.uninstall(patches)
        attempted += n
        failed += sum(checker.failed(r[0], *r[3]) for r in traced)
        traced_ips = n / sum(scaled_latencies(traced, traced_cals))
        report_bytes = 0
        if args.workload == "cli_specs":
            report_bytes = sum(len(r[3][0][1].encode()) for r in traced if r[3][0] is not None)
        metrics = layer_metrics(tracer, sum(checker.pairs.values()), report_bytes,
                                traced_ips / ips)
        info["ideals.groebner_basis.calls_per_pass"] = \
            metrics["ideals.groebner_basis.calls"]["value"]
        info["spans"] = len(tracer.names)
    else:
        p50, p90 = percentile_ms(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
            "instances_per_s": {"value": ips, "unit": "1/s"},
            "instance_ms.p50": {"value": p50, "unit": "ms"},
            "instance_ms.p90": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    correct = failed == 0
    info["sha256"] = checker.digest()
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json")) as fh:
            expected = json.load(fh)["sha256"].get(args.workload)
        info["reference_match"] = info["sha256"] == expected
        correct = correct and info["reference_match"]
    info["failed_ratio"] = failed / attempted
    info["errors"] = checker.errors
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
