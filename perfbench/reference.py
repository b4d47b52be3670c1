#!/usr/bin/env python3
"""Regenerate reference.json: the sha256 of each workload's canonical
outputs (printed bases, JSON report bytes) over one pass at the default seed.

    python3 perfbench/reference.py

Every instance runs once and must pass the same checks as in run.py.  The
gb_dense bases are also compared with sympy's reduced grevlex bases over
F_32003, instance by instance; sympy is much slower, so it stays out of the
benchmark itself.
"""

import json
import os
import shutil
import sys

import run


def sympy_agrees(wl, instances):
    """Count the gb_dense instances whose basis equals sympy's."""
    import sympy
    names = sympy.symbols(" ".join(wl.VARS))
    agreed = 0
    for gens in instances:
        exprs = [sympy.sympify(g.replace("^", "**")) for g in gens]
        theirs = sympy.groebner(exprs, *names, order="grevlex", modulus=wl.P)
        theirs = {frozenset((m, int(c) % wl.P)
                            for m, c in sympy.Poly(g, *names, modulus=wl.P).terms())
                  for g in theirs.exprs}
        ours = {frozenset((tuple(int(e) for e in vec), int(c)) for vec, c in g.terms())
                for g in wl.run(gens)}
        agreed += ours == theirs
    return agreed, sympy.__version__


def main():
    if not run.use_checkout():
        return 2
    out = {"seed": run.DEFAULT_SEED, "sha256": {}}
    try:
        for name in run.WORKLOAD_NAMES:
            _, _, wl, instances = run.setup(name, run.DEFAULT_SEED)
            if hasattr(wl, "prepare"):
                wl.prepare(instances)
            checker = run.Checker(wl, instances)
            records, _ = run.run_loop(wl, instances, indices=range(len(instances)),
                                      checker=checker)
            failed = sum(r[3] for r in records)
            if failed:
                print(f"{name}: {failed} instances failed: {checker.errors}", file=sys.stderr)
                return 1
            out["sha256"][name] = checker.digest()
            if name == "gb_dense":
                agreed, version = sympy_agrees(wl, instances)
                out["gb_dense_sympy"] = {"sympy": version, "instances": len(instances),
                                         "agreed": agreed}
                if agreed != len(instances):
                    print(f"sympy disagrees on {len(instances) - agreed} bases", file=sys.stderr)
                    return 1
            print(name, out["sha256"][name], flush=True)
    finally:
        shutil.rmtree(os.path.join(run.HERE, "_work"), ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
