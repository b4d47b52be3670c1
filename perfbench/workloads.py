"""The three benchmark workloads: input generation, one instance, checks.

Inputs are plain text made from the seed by this module alone (generator
strings and INI specs), so they do not change when the library changes.
Every instance rebuilds its rings and ideals from that text, which keeps
``Ideal._gb_cache`` and ``FSequence._memo`` from carrying results from one
pass into the next.

Each workload provides:

* ``generate(seed)``  -- the instance list of one pass, as text;
* ``warmup()``        -- one fixed instance run untimed during set-up;
* ``run(inst)``       -- the timed call into charp, returning its raw result;
* ``canon(inst, raw)``-- the canonical output text (printed bases or the
  JSON report bytes); the reference digests hash these;
* ``check(inst, raw)``-- an error string when a result is wrong for any
  seed, else None;
and, where needed:

* ``prepare(instances)``  -- write what the instances read (spec files);
* ``pairs(inst, raw)``    -- critical pairs the instance processed, where the
  library counter ``charp.ideals.pair_count`` does not give them (the CLI
  resets it per command and reports its own count).
"""

import configparser
import contextlib
import io
import itertools
import json
import os
import random

# Library functions are called through their modules, so that the span
# wrappers the traced run patches onto those modules see these calls too.
import charp.cli
from charp import Ideal, Ring, frobenius
from charp.ideals import normal_form

# generated specs live here, relative to the repository root (the working
# directory), so that the paths echoed in the reports are the same everywhere
WORK_DIR = os.path.relpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work"))


def _mono_text(names, vec):
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, vec) if e]
    return "*".join(parts)


def _poly_text(rng, p, names, monos, nterms):
    """nterms distinct monomials from ``monos`` with coefficients in [1, p)."""
    out = []
    for vec in rng.sample(monos, nterms):
        c = rng.randint(1, p - 1)
        mono = _mono_text(names, vec)
        out.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(out)


# ---------------------------------------------------------------------------
# gb_dense: reduced grevlex bases of random dense systems over F_32003
# ---------------------------------------------------------------------------


class GbDense:
    """Three generators of four distinct terms, exponents at most 2.  With
    exponents up to 3 a system takes about 4x longer, and a 30 s run would
    cover too few distinct systems for its p90 to repeat across seeds."""

    name = "gb_dense"
    per_pass = 360
    P = 32003
    VARS = ("X", "Y", "Z")
    GENS, TERMS, MAX_EXP = 3, 4, 2
    MONOS = list(itertools.product(range(MAX_EXP + 1), repeat=len(VARS)))

    def _system(self, rng):
        return tuple(_poly_text(rng, self.P, self.VARS, self.MONOS, self.TERMS)
                     for _ in range(self.GENS))

    def generate(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        return [self._system(rng) for _ in range(self.per_pass)]

    def warmup(self):
        return self._system(random.Random(f"{self.name}:warmup"))

    def run(self, gens):
        ring = Ring(self.P, self.VARS)
        return Ideal(ring, list(gens)).groebner()

    def canon(self, gens, basis):
        return "\n".join(str(g) for g in basis)

    def check(self, gens, basis):
        """The basis is monic and reduced, and every input reduces to zero."""
        if not basis:
            return "empty basis for nonzero generators"
        leads = [tuple(int(x) for x in g.exps[0]) for g in basis]
        for i, g in enumerate(basis):
            if g.lead_coeff() != 1:
                return f"basis element {g} is not monic"
            for vec, _ in g.terms():
                for j, lead in enumerate(leads):
                    if j != i and all(a <= b for a, b in zip(lead, vec)):
                        return f"basis element {g} is not reduced by lead {j}"
        ring = basis[0].ring
        for text in gens:
            if not normal_form(ring.parse(text), basis).is_zero():
                return f"generator {text} does not reduce to zero"
        return None


# ---------------------------------------------------------------------------
# frobenius_closure: Kunz round trips and F-closures of small ideals
# ---------------------------------------------------------------------------


def _tdeg_monos(nvars, max_deg):
    return [v for v in itertools.product(range(max_deg + 1), repeat=nvars)
            if sum(v) <= max_deg]


class FrobeniusClosure:
    name = "frobenius_closure"
    per_pass = 800
    RINGS = ((2, ("X", "Y")), (3, ("X", "Y", "Z")))
    MAX_GENS, MAX_TERMS, MAX_DEG = 3, 3, 4

    def __init__(self):
        cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
        with open(os.path.join("specs", "cusp.ini")) as fh:
            cp.read_file(fh)
        ring = cp["ring"]
        self.cusp = ("cusp", int(ring["p"]),
                     tuple(v.strip() for v in ring["vars"].split(",")),
                     ring["quotient"].strip(), cp["ideal u"]["gens"].strip())

    def _ideal(self, rng, k):
        """The k-th ideal.  Ring, generator count and term counts cycle with
        k (a stratified sample), so every seed has the same mix of shapes and
        only the monomials and coefficients are random."""
        p, names = self.RINGS[k % 2]
        monos = _tdeg_monos(len(names), self.MAX_DEG)
        ngens = 1 + (k // 2) % self.MAX_GENS
        gens = tuple(_poly_text(rng, p, names, monos, 1 + (k // 6 + j) % self.MAX_TERMS)
                     for j in range(ngens))
        return ("ideal", p, names, gens)

    def generate(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        return [self._ideal(rng, k) for k in range(self.per_pass - 1)] + [self.cusp]

    def warmup(self):
        return self._ideal(random.Random(f"{self.name}:warmup"), 1)

    def run(self, inst):
        if inst[0] == "cusp":
            _, p, names, quotient, gens = inst
            plain = Ring(p, names)
            ring = Ring(p, names, quotient=[plain.parse(quotient)], reduced=True)
            return frobenius.f_closure(Ideal(ring, [gens]))
        _, p, names, gens = inst
        I = Ideal(Ring(p, names), list(gens))
        roundtrip = frobenius.frob_root(frobenius.frob_power(I, 1)) == I
        res = frobenius.f_closure(I)
        return roundtrip, res, res.closure == I

    def canon(self, inst, raw):
        res = raw if inst[0] == "cusp" else raw[1]
        lines = [", ".join(str(g) for g in s.groebner()) for s in res.steps]
        lines.append(f"stabilized_at {res.stabilized_at}")
        lines += [f"witness {w['element']} {w['exponent']}" for w in res.witnesses]
        return "\n".join(lines)

    def check(self, inst, raw):
        if inst[0] == "cusp":
            closure = [str(g) for g in raw.closure.groebner()]
            witnesses = {str(w["element"]): w["exponent"] for w in raw.witnesses}
            if sorted(closure) != ["U", "V"]:
                return f"cusp closure is {closure}, expected (U, V)"
            if witnesses != {"V": 1}:
                return f"cusp witnesses are {witnesses}, expected {{V: 1}}"
            return None
        roundtrip, res, closed = raw
        if not roundtrip:
            return "Kunz round trip root(power(I)) != I"
        if not closed or res.stabilized_at != 0:
            return f"regular ring: closure != I or stabilized_at {res.stabilized_at} != 0"
        return None


# ---------------------------------------------------------------------------
# cli_specs: charp.cli.main over generated specs and the README commands
# ---------------------------------------------------------------------------

README_COMMANDS = (
    "gb specs/demo.ini --ideal a",
    "frob power specs/demo.ini --ideal a --e 2",
    "frob root specs/demo.ini --ideal a",
    "frob closure specs/cusp.ini --ideal u --max-e 10 --confirm 2",
    "decompose specs/demo.ini --ideal a",
    "fseq verify specs/demo.ini --fseq powers --depth 3",
    "fseq growth specs/demo.ini --fseq powers --find-h --depth 3",
    "perfection member specs/demo.ini --fseq upstairs --elem X --root 1",
    "perfection decompose specs/demo.ini --fseq upstairs --depth 3",
    "lg2 specs/demo.ini --ideal a --primes px,pxy --h 2 --n 1 --mode plain",
    "ex8 --p 7 --l 2 --t 1,1,1 --depth 3",
)

_SPEC = """[ring]
p = {p}
vars = X, Y

[ideal a]
gens = {a}

[ideal g]
gens = {g}

[ideal px]
gens = X

[ideal pxy]
gens = X, Y

[fseq powers]
kind = frobenius-powers
ideal = a

[fseq upstairs]
kind = fg-perfection
ideal = a
k = {k}
"""


class CliSpecs:
    name = "cli_specs"
    specs_per_pass = 300
    NAMES = ("X", "Y")

    def _spec(self, rng, i):
        """The i-th spec: a random proper monomial ideal ``a`` and an ideal
        ``g = X^x (X^b, Y^c)`` whose associated primes are (X) and (X, Y).
        The prime, the generator count of ``a`` and the depths cycle with i
        (a stratified sample); exponents and the other arguments are random."""
        p = (2, 3, 5)[i % 3]
        vecs = set()
        while len(vecs) < 1 + (i // 3) % 3:
            vec = (rng.randint(0, 4), rng.randint(0, 4))
            if sum(vec):
                vecs.add(vec)
        a = ", ".join(_mono_text(self.NAMES, v) for v in sorted(vecs))
        x, b, c = (rng.randint(1, 2) for _ in range(3))
        g = f"{_mono_text(self.NAMES, (x + b, 0))}, {_mono_text(self.NAMES, (x, c))}"
        text = _SPEC.format(p=p, a=a, g=g, k=rng.randint(0, 1))
        elem = _mono_text(self.NAMES, (rng.randint(0, 4), rng.randint(1, 4)))
        depth = 1 + (i // 9) % 2
        # (X, Y)^h lands in (X^(x+b), Y^c) from h = x + b + c - 1 on
        commands = (
            "decompose {spec} --ideal a",
            f"fseq growth {{spec}} --fseq powers --find-h --depth {depth}",
            f"fseq verify {{spec}} --fseq upstairs --depth {3 - depth}",
            f"perfection member {{spec}} --fseq upstairs --elem {elem} --root {rng.randint(0, 2)}",
            f"lg2 {{spec}} --ideal g --primes px,pxy --h {x + b + c - 1} "
            f"--n {rng.randint(0, 1)} --mode plain",
        )
        return text, commands

    def generate(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for i in range(self.specs_per_pass):
            text, commands = self._spec(rng, i)
            path = f"{WORK_DIR}/{self.name}/s{i:03d}.ini"
            out += [(path, text, cmd.format(spec=path).split()) for cmd in commands]
        out += [(None, None, cmd.split()) for cmd in README_COMMANDS]
        return out

    def warmup(self):
        return (None, None, README_COMMANDS[0].split())

    def prepare(self, instances):
        """Write the generated specs below the work directory."""
        for path, text in {(inst[0], inst[1]) for inst in instances if inst[0]}:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)

    def run(self, inst):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = charp.cli.main(inst[2] + ["--json"])
        return code, buf.getvalue()

    def canon(self, inst, raw):
        return raw[1]

    def check(self, inst, raw):
        code, text = raw
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(text)
        except ValueError as e:
            return f"report is not JSON: {e}"
        result = report["result"]
        command = inst[2][0]
        if command == "ex8" and result["ass_sizes"] != [1, 2, 3, 4]:
            return f"ex8 ass_sizes {result['ass_sizes']} != [1, 2, 3, 4]"
        if command == "fseq" and inst[2][1] == "verify" and not result["ok"]:
            return "f-sequence failed verification"
        if command == "frob" and inst[2][1] == "closure":
            if sorted(result["closure"]) != ["U", "V"]:
                return f"cusp closure is {result['closure']}, expected (U, V)"
            if report["witnesses"] != [{"element": "V", "exponent": 1}]:
                return f"cusp witnesses are {report['witnesses']}, expected {{V: 1}}"
        return None

    def pairs(self, inst, raw):
        try:
            return json.loads(raw[1])["budget"]["pairs_used"]
        except (ValueError, KeyError):
            return None


WORKLOADS = {w.name: w for w in (GbDense, FrobeniusClosure, CliSpecs)}
