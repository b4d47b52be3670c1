"""Primary decomposition, associated primes, growth certificates, the
localized-component constructions, and the escalating-primes family."""

import hashlib
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from charp import (CertificateFailure, GroebnerBudget, Ideal, IdentityFailure, InputError,
                   NonMonomial, Ring)
from charp import decomposition, ideals
from charp.decomposition import (PrimaryComponent, _redundant_index, _split_irreducible, _support,
                                 apply_shift, certify_growth, decompose_monomial,
                                 decompose_perfection_ideal, ex8_build,
                                 find_linear_growth_h, growth_decomposer, is_primary_monomial,
                                 lg2_decompose, localize_contract, unapply_shift)
from charp.errors import DistinctLambdaExhausted
from charp.frobenius import f_closure, frob_power, frob_root
from charp.ideals import intersect_all
from charp.perfection import FSequence, PerfectionElement, PerfectionIdeal

from conftest import (ass_monomial, cusp_ring, deadline, frobenius_decompositions,
                      membership_box, monomial_gen_exps, oracle_mono_member, primary_in_frame,
                      rand_monomial_ideal)


@pytest.fixture
def R2():
    return Ring(2, ["X", "Y"])


def _box_check_decomposition(I, deco):
    """Brute-force oracle: intersection of the components must agree with I
    pointwise over a deciding exponent box, and every component must be
    non-redundant somewhere on that box."""
    gi = monomial_gen_exps(I)
    comp_gens = [[tuple(int(e) for e in row) for row in c.ideal.minimal_monomial_exps()]
                 for c in deco.components]
    box = list(membership_box(I, *(c.ideal for c in deco.components)))
    for vec in box:
        inter = all(oracle_mono_member(g, vec) for g in comp_gens)
        assert inter == oracle_mono_member(gi, vec), vec
    for i in range(len(comp_gens)):
        others = [g for j, g in enumerate(comp_gens) if j != i]
        witness = any(all(oracle_mono_member(g, vec) for g in others)
                      and not oracle_mono_member(comp_gens[i], vec)
                      for vec in box)
        assert witness, f"component {i} is redundant"


# -- decompose_monomial ---------------------------------------------------------


def test_decompose_example_embedded(R2):
    I = Ideal(R2, ["X^2", "X*Y"])
    deco = decompose_monomial(I)
    assert deco.minimal
    got = {(str(c.ideal.groebner()[0]) if len(c.ideal.groebner()) == 1 else None,)
           for c in deco.components}
    by_rad = {tuple(sorted(str(g) for g in c.radical.groebner())): c for c in deco.components}
    assert set(by_rad) == {("X",), ("X", "Y")}
    assert by_rad[("X",)].ideal == Ideal(R2, ["X"])
    assert by_rad[("X", "Y")].ideal == Ideal(R2, ["X^2", "Y"])
    assert all(c.verified_primary for c in deco.components)
    _box_check_decomposition(I, deco)
    assert got  # decomposition produced concrete components


def test_decompose_squarefree(R2):
    deco = decompose_monomial(Ideal(R2, ["X*Y"]))
    assert {str(c.ideal) for c in deco.components} == {"(X)", "(Y)"}


def test_decompose_second_example(R2):
    I = Ideal(R2, ["X^4", "X^2*Y^2"])
    deco = decompose_monomial(I)
    by_rad = {tuple(sorted(str(g) for g in c.radical.groebner())): c for c in deco.components}
    assert by_rad[("X",)].ideal == Ideal(R2, ["X^2"])
    assert by_rad[("X", "Y")].ideal == Ideal(R2, ["X^4", "Y^2"])
    _box_check_decomposition(I, deco)


def test_decompose_random_against_box_oracle(rng):
    for p in (2, 3):
        R = Ring(p, ["X", "Y"])
        for _ in range(10):
            I = rand_monomial_ideal(R, rng, 4, 5)
            if I.is_unit():
                continue
            deco = decompose_monomial(I)
            assert deco.minimal
            assert deco.intersection() == I
            _box_check_decomposition(I, deco)
            rads = [tuple(sorted(str(g) for g in c.radical.groebner()))
                    for c in deco.components]
            assert len(rads) == len(set(rads))


def test_decompose_three_variables(rng):
    R = Ring(2, ["X", "Y", "Z"])
    I = Ideal(R, ["X*Y", "Y*Z", "X^2*Z^2"])
    deco = decompose_monomial(I)
    assert deco.intersection() == I
    _box_check_decomposition(I, deco)


def test_decompose_rejects_non_monomial(R2):
    with pytest.raises(NonMonomial):
        decompose_monomial(Ideal(R2, ["X^2+Y"]))


def test_decompose_rejects_improper(R2):
    with pytest.raises(InputError):
        decompose_monomial(Ideal(R2, ["1"]))
    with pytest.raises(InputError):
        decompose_monomial(Ideal(R2, []))


def test_decompose_with_shift():
    R = Ring(7, ["X", "Y"])
    lam = 3
    I = Ideal(R, [R.parse("X^2"), R.parse("X") * (R.var("Y") - lam)])
    deco = decompose_monomial(I, shift={"Y": lam})
    rads = {tuple(sorted(str(g) for g in c.radical.groebner())) for c in deco.components}
    assert rads == {("X",), ("X", "Y + 4")}
    assert deco.intersection() == I
    for c in deco.components:  # the shift is read as the pairs it is stored as
        assert apply_shift(c.ideal, c.shift).is_monomial()
        assert unapply_shift(apply_shift(c.ideal, c.shift), c.shift).generators == c.ideal.generators
    assert unapply_shift(I, None) is apply_shift(I, ()) is I


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_component_checks_its_radical_in_its_shift_frame(data):
    """PrimaryComponent on ideals of F_p[X, Y(, Z)] that are monomial (or have
    one binomial generator) once shifted by random constants, with a prime of
    variables as radical, moved by the same shift or by another one: it
    raises InputError exactly when the generic radical.contains_ideal(ideal)
    is False, charges the pairs that check charges (both in fresh rings), and
    verified_primary is the primary_in_frame oracle."""
    p = data.draw(st.sampled_from((3, 5, 7)), label="p")
    names = ("X", "Y", "Z")[:data.draw(st.integers(2, 3), label="nvars")]
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * len(names)), min_size=1,
                              max_size=4), label="rows")
    binomial = data.draw(st.booleans(), label="binomial")
    support = data.draw(st.sets(st.sampled_from(names), min_size=1), label="radical")
    constants = st.lists(st.integers(0, p - 1), min_size=len(names), max_size=len(names))
    shift = tuple((v, c) for v, c in zip(names, data.draw(constants, label="shift")) if c) or None
    radical_shift = data.draw(st.sampled_from((shift, None, (("X", 1),))), label="radical shift")

    def build(make):
        ring = Ring(p, names)
        gens = [ring.monomial(r) for r in rows]
        if binomial:
            gens.append(gens[0] + ring.var(names[-1]))
        ideal = unapply_shift(Ideal(ring, gens), shift)
        radical = unapply_shift(Ideal(ring, [ring.var(v) for v in sorted(support)]), radical_shift)
        before = ideals.pair_count
        try:
            return make(ideal, radical), ideals.pair_count - before
        except InputError:
            return None, ideals.pair_count - before

    with deadline(20):
        inside, want_pairs = build(lambda ideal, radical: radical.contains_ideal(ideal))
        comp, got_pairs = build(lambda ideal, radical: PrimaryComponent(ideal, radical, shift))
        assert (comp is not None, got_pairs) == (inside, want_pairs)
        if comp is not None:
            assert comp.verified_primary == primary_in_frame(comp.ideal, shift)


def test_component_fields_are_ideal_radical_and_shift():
    """verified_primary is derived, never passed; equality, hash and repr
    cover (ideal, radical, shift); a quotient ring's component is checked as
    given and is not primary in a monomial frame."""
    R = Ring(7, ["X", "Y"])
    q, P = Ideal(R, ["X^2", "Y^7 - 3"]), Ideal(R, ["X", "Y - 3"])  # (Y - 3)^7 = Y^7 - 3
    comp = PrimaryComponent(q, P, (("Y", 3),))
    assert comp.verified_primary and not PrimaryComponent(q, P).verified_primary
    assert comp == PrimaryComponent(q, P, (("Y", 3),)) != PrimaryComponent(q, P)
    assert hash(comp) == hash((q, P, (("Y", 3),)))
    assert repr(comp) == f"PrimaryComponent(ideal={q!r}, radical={P!r}, shift=(('Y', 3),))"
    with pytest.raises(TypeError):
        PrimaryComponent(q, P, True, (("Y", 3),))
    with pytest.raises(TypeError):
        PrimaryComponent(q, P, verified_primary=True, shift=(("Y", 3),))
    with pytest.raises(InputError):
        PrimaryComponent(P, q, (("Y", 3),))
    C = cusp_ring()  # V^2 = U^3 lies in (U) here; shifting U would test it against (U + 1)
    assert not PrimaryComponent(Ideal(C, ["V^2"]), Ideal(C, ["U"]), (("U", 1),)).verified_primary
    with pytest.raises(InputError):
        PrimaryComponent(Ideal(C, ["V"]), Ideal(C, ["U"]), (("U", 1),))


DECOMPOSITIONS = pathlib.Path(__file__).resolve().parent / "data" / "decompose_monomial.json"


def _monomial_corpus(seed=4057, counts=((3, 240), (4, 160), (5, 120))):
    """Seeded monomial ideals over F_3 in 3 to 5 variables: up to 6
    generators with exponents up to 4 (all-zero rows dropped)."""
    rng = random.Random(seed)
    for nvars, count in counts:
        ring = Ring(3, tuple("XYZWV"[:nvars]))
        for _ in range(count):
            rows = [tuple(rng.randint(0, 4) for _ in range(nvars))
                    for _ in range(rng.randint(1, 6))]
            rows = [r for r in rows if any(r)]
            if rows:
                yield Ideal(ring, [ring.monomial(r) for r in rows])


def _decomposition_record(deco):
    return [deco.minimal, [[[str(g) for g in c.ideal.generators],
                            [str(g) for g in c.radical.generators],
                            c.verified_primary, c.shift] for c in deco.components]]


def _corpus_digest():
    records = [_decomposition_record(decompose_monomial(I)) for I in _monomial_corpus()]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_decompose_monomial_corpus_matches_recorded_digest():
    """Components, generator lists, radicals, flags and order over a seeded
    3-5-variable corpus hash as recorded in tests/data/decompose_monomial.json
    (PYTHONPATH=src python tests/test_decomposition.py writes it)."""
    assert _corpus_digest() == json.loads(DECOMPOSITIONS.read_text())["sha256"]


@pytest.mark.parametrize("gens, leaves, distinct, components", [
    (["X*Y", "Y*Z", "Z*W", "X*W"], 6, 4, ["(Z, X)", "(W, Y)"]),
    (["X*Y*Z", "Y*Z*W", "X*Z*W", "X*Y*W"], 12, 8,
     ["(Y, X)", "(Z, X)", "(W, X)", "(Z, Y)", "(W, Y)", "(W, Z)"]),
])
def test_decompose_keeps_the_radicals_of_minimal_leaves(gens, leaves, distinct, components,
                                                         monkeypatch):
    """The splitter's leaves with three variables each contain a leaf with
    two, so their radicals go, and no redundancy search runs."""
    R = Ring(2, ["X", "Y", "Z", "W"])
    I = Ideal(R, gens)
    split = _split_irreducible(I.minimal_monomial_exps())
    assert len(split) == leaves
    assert len({tuple(sorted(rows)) for rows in split}) == distinct
    monkeypatch.setattr(decomposition, "_redundant_index", None)
    deco = decompose_monomial(I)
    assert [str(c.ideal) for c in deco.components] == components
    assert all(c.ideal == c.radical and c.verified_primary for c in deco.components)
    _box_check_decomposition(I, deco)


def _searched_decomposition(I):
    """The components a redundancy search keeps: every radical of the
    distinct leaves, dropping the first redundant component until none is."""
    ring = I.ring
    by_radical = {}
    for rows in dict.fromkeys(tuple(sorted(irr))
                              for irr in _split_irreducible(I.minimal_monomial_exps())):
        by_radical.setdefault(tuple(sorted({_support(r)[0] for r in rows})), []).append(rows)
    comps = [(supp, intersect_all(Ideal(ring, [ring.monomial(r) for r in rows])
                                  for rows in by_radical[supp]))
             for supp in sorted(by_radical)]
    while (i := _redundant_index([c for _, c in comps])) is not None:
        del comps[i]
    record = [True, [[[str(g) for g in comp.generators], [ring.vars[i] for i in supp],
                      is_primary_monomial(comp), None] for supp, comp in comps]]
    return record, len(by_radical) - len(comps)


def test_decompose_matches_the_redundancy_search():
    """Components, generator lists, radicals, flags and order agree with the
    search over seeded 3-5-variable ideals, some of which it prunes."""
    pruned = 0
    for I in _monomial_corpus(seed=19, counts=((3, 60), (4, 40), (5, 20))):
        expected, dropped = _searched_decomposition(I)
        assert _decomposition_record(decompose_monomial(I)) == expected, I
        pruned += dropped > 0
    assert pruned >= 50


# -- associated primes ------------------------------------------------------------


def test_ass_examples(R2):
    assert [str(a) for a in ass_monomial(Ideal(R2, ["X^2", "X*Y"]))] == ["(X)", "(X, Y)"]
    assert [str(a) for a in ass_monomial(Ideal(R2, ["X*Y"]))] == ["(X)", "(Y)"]
    assert [str(a) for a in ass_monomial(Ideal(R2, ["X^2", "Y"]))] == ["(X, Y)"]


def test_ass_stable_under_frobenius_powers(rng):
    R = Ring(2, ["X", "Y"])
    for _ in range(6):
        I = rand_monomial_ideal(R, rng, 3, 4)
        base = set(ass_monomial(I))
        for n in (1, 2, 3):
            assert set(ass_monomial(frob_power(I, n))) == base


def test_frobenius_preserves_minimal_decompositions(rng):
    for p in (2, 3):
        R = Ring(p, ["X", "Y"])
        for _ in range(8):
            I = rand_monomial_ideal(R, rng, 3, 4)
            d0 = decompose_monomial(I)
            d1 = decompose_monomial(frob_power(I, 1))
            rads0 = {tuple(sorted(str(g) for g in c.radical.groebner())): c
                     for c in d0.components}
            rads1 = {tuple(sorted(str(g) for g in c.radical.groebner())): c
                     for c in d1.components}
            assert set(rads0) == set(rads1)
            minimal_rads = {k for k in rads0
                            if not any(set(j) < set(k) for j in rads0)}
            for k in minimal_rads:
                assert rads1[k].ideal == frob_power(rads0[k].ideal, 1)


# -- localisation -------------------------------------------------------------------


def test_localize_contract_examples(R2):
    I = Ideal(R2, ["X^2", "X*Y"])
    assert localize_contract(I, Ideal(R2, ["X"])) == Ideal(R2, ["X"])
    assert localize_contract(I, Ideal(R2, ["X", "Y"])) == I
    assert localize_contract(Ideal(R2, ["X*Y"]), Ideal(R2, ["X"])) == Ideal(R2, ["X"])


def test_localize_contract_matches_component(rng):
    R = Ring(2, ["X", "Y"])
    for _ in range(8):
        I = rand_monomial_ideal(R, rng, 3, 4)
        deco = decompose_monomial(I)
        rads = {tuple(sorted(str(g) for g in c.radical.groebner())): c
                for c in deco.components}
        minimal_rads = {k for k in rads if not any(set(j) < set(k) for j in rads)}
        for k in minimal_rads:
            c = rads[k]
            assert localize_contract(I, c.radical) == c.ideal


def test_localize_contract_saturation_fallback(R2):
    I = Ideal(R2, ["X^2", "X*Y"])
    got = localize_contract(I, Ideal(R2, ["X"]), s_hint=R2.parse("Y"))
    assert got == Ideal(R2, ["X"])


def test_localize_contract_needs_hint_for_non_monomial(R2):
    with pytest.raises(NonMonomial):
        localize_contract(Ideal(R2, ["X^2+Y"]), Ideal(R2, ["X"]))


def test_localize_contract_rejects_hint_inside_prime(R2):
    R = cusp_ring()
    I, P = Ideal(R, ["U"]), Ideal(R, ["U", "V"])
    for hint in ("V", "U", "U*V + V"):
        with pytest.raises(InputError):
            localize_contract(I, P, s_hint=R.parse(hint))
    assert localize_contract(I, P, s_hint=R.parse("U + 1")) == Ideal(R, ["U", "V^2"])
    with pytest.raises(InputError):
        localize_contract(Ideal(R2, ["X^2", "X*Y"]), Ideal(R2, ["X"]), s_hint=R2.parse("X"))


def test_localize_contract_unit_result():
    # (U, V^2) is not prime: V lies outside it, yet V^2 lies in (U)
    R = cusp_ring()
    with pytest.raises(IdentityFailure):
        localize_contract(Ideal(R, ["U"]), Ideal(R, ["U", "V^2"]), s_hint=R.parse("V"))
    # an ideal outside the prime localises to the unit ideal
    R2 = Ring(2, ["X", "Y"])
    got = localize_contract(Ideal(R2, ["X^2 + Y^2 + 1"]), Ideal(R2, ["X"]),
                            s_hint=R2.parse("X + Y + 1"))
    assert got.is_unit()


def test_localize_contract_isolation_reads_the_basis(R2):
    # (X^2, X*Y + X^2) is the monomial ideal (X^2, X*Y) with other generators
    I = Ideal(R2, ["X^2", "X*Y + X^2"])
    assert localize_contract(I, Ideal(R2, ["X"]), s_hint=R2.parse("Y")) == Ideal(R2, ["X"])
    with pytest.raises(IdentityFailure):
        localize_contract(I, Ideal(R2, ["X"]), s_hint=R2.parse("Y + 1"))


def test_localize_contract_rejects_a_proper_result_outside_the_prime(R2):
    # X + Y^2 lies outside (Y), so its localisation contracts to the unit
    # ideal; inverting X alone leaves the proper ideal (X + Y^2) outside (Y)
    with pytest.raises(IdentityFailure, match="did not isolate the prime"):
        localize_contract(Ideal(R2, ["X + Y^2"]), Ideal(R2, ["Y"]), s_hint=R2.parse("X"))
    # in the cusp, (V + 1) : (U + 1)^inf = (V + 1, U^2 + U + 1), outside (U, V)
    R = cusp_ring()
    with pytest.raises(IdentityFailure, match="did not isolate the prime"):
        localize_contract(Ideal(R, ["V + 1"]), Ideal(R, ["U", "V"]), s_hint=R.parse("U + 1"))


# -- linear growth ------------------------------------------------------------------


def test_find_h_examples(R2):
    assert find_linear_growth_h(decompose_monomial(Ideal(R2, ["X^2", "X*Y"]))) == 2
    assert find_linear_growth_h(decompose_monomial(Ideal(R2, ["X", "Y"]))) == 1
    R1 = Ring(2, ["X"])
    assert find_linear_growth_h(decompose_monomial(Ideal(R1, ["X^3"]))) == 3


def test_certify_growth_frobenius_powers(R2):
    I = Ideal(R2, ["X^2", "X*Y"])
    seq = FSequence.frobenius_powers(I)
    deco = decompose_monomial(I)
    cert = certify_growth(seq, frobenius_decompositions(deco), 2, 3)
    assert cert.h == 2 and cert.depth == 3
    assert all(c.ok for c in cert.checks)
    assert len(cert.checks) == 2 * 4


def _decomposition_terms(deco):
    """Components in order: generator term lists of the ideal and its radical,
    verified_primary and shift; and minimal."""
    def terms(I):
        return [(g.keys, g.packed, g.coeffs) for g in I.generators]

    return ([(terms(c.ideal), terms(c.radical), c.verified_primary, c.shift)
             for c in deco.components], deco.minimal)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_growth_decomposer_derives_decompose_monomial(data):
    """On the Frobenius powers of a monomial a, the decomposer that decomposes
    a once and scales it builds what decompose_monomial(a^[p^n]) builds, for
    n in 0..2, in the call orders of fseq growth with and without --find-h,
    and each call charges the pairs the direct call charges; both routes
    start in a fresh ring, so no basis is cached on an ideal."""
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    names = ("X", "Y", "Z")[:data.draw(st.integers(2, 3), label="nvars")]
    row = st.tuples(*[st.integers(0, 5)] * len(names)).map(lambda r: r if any(r) else r[:-1] + (1,))
    rows = data.draw(st.lists(row, min_size=1, max_size=5), label="rows")
    if data.draw(st.booleans(), label="primary"):  # one component, read as the intersection
        rows += [tuple(5 * (i == j) for j in range(len(names))) for i in range(len(names))]
    calls = data.draw(st.sampled_from(([0, 1, 2], [0, 0, 1, 2], [0, 2, 2], [2, 0, 1])),
                      label="calls")

    def run(decomposer_of):
        ring = Ring(p, names)
        seq = FSequence.frobenius_powers(Ideal(ring, [ring.monomial(r) for r in rows]))
        decomposer, out = decomposer_of(seq), []
        for n in calls:
            before = ideals.pair_count
            out.append((_decomposition_terms(decomposer(n)),
                        ideals.pair_count - before))
        return out

    with deadline(20):
        want = run(lambda seq: lambda n: decompose_monomial(seq.term(n)))
        got = run(growth_decomposer)
    if calls[0]:  # a first call past term 0 decomposes term 0 too: only the results agree
        got, want = [d for d, _ in got], [d for d, _ in want]
    assert got == want


def test_growth_decomposer_of_other_sequences_decomposes_each_term(R2):
    """Sequences other than Frobenius powers decompose every term as asked."""
    seq = FSequence.constant_prime(Ideal(R2, ["X", "Y"]))
    decomposer = growth_decomposer(seq)
    assert decomposer(0) is not decomposer(0)
    assert _decomposition_terms(decomposer(1)) == _decomposition_terms(
        decompose_monomial(Ideal(R2, ["X", "Y"])))


def test_certify_growth_constant_prime(R2):
    P = Ideal(R2, ["X", "Y"])
    seq = FSequence.constant_prime(P)
    cert = certify_growth(seq, lambda n: decompose_monomial(P), 1, 4)
    assert all(c.ok for c in cert.checks)


def test_certify_growth_failure_raises(R2):
    I = Ideal(R2, ["X^2", "X*Y"])
    seq = FSequence.frobenius_powers(I)
    deco = decompose_monomial(I)
    with pytest.raises(CertificateFailure) as exc:
        certify_growth(seq, frobenius_decompositions(deco), 1, 2)
    assert (exc.value.n, exc.value.i) == (0, 1)


def test_unmixed_ideals_certify_at_found_h(rng):
    """When every associated prime is minimal, the Frobenius powers have
    linear growth at the level-zero exponent."""
    R = Ring(2, ["X", "Y"])
    found = 0
    while found < 5:
        I = rand_monomial_ideal(R, rng, 3, 4)
        deco = decompose_monomial(I)
        rads = [set(str(g) for g in c.radical.groebner()) for c in deco.components]
        if any(a < b for a in rads for b in rads):
            continue  # has an embedded prime
        found += 1
        h = find_linear_growth_h(deco)
        seq = FSequence.frobenius_powers(I)
        cert = certify_growth(seq, frobenius_decompositions(deco), h, 2)
        assert all(c.ok for c in cert.checks)


# -- localized-component decompositions --------------------------------------------


def test_lg2_plain_example(R2):
    a = Ideal(R2, ["X^2", "X*Y"])
    primes = [Ideal(R2, ["X"]), Ideal(R2, ["X", "Y"])]
    deco = lg2_decompose(a, primes, 2, 1, "plain")
    comps = {str(c.radical): c.ideal for c in deco.components}
    assert comps["(X)"] == Ideal(R2, ["X^2"])
    assert comps["(X, Y)"] == Ideal(R2, ["X^4", "X^2*Y^2", "Y^4"])
    assert deco.intersection() == frob_power(a, 1)


def test_lg2_recovers_level_zero(R2):
    a = Ideal(R2, ["X^2", "X*Y"])
    primes = [Ideal(R2, ["X"]), Ideal(R2, ["X", "Y"])]
    h = find_linear_growth_h(decompose_monomial(a))
    deco = lg2_decompose(a, primes, h, 0, "plain")
    assert deco.intersection() == a


def test_lg2_single_minimal_prime(R2):
    deco = lg2_decompose(Ideal(R2, ["X"]), [Ideal(R2, ["X"])], 1, 2, "plain")
    assert [str(c.ideal.groebner()[0]) for c in deco.components] == ["X^4"]


def test_lg2_modes_agree_in_regular_rings(R2):
    a = Ideal(R2, ["X^2", "X*Y"])
    primes = [Ideal(R2, ["X"]), Ideal(R2, ["X", "Y"])]
    for n in range(3):
        d_plain = lg2_decompose(a, primes, 2, n, "plain")
        d_fc = lg2_decompose(a, primes, 2, n, "fclosure")
        d_seq = lg2_decompose(a, primes, 2, n, "seqterm")
        assert d_plain.intersection() == d_fc.intersection() == d_seq.intersection()


def test_lg2_repeated_prime_is_not_minimal(R2):
    X = Ideal(R2, ["X"])
    assert not lg2_decompose(X, [X, X], 1, 0).minimal


def test_lg2_identity_failure_has_witness(R2):
    a = Ideal(R2, ["X^2", "X*Y"])
    with pytest.raises(IdentityFailure) as exc:
        lg2_decompose(a, [Ideal(R2, ["X"])], 2, 1, "plain")  # missing embedded prime
    assert exc.value.witness is not None
    with pytest.raises(IdentityFailure, match="component radical is not"):
        lg2_decompose(Ideal(R2, ["X", "Y"]), [Ideal(R2, ["X"])], 1, 1)  # localises to (1)


# -- count arguments ------------------------------------------------------------------


_P = Ideal(Ring(2, ["X", "Y"]), ["X", "Y"])
_P_SEQ = FSequence.constant_prime(_P)


# each count argument: a call that reads it, and its floor (None where the
# bound is not a plain floor)
_COUNT_CALLS = {
    "ideal power h": (lambda x: _P.power(x), 1),
    "max_e": (lambda x: f_closure(_P, x, confirm=1), 1),
    "confirm": (lambda x: f_closure(_P, 3, confirm=x), 1),
    "verification depth": (lambda x: _P_SEQ.verify(x), 1),
    "growth exponent h": (lambda x: certify_growth(_P_SEQ, lambda n: decompose_monomial(_P), x, 1),
                          1),
    "certificate depth": (lambda x: certify_growth(_P_SEQ, lambda n: decompose_monomial(_P), 1,
                                                   depth=x), 0),
    "lg2_decompose h": (lambda x: lg2_decompose(_P, [_P], x, 0), 1),
    "lg2_decompose n": (lambda x: lg2_decompose(_P, [_P], 1, x), 0),
    "element depth": (lambda x: PerfectionElement(x, _P.generators[0]), 0),
    "element power": (lambda x: PerfectionElement(0, _P.generators[0]).power(x), 0),
    "lift depth": (lambda x: PerfectionElement(1, _P.generators[0]).lift(x), 1),
    "depth k": (lambda x: FSequence.finitely_generated(_P, x).term(0), 0),
    "sequence index": (lambda x: _P_SEQ.term(x), 0),
    "check depth": (lambda x: decompose_perfection_ideal(
        PerfectionIdeal.finitely_generated(_P), x), 0),
    "l": (lambda x: ex8_build(3, x, [1], 1), None),
    "multiplicity": (lambda x: ex8_build(3, 2, [x], 1), None),
    "depth": (lambda x: ex8_build(3, 2, [1], x), 0),
    "Frobenius power exponent": (lambda x: frob_power(_P, x), 0),
    "Frobenius root exponent": (lambda x: frob_root(_P, x), 0),
    "Frobenius exponent": (lambda x: _P.generators[0].frobenius(x), 0),
    "root exponent": (lambda x: _P.generators[0].try_p_root(x), 0),
    "polynomial power": (lambda x: _P.generators[0].power(x), 0),
    "budget field": (lambda x: GroebnerBudget(max_degree=x), 1),
}


def _outcome(count, x):
    """The message of the InputError that count's call raises on x, or None."""
    call, _floor = count
    try:
        call(x)
    except InputError as e:
        return str(e)
    return None


@pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
def test_count_arguments_are_integers(name):
    """A count that is no integer raises InputError naming its argument, and
    True reads as 1."""
    for bad in (1.5, "2"):
        assert _outcome(_COUNT_CALLS[name], bad) == f"{name} must be an integer, got {bad!r}"
    assert _outcome(_COUNT_CALLS[name], True) == _outcome(_COUNT_CALLS[name], 1)


@pytest.mark.parametrize("name", sorted(name for name, (_, floor) in _COUNT_CALLS.items()
                                         if floor is not None))
def test_count_arguments_keep_their_floor(name):
    """A count below its floor raises InputError naming the argument, the
    floor and the value; at the floor it raises no such error."""
    floor = _COUNT_CALLS[name][1]
    assert _outcome(_COUNT_CALLS[name], floor - 1) == f"{name} must be >= {floor}, got {floor - 1}"
    assert _outcome(_COUNT_CALLS[name], floor) is None


# -- perfect-closure decomposition ---------------------------------------------------


def test_decompose_perfection_example(R2):
    A = PerfectionIdeal.finitely_generated(Ideal(R2, ["X^2", "X*Y"]), k=0)
    seqs = decompose_perfection_ideal(A, check_depth=3)
    assert len(seqs) == 2
    by_rad = {str(s.meta["radical"]): s for s in seqs}
    for n in range(4):
        assert by_rad["(X)"].term(n) == Ideal(R2, [f"X^{2 ** n}"])
        assert by_rad["(X, Y)"].term(n) == Ideal(R2, [f"X^{2 ** (n + 1)}", f"Y^{2 ** n}"])


def test_decompose_perfection_principal(R2):
    A = PerfectionIdeal.finitely_generated(Ideal(R2, ["X"]), k=0)
    seqs = decompose_perfection_ideal(A, check_depth=2)
    assert len(seqs) == 1
    assert seqs[0].term(2) == Ideal(R2, ["X^4"])


def test_decompose_perfection_squarefree_has_no_embedded_primes(R2):
    A = PerfectionIdeal.finitely_generated(Ideal(R2, ["X*Y"]), k=0)
    seqs = decompose_perfection_ideal(A, check_depth=2)
    assert {str(s.meta["radical"]) for s in seqs} == {"(X)", "(Y)"}


def test_decompose_perfection_with_anchor_depth(R2):
    A = PerfectionIdeal.finitely_generated(Ideal(R2, ["X^2", "X*Y"]), k=1)
    seqs = decompose_perfection_ideal(A, check_depth=3)
    inter0 = seqs[0].term(0).intersect(seqs[1].term(0))
    assert inter0 == A.term(0)


def test_decompose_perfection_rejects_negative_depth(R2):
    A = PerfectionIdeal.finitely_generated(Ideal(R2, ["X^2", "X*Y"]), k=0)
    with pytest.raises(InputError):
        decompose_perfection_ideal(A, check_depth=-1)


def test_decompose_perfection_rejects_sequences_without_generators(R2):
    A = PerfectionIdeal(FSequence.constant_prime(Ideal(R2, ["X"])))
    with pytest.raises(InputError, match="needs a finitely generated ideal"):
        decompose_perfection_ideal(A)


def test_member_agrees_with_componentwise(R2, rng):
    A = PerfectionIdeal.finitely_generated(Ideal(R2, ["X^2", "X*Y"]), k=0)
    comps = [PerfectionIdeal(s) for s in decompose_perfection_ideal(A, check_depth=3)]
    from conftest import rand_poly
    for _ in range(60):
        e = PerfectionElement(rng.randint(0, 3), rand_poly(R2, rng, 3, 7, allow_zero=True))
        assert A.member(e) == all(c.member(e) for c in comps)


# -- the escalating-primes family ------------------------------------------------------


def test_ex8_small_field():
    rep = ex8_build(5, 2, (1, 1), 2)
    assert rep.ass_sizes == [1, 2, 3]
    assert rep.verify.ok
    assert all(c.ok for c in rep.certificate.checks)
    assert rep.no_primary_decomposition


def test_ex8_higher_multiplicity():
    rep = ex8_build(5, 3, (2, 1), 2)
    assert rep.ass_sizes == [1, 2, 3]
    assert rep.verify.ok
    assert rep.certificate.h == 2


def test_ex8_depth_zero():
    rep = ex8_build(5, 2, (), 0)
    assert rep.ass_sizes == [1]
    assert [str(p) for p in rep.ass[0]] == ["(X)"]
    assert not rep.no_primary_decomposition


def test_ex8_field_too_small():
    with pytest.raises(DistinctLambdaExhausted):
        ex8_build(3, 2, (1, 1, 1), 3)


def test_ex8_validates_l():
    with pytest.raises(InputError):
        ex8_build(5, 7, (1,), 1)
    with pytest.raises(InputError):
        ex8_build(5, 1, (1,), 1)


def test_ex8_witness_structure():
    rep = ex8_build(5, 2, (1, 1), 2)
    for w in rep.witnesses:
        assert w["in_first_m"] and not w["in_last"]
    assert str(rep.witnesses[0]["element"]) == "X"


def test_ex8_strictly_escalating_ass():
    rep = ex8_build(7, 2, (1, 1, 1), 3)
    for m in range(3):
        assert set(rep.ass[m]) < set(rep.ass[m + 1])


def test_is_primary_monomial_criterion(R2):
    assert is_primary_monomial(Ideal(R2, ["X^2", "Y"]))
    assert is_primary_monomial(Ideal(R2, ["X^2"]))
    assert not is_primary_monomial(Ideal(R2, ["X^2", "X*Y"]))
    assert not is_primary_monomial(Ideal(R2, ["X*Y"]))


if __name__ == "__main__":
    DECOMPOSITIONS.write_text(json.dumps({"sha256": _corpus_digest()}, indent=2) + "\n")
