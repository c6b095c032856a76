"""Torsion axioms, closures, relative lattices, and notion enumeration."""

import itertools

import pytest

import torsionlab as tl
from conftest import A_BITS, E11, E12, E22, RE22_BITS, trivial_notion


def ideal(ring, gens):
    return tl.left_ideal_closure(ring, gens)


# -- axiom checking -----------------------------------------------------------

def test_trivial_family_is_always_valid(builtin16):
    for _, ring in builtin16:
        notion = tl.check_torsion_axioms(ring, [ideal(ring, [ring.one])])
        assert isinstance(notion, tl.TorsionNotion)
        assert notion.validated
        assert len(notion) == 1


def test_ut2_nontrivial_family_is_valid(ut2_nontrivial):
    assert [a.bits for a in ut2_nontrivial.ideals] == [A_BITS, 255]


def test_empty_family_violates_nonemptiness(z4):
    res = tl.check_torsion_axioms(z4, [])
    assert isinstance(res, tl.AxiomViolation)
    assert res.axiom == 1
    assert res.replay()


def test_z4_family_with_2_fails(z4):
    # (2)(2) generates the zero ideal, outside the family, so axiom (3)
    # fires first in axiom order; regularity (5) is also violated, which
    # the per-ideal witness exposes: (2) * 2 = 0.
    res = tl.check_torsion_axioms(z4, [ideal(z4, [2]), ideal(z4, [1])])
    assert isinstance(res, tl.AxiomViolation)
    assert res.axiom == 3
    assert res.witness["reading"] == "both"
    assert res.replay()
    assert tl.regularity_witness(ideal(z4, [2])) == 2


def test_z8_family_with_2_fails(z8):
    # (2)(2) = (4), not a member
    res = tl.check_torsion_axioms(z8, [ideal(z8, [2]), ideal(z8, [1])])
    assert res.axiom == 3
    assert res.witness["product_bits"] == ideal(z8, [4]).bits
    assert res.replay()
    assert tl.regularity_witness(ideal(z8, [2])) == 4


def test_each_axiom_is_reachable_with_replayable_witness(ut2):
    # axiom 1: member without its supersets
    res = tl.check_torsion_axioms(ut2, [ideal(ut2, [E11, E12])])
    assert res.axiom == 1 and res.replay()
    # axiom 2: two incomparable members with no lower bound in the family
    prod2 = tl.parse_ring_spec("prod(Z(2),Z(2))")
    fam = [ideal(prod2, [1]), ideal(prod2, [2]), ideal(prod2, [3])]
    res = tl.check_torsion_axioms(prod2, fam)
    assert res.axiom == 2 and res.replay()
    # axiom 4: a one-sided member whose right translates escape
    m2 = tl.parse_ring_spec("M2(2)")
    ideals = tl.all_left_ideals(m2)
    res = tl.check_torsion_axioms(m2, [ideals[1], ideals[-1]])
    assert res.axiom == 4 and res.replay()
    # axiom 5: a right-annihilated member
    res = tl.check_torsion_axioms(ut2, [ideal(ut2, [E22]), ideal(ut2, [ut2.one])])
    assert res.axiom == 5 and res.replay()
    assert res.witness["scalar"] == E12


def test_violation_json_round_trip(z8):
    import json
    res = tl.check_torsion_axioms(z8, [ideal(z8, [2]), ideal(z8, [1])])
    doc = json.loads(json.dumps(res.to_json()))
    assert doc["axiom"] == 3
    # reconstruct the family from the reported generators and re-check
    left = ideal(z8, doc["witness"]["left"]["generators"])
    right = ideal(z8, doc["witness"]["right"]["generators"])
    prod = tl.product_ideal(left.generators, right.generators, z8)
    assert prod.bits == doc["witness"]["product_bits"]


def test_family_canonicalization_dedupes(ut2):
    a1 = ideal(ut2, [E11, E12])
    a2 = ideal(ut2, [E12, E11])  # same ideal, different generator list
    full = ideal(ut2, [ut2.one])
    notion = tl.check_torsion_axioms(ut2, [a1, a2, full, full])
    assert len(notion) == 2


# -- torsion elements and closures ---------------------------------------------

def test_torsion_elements_examples(ut2, ut2_nontrivial):
    reg = tl.regular_module(ut2)
    assert tl.torsion_elements(trivial_notion(ut2), reg).is_zero()
    assert tl.torsion_elements(ut2_nontrivial, reg).is_zero()
    quot = tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    assert tl.torsion_elements(ut2_nontrivial, quot).is_full()


def test_is_torsion_free_examples(ut2, ut2_nontrivial, builtin8):
    reg = tl.regular_module(ut2)
    assert tl.is_torsion_free(ut2_nontrivial, reg)
    quot = tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    assert not tl.is_torsion_free(ut2_nontrivial, quot)
    for _, ring in builtin8:
        notion = trivial_notion(ring)
        for module in tl.module_corpus(ring, 2):
            assert tl.is_torsion_free(notion, module)


def test_regular_module_is_always_torsion_free(builtin16):
    # axiom (5) is exactly this statement for the free module on one
    # generator
    for _, ring in builtin16:
        for notion in tl.enumerate_torsion_notions(ring):
            assert tl.is_torsion_free(notion, tl.regular_module(ring))


def test_relative_closure_examples(ut2, ut2_nontrivial):
    reg = tl.regular_module(ut2)
    a_sub = tl.Submodule(reg, A_BITS)
    assert tl.relative_closure(ut2_nontrivial, reg, a_sub).is_full()
    zero_sub = tl.Submodule(reg, 1)
    assert tl.relative_closure(ut2_nontrivial, reg, zero_sub).is_zero()
    # trivial notion: closure is the identity map
    triv = trivial_notion(ut2)
    for sub in tl.all_submodules(reg):
        assert tl.relative_closure(triv, reg, sub).bits == sub.bits


def test_relative_closure_requires_torsion_free(ut2, ut2_nontrivial):
    reg = tl.regular_module(ut2)
    quot = tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    with pytest.raises(ValueError):
        tl.relative_closure(ut2_nontrivial, quot, tl.Submodule(quot, 1))


def test_a_module_that_is_not_torsion_free_is_invalid_input(ut2, ut2_nontrivial):
    # the one check behind every operation defined on torsion-free modules
    # only; a notion that is not validated is a misuse, no bad input
    reg = tl.regular_module(ut2)
    quot = tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    zero = tl.Submodule(quot, 1)
    calls = [lambda: tl.relative_closure(ut2_nontrivial, quot, zero),
             lambda: tl.relative_lattice(ut2_nontrivial, quot),
             lambda: tl.weak_extension_witness(ut2_nontrivial, quot),
             lambda: tl.delta_membership_witness(ut2_nontrivial, quot, zero, 0,
                                                 ut2_nontrivial.least)]
    for call in calls:
        with pytest.raises(tl.InputError) as err:
            call()
        assert str(err.value) == f"{quot.name} is not torsion-free for {ut2_nontrivial.describe()}"
    raw = tl.TorsionNotion(ut2, list(ut2_nontrivial.ideals), validated=False)
    with pytest.raises(ValueError) as err:
        tl.relative_lattice(raw, quot)
    assert not isinstance(err.value, tl.InputError)


def test_closure_operator_laws(builtin8):
    for _, ring in builtin8:
        for notion in tl.enumerate_torsion_notions(ring):
            for module in tl.module_corpus(ring, 2):
                if not tl.is_torsion_free(notion, module):
                    continue
                subs = tl.all_submodules(module)
                closures = {s.bits: tl.relative_closure(notion, module, s).bits
                            for s in subs}
                for s in subs:
                    assert s.bits & ~closures[s.bits] == 0  # extensive
                    closed = closures[s.bits]
                    assert closures[closed] == closed       # idempotent
                for s, t in itertools.combinations(subs, 2):
                    if s.bits & ~t.bits == 0:
                        assert closures[s.bits] & ~closures[t.bits] == 0  # monotone


def test_relative_lattice_of_ut2_regular(ut2, ut2_nontrivial):
    reg = tl.regular_module(ut2)
    lat = tl.relative_lattice(ut2_nontrivial, reg)
    # exactly the submodules with torsion-free quotient; contains 0 and R,
    # excludes A itself (R/A is all torsion)
    assert lat.members == (1, RE22_BITS, 17, 65, 255)
    assert A_BITS not in lat.members
    assert tl.is_modular(lat)
    # this lattice is the diamond: three atoms, pairwise meets at 0
    assert lat.size == 5


def test_relative_lattice_trivial_notion_is_full_lattice(z4):
    reg = tl.regular_module(z4)
    lat = tl.relative_lattice(trivial_notion(z4), reg)
    assert lat.members == tuple(s.bits for s in tl.all_submodules(reg))


def test_relative_lattice_members_are_closure_fixed_points(ut2, ut2_nontrivial):
    reg = tl.regular_module(ut2)
    lat = tl.relative_lattice(ut2_nontrivial, reg)
    for s in tl.all_submodules(reg):
        closed = tl.relative_closure(ut2_nontrivial, reg, s)
        assert (closed.bits == s.bits) == (s.bits in lat.members)
    # join = closure of the sum
    k = lat.size
    for i, j in itertools.combinations(range(k), 2):
        s = tl.Submodule(reg, lat.members[i])
        t = tl.Submodule(reg, lat.members[j])
        summed = tl.submodule_sum(s, t)
        joined = tl.relative_closure(ut2_nontrivial, reg, summed)
        assert joined.bits == lat.members[lat.join[i * k + j]]


def test_weak_extension_examples(ut2, ut2_nontrivial, builtin8):
    reg = tl.regular_module(ut2)
    assert tl.weak_extension_witness(ut2_nontrivial, reg) is None
    square = tl.power_module(ut2, 2)
    assert tl.weak_extension_witness(ut2_nontrivial, square) is None
    for _, ring in builtin8:
        assert tl.weak_extension_witness(
            trivial_notion(ring), tl.regular_module(ring)) is None


def test_rcm_verify_cases(ut2_nontrivial, z4):
    report = tl.rcm_verify(ut2_nontrivial, 2)
    assert report.passed
    assert report.modules_checked == 18
    triv = trivial_notion(z4)
    report = tl.rcm_verify(triv, 2)
    assert report.passed and report.all_modular and report.all_wep
    m2 = tl.parse_ring_spec("M2(2)")
    assert tl.rcm_verify(trivial_notion(m2), 2).passed


def test_rcm_report_json(ut2_nontrivial):
    doc = tl.rcm_verify(ut2_nontrivial, 2).to_json()
    assert doc["all_modular"] and doc["all_wep"]
    assert doc["modules_checked"] == len(doc["entries"])


# -- rcm_verify against the per-module route -----------------------------------

def reference_rcm_entries(notion, bound):
    """The entries of ``rcm_verify`` by the per-module loop it ran before
    it read the corpus off Closed(R^k): each torsion-free corpus module's
    own relative lattice, modularity search and pair search."""
    entries = []
    for mod in tl.module_corpus(notion.ring, bound):
        if not tl.is_torsion_free(notion, mod):
            continue
        lat = tl.relative_lattice(notion, mod)
        mw = tl.modularity_witness(lat)
        ww = tl.weak_extension_witness(notion, mod)
        entries.append({
            "module": mod.name, "order": mod.order, "lattice_size": lat.size,
            "modular": mw is None, "modular_witness": mw,
            "wep": ww is None,
            "wep_witness": None if ww is None else (ww[0].bits, ww[1].bits),
        })
    return tuple(entries)


RCM_ORACLE_CASES = ([(spec, 2) for spec, _ in tl.builtin_rings(12)]
                    + [("prod(Z(2),UT2(2))", 1), ("UT2(3)", 1)])


@pytest.mark.parametrize("spec, bound", RCM_ORACLE_CASES)
def test_rcm_verify_matches_per_module_route(spec, bound):
    ring = tl.parse_ring_spec(spec)
    for notion in tl.enumerate_torsion_notions(ring):
        entries = tl.rcm_verify(notion, bound).entries
        assert entries and entries == reference_rcm_entries(notion, bound)


def _spy(monkeypatch, name, seen):
    """Record the module argument of each call to ``torsion.<name>``."""
    fn = getattr(tl.torsion, name)

    def spy(notion, module):
        seen.append(module)
        return fn(notion, module)

    monkeypatch.setattr(tl.torsion, name, spy)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("fault", ["modularity", "meets"])
@pytest.mark.parametrize("which", [0, 1])
def test_rcm_verify_falls_back_per_module_for_one_parent(monkeypatch, which, fault, k):
    ring = tl.parse_ring_spec("UT2(2)")
    notion = tl.enumerate_torsion_notions(ring)[which]
    expected = reference_rcm_entries(notion, 2)
    ring = tl.parse_ring_spec("UT2(2)")  # fresh: no memo of the reference route
    notion = tl.enumerate_torsion_notions(ring)[which]
    parent = tl.power_module(ring, k)
    if fault == "modularity":
        closed = tl.relative_lattice(notion, parent).members  # Closed(R^k)
        decide = tl.torsion.modularity_witness
        fired = []

        def faulty(lattice):
            if not fired and lattice.members == closed:
                fired.append(lattice)
                return (0, 0, 0)
            return decide(lattice)

        monkeypatch.setattr(tl.torsion, "modularity_witness", faulty)
    else:
        full = (1 << parent.order) - 1
        preserved = tl.torsion._meets_preserved
        fired = []

        def faulty(bits, closures):
            if bits[-1] == full:
                fired.append(bits)
                return False
            return preserved(bits, closures)

        monkeypatch.setattr(tl.torsion, "_meets_preserved", faulty)
    lattices, weps = [], []
    _spy(monkeypatch, "relative_lattice", lattices)
    _spy(monkeypatch, "weak_extension_witness", weps)
    assert tl.rcm_verify(notion, 2).entries == expected
    assert len(fired) == 1
    built = [m for m, (p, _) in zip(tl.module_corpus(ring, 2),
                                    tl.modules._corpus_sources(ring, 2))
             if p is parent and tl.is_torsion_free(notion, m)]
    assert built and lattices == built and weps == built


def test_rcm_verify_enumerates_submodules_of_r_and_r2_only(monkeypatch):
    orders = []
    enumerate_submodules = tl.kernels.enumerate_submodules

    def counting(order, *args):
        orders.append(order)
        return enumerate_submodules(order, *args)

    monkeypatch.setattr(tl.kernels, "enumerate_submodules", counting)
    ring = tl.parse_ring_spec("UT2(2)")
    reports = [tl.rcm_verify(notion, 2) for notion in tl.enumerate_torsion_notions(ring)]
    assert sum(report.modules_checked for report in reports) == 41 + 18
    assert orders == [8, 64]  # the left ideals of R, then Sub(R^2)


# -- enumeration ----------------------------------------------------------------

def test_enumerate_examples(z4, gf2, ut2):
    assert [f.key() for f in tl.enumerate_torsion_notions(z4)] == [(0b1111,)]
    assert [f.key() for f in tl.enumerate_torsion_notions(gf2)] == [(0b11,)]
    notions = tl.enumerate_torsion_notions(ut2)
    assert [f.key() for f in notions] == [(255,), (A_BITS, 255)]


def test_enumerate_commutative_rings_trivial(builtin16):
    for spec, ring in builtin16:
        if ring.is_commutative():
            notions = tl.enumerate_torsion_notions(ring)
            assert len(notions) == 1, spec
            assert notions[0].key() == ((1 << ring.order) - 1,)


def test_enumerate_product_with_ut2():
    ring = tl.parse_ring_spec("prod(Z(2),UT2(2))")
    notions = tl.enumerate_torsion_notions(ring)
    assert len(notions) == 2


def test_principal_generator(ut2, ut2_nontrivial, z4):
    minimal, text = tl.principal_generator(ut2_nontrivial)
    assert minimal.bits == A_BITS
    assert minimal.generators == (E11, E12)
    assert text == "(e11·x=0)∧(e12·x=0)→(x=0)"
    minimal, text = tl.principal_generator(trivial_notion(z4))
    assert minimal.is_full()
    assert text == "(1x=0)→(x=0)"
    one_elem = tl.cyclic_ring(1)
    minimal, _ = tl.principal_generator(trivial_notion(one_elem))
    assert minimal.is_full()


def test_minimal_member_is_two_sided_and_idempotent(builtin16):
    for _, ring in builtin16:
        for notion in tl.enumerate_torsion_notions(ring):
            minimal, _ = tl.principal_generator(notion)
            assert tl.is_two_sided(minimal)
            square = tl.product_ideal(minimal.generators, minimal.generators, ring)
            assert square.bits == minimal.bits


def test_right_translation_witness(ut2, ut2_nontrivial):
    a = ut2_nontrivial.ideals[0]
    for r in range(ut2.order):
        b = tl.right_translation_witness(ut2_nontrivial, a, r)
        assert b is not None
        assert all(ut2.mul[g][r] in a for g in b.generators)


def test_witness_functions_reject_an_index_outside_the_structure(ut2, ut2_nontrivial):
    # a negative index would read another element, the order raise IndexError
    reg = tl.regular_module(ut2)
    a = ut2_nontrivial.ideals[0]
    sub = tl.Submodule(reg, A_BITS)
    for bad in (-1, ut2.order):
        with pytest.raises(ValueError, match=rf"element {bad} out of range for R$"):
            tl.closure_witness(ut2_nontrivial, reg, sub, bad)
        with pytest.raises(ValueError, match=rf"element {bad} out of range for UT2\(2\)$"):
            tl.right_translation_witness(ut2_nontrivial, a, bad)


def test_down_directed_witness_in_square(ut2, ut2_nontrivial):
    # the (1,1) element of R + R lies in the closure of A + B, and the
    # ideal carrying it there sits inside the intersection
    square = tl.power_module(ut2, 2)
    n = ut2.order
    for a, b in itertools.product(ut2_nontrivial.ideals, repeat=2):
        bits = 0
        for x in a:
            for y in b:
                bits |= 1 << (x * n + y)
        sub = tl.Submodule(square, bits)
        one_one = ut2.one * n + ut2.one
        closed = tl.relative_closure(ut2_nontrivial, square, sub)
        assert one_one in closed
        carrier = tl.closure_witness(ut2_nontrivial, square, sub, one_one)
        assert carrier is not None
        assert carrier.bits & ~(a.bits & b.bits) == 0


def test_closure_additivity_replays_the_directedness_argument(builtin8):
    # for x, y in the closure of S with carrier ideals A, B, any member C
    # inside A and B satisfies C(x+y) <= S
    for _, ring in builtin8:
        for notion in tl.enumerate_torsion_notions(ring):
            for module in tl.module_corpus(ring, 1):
                if not tl.is_torsion_free(notion, module):
                    continue
                for sub in tl.all_submodules(module):
                    closed = tl.relative_closure(notion, module, sub)
                    elems = closed.elements()
                    for x, y in itertools.product(elems, repeat=2):
                        a = tl.closure_witness(notion, module, sub, x)
                        b = tl.closure_witness(notion, module, sub, y)
                        target = a.bits & b.bits
                        c = next(c for c in notion.ideals
                                 if c.bits & ~target == 0)
                        xy = module.add[x][y]
                        assert all(module.act[g][xy] in sub for g in c.generators)


# -- least-member routes against the family-scanning references ----------------
#
# The references below search every family of candidate ideals and scan
# every member ideal; the routes that read the least member alone must
# match them exactly.

LARGER_SPECS = ["UT2(3)", "prod(UT2(2),Z(3))", "prod(UT2(2),UT2(2))", "M2(3)", "UT2(5)"]


def reference_enumerate_torsion_notions(ring):
    ideals = tl.all_left_ideals(ring)
    full = ideals[-1]
    candidates = [a for a in ideals
                  if a.bits != full.bits and tl.regularity_witness(a) is None]
    out = []
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            res = tl.check_torsion_axioms(ring, combo + (full,))
            if isinstance(res, tl.TorsionNotion):
                out.append(res)
    out.sort(key=lambda f: (len(f), f.key()))
    return tuple(out)


def _carried_into(gen_rows, x, target_bits):
    return all(target_bits >> row[x] & 1 for row in gen_rows)


def _family_gen_rows(ideals, module):
    return [[module.act[g] for g in a.generators] for a in ideals]


def reference_family_torsion_free(ideals, module):
    zero_bit = 1 << module.zero
    rows = _family_gen_rows(ideals, module)
    for x in range(module.order):
        if x == module.zero:
            continue
        if any(_carried_into(rws, x, zero_bit) for rws in rows):
            return False
    return True


def reference_torsion_bits(notion, module):
    zero_bit = 1 << module.zero
    rows = _family_gen_rows(notion.ideals, module)
    bits = 0
    for x in range(module.order):
        if any(_carried_into(rws, x, zero_bit) for rws in rows):
            bits |= 1 << x
    return bits


def reference_closure_bits(notion, module, sub_bits):
    rows = _family_gen_rows(notion.ideals, module)
    bits = 0
    for x in range(module.order):
        if any(_carried_into(rws, x, sub_bits) for rws in rows):
            bits |= 1 << x
    return bits


def reference_closure_witness(notion, module, sub, x):
    for a in notion.ideals:
        if all(sub.bits >> module.act[g][x] & 1 for g in a.generators):
            return a
    return None


def reference_right_translation_witness(notion, ideal, r):
    ring = notion.ring
    for b in notion.ideals:
        if all(ring.mul[g][r] in ideal for g in b.generators):
            return b
    return None


def reference_weak_extension_bits(subs, closures, zero_bit):
    for i, s in enumerate(subs):
        for j in range(i, len(subs)):
            t = subs[j]
            if s.bits & t.bits == zero_bit and closures[i] & closures[j] != zero_bit:
                return (s.bits, t.bits)
    return None


def test_enumeration_matches_subset_search():
    specs = [spec for spec, _ in tl.builtin_rings(16)] + LARGER_SPECS
    notions = 0
    for spec in specs:
        ring = tl.parse_ring_spec(spec)
        keys = [f.key() for f in tl.enumerate_torsion_notions(ring)]
        assert keys == [f.key() for f in reference_enumerate_torsion_notions(ring)], spec
        notions += len(keys)
    assert len(specs) == 28 and notions == 36


def test_enumeration_checks_one_family_per_regular_ideal(monkeypatch):
    ring = tl.parse_ring_spec("prod(UT2(2),UT2(2))")
    regular = [a for a in tl.all_left_ideals(ring) if tl.regularity_witness(a) is None]
    checked = []
    check = tl.torsion.check_torsion_axioms

    def counting(ring, family):
        checked.append(family)
        return check(ring, family)

    monkeypatch.setattr(tl.torsion, "check_torsion_axioms", counting)
    tl.enumerate_torsion_notions(ring)
    assert [min(f, key=lambda a: a.bits) for f in checked] == regular
    assert len(regular) == 4  # AxA, AxR, RxA and R: 4 checks where subsets take 2**3


def test_least_member_routes_match_family_scans(builtin8):
    compared = nontrivial = 0
    for _, ring in builtin8:
        for notion in tl.enumerate_torsion_notions(ring):
            assert notion.least.bits == min(a.bits for a in notion.ideals)
            for a in tl.all_left_ideals(ring):
                for r in range(ring.order):
                    assert tl.right_translation_witness(notion, a, r) is \
                        reference_right_translation_witness(notion, a, r)
            for module in tl.module_corpus(ring, 2):
                free = tl.is_torsion_free(notion, module)
                assert free == reference_family_torsion_free(notion.ideals, module)
                assert tl.torsion_elements(notion, module).bits == \
                    reference_torsion_bits(notion, module)
                subs = tl.all_submodules(module)
                for sub in subs:
                    for x in range(module.order):
                        assert tl.closure_witness(notion, module, sub, x) is \
                            reference_closure_witness(notion, module, sub, x)
                if not free:
                    continue
                closures = [reference_closure_bits(notion, module, s.bits) for s in subs]
                for sub, closed in zip(subs, closures):
                    assert tl.relative_closure(notion, module, sub).bits == closed
                fixed = [s.bits for s, c in zip(subs, closures) if c == s.bits]
                assert tl.relative_lattice(notion, module).members == \
                    tl.lattice_from_family(fixed).members
                wep = tl.weak_extension_witness(notion, module)
                assert (None if wep is None else (wep[0].bits, wep[1].bits)) == \
                    reference_weak_extension_bits(subs, closures, 1 << module.zero)
                compared += 1
                nontrivial += len(notion) > 1
    assert compared > 0 and nontrivial > 0


def test_relative_lattice_of_zero_module(ut2, ut2_nontrivial):
    reg = tl.regular_module(ut2)
    zero_mod = tl.quotient_module(reg, tl.Submodule(reg, 255))
    lat = tl.relative_lattice(ut2_nontrivial, zero_mod)
    assert lat.size == 1


def test_operations_require_validated_notion(ut2):
    raw = tl.TorsionNotion(ut2, [ideal(ut2, [ut2.one])], validated=False)
    reg = tl.regular_module(ut2)
    with pytest.raises(ValueError):
        tl.torsion_elements(raw, reg)
    with pytest.raises(ValueError):
        tl.rcm_verify(raw)
