"""The classification pipeline: annihilators, verdicts, collapse traces."""

import itertools

import pytest

import torsionlab as tl
from conftest import A_BITS, E11, E12, E22


def test_identities_to_ideal_examples(z4, ut2):
    ideal = tl.identities_to_ideal(z4, [[2, 2]])
    assert sorted(ideal.elements()) == [0, 2]
    assert tl.identities_to_ideal(z4, []).is_zero()
    two_sided = tl.identities_to_ideal(ut2, [[E12]])
    assert sorted(two_sided.elements()) == [0, E12]
    assert isinstance(two_sided, tl.TwoSidedIdeal)


def test_annihilator_of_quasivariety_examples(ut2, z4):
    q = tl.Quasiidentity.from_gens(ut2, [E22])
    ideal = tl.annihilator_of_quasivariety(ut2, [q])
    assert ideal.bits == A_BITS
    q2 = tl.Quasiidentity.from_gens(z4, [2])
    assert tl.annihilator_of_quasivariety(z4, [q2]).is_full()
    assert tl.annihilator_of_quasivariety(z4, []).is_zero()


def brute_force_least_passing(ring, gens_list, sigma_gens=()):
    """Independent oracle: scan all left ideals, filter by quotient
    satisfaction, pick the inclusion-least among the passing ones."""
    reg = tl.regular_module(ring)
    sigma = tl.two_sided_closure(ring, sigma_gens) if sigma_gens else None
    passing = []
    for ideal in tl.all_left_ideals(ring):
        if sigma is not None and sigma.bits & ~ideal.bits:
            continue
        quot = tl.quotient_module(reg, tl.Submodule(reg, ideal.bits))
        if all(tl.satisfies_quasiidentity(quot, tl.left_ideal_closure(ring, gens))
               for gens in gens_list):
            passing.append(ideal.bits)
    inclusion_least = [b for b in passing if all(b & ~c == 0 for c in passing)]
    assert len(inclusion_least) == 1
    return inclusion_least[0]


def test_annihilator_matches_brute_force(ut2, z4, z6):
    cases = [
        (ut2, [[E22]]), (ut2, [[E11]]), (ut2, [[E11, E12]]),
        (z4, [[2]]), (z4, []), (z6, [[3]]), (z6, [[2], [3]]),
    ]
    for ring, gens_list in cases:
        quasis = [tl.Quasiidentity.from_gens(ring, g) for g in gens_list]
        got = tl.annihilator_of_quasivariety(ring, quasis)
        assert got.bits == brute_force_least_passing(ring, gens_list)


def test_classify_ut2_closing_example(ut2):
    verdict = tl.classify(ut2, [[E11, E12]])
    assert verdict.rcm
    assert verdict.annihilator_ideal.is_zero()
    assert [a.bits for a in verdict.filter_quot] == [A_BITS, 255]
    assert verdict.is_variety is False
    assert verdict.is_trivial is False
    assert verdict.descriptor is not None
    assert [a.bits for a in verdict.descriptor.members] == [A_BITS, 255]


def test_classify_e22_collapses_to_variety(ut2):
    verdict = tl.classify(ut2, [[E22]])
    assert verdict.rcm
    assert verdict.annihilator_ideal.bits == A_BITS
    assert verdict.quotient.order == 2
    assert verdict.is_variety is True
    assert verdict.is_trivial is False


def test_classify_z4_trivial(z4):
    verdict = tl.classify(z4, [[2]])
    assert verdict.rcm
    assert verdict.is_trivial is True
    assert verdict.quotient.order == 1


def test_classify_with_identities(z4):
    verdict = tl.classify(z4, [], identities=[[2, 2]])
    assert verdict.rcm
    assert sorted(verdict.annihilator_ideal.elements()) == [0, 2]
    assert verdict.quotient.order == 2
    assert verdict.is_variety is True


def test_classify_commutative_always_variety_or_trivial(builtin8):
    for spec, ring in builtin8:
        if not ring.is_commutative():
            continue
        ideals = tl.all_left_ideals(ring)
        for a in ideals:
            verdict = tl.classify(ring, [list(a.generators)])
            assert verdict.rcm
            assert verdict.is_variety or verdict.is_trivial, spec


def test_membership_examples(ut2):
    verdict = tl.classify(ut2, [[E11, E12]])
    reg = tl.regular_module(ut2)
    assert tl.membership(reg, verdict)
    quot = tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    assert not tl.membership(quot, verdict)
    zero_mod = tl.quotient_module(reg, tl.Submodule(reg, 255))
    assert tl.membership(zero_mod, verdict)


def test_membership_agrees_with_class_definition(ut2):
    verdict = tl.classify(ut2, [[E11, E12]])
    q = tl.Quasiidentity.from_gens(ut2, [E11, E12])
    for module in tl.module_corpus(ut2, 2):
        assert tl.membership(module, verdict) == q.satisfied_by(module)


def test_descriptor_regularity_mod_i(ut2):
    # (5)': A in G, A*r inside I implies r in I
    for gens in ([[E11, E12]], [[E22]], [[E11]]):
        verdict = tl.classify(ut2, gens)
        ideal_i = verdict.annihilator_ideal
        for a in verdict.filter_preimages:
            for r in range(ut2.order):
                if all(ut2.mul[g][r] in ideal_i for g in a.generators):
                    assert r in ideal_i


def test_descriptor_members_contain_i(builtin8):
    for _, ring in builtin8:
        for a in tl.all_left_ideals(ring):
            verdict = tl.classify(ring, [list(a.generators)])
            for member in verdict.filter_preimages:
                assert verdict.annihilator_ideal.bits & ~member.bits == 0


def test_compose_quasiidentities(ut2, z8):
    q = tl.compose_quasiidentities(ut2, [E11, E12], [E11, E12])
    assert q.ideal.bits == A_BITS
    q8 = tl.compose_quasiidentities(z8, [2], [2])
    assert sorted(q8.ideal.elements()) == [0, 4]
    q_id = tl.compose_quasiidentities(z8, [1], [3])
    assert q_id.ideal.bits == tl.left_ideal_closure(z8, [3]).bits


def test_composition_propagates_over_corpus(builtin8):
    for _, ring in builtin8:
        for notion in tl.enumerate_torsion_notions(ring):
            corpus = tl.module_corpus(ring, 2)
            for a, b in itertools.product(notion.ideals, repeat=2):
                composed = tl.compose_quasiidentities(ring, a.generators, b.generators)
                for module in corpus:
                    if tl.satisfies_quasiidentity(module, a) and \
                            tl.satisfies_quasiidentity(module, b):
                        assert composed.satisfied_by(module)


def test_classification_sweep_over_all_builtins(builtin16):
    # every one- and two-ideal system over every builtin ring classifies
    # cleanly (all internal assertions hold) and none is NotRCM
    for spec, ring in builtin16:
        if ring.order <= 8:
            continue  # the acceptance sweep covers these
        ideals = tl.all_left_ideals(ring)
        systems = [(a,) for a in ideals] + list(itertools.combinations(ideals, 2))
        for system in systems:
            verdict = tl.classify(ring, [list(a.generators) for a in system])
            assert verdict.rcm, (spec, [a.bits for a in system])


# -- the route classify replaced: it built a module for every quotient it
# asked about.  Kept verbatim as the reference for the closure route.

def reference_module_over_quotient(module, quot_ring, projection):
    """Reinterpret a module killed by ker(projection) as a quotient-ring module."""
    ring = module.ring
    section = {}
    for r in range(ring.order):
        section.setdefault(projection[r], r)
    for r in range(ring.order):
        if module.act[r] != module.act[section[projection[r]]]:
            raise ValueError("module is not annihilated by the projection kernel")
    act = [module.act[section[j]] for j in range(quot_ring.order)]
    return tl.FiniteModule(quot_ring, module.order, module.add, act, module.zero,
                           name=module.name)


def reference_filter_quot(quasis, quot_ring, projection):
    """The quotient ideals satisfied by every cyclic member, each cyclic
    module of R/I built as a quotient module."""
    transported = [tl.left_ideal_closure(quot_ring, [projection[g] for g in q.ideal.generators])
                   for q in quasis]
    reg = tl.regular_module(quot_ring)
    cyclic_members = []
    for sub_ideal in tl.all_left_ideals(quot_ring):
        quot_mod = tl.quotient_module(reg, tl.Submodule(reg, sub_ideal.bits, _trusted=True))
        if all(tl.satisfies_quasiidentity(quot_mod, t) for t in transported):
            cyclic_members.append(quot_mod)
    return tuple(
        abar for abar in tl.all_left_ideals(quot_ring)
        if all(tl.satisfies_quasiidentity(m, abar) for m in cyclic_members))


def kills(ideal, module):
    return all(v == module.zero for g in ideal.generators for v in module.act[g])


def assert_matches_module_route(verdict):
    """I, the induced family and every corpus module's torsion-freeness
    agree with the module-building route; returns the number of corpus
    modules compared."""
    ring, quasis, ideal_i = verdict.ring, verdict.quasis, verdict.annihilator_ideal
    assert ideal_i.bits == brute_force_least_passing(
        ring, [q.ideal.generators for q in quasis], verdict.sigma.generators)
    quot_ring, projection = tl.quotient_ring(ring, ideal_i)
    assert quot_ring is verdict.quotient
    filter_quot = reference_filter_quot(quasis, quot_ring, projection)
    assert [a.bits for a in verdict.filter_quot] == [a.bits for a in filter_quot]
    corpus = tl.module_corpus(ring, verdict.bound)
    for mod in corpus:
        if kills(ideal_i, mod):
            push = reference_module_over_quotient(mod, quot_ring, projection)
            expected = all(tl.satisfies_quasiidentity(push, a) for a in filter_quot)
        else:
            expected = False
        got = kills(ideal_i, mod) and all(tl.satisfies_quasiidentity(mod, a)
                                          for a in verdict.filter_preimages)
        in_class = kills(verdict.sigma, mod) and all(q.satisfied_by(mod) for q in quasis)
        assert got == expected == in_class, mod.name
    return len(corpus)


def test_closure_route_matches_module_route_over_the_sweep():
    from test_acceptance import classification_sweep
    checked = 0
    for spec, ring, system, verdict in classification_sweep():
        checked += assert_matches_module_route(verdict)
    assert checked > 1000


def test_closure_route_matches_module_route_with_identities(builtin8):
    systems = 0
    for spec, ring in builtin8:
        ideals = tl.all_left_ideals(ring)
        sigmas = [a for a in ideals if tl.as_two_sided(a) is not None
                  and not a.is_zero()]
        for sigma in sigmas:
            identities = [[g] for g in sigma.generators]
            for a in ideals:
                verdict = tl.classify(ring, [list(a.generators)], identities)
                assert verdict.sigma.bits == sigma.bits
                assert_matches_module_route(verdict)
                systems += 1
    assert systems >= 100


def test_closure_route_matches_module_route_over_ut2_3():
    ring = tl.parse_ring_spec("UT2(3)")
    ideals = tl.all_left_ideals(ring)
    systems = [(a,) for a in ideals] + list(itertools.combinations(ideals, 2))
    e12 = ring.resolve("e12")
    for system in systems:
        for identities in ((), [[e12]]):
            verdict = tl.classify(ring, [list(a.generators) for a in system],
                                  identities, bound=1)
            assert_matches_module_route(verdict)


def test_collapse_traces(z4, z6):
    for ring in (z4, z6):
        for notion in tl.enumerate_torsion_notions(ring):
            trace = tl.commutative_collapse(ring, notion)
            assert trace.square_is_self
            assert trace.idempotent == ring.one
            assert trace.filter_is_trivial


def test_collapse_requires_commutative(ut2, ut2_nontrivial):
    with pytest.raises(ValueError):
        tl.commutative_collapse(ut2, ut2_nontrivial)


def test_verdict_json_schema(ut2):
    import json
    verdict = tl.classify(ut2, [[E11, E12]])
    doc = json.loads(json.dumps(verdict.to_json()))
    assert doc["ring"] == "UT2(2)"
    assert doc["rcm"] is True
    assert doc["is_variety"] is False
    assert doc["corpus_checked"]["bound"] == 2
    assert doc["corpus_checked"]["modules"] > 0
    assert {"generators", "elements"} <= set(doc["I"].keys())
    assert all({"generators", "elements"} <= set(f.keys()) for f in doc["filter"])
