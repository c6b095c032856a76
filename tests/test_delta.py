"""Delta axioms: reduction, evaluation, encoded-ideal agreement."""

import random

import pytest

import torsionlab as tl
from torsionlab.errors import ReductionError

from conftest import A_BITS, E11, E12, E22


def canonical_axiom(ut2):
    """Two rows (a=e11, b=e11), (a=e12, b=e12); over GF(2), b = -a."""
    return tl.DeltaAxiom(ut2, [tl.DeltaRow(E11, E11), tl.DeltaRow(E12, E12)])


def test_reduce_canonical_axiom(ut2):
    red = tl.reduce_delta(canonical_axiom(ut2))
    assert red.ideal.bits == A_BITS
    assert red.ideal.generators == (E11, E12)
    assert red.rows == ((E11, ()), (E12, ()))


def test_reduce_trivial_axiom(z4):
    axiom = tl.DeltaAxiom(z4, [tl.DeltaRow(1, 3)])  # a=1, b=-1
    red = tl.reduce_delta(axiom)
    assert red.ideal.is_full()


def test_delta_axiom_needs_a_row(z4):
    with pytest.raises(ValueError, match="at least one row"):
        tl.DeltaAxiom(z4, [])


def test_reduce_z6_mixed_row(z6):
    # a=2, b=4=-2, c=[3], d=[3]=-3: reduces to E(X,U) = 2X + 3U
    axiom = tl.DeltaAxiom(z6, [tl.DeltaRow(2, 4, (3,), (3,), ())])
    red = tl.reduce_delta(axiom)
    assert red.rows == ((2, (3,)),)
    assert sorted(red.ideal.elements()) == [0, 2, 4]


@pytest.mark.parametrize("row,coef", [
    (tl.DeltaRow(2, 3), "b"),
    (tl.DeltaRow(2, 4, (1,), (2,), ()), "d[0]"),
    (tl.DeltaRow(2, 4, (1,), (5,), (3,)), "e[0]"),
])
def test_reduce_failures_name_row_and_coefficient(z6, row, coef):
    with pytest.raises(ReductionError) as err:
        tl.reduce_delta(tl.DeltaAxiom(z6, [row]))
    assert err.value.row == 0
    assert err.value.coefficient == coef


def test_delta_satisfied_examples(ut2):
    axiom = canonical_axiom(ut2)
    reg = tl.regular_module(ut2)
    assert tl.delta_satisfied(reg, axiom)
    quot = tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    assert not tl.delta_satisfied(quot, axiom)
    zero_mod = tl.quotient_module(reg, tl.Submodule(reg, 255))
    assert tl.delta_satisfied(zero_mod, axiom)


def test_delta_equivalence_on_examples(ut2):
    axiom = canonical_axiom(ut2)
    reg = tl.regular_module(ut2)
    assert tl.delta_equiv_quasiidentity(reg, axiom) is True
    quot = tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    assert tl.delta_equiv_quasiidentity(quot, axiom) is False


def test_trivial_axiom_holds_everywhere(builtin8):
    for _, ring in builtin8:
        axiom = tl.DeltaAxiom(ring, [tl.DeltaRow(ring.one, ring.neg[ring.one])])
        for module in tl.module_corpus(ring, 1):
            assert tl.delta_equiv_quasiidentity(module, axiom) == \
                tl.satisfies_quasiidentity(module, tl.left_ideal_closure(ring, [ring.one]))


def test_seeded_random_equivalence_sweep(builtin8):
    rng = random.Random(20240817)
    instances = 0
    for _, ring in builtin8:
        corpus = tl.module_corpus(ring, 2)
        for _ in range(6):
            axiom = tl.random_reducible_delta(ring, rng)
            exponent = 2 + axiom.u_arity + axiom.z_arity
            for module in corpus:
                if module.order ** exponent > 2 ** 18:
                    continue
                tl.delta_equiv_quasiidentity(module, axiom)
                instances += 1
    assert instances > 300


def test_reduced_rows_vanish_at_zero(builtin8):
    rng = random.Random(7)
    for _, ring in builtin8:
        module = tl.regular_module(ring)
        for _ in range(5):
            axiom = tl.random_reducible_delta(ring, rng)
            red = tl.reduce_delta(axiom)
            for a, cs in red.rows:
                val = module.act[a][module.zero]
                for c in cs:
                    val = module.add[val][module.act[c][module.zero]]
                assert val == module.zero


def test_rereduction_is_stable(builtin8):
    rng = random.Random(99)
    for _, ring in builtin8:
        for _ in range(5):
            axiom = tl.random_reducible_delta(ring, rng)
            red = tl.reduce_delta(axiom)
            again = tl.reduce_delta(red.induced_delta())
            assert again.ideal.bits == red.ideal.bits


def test_membership_witness_examples(ut2, ut2_nontrivial):
    reg = tl.regular_module(ut2)
    a = ut2_nontrivial.ideals[0]
    a_sub = tl.Submodule(reg, A_BITS)
    assert tl.delta_membership_witness(ut2_nontrivial, reg, a_sub, ut2.one, a)
    zero_sub = tl.Submodule(reg, 1)
    assert not tl.delta_membership_witness(ut2_nontrivial, reg, zero_sub, E22, a)
    # e12 * e22 = e12 is the escaping product
    assert ut2.mul[E12][E22] == E12
    # trivial notion: members of the submodule always qualify
    from conftest import trivial_notion
    triv = trivial_notion(ut2)
    full = triv.ideals[0]
    for x in a_sub:
        assert tl.delta_membership_witness(triv, reg, a_sub, x, full)


def test_membership_witness_characterizes_closure(ut2, ut2_nontrivial, z8):
    from conftest import trivial_notion
    cases = [(ut2_nontrivial, tl.regular_module(ut2)),
             (trivial_notion(z8), tl.regular_module(z8))]
    for notion, reg in cases:
        for sub in tl.all_submodules(reg):
            closed = tl.relative_closure(notion, reg, sub)
            for x in range(reg.order):
                witnessed = any(
                    tl.delta_membership_witness(notion, reg, sub, x, a)
                    for a in notion.ideals)
                assert witnessed == (x in closed)


def test_membership_witness_requires_member(ut2, ut2_nontrivial):
    reg = tl.regular_module(ut2)
    outsider = tl.left_ideal_closure(ut2, [E22])
    with pytest.raises(ValueError):
        tl.delta_membership_witness(ut2_nontrivial, reg,
                                    tl.Submodule(reg, 1), 0, outsider)


def test_membership_witness_rejects_an_index_outside_the_module(ut2, ut2_nontrivial):
    # a negative index would read another element, the order raise IndexError
    reg = tl.regular_module(ut2)
    a = ut2_nontrivial.ideals[0]
    for bad in (-1, reg.order):
        with pytest.raises(ValueError, match=rf"element {bad} out of range for R$"):
            tl.delta_membership_witness(ut2_nontrivial, reg, tl.Submodule(reg, A_BITS), bad, a)


def test_delta_from_doc_names_and_errors(ut2):
    doc = {"ring": "UT2(2)", "u_arity": 0, "z_arity": 0,
           "rows": [{"a": "e11", "b": "e11"}, {"a": "e12", "b": "e12"}]}
    axiom = tl.delta_from_doc(doc, ut2)
    assert tl.reduce_delta(axiom).ideal.bits == A_BITS
    with pytest.raises(tl.RingSpecError):
        tl.delta_from_doc({"u_arity": 0, "rows": []}, ut2)
    # without a ring the document's "ring" key names it
    assert tl.delta_from_doc(doc, None).ring.mul == ut2.mul
    with pytest.raises(tl.InputError, match="row 0: coefficient 8 out of range"):
        tl.delta_from_doc(dict(doc, rows=[{"a": 8, "b": 0}]), ut2)
