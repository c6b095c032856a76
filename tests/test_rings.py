"""Ring construction, validation, and ideal arithmetic."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab import rings, ringspec
from torsionlab.errors import RingSpecError, TableError
from torsionlab.ringspec import spec_order

from conftest import (A_BITS, BUILTIN8, E11, E12, E22, ONE, RE22_BITS, UT2_IDEAL_BITS,
                      reference_two_sided_closure, time_limit)


# -- independent matrix oracle for UT2(p) and M2(p) ----------------------

# the positions each ring may fill, in the order an element index reads
# their entries as base-p digits, most significant first
CELLS = {"UT2": ((0, 0), (0, 1), (1, 1)), "M2": ((0, 0), (0, 1), (1, 0), (1, 1))}


def matrices(kind, p):
    """Every matrix of UT2(p) or M2(p) as a tuple of rows, by element index."""
    out = []
    for digits in itertools.product(range(p), repeat=len(CELLS[kind])):
        entries = dict(zip(CELLS[kind], digits))
        out.append(tuple(tuple(entries.get((i, j), 0) for j in range(2)) for i in range(2)))
    return out


def mat_mul(x, y, p):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) % p
                       for j in range(2)) for i in range(2))


def mat_add(x, y, p):
    return tuple(tuple((x[i][j] + y[i][j]) % p for j in range(2)) for i in range(2))


def mat_name(x, kind):
    """``2e11+e12`` style: the nonzero entries as multiples of the units."""
    terms = [f"{'' if x[i][j] == 1 else x[i][j]}e{i + 1}{j + 1}"
             for i, j in CELLS[kind] if x[i][j]]
    return "+".join(terms) or "0"


@pytest.mark.parametrize("spec", ["UT2(2)", "UT2(3)", "UT2(5)", "M2(2)", "M2(3)"])
def test_matrix_ring_tables_match_matrix_arithmetic(spec):
    kind, p = spec[:-1].split("(")
    p = int(p)
    ring = tl.parse_ring_spec(spec)
    mats = matrices(kind, p)
    index = {x: i for i, x in enumerate(mats)}
    assert ring.order == len(mats)
    assert ring.zero == index[((0, 0), (0, 0))]
    assert ring.one == index[((1, 0), (0, 1))]
    assert tuple(map(tuple, ring.add)) == \
        tuple(tuple(index[mat_add(x, y, p)] for y in mats) for x in mats)
    assert tuple(map(tuple, ring.mul)) == \
        tuple(tuple(index[mat_mul(x, y, p)] for y in mats) for x in mats)
    units = [(f"e{i + 1}{j + 1}", index[tuple(tuple(int((r, c) == (i, j)) for c in range(2))
                                              for r in range(2))])
             for i, j in CELLS[kind]]
    assert list(ring._names.items()) == units + [("0", ring.zero), ("1", ring.one)]
    assert [ring.element_name(i) for i in range(ring.order)] == [mat_name(x, kind)
                                                                 for x in mats]


def test_ut2_element_names(ut2):
    assert ut2.resolve("e11") == E11
    assert ut2.resolve("e12") == E12
    assert ut2.resolve("e22") == E22
    assert ut2.resolve("1") == ONE
    assert ut2.element_name(E11 + E12) == "e11+e12"
    assert ut2.element_name(0) == "0"


def test_cyclic_ring_is_modular_arithmetic(z4):
    for i in range(4):
        for j in range(4):
            assert z4.add[i][j] == (i + j) % 4
            assert z4.mul[i][j] == (i * j) % 4


def test_gf_requires_prime():
    tl.parse_ring_spec("GF(7)")
    with pytest.raises(RingSpecError):
        tl.parse_ring_spec("GF(4)")
    with pytest.raises(RingSpecError):
        tl.parse_ring_spec("UT2(6)")


def count_axiom_checks(monkeypatch):
    """The (order, order) arguments of every later ``rings.action_axiom_witness`` call."""
    calls = []
    check = rings.action_axiom_witness

    def counted(*args):
        calls.append(args[:2])
        return check(*args)

    monkeypatch.setattr(rings, "action_axiom_witness", counted)
    return calls


def test_prime_field_checks_its_tables_once(monkeypatch):
    calls = count_axiom_checks(monkeypatch)
    field = tl.prime_field(7)
    assert calls == [(7, 7)]
    assert field.name == "GF(7)"
    z7 = tl.cyclic_ring(7)
    assert (field.add, field.mul, field.zero, field.one) == (z7.add, z7.mul, z7.zero, z7.one)


@pytest.mark.parametrize("build,p,order", [(tl.upper_triangular_ring, 3, 27),
                                           (tl.full_matrix_ring, 2, 16)])
def test_matrix_rings_check_their_tables_once(monkeypatch, build, p, order):
    calls = count_axiom_checks(monkeypatch)
    build(p)
    assert calls == [(order, order)]


def test_rescaled_ut2_7_names_the_first_nonassociative_triple():
    # x *' y = (57 x) y for the unit 57 = [[1, 1], [0, 1]]: distributive,
    # and associative only where 57 commutes in
    ring = tl.upper_triangular_ring(7)
    mul = [[ring.mul[ring.mul[57][x]][y] for y in range(ring.order)] for x in range(ring.order)]
    with pytest.raises(TableError) as err:
        tl.FiniteRing(ring.order, ring.add, mul, ring.zero, ring.one)
    assert (err.value.axiom, err.value.witness, str(err.value)) == \
        ("mul-associative", (1, 1, 1), "(1*1)*1 != 1*(1*1)")


def test_one_element_ring():
    ring = tl.cyclic_ring(1)
    assert ring.zero == ring.one
    assert [a.bits for a in tl.all_left_ideals(ring)] == [1]


@pytest.mark.parametrize("bad", [None, "0", 0.0, 1.5])
@pytest.mark.parametrize("which", ["zero", "one"])
def test_ring_rejects_a_non_integer_zero_or_one(z4, which, bad):
    # 0.0 == 0 passes a range test alone
    zero, one = (bad, 1) if which == "zero" else (0, bad)
    with pytest.raises(TableError) as err:
        tl.FiniteRing(4, z4.add, z4.mul, zero, one)
    assert (err.value.axiom, err.value.witness, str(err.value)) == \
        (f"{which}-range", (bad,), f"{which} index out of range")


def test_ring_accepts_a_bool_zero_and_one(z4):
    ring = tl.FiniteRing(4, z4.add, z4.mul, False, True)
    assert (ring.zero, ring.one) == (0, 1)


def test_invalid_table_names_witness_triple():
    mul = [[(i * j) % 4 for j in range(4)] for i in range(4)]
    mul[2][3] = 1  # 2*3 = 1 breaks associativity or distributivity
    add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    with pytest.raises(TableError) as err:
        tl.FiniteRing(4, add, mul, 0, 1)
    assert len(err.value.witness) >= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_any_single_mul_perturbation_of_z6_is_rejected(i, j, v):
    mul = [[(a * b) % 6 for b in range(6)] for a in range(6)]
    if mul[i][j] == v:
        v = (v + 1) % 6
    mul[i][j] = v
    add = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    with pytest.raises(TableError):
        tl.FiniteRing(6, add, mul, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_any_single_add_perturbation_of_z6_is_rejected(i, j, v):
    add = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    if add[i][j] == v:
        v = (v + 1) % 6
    add[i][j] = v
    mul = [[(a * b) % 6 for b in range(6)] for a in range(6)]
    with pytest.raises(TableError):
        tl.FiniteRing(6, add, mul, 0, 1)


# -- ideals ----------------------------------------------------------------

def closed_supersets(ring, gens):
    """Brute-force oracle: all subsets containing the generators that are
    closed under addition and left multiplication."""
    n = ring.order
    base = 1 << ring.zero
    for g in gens:
        base |= 1 << g
    out = []
    free = [i for i in range(n) if not base >> i & 1]
    for picks in range(1 << len(free)):
        bits = base
        for pos, idx in enumerate(free):
            if picks >> pos & 1:
                bits |= 1 << idx
        elems = [i for i in range(n) if bits >> i & 1]
        if all(bits >> ring.add[x][y] & 1 for x in elems for y in elems) and \
                all(bits >> ring.mul[r][x] & 1 for r in range(n) for x in elems):
            out.append(bits)
    return out


@pytest.mark.parametrize("spec,gens", [
    ("Z(4)", [2]), ("Z(8)", [2, 4]), ("UT2(2)", [E11, E12]),
    ("UT2(2)", [E22]), ("Z(6)", [3]), ("prod(Z(2),Z(2))", [2]),
])
def test_closure_is_least_closed_superset(spec, gens):
    ring = tl.parse_ring_spec(spec)
    ideal = tl.left_ideal_closure(ring, gens)
    sups = closed_supersets(ring, gens)
    acc = sups[0]
    for bits in sups[1:]:
        acc &= bits
    assert ideal.bits == acc
    assert ideal.generators == tuple(gens)


def test_left_ideal_closure_examples(z4, ut2):
    assert tl.left_ideal_closure(z4, [2]).elements() == [0, 2]
    assert tl.left_ideal_closure(ut2, [E11, E12]).bits == A_BITS
    assert sorted(tl.left_ideal_closure(ut2, [E11, E12]).elements()) == [0, 2, 4, 6]
    assert tl.left_ideal_closure(z4, [1]).is_full()


def test_all_left_ideals_examples(z4, gf2, ut2):
    assert [a.bits for a in tl.all_left_ideals(z4)] == [1, 0b0101, 0b1111]
    assert [a.bits for a in tl.all_left_ideals(gf2)] == [1, 3]
    assert [a.bits for a in tl.all_left_ideals(ut2)] == list(UT2_IDEAL_BITS)


def test_ideal_sum_and_intersect(ut2):
    e11_ideal = tl.left_ideal_closure(ut2, [E11])
    e12_ideal = tl.left_ideal_closure(ut2, [E12])
    assert tl.ideal_sum(e11_ideal, e12_ideal).bits == A_BITS
    a = tl.left_ideal_closure(ut2, [E11, E12])
    re22 = tl.left_ideal_closure(ut2, [E22])
    assert re22.bits == RE22_BITS
    inter = tl.ideal_intersect(a, re22)
    assert sorted(inter.elements()) == [0, E12]
    full = tl.all_left_ideals(ut2)[-1]
    assert tl.ideal_intersect(a, full).bits == a.bits


def test_ideal_family_closed_under_sum_intersect_product(ut2, z8):
    for ring in (ut2, z8):
        ideals = tl.all_left_ideals(ring)
        bits = {a.bits for a in ideals}
        for a, b in itertools.product(ideals, repeat=2):
            assert tl.ideal_sum(a, b).bits in bits
            assert tl.ideal_intersect(a, b).bits in bits
            assert tl.product_ideal(a.generators, b.generators, ring).bits in bits


def test_product_ideal_examples(ut2, z8):
    prod = tl.product_ideal([E11, E12], [E11, E12], ut2)
    assert prod.generators == (E11, E12, 0, 0)
    assert prod.bits == A_BITS
    assert sorted(tl.product_ideal([2], [2], z8).elements()) == [0, 4]
    ys = [3]
    assert tl.product_ideal([1], ys, z8).bits == tl.left_ideal_closure(z8, ys).bits
    with pytest.raises(ValueError):
        tl.product_ideal([], [1], z8)


def test_is_two_sided(ut2, z6):
    a = tl.left_ideal_closure(ut2, [E11, E12])
    assert tl.is_two_sided(a)
    assert isinstance(tl.as_two_sided(a), tl.TwoSidedIdeal)
    e11_only = tl.left_ideal_closure(ut2, [E11])
    assert not tl.is_two_sided(e11_only)
    assert tl.as_two_sided(e11_only) is None
    for ideal in tl.all_left_ideals(z6):
        assert tl.is_two_sided(ideal)


def test_two_sided_closure(ut2):
    # e12 spans a two-sided ideal on its own
    assert sorted(tl.two_sided_closure(ut2, [E12]).elements()) == [0, E12]
    # e11 does not: closure picks up e12
    assert sorted(tl.two_sided_closure(ut2, [E11]).elements()) == [0, E12, E11, E11 + E12]
    for g in (8, -1):
        with pytest.raises(ValueError, match=f"generator {g} out of range for UT2"):
            tl.two_sided_closure(ut2, [g])


@pytest.mark.parametrize("spec", ["Z(4)", "Z(6)", "UT2(2)", "prod(Z(2),Z(2))"])
def test_an_ideal_given_by_its_bits_is_checked_by_its_walk(spec):
    # every subset: the left ideals and the two-sided ones are accepted with
    # their canonical generators, every other subset raises ValueError
    ring = tl.parse_ring_spec(spec)
    left = {a.bits: a for a in tl.all_left_ideals(ring)}
    two_sided = {bits for bits, a in left.items() if tl.is_two_sided(a)}
    for bits in range(1 << ring.order):
        with time_limit(10):
            for cls, accepted in ((tl.LeftIdeal, left), (tl.TwoSidedIdeal, two_sided)):
                if bits in accepted:
                    ideal = cls(ring, bits=bits)
                    assert (ideal.bits, ideal.generators) == (bits, left[bits].generators)
                else:
                    with pytest.raises(ValueError):
                        cls(ring, bits=bits)


def test_an_ideal_is_given_by_its_generators_or_its_bits_not_both(ut2):
    with pytest.raises(TypeError, match="not both"):
        tl.LeftIdeal(ut2, [E11, E12], A_BITS)


@pytest.mark.parametrize("spec", [*BUILTIN8, "UT2(3)", "quot(M2(3),0)"])
def test_two_sided_closure_matches_the_fixpoint_loop(spec):
    ring = tl.parse_ring_spec(spec)
    rng = random.Random(spec)
    for _ in range(20):
        gens = [rng.randrange(ring.order) for _ in range(rng.randint(0, 3))]
        ideal = tl.two_sided_closure(ring, gens)
        assert (ideal.generators, ideal.bits) == reference_two_sided_closure(ring, gens)


def test_subsets_are_equal_on_one_structure_and_the_same_bits(ut2):
    # equality and hash across LeftIdeal, TwoSidedIdeal and Submodule: a
    # left ideal is no submodule of the regular module, another object
    reg = tl.regular_module(ut2)
    other = tl.parse_ring_spec("UT2(2)")
    subsets = {
        "left": tl.left_ideal_closure(ut2, [E11, E12]),
        "left-by-bits": tl.LeftIdeal(ut2, bits=A_BITS),
        "two-sided": tl.two_sided_closure(ut2, [E11]),
        "left-other-bits": tl.LeftIdeal(ut2, bits=RE22_BITS),
        "left-other-ring": tl.LeftIdeal(other, bits=A_BITS),
        "submodule": tl.Submodule(reg, A_BITS),
        "submodule-again": tl.Submodule(reg, A_BITS, _trusted=True),
    }
    classes = [{"left", "left-by-bits", "two-sided"}, {"left-other-bits"},
               {"left-other-ring"}, {"submodule", "submodule-again"}]
    assert subsets["two-sided"].bits == A_BITS
    for (p, a), (q, b) in itertools.product(subsets.items(), repeat=2):
        equal = any({p, q} <= c for c in classes)
        assert (a == b, a != b) == (equal, not equal), (p, q)
        if equal:
            assert hash(a) == hash(b), (p, q)
    assert len(set(subsets.values())) == len(classes)


# -- quotients --------------------------------------------------------------

def test_quotient_z4_by_2_is_gf2(z4, gf2):
    ideal = tl.as_two_sided(tl.left_ideal_closure(z4, [2]))
    quot, proj = tl.quotient_ring(z4, ideal)
    assert quot.order == 2
    assert quot.add == gf2.add and quot.mul == gf2.mul
    assert proj == (0, 1, 0, 1)


def test_quotient_ut2_by_a(ut2):
    a = tl.as_two_sided(tl.left_ideal_closure(ut2, [E11, E12]))
    quot, proj = tl.quotient_ring(ut2, a)
    assert quot.order == 2
    assert proj[E22] == quot.one


def test_quotient_by_full_ideal_is_degenerate(z4):
    full = tl.as_two_sided(tl.left_ideal_closure(z4, [1]))
    quot, _ = tl.quotient_ring(z4, full)
    assert quot.order == 1
    assert quot.zero == quot.one


@pytest.mark.parametrize("spec", ["Z(4)", "UT2(2)", "prod(UT2(2),UT2(2))", "prod(Z(17),Z(17))"])
def test_the_quotient_by_zero_shares_the_ring_tables(monkeypatch, spec):
    ring = tl.parse_ring_spec(spec)
    zero = tl.two_sided_closure(ring, [ring.zero])
    checks = []
    monkeypatch.setattr(rings, "check_map", lambda *args, **kwargs: checks.append(args))
    quot, proj = tl.quotient_ring(ring, zero)
    assert checks == []
    assert quot is not ring and quot.name == f"{ring.name}/{zero.describe()}"
    for slot in ("add_flat", "mul_flat", "add", "mul", "neg"):
        assert getattr(quot, slot) is getattr(ring, slot), slot
    assert (quot.order, quot.zero, quot.one) == (ring.order, ring.zero, ring.one)
    assert list(proj) == list(range(ring.order))
    # its own element names, one "[x]" per element, and its own cache
    names = {f"[{ring.element_name(x)}]": x for x in range(ring.order)}
    assert quot._names == {**names, "0": ring.zero, "1": ring.one}
    assert quot._cache == {} and ring._cache[("quot", zero.bits)] == (quot, proj)
    one = f"[{ring.element_name(ring.one)}]"
    assert quot.resolve(one) == ring.one and quot.element_name(ring.one) == one
    assert tl.quotient_ring(ring, zero)[0] is quot
    assert [a.bits for a in tl.all_left_ideals(quot)] == \
        [a.bits for a in tl.all_left_ideals(ring)]


def test_quotient_rejects_one_sided(ut2):
    e11_only = tl.left_ideal_closure(ut2, [E11])
    with pytest.raises(ValueError):
        tl.quotient_ring(ut2, e11_only)


@pytest.mark.parametrize("spec,gens", [
    ("Z(8)", [4]), ("Z(12)", [3]), ("UT2(2)", [E11, E12]),
    ("prod(Z(2),Z(4))", [1]),
])
def test_quotient_projection_is_homomorphism(spec, gens):
    ring = tl.parse_ring_spec(spec)
    ideal = tl.two_sided_closure(ring, gens)
    quot, proj = tl.quotient_ring(ring, ideal)
    assert ring.order == quot.order * len(ideal)
    for x in range(ring.order):
        for y in range(ring.order):
            assert proj[ring.add[x][y]] == quot.add[proj[x]][proj[y]]
            assert proj[ring.mul[x][y]] == quot.mul[proj[x]][proj[y]]
    assert proj[ring.one] == quot.one
    assert sorted(set(proj)) == list(range(quot.order))
    kernel = [x for x in range(ring.order) if proj[x] == quot.zero]
    assert kernel == ideal.elements()


# -- idempotent generators ---------------------------------------------------

def test_idempotent_generator_examples(z6):
    three = tl.left_ideal_closure(z6, [3])
    assert tl.idempotent_generator(z6, three) == 3
    two = tl.left_ideal_closure(z6, [2])
    assert tl.idempotent_generator(z6, two) == 4
    full = tl.left_ideal_closure(z6, [1])
    assert tl.idempotent_generator(z6, full) == 1


def test_idempotent_generator_postconditions(z6):
    for gens in ([2], [3], [1]):
        ideal = tl.left_ideal_closure(z6, gens)
        e = tl.idempotent_generator(z6, ideal)
        assert z6.mul[e][e] == e
        assert tl.left_ideal_closure(z6, [e]).bits == ideal.bits


def test_idempotent_generator_preconditions(z4, ut2):
    two = tl.left_ideal_closure(z4, [2])  # (2)^2 = (0) != (2)
    with pytest.raises(ValueError):
        tl.idempotent_generator(z4, two)
    a = tl.left_ideal_closure(ut2, [E11, E12])
    with pytest.raises(ValueError):
        tl.idempotent_generator(ut2, a)  # noncommutative ring


# -- ring-spec language -------------------------------------------------------

def test_parse_nested_specs():
    ring = tl.parse_ring_spec("prod(Z(2),prod(Z(2),Z(2)))")
    assert ring.order == 8
    assert ring.is_commutative()
    quot = tl.parse_ring_spec("quot(UT2(2),e11,e12)")
    assert quot.order == 2


def test_parse_errors_have_positions():
    for bad in ["Z(x)", "prod(Z(2)", "frob(3)", "Z(4) junk", ""]:
        with pytest.raises(RingSpecError):
            tl.parse_ring_spec(bad)


@pytest.mark.parametrize("spec", [*tl.BUILTIN_SPECS, "GF(7)", "UT2(3)", "M2(3)",
                                  "prod(GF(3),prod(UT2(2),M2(2)))", " prod( Z(3) ,Z(5) ) "])
def test_a_spec_gives_its_order_before_the_ring_is_built(spec):
    assert spec_order(spec) == tl.parse_ring_spec(spec).order


@pytest.mark.parametrize("spec", ["quot(UT2(2),e12)", "table:ring.json",
                                  "prod(Z(2),quot(Z(4),2))"])
def test_the_order_of_a_quotient_or_table_spec_is_not_read_off_it(spec):
    with pytest.raises(RingSpecError, match="known only once it is built"):
        spec_order(spec)


def test_builtin_rings_builds_only_the_rings_it_returns(monkeypatch):
    built = []
    parse = ringspec.parse_ring_spec
    monkeypatch.setattr(ringspec, "_builtin_cache", {})
    monkeypatch.setattr(ringspec, "parse_ring_spec",
                        lambda spec: built.append(spec) or parse(spec))
    pairs = tl.builtin_rings(8)
    assert [spec for spec, _ in pairs] == built
    assert len(built) == 12 and all(ring.order <= 8 for _, ring in pairs)
    assert tl.builtin_rings(8) == pairs and len(built) == 12  # served from the cache


def test_table_file_round_trip(tmp_path, z6):
    import json
    path = tmp_path / "ring.json"
    doc = {"order": 6, "add": [list(r) for r in z6.add],
           "mul": [list(r) for r in z6.mul], "zero": 0, "one": 1}
    path.write_text(json.dumps(doc))
    ring = tl.parse_ring_spec(f"table:{path}")
    assert ring.add == z6.add and ring.mul == z6.mul


def test_table_file_positioned_errors(tmp_path):
    import json
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "add": [[0, 1], [1, "x"]],
                                "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1}))
    with pytest.raises(RingSpecError) as err:
        tl.parse_ring_spec(f"table:{path}")
    assert "$.add[1][1]" in str(err.value)


def test_format_quasiidentity(z4, ut2):
    full = tl.left_ideal_closure(z4, [1])
    assert tl.format_quasiidentity(full) == "(1x=0)→(x=0)"
    a = tl.left_ideal_closure(ut2, [E11, E12])
    assert tl.format_quasiidentity(a) == \
        "(e11·x=0)∧(e12·x=0)→(x=0)"
