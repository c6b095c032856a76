"""Every "which x does this row send into S" question is answered by one
bitset preimage, ``rings.preimage``.

The per-element loops these functions ran before are kept here verbatim
as the reference (``reference_*``), and the preimage routes must agree
with them on generated modules, ideals, subsets and families: quotients
of R and R^2 of the builtin rings of order <= 8, quotient rings, an
ideal with no generators, an order-1 module and a module above 256
elements.  The member scan that checked a ``Submodule`` given by its bits
is now the oracle ``conftest.scan_closure_witness``: the constructor's
walk must reject exactly the subsets it names a witness for.
"""

import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab import _core_py, kernels, modules, rings
from torsionlab.classify import _annihilates, _preimage_ideal
from torsionlab.errors import InvariantError
from torsionlab.rings import (_product_bits, all_left_ideals, greedy_generators,
                              left_ideal_closure)
from torsionlab.torsion import AxiomViolation, TorsionNotion

from conftest import BUILTIN8, reference_preimage, scan_closure_witness

NONCOMMUTATIVE = ["M2(2)", "prod(UT2(2),Z(2))"]


# -- the reference loops -----------------------------------------------------

def reference_preimage_loop(row, bits):
    got = 0
    for x, v in enumerate(row):
        if bits >> v & 1:
            got |= 1 << x
    return got


def reference_satisfies_quasiidentity(module, ideal):
    if ideal.ring is not module.ring:
        raise ValueError("quasiidentity over a different ring")
    zero = module.zero
    rows = [module.act[g] for g in ideal.generators]
    for x in range(module.order):
        if x == zero:
            continue
        if all(row[x] == zero for row in rows):
            return False
    return True


def reference_quasi_closure(module, ideal, sub_bits):
    rows = [module.act[g] for g in ideal.generators]
    bits = 0
    for x in range(module.order):
        if all(sub_bits >> row[x] & 1 for row in rows):
            bits |= 1 << x
    return bits


def reference_regularity_witness(ideal):
    ring = ideal.ring
    for r in range(ring.order):
        if r == ring.zero:
            continue
        if all(ring.mul[g][r] == ring.zero for g in ideal.generators):
            return r
    return None


def reference_check_torsion_axioms(ring, family):
    seen = {}
    for a in family:
        if a.ring is not ring:
            raise ValueError("family contains an ideal over a different ring")
        seen.setdefault(a.bits, a)
    fam = tuple(seen[b] for b in sorted(seen))
    if not fam:
        return AxiomViolation(1, ring, fam, {}, "family is empty")
    fam_bits = set(seen)
    ideals = all_left_ideals(ring)

    for a in fam:
        for b in ideals:
            if a.bits & ~b.bits == 0 and b.bits not in fam_bits:
                return AxiomViolation(
                    1, ring, fam, {"member": a, "superset": b},
                    f"{a.describe()} is a member but its superset {b.describe()} is not")

    for i, a in enumerate(fam):
        for b in fam[i:]:
            target = a.bits & b.bits
            if not any(c.bits & ~target == 0 for c in fam):
                return AxiomViolation(
                    2, ring, fam, {"left": a, "right": b},
                    f"no member lies inside {a.describe()} and {b.describe()}")

    for a in fam:
        for b in fam:
            prod = _product_bits(ring, a.generators, b.generators)
            if prod not in fam_bits:
                full = _product_bits(ring, a.elements(), b.elements())
                reading = "generators" if full in fam_bits else "both"
                return AxiomViolation(
                    3, ring, fam,
                    {"left": a, "right": b, "product_bits": prod,
                     "full_product_bits": full, "reading": reading},
                    f"product of {a.describe()} and {b.describe()} generates an ideal "
                    f"outside the family (reading: {reading})")

    for a in fam:
        for r in range(ring.order):
            if not any(all(ring.mul[g][r] in a for g in b.generators) for b in fam):
                return AxiomViolation(
                    4, ring, fam, {"member": a, "scalar": r},
                    f"no member B with B*{ring.element_name(r)} inside {a.describe()}")

    for a in fam:
        r = reference_regularity_witness(a)
        if r is not None:
            return AxiomViolation(
                5, ring, fam, {"member": a, "scalar": r},
                f"{a.describe()} * {ring.element_name(r)} = 0 "
                f"but {ring.element_name(r)} != 0")

    if any(fam[0].bits & ~b.bits for b in fam):
        raise InvariantError(f"a family over {ring.name} passed the axioms "
                             f"without a least member")
    return TorsionNotion(ring, fam, validated=True)


def reference_annihilates(ideal, module):
    zero = module.zero
    return all(v == zero for g in ideal.generators for v in module.act[g])


def reference_preimage_ideal(ring, projection, quot_ideal):
    bits = 0
    for x in range(ring.order):
        if quot_ideal.bits >> projection[x] & 1:
            bits |= 1 << x
    return left_ideal_closure(ring, greedy_generators(ring, bits))


def reference_closure_witness(module, bits):
    if not bits >> module.zero & 1:
        return ("zero",)
    elems = list(tl.kernels.bits_of(bits))
    for x in elems:
        row = module.add[x]
        for y in elems:
            if not bits >> row[y] & 1:
                return ("add", x, y)
    for r in range(module.ring.order):
        row = module.act[r]
        for x in elems:
            if not bits >> row[x] & 1:
                return ("act", r, x)
    return None


def reference_right_closure_witness(ideal):
    ring = ideal.ring
    for a in ideal:
        row = ring.mul[a]
        for r in range(ring.order):
            if not ideal.bits >> row[r] & 1:
                return (a, r)
    return None


# -- helpers -----------------------------------------------------------------

def ideals_with_empty(ring):
    """Every left ideal, and the zero ideal once more with no generators."""
    return [*all_left_ideals(ring), left_ideal_closure(ring, [])]


def assert_module_routes_agree(module, ideal, sub_bits):
    assert modules.quasi_closure(module, ideal, sub_bits) == \
        reference_quasi_closure(module, ideal, sub_bits)
    assert tl.satisfies_quasiidentity(module, ideal) == \
        reference_satisfies_quasiidentity(module, ideal)
    assert _annihilates(ideal, module) == reference_annihilates(ideal, module)


def assert_ring_routes_agree(ideal):
    assert tl.regularity_witness(ideal) == reference_regularity_witness(ideal)
    assert rings._right_closure_witness(ideal) == reference_right_closure_witness(ideal)


def verdict(result):
    """What a caller can see of a checker result."""
    if isinstance(result, TorsionNotion):
        return ("notion", result.key(), result.validated)
    return (result.axiom, result.message, result.to_json())


# -- preimage ----------------------------------------------------------------

@pytest.mark.parametrize("row, bits, order, expected", [
    ([0], 1, 1, 1),
    ([0], 0, 1, 0),
    ([0, 0, 0], 1, 1, 0b111),
    ([2, 0, 1, 2], 0b101, 3, 0b1011),
    ([1, 1], 0b01, 2, 0),
    ([3, 2, 1, 0], 0b1111, 4, 0b1111),
    (list(range(300)), 1 << 299 | 1 << 256 | 1, 300, 1 << 299 | 1 << 256 | 1),
    ((3,), 0b1000, 4, 1),               # a one-entry row, as a tuple
    (range(299, 300), 1 << 299, 300, 1),
    (range(0, 257, 2), 1 << 256 | 1, 257, 1 << 128 | 1),
])
def test_preimage_cases(row, bits, order, expected):
    assert rings.preimage(row, bits, order) == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_preimage_matches_reference(data):
    order = data.draw(st.integers(1, 300))
    row = data.draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=300))
    bits = data.draw(st.integers(0, (1 << order) - 1))
    assert rings.preimage(row, bits, order) == reference_preimage_loop(row, bits)


@st.composite
def preimage_rows(draw, order):
    """A nonempty row of indices 0..order-1 as a tuple, a list or a
    ``range``, often one entry long."""
    kind = draw(st.sampled_from(["tuple", "list", "range"]))
    if kind == "range":
        start = draw(st.integers(0, order - 1))
        stop = draw(st.sampled_from([start + 1, order]))
        return range(start, stop, draw(st.integers(1, max(1, stop - start))))
    size = draw(st.sampled_from([1, 1, 2, order, 300]))
    row = draw(st.lists(st.integers(0, order - 1), min_size=size, max_size=size))
    return tuple(row) if kind == "tuple" else row


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_preimage_matches_the_map_route(data):
    order = data.draw(st.sampled_from([1, 2, 255, 256, 257, 300]) | st.integers(1, 300))
    row = data.draw(preimage_rows(order))
    full = (1 << order) - 1
    bits = data.draw(st.sampled_from([0, full]) | st.integers(0, full))
    assert rings.preimage(row, bits, order) == reference_preimage(row, bits, order)


@functools.lru_cache(maxsize=None)
def stored_byte_tables():
    """The stored ``bytes`` flat tables of rings on both sides of the
    orders where one byte holds every index, up to 256, as
    ``(order, table)``."""
    built = [tl.parse_ring_spec(spec) for spec in
             ("Z(1)", "Z(2)", "UT2(2)", "prod(UT2(2),UT2(2))", "UT2(5)")]
    built += [tl.cyclic_ring(255), tl.cyclic_ring(256)]
    return tuple((ring.order, table) for ring in built for table in (ring.add_flat, ring.mul_flat))


@st.composite
def membership_rows(draw):
    """``(row, order)``: a nonempty slice of a stored byte table, or a row
    of indices drawn for an order of 1 to 257, 255 to 257 often."""
    if draw(st.booleans()):
        order, table = draw(st.sampled_from(stored_byte_tables()))
        start = draw(st.integers(0, len(table) - 1))
        stop = draw(st.sampled_from([start + 1, min(len(table), start + order),
                                     len(table)]))
        return table[start:stop], order
    order = draw(st.sampled_from([1, 2, 255, 256, 257]) | st.integers(1, 257))
    size = draw(st.sampled_from([1, 2, order, 300]))
    return draw(st.lists(st.integers(0, order - 1), min_size=size, max_size=size)), order


@settings(max_examples=400, derandomize=True, deadline=None)
@given(membership_rows(), st.data())
def test_preimage_routes_agree(drawn, data):
    # the byte route reads a bytes row up to 256 elements by translate,
    # the itemgetter route every other row; the references read entries
    row, order = drawn
    full = (1 << order) - 1
    bits = data.draw(st.sampled_from([0, full]) | st.integers(0, full))
    want = reference_preimage_loop(row, bits)
    assert reference_preimage(row, bits, order) == want
    assert rings.preimage(tuple(row), bits, order) == want
    if order <= rings.BYTE_ORDER_LIMIT:
        assert rings.preimage(bytes(row), bits, order) == want
    assert rings.preimage(row, bits, order) == want


# -- modules -----------------------------------------------------------------

@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(BUILTIN8), st.sampled_from([1, 2]), st.data())
def test_module_routes_match_reference_on_quotients(spec, k, data):
    ring = tl.parse_ring_spec(spec)
    parent = tl.power_module(ring, k)
    module = tl.quotient_module(parent, data.draw(st.sampled_from(tl.all_submodules(parent))))
    sub = data.draw(st.sampled_from(tl.all_submodules(module)))
    ideal = data.draw(st.sampled_from(ideals_with_empty(ring)))
    assert_module_routes_agree(module, ideal, sub.bits)


@pytest.mark.parametrize("spec", ["Z(1)", "Z(4)", "UT2(2)"])
def test_module_routes_match_reference_on_an_order_one_module(spec):
    ring = tl.parse_ring_spec(spec)
    module = tl.power_module(ring, 0)
    assert module.order == 1
    for ideal in ideals_with_empty(ring):
        assert_module_routes_agree(module, ideal, 1)
        assert modules.quasi_closure(module, ideal, 1) == 1


def test_module_routes_match_reference_above_256_elements():
    ring = tl.parse_ring_spec("Z(17)")
    module = tl.power_module(ring, 2)
    assert module.order == 289
    subs = tl.all_submodules(module)
    quot = tl.quotient_module(module, subs[1])
    for ideal in ideals_with_empty(ring):
        for sub in subs[:4] + subs[-2:]:
            assert_module_routes_agree(module, ideal, sub.bits)
        assert_module_routes_agree(quot, ideal, 1 << quot.zero)


def near_submodules(module, subs, flips):
    """Each of ``subs`` with the elements listed in ``flips`` toggled."""
    for sub in subs:
        bits = sub.bits
        for x in flips:
            bits ^= 1 << x
        yield bits


def assert_closure_witness_agrees(module, bits):
    """The member scan agrees with the loop reference, and ``Submodule``
    rejects exactly the subsets the scan names a witness for, naming an
    element that the members span but that is no member."""
    got = scan_closure_witness(module, bits)
    assert got == reference_closure_witness(module, bits)
    if got is None:
        assert tl.Submodule(module, bits).bits == bits
        return None
    with pytest.raises(ValueError, match="not closed") as err:
        tl.Submodule(module, bits)
    w = int(re.search(r"holds (\d+),", str(err.value)).group(1))
    span = kernels.span_closure(module.order, module.ring.order, module.add_flat,
                                module.act_flat, module.zero, kernels.bits_of(bits))
    assert span >> w & 1 and not bits >> w & 1
    return got[0]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(BUILTIN8), st.sampled_from([1, 2]), st.data())
def test_closure_witness_matches_reference_on_generated_subsets(spec, k, data):
    ring = tl.parse_ring_spec(spec)
    parent = tl.power_module(ring, k)
    module = tl.quotient_module(parent, data.draw(st.sampled_from(tl.all_submodules(parent))))
    sub = data.draw(st.sampled_from(tl.all_submodules(module)))
    flips = data.draw(st.lists(st.integers(0, module.order - 1), max_size=3))
    for bits in near_submodules(module, [sub], flips):
        assert_closure_witness_agrees(module, bits)
    assert_closure_witness_agrees(module, data.draw(st.integers(0, (1 << module.order) - 1)))


@pytest.mark.parametrize("spec", ["Z(1)", "Z(4)", "UT2(2)", "prod(Z(2),Z(2))"])
def test_closure_witness_matches_reference_on_every_subset(spec):
    module = tl.regular_module(tl.parse_ring_spec(spec))
    kinds = {assert_closure_witness_agrees(module, bits) for bits in range(1 << module.order)}
    if spec == "UT2(2)":  # an additive subgroup that is no left ideal gives "act"
        assert kinds == {None, "zero", "add", "act"}


def test_closure_witness_matches_reference_above_256_elements():
    module = tl.power_module(tl.parse_ring_spec("Z(17)"), 2)
    subs = tl.all_submodules(module)
    for flips in ([], [0], [1], [18, 40], [288]):
        for bits in near_submodules(module, subs, flips):
            assert_closure_witness_agrees(module, bits)


def test_an_ideal_without_generators_closes_to_the_whole_module():
    ring = tl.parse_ring_spec("Z(4)")
    empty = left_ideal_closure(ring, [])
    assert empty.generators == ()
    module = tl.power_module(ring, 2)
    full = (1 << module.order) - 1
    assert modules.quasi_closure(module, empty, 1 << module.zero) == full
    assert not tl.satisfies_quasiidentity(module, empty)
    assert _annihilates(empty, module)


# -- rings -------------------------------------------------------------------

def quotient_rings(spec):
    """(R/I, projection) for every two-sided ideal I of the ring."""
    ring = tl.parse_ring_spec(spec)
    out = []
    for ideal in all_left_ideals(ring):
        two_sided = rings.as_two_sided(ideal)
        if two_sided is not None:
            out.append(rings.quotient_ring(ring, two_sided))
    return ring, out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(BUILTIN8 + NONCOMMUTATIVE), st.data())
def test_ring_routes_match_reference_on_quotient_rings(spec, data):
    ring, quotients = quotient_rings(spec)
    quot, projection = data.draw(st.sampled_from(quotients))
    for r in (ring, quot):
        assert_ring_routes_agree(data.draw(st.sampled_from(ideals_with_empty(r))))
    quot_ideal = data.draw(st.sampled_from(ideals_with_empty(quot)))
    assert _preimage_ideal(ring, projection, quot_ideal) == \
        reference_preimage_ideal(ring, projection, quot_ideal)


@pytest.mark.parametrize("spec", BUILTIN8 + NONCOMMUTATIVE + ["UT2(3)"])
def test_ring_routes_match_reference_on_every_ideal(spec):
    ring, quotients = quotient_rings(spec)
    for r in [ring] + [quot for quot, _ in quotients]:
        for ideal in ideals_with_empty(r):
            assert_ring_routes_agree(ideal)


@pytest.mark.parametrize("spec", [spec for spec, _ in tl.builtin_rings(16)])
def test_right_closure_reads_any_generator_list(spec):
    """Every left ideal rebuilt from its members, shuffled, each twice,
    and as redundant members ahead of its generators: the verdict is the
    member scan's, and a witness (g, r) has g in I and g * r outside."""
    ring = tl.parse_ring_spec(spec)
    rng = random.Random(spec)
    for ideal in all_left_ideals(ring):
        closed = reference_right_closure_witness(ideal) is None
        members = ideal.elements()
        shuffled = rng.sample(members, len(members))
        extra = rng.sample(members, rng.randint(1, len(members)))
        for gens in (shuffled, [x for x in shuffled for _ in "ab"],
                     extra + list(ideal.generators)):
            rebuilt = tl.LeftIdeal(ring, gens)
            assert rebuilt.bits == ideal.bits
            assert rings.is_two_sided(rebuilt) == closed
            two_sided = rings.as_two_sided(rebuilt)
            assert (two_sided is not None) == closed
            assert two_sided is None or two_sided.bits == ideal.bits
            w = rings._right_closure_witness(rebuilt)
            assert (w is None) == closed
            if w is not None:
                g, r = w
                assert g in rebuilt and ring.mul[g][r] not in rebuilt


@pytest.mark.parametrize("spec", BUILTIN8 + NONCOMMUTATIVE + ["UT2(3)"])
def test_torsion_axioms_match_reference_on_every_principal_filter(spec):
    """Principal filters reach every axiom after (2); the zero ideal is
    also given with no generators, which the checker keeps when it comes
    first."""
    ring = tl.parse_ring_spec(spec)
    ideals = all_left_ideals(ring)
    empty = left_ideal_closure(ring, [])
    seen = set()
    for a in ideals:
        fam = [b for b in ideals if a.bits & ~b.bits == 0]
        for family in [fam] + ([[empty] + fam] if a.bits == empty.bits else []):
            got = verdict(tl.check_torsion_axioms(ring, family))
            assert got == verdict(reference_check_torsion_axioms(ring, family))
            seen.add(got[0])
    if spec in ("UT2(2)", "M2(2)"):
        assert {3, 4, 5, "notion"} <= seen


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(BUILTIN8 + NONCOMMUTATIVE), st.data())
def test_torsion_axioms_match_reference_on_generated_families(spec, data):
    ring = tl.parse_ring_spec(spec)
    ideals = ideals_with_empty(ring)
    family = data.draw(st.lists(st.sampled_from(ideals), max_size=6))
    if data.draw(st.booleans()):  # close upwards, so axiom (1) holds
        family = [b for b in ideals if any(a.bits & ~b.bits == 0 for a in family)]
    assert verdict(tl.check_torsion_axioms(ring, family)) == \
        verdict(reference_check_torsion_axioms(ring, family))


# -- relabeling ----------------------------------------------------------------
# Each closure question is one preimage, read by the byte route on stored
# tables up to 256 elements.  Renaming the elements, zero moved off index
# 0, must rename every answer the same way.

def relabeled(ring, perm):
    """``ring`` with each element x renamed ``perm[x]``, built from input
    tables and so checked in full."""
    n = ring.order
    back = sorted(range(n), key=perm.__getitem__)  # back[perm[x]] = x
    add, mul = ([[perm[table[back[a]][back[b]]] for b in range(n)] for a in range(n)]
                for table in (ring.add, ring.mul))
    return tl.FiniteRing(n, add, mul, perm[ring.zero], perm[ring.one],
                         name=f"relabeled {ring.name}")


def renamed(bits, perm):
    return sum(1 << perm[x] for x in kernels.bits_of(bits))


def closure_answers(ring, module):
    """Every closure answer on ``module``, by bitsets: quasi_closure for
    each left ideal and submodule, then per torsion notion (by its least
    member) torsion-freeness, and on a torsion-free module each
    relative closure and the weak extension witness."""
    subs = tl.all_submodules(module)
    ideals = tl.all_left_ideals(ring)
    answers = {("quasi", a.bits, s.bits): modules.quasi_closure(module, a, s.bits)
               for a in ideals for s in subs}
    for notion in tl.enumerate_torsion_notions(ring):
        least = notion.least.bits
        free = answers["free", least] = tl.is_torsion_free(notion, module)
        if free:
            for s in subs:
                answers["relative", least, s.bits] = tl.relative_closure(notion, module, s).bits
            w = tl.weak_extension_witness(notion, module)
            answers["wep", least] = w and (w[0].bits, w[1].bits)
    return answers


def is_wep_witness(module, ring, least, pair):
    """Whether ``pair`` of bitsets are submodules meeting in zero whose
    closures, for the notion with least member ``least``, meet beyond it."""
    zero = 1 << module.zero
    a = tl.LeftIdeal(ring, bits=least)
    s, t = pair
    return (s & t == zero and modules.quasi_closure(module, a, s)
            & modules.quasi_closure(module, a, t) != zero)


@pytest.mark.parametrize("spec", [spec for spec, ring in tl.builtin_rings(16) if ring.order > 1])
def test_closures_are_renamed_with_the_elements(monkeypatch, spec):
    monkeypatch.setattr(kernels, "enumerate_submodules", _core_py.enumerate_submodules)
    ring = tl.parse_ring_spec(spec)
    n = ring.order
    rng = random.Random(n)
    perm = list(range(n))
    while perm[ring.zero] == ring.zero:
        rng.shuffle(perm)
    other = relabeled(ring, perm)
    pairs = [(tl.regular_module(ring), tl.regular_module(other), perm)]
    if n <= 8:
        pairs.append((tl.power_module(ring, 2), tl.power_module(other, 2),
                      [perm[x // n] * n + perm[x % n] for x in range(n * n)]))
    assert all(sigma[module.zero] != module.zero for module, _, sigma in pairs)
    # and the quotients of R, some with torsion: coset k of S, of least
    # element r, is renamed the coset of perm[r]
    reg, reg_image = pairs[0][:2]
    for sub in tl.all_submodules(reg)[1:-1]:
        sub_image = tl.Submodule(reg_image, renamed(sub.bits, perm))
        reps, _ = rings.coset_representatives(n, reg.add, sub.elements())
        _, proj = rings.coset_representatives(n, reg_image.add, sub_image.elements())
        pairs.append((tl.quotient_module(reg, sub), tl.quotient_module(reg_image, sub_image),
                      [proj[perm[r]] for r in reps]))
    for module, image, sigma in pairs:
        assert type(module.act_flat) is bytes
        want = {}
        for key, got in closure_answers(ring, module).items():
            kind, least, *sub = key
            key = (kind, renamed(least, perm), *(renamed(s, sigma) for s in sub))
            if kind == "wep":
                got = got and tuple(renamed(s, sigma) for s in got)
            elif kind != "free":
                got = renamed(got, sigma)
            want[key] = got
        have = closure_answers(other, image)
        assert have.keys() == want.keys()
        for key, got in have.items():
            if key[0] == "wep" and got:  # the first pair in bitset order differs
                assert want[key] and is_wep_witness(image, other, key[1], want[key])
                assert is_wep_witness(image, other, key[1], got)
            else:
                assert got == want[key], key
