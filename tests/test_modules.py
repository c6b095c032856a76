"""Modules, submodule lattices, quasiidentity semantics, modularity."""

import itertools

import pytest

import torsionlab as tl
from torsionlab import kernels, modules, rings
from torsionlab.errors import InvariantError, TableError
from torsionlab.rings import coset_representatives

from conftest import A_BITS, E11, E12, UT2_IDEAL_BITS, reference_lattice_axioms


def test_regular_module_action_is_multiplication(z4):
    reg = tl.regular_module(z4)
    assert reg.act == z4.mul
    assert reg.order == 4


def test_direct_sum_componentwise(z4):
    reg = tl.regular_module(z4)
    square = tl.direct_sum(reg, reg)
    assert square.order == 16
    # (1,0) + (0,1) = (1,1); index encoding i1 * |M2| + i2
    assert square.add[1 * 4][1] == 1 * 4 + 1
    for r in range(4):
        assert square.act[r][1 * 4 + 2] == z4.mul[r][1] * 4 + z4.mul[r][2]


def test_power_module(z4):
    assert tl.power_module(z4, 1) is tl.regular_module(z4)
    assert tl.power_module(z4, 2).order == 16


def test_quotient_module_kills_the_submodule(ut2):
    reg = tl.regular_module(ut2)
    a = tl.Submodule(reg, A_BITS)
    quot = tl.quotient_module(reg, a)
    assert quot.order == 2
    for g in (E11, E12, E11 + E12):
        assert all(v == quot.zero for v in quot.act[g])


def test_quotient_module_canonical_reps(z8):
    reg = tl.regular_module(z8)
    sub = tl.submodule_closure(reg, [4])
    quot = tl.quotient_module(reg, sub)
    assert quot.order == 4
    # least representatives are 0..3, addition is mod 4
    assert quot.add[3][3] == 2


def reference_coset_representatives(order, add, members):
    """``coset_representatives`` as the least element of each x + S,
    taken separately for every x."""
    rep = [min(add[x][i] for i in members) for x in range(order)]
    reps = sorted(set(rep))
    new_index = {r: k for k, r in enumerate(reps)}
    return reps, tuple(new_index[r] for r in rep)


def test_coset_representatives_match_min_formula(builtin8):
    quotients = 0
    for _, ring in builtin8:
        for k in (1, 2):
            parent = tl.power_module(ring, k)
            for sub in tl.all_submodules(parent):
                args = (parent.order, parent.add, sub.elements())
                assert coset_representatives(*args) == reference_coset_representatives(*args)
                quotients += 1
    assert quotients > 500


def test_regular_module_checks_the_ring_tables_once(monkeypatch):
    calls = []
    check = rings.action_axiom_witness

    def counted(*args):
        calls.append(args[:2])
        return check(*args)

    monkeypatch.setattr(rings, "action_axiom_witness", counted)
    ring = tl.upper_triangular_ring(2)  # a fresh ring: no regular module cached
    assert calls == [(8, 8)]
    assert tl.regular_module(ring).act == ring.mul
    assert calls == [(8, 8)]
    # the same tables given as a module are checked; a direct sum is
    # checked through its coordinate maps instead
    tl.FiniteModule(ring, ring.order, ring.add, ring.mul, ring.zero)
    tl.power_module(ring, 2)
    assert calls == [(8, 8), (8, 8)]


def test_module_validation_rejects_broken_action(z4):
    act = [list(r) for r in z4.mul]
    act[1][2] = 3
    with pytest.raises(TableError):
        tl.FiniteModule(z4, 4, z4.add, act, 0)


@pytest.mark.parametrize("bad", [1.0, "1", None])
@pytest.mark.parametrize("name, axiom", [("add", "module-add-range"), ("act", "act-range")])
def test_module_rejects_a_non_integer_entry(z4, bad, name, axiom):
    tables = {"add": [list(row) for row in z4.add], "act": [list(row) for row in z4.mul]}
    tables[name][2][1] = bad
    with pytest.raises(TableError) as err:
        tl.FiniteModule(z4, 4, tables["add"], tables["act"], 0)
    assert (err.value.axiom, err.value.witness, str(err.value)) == \
        (axiom, (2, 1), f"{axiom.removesuffix('-range')}[2][1] = {bad!r} out of range")


def test_module_accepts_bool_entries(z4):
    # ``bool`` is an ``int`` subclass, as ``FiniteRing`` accepts it, in a
    # table and as the zero
    act = [list(row) for row in z4.mul]
    act[1][1] = True
    module = tl.FiniteModule(z4, 4, z4.add, act, False)
    assert (module.act, module.zero) == (z4.mul, 0)


@pytest.mark.parametrize("bad", [None, "0", 0.0, 1.5])
def test_module_rejects_a_non_integer_zero(z4, bad):
    with pytest.raises(TableError) as err:
        tl.FiniteModule(z4, 4, z4.add, z4.mul, bad)
    assert (err.value.axiom, err.value.witness, str(err.value)) == \
        ("module-zero-range", (bad,), "zero index out of range")


def test_zero_action_of_ut2_7_names_the_first_fixed_point():
    # every axiom but 1.x = x holds, and x = 0 is fixed
    ring = tl.upper_triangular_ring(7)
    zero_action = [[0] * ring.order] * ring.order
    with pytest.raises(TableError) as err:
        tl.FiniteModule(ring, ring.order, ring.add, zero_action, ring.zero)
    assert (err.value.axiom, err.value.witness) == ("one_act", (1, -1, -1))


def test_all_submodules_chain(z4):
    reg = tl.regular_module(z4)
    assert [s.bits for s in tl.all_submodules(reg)] == [1, 0b0101, 0b1111]


def test_all_submodules_of_regular_match_left_ideals(ut2):
    reg = tl.regular_module(ut2)
    assert [s.bits for s in tl.all_submodules(reg)] == list(UT2_IDEAL_BITS)


def test_zero_module_has_one_submodule(z4):
    reg = tl.regular_module(z4)
    zero_mod = tl.quotient_module(reg, tl.Submodule(reg, 0b1111))
    assert zero_mod.order == 1
    assert len(tl.all_submodules(zero_mod)) == 1


def test_submodule_closure_and_sum(ut2):
    reg = tl.regular_module(ut2)
    s = tl.submodule_closure(reg, [E11])
    t = tl.submodule_closure(reg, [E12])
    assert tl.submodule_sum(s, t).bits == A_BITS


@pytest.mark.parametrize("spec", ["Z(6)", "UT2(2)", "prod(Z(2),Z(2))"])
def test_submodule_sum_is_the_elementwise_sum(spec):
    square = tl.power_module(tl.parse_ring_spec(spec), 2)
    for s, t in itertools.product(tl.all_submodules(square), repeat=2):
        elementwise = 0
        for x in s:
            for y in t:
                elementwise |= 1 << square.add[x][y]
        assert tl.submodule_sum(s, t).bits == elementwise


def test_submodule_closure_rejects_generators_outside_the_module(z4):
    reg = tl.regular_module(z4)
    for g in (4, -1):
        with pytest.raises(ValueError, match=rf"generator {g} out of range for "):
            tl.submodule_closure(reg, [1, g])


def test_submodule_rejects_bits_outside_the_module(z4):
    reg = tl.regular_module(z4)
    for bits in (-1, 1 | 1 << 4):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            tl.Submodule(reg, bits)
    assert tl.Submodule(reg, 0b0101).bits == 0b0101


def test_power_module_rejects_a_negative_exponent():
    # a negative k once renamed the cached regular module "R^-1"
    ring = tl.parse_ring_spec("Z(4)")
    with pytest.raises(ValueError, match="exponent -1 is negative"):
        tl.power_module(ring, -1)
    assert tl.regular_module(ring).name == "R"
    assert ("power", -1) not in ring._cache
    assert all(not m.name.startswith("R^-") for m in tl.module_corpus(ring, 2))


def test_quotient_submodules_biject_with_overgroups(ut2, z8):
    for ring in (ut2, z8):
        reg = tl.regular_module(ring)
        subs = tl.all_submodules(reg)
        for s in subs:
            quot = tl.quotient_module(reg, s)
            _, proj = coset_representatives(reg.order, reg.add, s.elements())
            over = [t for t in subs if s.bits & ~t.bits == 0]
            images = set()
            for t in over:
                bits = 0
                for x in t:
                    bits |= 1 << proj[x]
                images.add(bits)
            assert len(images) == len(over)
            assert images == {q.bits for q in tl.all_submodules(quot)}


# -- quasiidentity semantics -------------------------------------------------

def test_satisfies_quasiidentity_examples(ut2):
    reg = tl.regular_module(ut2)
    a = tl.left_ideal_closure(ut2, [E11, E12])
    assert tl.satisfies_quasiidentity(reg, a)
    quot = tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    assert not tl.satisfies_quasiidentity(quot, a)
    zero_mod = tl.quotient_module(reg, tl.Submodule(reg, 255))
    assert tl.satisfies_quasiidentity(zero_mod, a)


def test_full_ideal_quasiidentity_always_holds(builtin8):
    for _, ring in builtin8:
        full = tl.left_ideal_closure(ring, [ring.one])
        for module in tl.module_corpus(ring, 2):
            assert tl.satisfies_quasiidentity(module, full)


def test_quasiidentity_antitone_in_the_ideal(ut2, z8):
    for ring in (ut2, z8):
        ideals = tl.all_left_ideals(ring)
        corpus = tl.module_corpus(ring, 2)
        for a, b in itertools.product(ideals, repeat=2):
            if a.bits & ~b.bits:
                continue  # need a <= b
            for module in corpus:
                if tl.satisfies_quasiidentity(module, a):
                    assert tl.satisfies_quasiidentity(module, b)


# -- annihilators -------------------------------------------------------------

def test_annihilator_examples(z4, ut2):
    reg4 = tl.regular_module(z4)
    z2_as_z4 = tl.quotient_module(reg4, tl.submodule_closure(reg4, [2]))
    assert sorted(tl.annihilator(z2_as_z4).elements()) == [0, 2]
    assert tl.annihilator(reg4).is_zero()
    reg = tl.regular_module(ut2)
    quot = tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    assert tl.annihilator(quot).bits == A_BITS


def test_annihilator_two_sided_over_corpus(builtin8):
    for _, ring in builtin8:
        for module in tl.module_corpus(ring, 2):
            ann = tl.annihilator(module)
            assert isinstance(ann, tl.TwoSidedIdeal)


# -- lattices ------------------------------------------------------------------

def test_pentagon_yields_witness():
    lat = tl.lattice_from_family([0b00000, 0b00010, 0b00110, 0b11000, 0b11110])
    w = tl.modularity_witness(lat)
    assert w is not None
    assert not tl.is_modular(lat)
    x, y, z = w
    assert lat.leq(x, z)
    k = lat.size
    assert lat.join[x * k + lat.meet[y * k + z]] != lat.meet[lat.join[x * k + y] * k + z]


def test_chains_are_modular():
    lat = tl.lattice_from_family([0b1, 0b11, 0b111, 0b1111])
    assert tl.is_modular(lat)


def test_submodule_lattices_are_modular(builtin8):
    for _, ring in builtin8:
        for module in tl.module_corpus(ring, 2):
            lat = tl.lattice_from_family([s.bits for s in tl.all_submodules(module)])
            assert tl.is_modular(lat)


def test_lattices_satisfy_the_reference_axioms(builtin8):
    for _, ring in builtin8:
        for module in tl.module_corpus(ring, 2):
            reference_lattice_axioms(
                tl.lattice_from_family([s.bits for s in tl.all_submodules(module)]))
    assert len(tl.lattice_from_family([])) == 0
    reference_lattice_axioms(tl.lattice_from_family([]))
    chain = tl.lattice_from_family([(1 << t) - 1 for t in range(1, 301)])
    assert len(chain) == 300  # above the 256 of the byte routes
    reference_lattice_axioms(chain)


def test_lattice_construction_calls_no_kernel(monkeypatch, ut2):
    families = [[s.bits for s in tl.all_submodules(tl.power_module(ut2, 2))],
                [(1 << t) - 1 for t in range(1, 301)], []]

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was called")

    for name, value in list(vars(kernels).items()):
        if callable(value) and not name.startswith("_") and name != "bits_of":
            monkeypatch.setattr(kernels, name, refuse)
    for family in families:
        assert len(tl.lattice_from_family(family)) == len(family)
    with pytest.raises(InvariantError):
        tl.lattice_from_family([0b0010, 0b0100, 0b0110])


def count_assoc_witness_calls(monkeypatch):
    calls = []
    check = rings._assoc_witness

    def counted(*args):
        calls.append(args[0])
        return check(*args)

    monkeypatch.setattr(rings, "_assoc_witness", counted)
    return calls


def test_valid_lattices_run_no_associativity_check(monkeypatch, ut2):
    square = tl.power_module(ut2, 2)
    subs = [s.bits for s in tl.all_submodules(square)]
    chain = [(1 << t) - 1 for t in range(1, 301)]
    calls = count_assoc_witness_calls(monkeypatch)
    assert len(tl.lattice_from_family(subs)) == len(subs)
    assert len(tl.lattice_from_family(chain)) == 300
    assert calls == []


def test_repeated_members_are_an_internal_fault():
    with pytest.raises(InvariantError, match="lattice members repeat"):
        tl.FiniteLattice([0b1, 0b1])


def test_submodule_family_closed_under_sum_and_intersection(ut2):
    square = tl.power_module(ut2, 2)
    subs = tl.all_submodules(square)
    bits = {s.bits for s in subs}
    for s, t in itertools.combinations(subs, 2):
        assert s.bits & t.bits in bits
        assert tl.submodule_sum(s, t).bits in bits


def test_module_table_file(tmp_path, z4):
    import json
    doc = {"ring": "Z(4)", "order": 2, "add": [[0, 1], [1, 0]],
           "act": [[0, 0], [0, 1], [0, 0], [0, 1]], "zero": 0}
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(doc))
    loaded = json.loads(path.read_text())
    module = tl.module_from_table(loaded, z4)
    assert module.order == 2
    assert tl.annihilator(module).elements() == [0, 2]


def test_a_module_document_names_its_ring(z4):
    # without a ring the document's "ring" key names it; with one, the
    # key must name a ring with its tables
    doc = {"ring": "Z(4)", "order": 2, "add": [[0, 1], [1, 0]],
           "act": [[0, 0], [0, 1], [0, 0], [0, 1]], "zero": 0}
    assert tl.module_from_table(doc, None).ring.mul == z4.mul
    assert tl.module_from_table(doc, z4).ring is z4
    with pytest.raises(tl.RingSpecError, match=r"'ring' must be a ring spec \(at \$\.ring\)"):
        tl.module_from_table({k: v for k, v in doc.items() if k != "ring"}, None)
    with pytest.raises(tl.RingSpecError, match=r"is not the ring Z\(6\)"):
        tl.module_from_table(doc, tl.parse_ring_spec("Z(6)"))


def test_module_corpus_contains_regular_and_square(z6):
    corpus = tl.module_corpus(z6, 2)
    orders = sorted(m.order for m in corpus)
    assert orders[-1] == 36  # R^2 itself (quotient by the zero submodule)
    assert any(m.order == 6 for m in corpus)


def test_corpus_names_do_not_depend_on_earlier_quotients():
    # a fresh ring, so no corpus is cached on it yet
    ring = tl.upper_triangular_ring(2)
    reg = tl.regular_module(ring)
    zero = tl.Submodule(reg, 1 << reg.zero)
    assert tl.quotient_module(reg, zero).name == "R/sub"
    corpus = tl.module_corpus(ring, 1)
    # R/s4 has the same tables as R/s3, so deduplication drops it
    assert [m.name for m in corpus] == ["R/s0", "R/s1", "R/s2", "R/s3", "R/s5", "R/s6"]
    assert tl.quotient_module(reg, zero).name == "R/sub"


def reference_module_corpus(ring, bound):
    """The corpus loop that built and map-checked every quotient before
    deduplicating, kept verbatim as the reference."""
    out = []
    seen = set()
    for k in range(1, bound + 1):
        parent = tl.power_module(ring, k)
        for i, sub in enumerate(tl.all_submodules(parent)):
            quot = tl.quotient_module(parent, sub, name=f"{parent.name}/s{i}")
            sig = (quot.order, quot.add_flat, quot.act_flat, quot.zero)
            if sig not in seen:
                seen.add(sig)
                out.append(quot)
    return out


TABLE_SLOTS = ("add", "act", "add_flat", "act_flat", "neg")


def assert_shares_tables(quot, parent):
    """``quot`` holds ``parent``'s table objects, not copies, and its own cache."""
    assert all(getattr(quot, slot) is getattr(parent, slot) for slot in TABLE_SLOTS)
    assert (quot.ring, quot.order, quot.zero) == (parent.ring, parent.order, parent.zero)
    assert quot._cache is not parent._cache


@pytest.mark.parametrize("spec, k", [("Z(4)", 1), ("Z(4)", 2), ("UT2(2)", 1), ("UT2(2)", 2),
                                     ("Z(17)", 1), ("Z(17)", 2)])
def test_a_quotient_by_zero_shares_its_parents_tables(monkeypatch, spec, k):
    ring = tl.parse_ring_spec(spec)
    parent = tl.power_module(ring, k)
    subs = tl.all_submodules(parent)
    calls = []
    check = modules.check_map

    def counted(what, *args, **kwargs):
        calls.append(what)
        return check(what, *args, **kwargs)

    monkeypatch.setattr(modules, "check_map", counted)
    quot = tl.quotient_module(parent, subs[0], name="M/0")
    assert subs[0].bits == 1 << parent.zero
    assert quot.name == "M/0" and parent.name == ("R" if k == 1 else "R^2")
    assert_shares_tables(quot, parent)
    assert calls == []
    got = tl.all_submodules(quot)
    assert [s.bits for s in got] == [s.bits for s in subs]
    assert all(s.module is quot for s in got)
    # a zero submodule is only the zero of its own module
    for other in (quot, tl.power_module(ring, 3 - k)):
        with pytest.raises(ValueError, match="different module"):
            tl.quotient_module(parent, tl.Submodule(other, 1 << other.zero))
    if k == 1:  # the regular module shares the ring's own tables
        own = (ring.add, ring.mul, ring.add_flat, ring.mul_flat, ring.neg)
        assert all(getattr(parent, slot) is t for slot, t in zip(TABLE_SLOTS, own))


def test_corpus_checks_each_kept_quotient_once(monkeypatch):
    calls = []
    check = modules.check_map

    def counted(what, *args, **kwargs):
        calls.append(what)
        return check(what, *args, **kwargs)

    monkeypatch.setattr(modules, "check_map", counted)
    ring = tl.parse_ring_spec("UT2(2)")
    corpus = tl.module_corpus(ring, 2)
    # one check per kept quotient but R/s0 and R^2/s0, which derive no
    # table and share their parent's, and R^2's two coordinate maps
    assert len(corpus) == 41
    assert len(calls) == 41
    by_zero = {"R/s0": tl.power_module(ring, 1), "R^2/s0": tl.power_module(ring, 2)}
    assert [c for c in calls if c.startswith("quotient")] == \
        [f"quotient module {m.name}" for m in corpus if m.name not in by_zero]
    for quot in corpus:
        if quot.name in by_zero:
            assert_shares_tables(quot, by_zero[quot.name])
    del calls[:]
    assert len(reference_module_corpus(tl.parse_ring_spec("UT2(2)"), 2)) == 41
    assert len(calls) == 127  # the 7 + 120 quotients but the two by zero, and R^2


@pytest.mark.parametrize("spec", [spec for spec, _ in tl.builtin_rings(8)])
def test_corpus_equals_the_check_every_quotient_reference(spec):
    got = tl.module_corpus(tl.parse_ring_spec(spec), 2)
    want = reference_module_corpus(tl.parse_ring_spec(spec), 2)
    assert [(m.name, m.order, m.add, m.act, m.zero) for m in got] == \
        [(m.name, m.order, m.add, m.act, m.zero) for m in want]
