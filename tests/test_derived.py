"""Derived structures: quotients, direct sums and product rings are
proved valid by checking the maps that define them (``rings.check_map``).

The full table validators these constructions ran before are kept as
the reference, here and (the ring validator) in ``conftest.py``: every
generated derived structure must pass them too.  A corrupted derived
entry, or a quotient by a subset that is no submodule, must be an
internal fault (``InvariantError``, exit 70), never a table error
(exit 2).
"""

import functools
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab import modules, rings
from torsionlab.errors import InvariantError, TableError

from conftest import (A_BITS, BUILTIN8, E12, reference_as_table, reference_check_abelian_group,
                      reference_module_axiom_witness, reference_operation_witness,
                      reference_pair_table, reference_ring_error)


# -- the reference validators ------------------------------------------------

def reference_module_checks(ring, order, add, act, zero):
    """Every table check ``FiniteModule`` made on all its tables."""
    if order < 1:
        raise TableError("order", (order,), "module order must be positive")
    add = reference_as_table(add, order, order, "module-add")
    act = reference_as_table(act, ring.order, order, "act")
    if not 0 <= zero < order:
        raise TableError("module-zero-range", (zero,), "zero index out of range")
    add_flat = tuple(v for row in add for v in row)
    act_flat = tuple(v for row in act for v in row)
    reference_check_abelian_group(order, add, zero, what="module-add")
    w = reference_module_axiom_witness(ring.order, order, ring.add_flat,
                                       ring.mul_flat, add_flat,
                                       act_flat, ring.one)
    if w is not None:
        raise TableError(w[0], w[1:], f"scalar action axiom {w[0]} fails at {w[1:]}")


def reference_validate_module(module):
    reference_module_checks(module.ring, module.order, module.add, module.act, module.zero)


def reference_validate_ring(ring):
    assert reference_ring_error(ring.order, ring.add, ring.mul, ring.zero, ring.one) is None


# -- generated derived structures ----------------------------------------
# Each example parses its rings afresh, so no construction is served from
# a cache and every one runs its map check.

@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(BUILTIN8), st.sampled_from([1, 2]), st.data())
def test_quotient_modules_pass_the_reference_validators(spec, k, data):
    ring = tl.parse_ring_spec(spec)
    parent = tl.power_module(ring, k)
    reference_validate_module(parent)
    sub = data.draw(st.sampled_from(tl.all_submodules(parent)))
    quot = tl.quotient_module(parent, sub)
    reference_validate_module(quot)
    assert quot.order * len(sub) == parent.order


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(BUILTIN8), st.data())
def test_direct_sums_pass_the_reference_validators(spec, data):
    ring = tl.parse_ring_spec(spec)
    corpus = tl.module_corpus(ring, 2)
    m1 = data.draw(st.sampled_from(corpus))
    m2 = data.draw(st.sampled_from([m for m in corpus if m1.order * m.order <= 128]))
    total = tl.direct_sum(m1, m2)
    reference_validate_module(total)
    assert total.order == m1.order * m2.order


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(BUILTIN8), st.sampled_from(BUILTIN8))
def test_product_rings_pass_the_reference_validators(left, right):
    ring = tl.product_ring(tl.parse_ring_spec(left), tl.parse_ring_spec(right))
    reference_validate_ring(ring)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(BUILTIN8 + ["M2(2)", "prod(UT2(2),Z(2))"]), st.data())
def test_quotient_rings_pass_the_reference_validators(spec, data):
    ring = tl.parse_ring_spec(spec)
    ideals = [ideal for ideal in map(tl.as_two_sided, tl.all_left_ideals(ring))
              if ideal is not None]
    ideal = data.draw(st.sampled_from(ideals))
    quot, proj = tl.quotient_ring(ring, ideal)
    reference_validate_ring(quot)
    assert {x for x in range(ring.order) if proj[x] == quot.zero} == set(ideal)


@pytest.mark.parametrize("left, right", [
    ("Z(1)", "Z(3)"), ("Z(2)", "UT2(2)"), ("UT2(2)", "Z(2)"), ("UT2(2)", "UT2(2)"),
    ("Z(16)", "Z(16)"),                     # 256 pairs: byte rows
    ("Z(17)", "Z(17)"), ("Z(2)", "Z(129)"),  # 289 and 258: list rows
])
def test_pair_table_matches_the_entry_comprehension(left, right):
    r1, r2 = tl.parse_ring_spec(left), tl.parse_ring_spec(right)
    for t1, t2 in ((r1.add, r2.add), (r1.mul, r2.mul), (r2.mul, r1.add)):
        want = reference_pair_table(t1, t2)
        assert list(rings.pair_table(t1, t2)) == want
        # rows given as lists or tuples, as rows above 256 are stored
        assert list(rings.pair_table([list(a) for a in t1], tuple(map(tuple, t2)))) == want


def test_quotients_of_z17_squared_pass_the_reference_validators():
    ring = tl.parse_ring_spec("Z(17)")
    square = tl.power_module(ring, 2)  # a direct sum of order 289
    assert square.order > rings.BYTE_ORDER_LIMIT
    subs = tl.all_submodules(square)
    assert len(subs) == 20  # zero, the 18 lines, the whole
    for sub in subs:
        quot = tl.quotient_module(square, sub)
        if quot.order == square.order:
            assert (quot.add, quot.act) == (square.add, square.act)
        else:
            reference_validate_module(quot)
    reference_validate_module(square)


def reference_row_form(flat, m, zero=None):
    """``(rows, flat)``, and with ``zero`` the negation, as a trusted
    constructor built them from the rows of a flat table before it took
    the flat table itself."""
    rows = tuple(map(tuple, [flat[i:i + m] for i in range(0, len(flat), m)]))
    flat = tuple(itertools.chain.from_iterable(rows))
    if zero is None:
        return rows, flat
    return rows, flat, tuple(rows[i].index(zero) for i in range(len(rows)))


def row_form(rows, flat, neg=None):
    """``reference_row_form``'s values read off stored rows and flat table,
    whatever their sequence type."""
    got = tuple(map(tuple, rows)), tuple(flat)
    return got if neg is None else (*got, neg)


def test_trusted_flat_tables_give_the_old_row_form():
    ring = tl.parse_ring_spec("UT2(2)")
    for module in tl.module_corpus(ring, 2):
        m = module.order
        got = tl.FiniteModule(ring, m, list(module.add_flat), list(module.act_flat),
                              module.zero, name=module.name, _trusted=True)
        assert row_form(got.add, got.add_flat, got.neg) == \
            reference_row_form(list(module.add_flat), m, module.zero)
        assert row_form(got.act, got.act_flat) == reference_row_form(list(module.act_flat), m)
    square = tl.product_ring(ring, ring)
    n = square.order
    checked = tl.FiniteRing(n, square.add, square.mul, square.zero, square.one)
    for built in (square, checked):
        assert row_form(built.add, built.add_flat, built.neg) == \
            reference_row_form(list(square.add_flat), n, square.zero)
        assert row_form(built.mul, built.mul_flat) == reference_row_form(list(square.mul_flat), n)


# -- stored flat tables: bytes up to 256 elements, tuples above ---------------

def ring_document(ring):
    return {"order": ring.order, "add": [list(row) for row in ring.add],
            "mul": [list(row) for row in ring.mul], "zero": ring.zero, "one": ring.one}


def table_spec(tmp_path, spec):
    """A ``table:`` spec of a file holding the tables of ``spec``."""
    ring = tl.parse_ring_spec(spec)
    path = tmp_path / f"ring{ring.order}.json"  # no "," or ")" in the spec
    path.write_text(json.dumps(ring_document(ring)))
    return f"table:{path}"


def module_document(module):
    return {"order": module.order, "add": [list(row) for row in module.add],
            "act": [list(row) for row in module.act], "zero": module.zero}


def quotient_by(module, gens):
    return tl.quotient_module(module, tl.submodule_closure(module, gens))


# each builds structures on both sides of 256 elements; Z(17)^2 has 289
STORED_BUILDS = {
    "table:": lambda tmp: [tl.parse_ring_spec(table_spec(tmp, spec))
                           for spec in ("Z(4)", "prod(Z(17),Z(17))")],
    "module_from_table": lambda tmp: [
        tl.module_from_table(module_document(tl.regular_module(ring)), ring)
        for ring in map(tl.parse_ring_spec, ("UT2(2)", "prod(Z(17),Z(17))"))],
    "Z": lambda tmp: [tl.parse_ring_spec("Z(16)"), tl.parse_ring_spec("Z(257)")],
    "UT2 and M2": lambda tmp: [tl.parse_ring_spec(spec)
                               for spec in ("UT2(2)", "UT2(5)", "M2(3)", "UT2(7)", "M2(5)")],
    "product_ring": lambda tmp: [tl.parse_ring_spec(spec)
                                 for spec in ("prod(Z(2),UT2(2))", "prod(Z(17),Z(17))")],
    "quotient_ring": lambda tmp: [
        tl.quotient_ring(ring, tl.two_sided_closure(ring, gens))[0]
        for ring, gens in ((tl.parse_ring_spec("UT2(2)"), [E12]),
                           (tl.parse_ring_spec("prod(Z(17),Z(17))"), [0]),
                           (tl.parse_ring_spec("prod(Z(17),Z(17))"), [17]))],
    "regular_module": lambda tmp: [tl.regular_module(tl.parse_ring_spec(spec))
                                   for spec in ("Z(4)", "Z(257)")],
    "power_module": lambda tmp: [tl.power_module(tl.parse_ring_spec(spec), k)
                                 for spec in ("Z(4)", "Z(17)") for k in (0, 1, 2)],
    "direct_sum": lambda tmp: [tl.direct_sum(reg, reg) for reg in (
        tl.regular_module(tl.parse_ring_spec(spec)) for spec in ("Z(4)", "Z(17)"))],
    "quotient_module": lambda tmp: [
        quotient_by(tl.regular_module(tl.parse_ring_spec("UT2(2)")), [E12]),
        quotient_by(tl.power_module(tl.parse_ring_spec("Z(17)"), 2), [1]),
        quotient_by(tl.regular_module(tl.parse_ring_spec("Z(514)")), [257])],
    "corpus": lambda tmp: [*tl.module_corpus(tl.parse_ring_spec("UT2(2)"), 2),
                           *tl.module_corpus(tl.parse_ring_spec("Z(17)"), 2)],
}


def stored_tables(structure):
    """The flat tables of a ring or a module, then their rows."""
    other = "mul" if isinstance(structure, tl.FiniteRing) else "act"
    return (structure.add_flat, getattr(structure, f"{other}_flat"),
            *structure.add, *getattr(structure, other))


@pytest.mark.parametrize("build", sorted(STORED_BUILDS))
def test_flat_tables_are_bytes_up_to_256_elements_and_tuples_above(tmp_path, build):
    built = STORED_BUILDS[build](tmp_path)
    assert {s.order <= rings.BYTE_ORDER_LIMIT for s in built} == {True, False}
    for structure in built:
        want = bytes if structure.order <= rings.BYTE_ORDER_LIMIT else tuple
        assert {type(t) for t in stored_tables(structure)} == {want}, structure


def test_a_stored_byte_table_is_range_checked_without_a_copy():
    ring = tl.parse_ring_spec("UT2(2)")
    assert rings._index_bytes(ring.add_flat, 8) is ring.add_flat
    assert rings._index_bytes(ring.add_flat, 7) is None  # the entry 7 is out of range
    assert rings._index_bytes(list(ring.add_flat), 8) == ring.add_flat


def reference_quotient_tables(module, sub):
    """``_quotient_tables`` by the entry loops it gathered before."""
    reps, proj = rings.coset_representatives(module.order, module.add, sub.elements())
    add = [proj[module.add[a][b]] for a in reps for b in reps]
    act = [proj[row[a]] for row in module.act for a in reps]
    return list(proj), len(reps), add, act, proj[module.zero]


@pytest.mark.parametrize("spec, k", [("UT2(2)", 2), ("Z(4)", 2), ("Z(17)", 2), ("Z(514)", 1)])
def test_gathered_quotient_tables_match_the_entry_loops(spec, k):
    # Z(17)^2 (289 elements) has quotients of 17 and 1, Z(514) of 257 and 2
    parent = tl.power_module(tl.parse_ring_spec(spec), k)
    for sub in tl.all_submodules(parent):
        proj, m, add, act, zero = modules._quotient_tables(parent, sub)
        assert [list(proj), m, list(add), list(act), zero] == \
            list(reference_quotient_tables(parent, sub))


@functools.lru_cache(maxsize=None)
def cyclic_square(n):
    """Z(n)^2 as a direct sum of two copies of the regular module."""
    return tl.power_module(tl.cyclic_ring(n), 2)


def map_checks(n, kind, gen):
    """``(f, m, operations)`` as ``check_map`` reads them for a map out of
    Z(n)^2: the projection onto its quotient by the submodule that
    ``gen`` generates, or the coordinate map ``gen % 2`` of the sum."""
    square = cyclic_square(n)
    if kind == "quotient":
        sub = tl.submodule_closure(square, [gen])
        f, m, add, act, _ = modules._quotient_tables(square, sub)
    else:
        f, m = rings.product_maps(n, n)[gen % 2], n
        add, act = square.ring.add_flat, square.ring.mul_flat
    return f, m, [(f, square.add_flat, add), (range(n), square.act_flat, act)]


# the entries planted in a table; "another index" is also planted in f
PLANTS = {"another index": lambda v, size: (v + 1) % size, "-1": lambda v, size: -1,
          "size": lambda v, size: size, "300": lambda v, size: 300,
          "None": lambda v, size: None}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from([16, 17]), st.sampled_from(["quotient", "direct sum"]),
       st.integers(0, 288), st.integers(0, 1), st.sampled_from(["none", "src", "dst", "f"]),
       st.sampled_from(sorted(PLANTS)), st.data())
def test_operation_witness_matches_the_reference_loop(n, kind, gen, op, where, plant, data):
    # Z(16)^2 has 256 elements and Z(17)^2 289: both sides of the byte rows
    f, m, operations = map_checks(n, kind, gen % n ** 2)
    g, src, dst = operations[op]
    f, src, dst = list(f), list(src), list(dst)
    if where == "f":
        x = data.draw(st.integers(0, len(f) - 1))
        f[x] = (f[x] + 1) % m
    elif where != "none":
        table, size = (src, len(f)) if where == "src" else (dst, m)
        pos = data.draw(st.integers(0, len(table) - 1))
        table[pos] = PLANTS[plant](table[pos], size)
    want = reference_operation_witness(f, m, g, src, dst)
    assert rings._operation_witness(f, m, g, src, dst) == want
    if where in ("src", "dst") and plant != "another index":
        assert want == "range"


@pytest.mark.parametrize("where", ["src", "dst"])
@pytest.mark.parametrize("n", [16, 17])
def test_a_float_entry_is_out_of_range_at_every_order(n, where):
    # the reference loop reads a float in dst as the index it equals, and
    # fails on one in src, so this case is not compared with it
    f, m, operations = map_checks(n, "quotient", 1)
    g, src, dst = map(list, operations[0])
    table = src if where == "src" else dst
    table[len(table) // 2] = float(table[len(table) // 2])
    assert rings._operation_witness(f, m, g, src, dst) == "range"


# -- faults in derived tables --------------------------------------------

def derived_construction(kind):
    """``(owner, build)``: the module whose ``check_map`` the construction
    calls, and a function that runs the construction on fresh inputs."""
    if kind == "quotient_module":
        reg = tl.regular_module(tl.parse_ring_spec("UT2(2)"))
        return modules, lambda: tl.quotient_module(reg, tl.Submodule(reg, A_BITS))
    if kind == "quotient_module_289":
        # by a line: the quotient by zero derives no table to corrupt
        square = tl.power_module(tl.parse_ring_spec("Z(17)"), 2)
        return modules, lambda: tl.quotient_module(square, tl.all_submodules(square)[1])
    if kind == "direct_sum":
        reg = tl.regular_module(tl.parse_ring_spec("Z(4)"))
        return modules, lambda: tl.direct_sum(reg, reg)
    if kind == "direct_sum_289":
        reg = tl.regular_module(tl.parse_ring_spec("Z(17)"))
        return modules, lambda: tl.direct_sum(reg, reg)
    if kind == "quotient_ring":
        ring = tl.parse_ring_spec("UT2(2)")
        return rings, lambda: tl.quotient_ring(ring, tl.two_sided_closure(ring, [E12]))
    assert kind == "product_ring"
    left, right = tl.parse_ring_spec("Z(2)"), tl.parse_ring_spec("Z(3)")
    return rings, lambda: tl.product_ring(left, right)


CORRUPTIONS = {
    "another index": lambda v, size: (v + 1) % size,
    "negative": lambda v, size: -1,
    "too large": lambda v, size: size,
    "beyond a byte": lambda v, size: 300,
}


def corrupting_check_map(op, where, plant, target=None):
    """``(check, planted)``: a stand-in for ``rings.check_map`` that, at
    its first call (for ``what == target``, if given), copies the table
    ``where`` (2: the source, 3: the target) of operation ``op`` into a
    list whose middle entry is ``plant(entry, size)``, for the order
    ``size`` the table indexes, and passes the copy in place of that
    table at this and every later call; ``planted`` holds the pair
    (table, copy).  A stored table may be ``bytes``, which can neither
    be written nor hold -1 or 300, so the fault goes into a copy."""
    check_map = rings.check_map
    planted = []

    def check(what, f, m, operations, *args, **kwargs):
        table = operations[op][where]
        if not planted and target in (None, what):
            copy = list(table)
            pos = len(copy) // 2
            copy[pos] = plant(copy[pos], m if where == 3 else len(f))
            planted.append((table, copy))
        if planted and planted[0][0] is table:
            operations, entry = list(operations), list(operations[op])
            entry[where] = planted[0][1]
            operations[op] = tuple(entry)
        return check_map(what, f, m, operations, *args, **kwargs)

    return check, planted


def corrupting_quotient_tables(op, plant, target=None):
    """``(tables, planted)``: a stand-in for ``modules._quotient_tables``
    that, at its first call (for the quotient named ``target``, as
    ``module_corpus`` names it, if given), returns the derived table
    ``op`` (0: addition, 1: action) as a tuple copy whose middle entry is
    ``plant(entry, m)``, for the quotient's order m, before any check or
    decision reads it; ``planted`` holds the pair (table, copy).  A tuple,
    as tables above 256 elements are stored, can hold -1 or 300, which
    ``bytes`` cannot, and the corpus can still hash it."""
    quotient_tables = modules._quotient_tables
    planted = []

    def tables(module, sub):
        got = quotient_tables(module, sub)
        name = f"quotient module {module.name}/s{tl.all_submodules(module).index(sub)}"
        if not planted and target in (None, name):
            copy = list(got[2 + op])
            pos = len(copy) // 2
            copy[pos] = plant(copy[pos], got[1])
            planted.append((got[2 + op], tuple(copy)))
            got = (*got[:2 + op], planted[0][1], *got[3 + op:])
        return got

    return tables, planted


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
@pytest.mark.parametrize("op", [0, 1])
@pytest.mark.parametrize("kind", ["quotient_module", "quotient_module_289", "direct_sum",
                                  "direct_sum_289", "quotient_ring", "product_ring"])
def test_corrupted_derived_entry_is_an_internal_fault(monkeypatch, kind, op, how):
    owner, build = derived_construction(kind)
    if kind.startswith("quotient_module"):
        # planted where the quotient's tables are derived, so whatever
        # decides them reads the fault
        corrupting, corrupted = corrupting_quotient_tables(op, CORRUPTIONS[how])
        monkeypatch.setattr(modules, "_quotient_tables", corrupting)
    else:
        # the derived table: the target of a quotient ring's projection,
        # the source of a product's maps
        corrupting, corrupted = corrupting_check_map(
            op, 3 if kind == "quotient_ring" else 2, CORRUPTIONS[how])
        monkeypatch.setattr(owner, "check_map", corrupting)
    with pytest.raises(InvariantError):
        build()
    assert corrupted


def test_rcm_verify_leaves_no_quotient_or_lattice_memo():
    ring = tl.parse_ring_spec("UT2(2)")
    reports = [tl.rcm_verify(notion, 2) for notion in tl.enumerate_torsion_notions(ring)]
    assert sum(report.modules_checked for report in reports) > 0
    def memo_keys(held):
        return {key[0] if isinstance(key, tuple) else key for m in held for key in m._cache}

    # Sub(R^k) and its closures are read once per R^k; no quotient builds its own
    for parent in (tl.power_module(ring, 1), tl.power_module(ring, 2)):
        assert {"subs", "closures"} <= memo_keys([parent])
    keys = memo_keys(tl.module_corpus(ring, 2))
    assert not keys & {"subs", "closures", "quot", "projection", "rlat"}


@pytest.mark.parametrize("op", [0, 1])
@pytest.mark.parametrize("target", ["quotient module R/s1", "quotient module R^2/s1"])
def test_a_corrupted_kept_corpus_quotient_is_an_internal_fault(monkeypatch, target, op):
    ring = tl.parse_ring_spec("UT2(2)")
    notion = tl.enumerate_torsion_notions(ring)[0]
    corrupting, corrupted = corrupting_quotient_tables(op, CORRUPTIONS["another index"], target)

    monkeypatch.setattr(modules, "_quotient_tables", corrupting)
    with pytest.raises(InvariantError, match=re.escape(target)):
        tl.rcm_verify(notion, 2)
    assert corrupted


PRODUCTS = {"direct_sum": 4, "direct_sum_289": 17, "product_ring": 3}  # order of the second factor


@pytest.mark.parametrize("coordinate", [0, 1])
@pytest.mark.parametrize("kind", sorted(PRODUCTS))
def test_a_product_entry_wrong_in_one_coordinate_is_an_internal_fault(
        monkeypatch, kind, coordinate):
    owner, build = derived_construction(kind)
    n2 = PRODUCTS[kind]
    check_map = rings.check_map
    corrupted = []

    def corrupting(what, f, m, operations, *args, **kwargs):
        if not corrupted:
            table = operations[0][2]
            pos = len(table) // 2
            i1, i2 = divmod(table[pos], n2)
            if coordinate == 0:
                i1 = (i1 + 1) % (len(f) // n2)
            else:
                i2 = (i2 + 1) % n2
            table[pos] = i1 * n2 + i2
            corrupted.append(pos)
        return check_map(what, f, m, operations, *args, **kwargs)

    monkeypatch.setattr(owner, "check_map", corrupting)
    with pytest.raises(InvariantError, match=r"\+ is not preserved"):
        build()


def test_check_map_rejects_each_failed_condition():
    z4, z2 = tl.parse_ring_spec("Z(4)"), tl.parse_ring_spec("Z(2)")
    f = [0, 1, 0, 1]
    ops = [("+", f, z4.add_flat, z2.add_flat), ("*", f, z4.mul_flat, z2.mul_flat)]
    rings.check_map("Z(4) -> Z(2)", f, 2, ops, [("zero", 0, 0), ("one", 1, 1)],
                    kernel=(0, 0b0101))
    failing = [
        ((f, 2, ops, [("one", 1, 0)]), "one is not preserved"),
        ((f, 2, ops, (), (0, 0b0001)), "kernel differs"),
        (([0, 0, 0, 0], 2, ops), "not onto"),
        (([0, 1, 0, 2], 2, ops), "no element index"),
        (([0, 1.0, 0, 1], 2, ops), "no element index"),
        (([0, 1.0], 2, [], (), (0, 1)), "no element index"),
        (([0, None], 2, []), "no element index"),
        ((f, 2, [("+", f, z4.add_flat, (0, 1, 1, 1))]), r"\+ is not preserved at \(1, 1\)"),
        ((f, 2, [("+", f, z4.add_flat[:-1], z2.add_flat)]), "wrong size"),
        ((f, 2, [("+", f, z4.add_flat, z2.add_flat[:-1])]), "wrong size"),
    ]
    for args, message in failing:
        with pytest.raises(InvariantError, match=message):
            rings.check_map("Z(4) -> Z(2)", *args)


@pytest.mark.parametrize("reps, proj, sub_bits, message", [
    ([0, 1, 2, 3], (0, 1, 2, 3), 0b0101, "kernel differs"),  # the projection of another submodule
    ([0, 1, 3], (0, 1, 0, 1), 0b0101, "not onto"),           # a representative of no coset
])
def test_a_wrong_projection_is_an_internal_fault(monkeypatch, reps, proj, sub_bits, message):
    reg = tl.regular_module(tl.parse_ring_spec("Z(4)"))
    monkeypatch.setattr(modules, "coset_representatives", lambda *args: (reps, proj))
    with pytest.raises(InvariantError, match=message):
        tl.quotient_module(reg, tl.Submodule(reg, sub_bits))


@pytest.mark.parametrize("spec, bits", [
    ("Z(4)", 0b0011),     # {0, 1}: not closed under +
    ("Z(4)", 0b0010),     # {1}: no zero
    ("UT2(2)", 0b0011),   # {0, e22}: a subgroup, not closed under the action
])
def test_quotient_by_a_non_submodule_is_an_internal_fault(spec, bits):
    reg = tl.regular_module(tl.parse_ring_spec(spec))
    with pytest.raises(InvariantError, match="quotient module"):
        tl.quotient_module(reg, tl.Submodule(reg, bits, _trusted=True))


def test_derived_tables_run_no_axiom_validator(monkeypatch):
    calls = []
    check = rings.action_axiom_witness

    def counted(*args):
        calls.append(args[:2])
        return check(*args)

    monkeypatch.setattr(rings, "action_axiom_witness", counted)
    ring = tl.parse_ring_spec("prod(UT2(2),Z(2))")  # both factors are checked
    assert calls == [(8, 8), (2, 2)]
    tl.module_corpus(ring, 2)
    tl.quotient_ring(ring, tl.two_sided_closure(ring, [ring.one]))
    assert calls == [(8, 8), (2, 2)]


# -- range checks on whole tables ------------------------------------------

@pytest.mark.parametrize("bad", [
    {("add", 1, 2): -1},
    {("add", 3, 0): 4},
    {("act", 2, 1): -5},
    {("act", 0, 3): 4},
    {("add", 3, 3): 9, ("act", 0, 0): -1},   # add is scanned first
    {("act", 1, 3): 7, ("act", 3, 1): -2},   # then row-major order
])
def test_range_check_reports_the_loop_witness(z4, bad):
    tables = {"add": [list(row) for row in z4.add], "act": [list(row) for row in z4.mul]}
    for (name, i, j), v in bad.items():
        tables[name][i][j] = v
    with pytest.raises(TableError) as got:
        tl.FiniteModule(z4, 4, tables["add"], tables["act"], 0)
    with pytest.raises(TableError) as want:
        reference_module_checks(z4, 4, tables["add"], tables["act"], 0)
    assert (got.value.axiom, got.value.witness, str(got.value)) == \
        (want.value.axiom, want.value.witness, str(want.value))


# -- axioms decided on additive generators ----------------------------------

def count_row_compositions(monkeypatch):
    """A one-entry list counting the later calls of the row compositions
    that ``rings._composition`` hands out."""
    calls = [0]
    composition = rings._composition

    def counted(order):
        as_row, as_map, *rest = composition(order)

        def counted_map(f):
            compose = as_map(f)

            def call(xs):
                calls[0] += 1
                return compose(xs)
            return call
        return as_row, counted_map, *rest

    monkeypatch.setattr(rings, "_composition", counted)
    return calls


def test_valid_tables_run_no_exhaustive_check(monkeypatch):
    # the decisions compose, per generator g: row x with row g for each
    # x (associativity of +), two rows per scalar r (act_add) and three
    # per element x (add_act, mul_act); any scan composes more
    calls = count_row_compositions(monkeypatch)
    for ring in (tl.upper_triangular_ring(5), tl.full_matrix_ring(3)):
        n = ring.order
        gens = rings._generators(ring.add, ring.zero)
        for build in (lambda: tl.FiniteRing(n, ring.add, ring.mul, ring.zero, ring.one),
                      lambda: tl.FiniteModule(ring, n, ring.add, ring.mul, ring.zero)):
            calls[0] = 0
            build()
            assert calls[0] == 6 * n * len(gens)


def count_assoc_scans(monkeypatch):
    """A one-entry list counting the later calls of ``rings._assoc_witness``."""
    calls = [0]
    scan = rings._assoc_witness

    def counted(*args):
        calls[0] += 1
        return scan(*args)

    monkeypatch.setattr(rings, "_assoc_witness", counted)
    return calls


@pytest.mark.parametrize("i, j", [(0, 0), (1, 2), (5, 26), (13, 13), (26, 1)])
def test_a_corrupted_ring_names_the_scan_witness(monkeypatch, i, j):
    ring = tl.upper_triangular_ring(3)
    mul = [list(row) for row in ring.mul]
    mul[i][j] = (mul[i][j] + 1) % ring.order
    want = reference_ring_error(ring.order, ring.add, mul, ring.zero, ring.one)
    assert want is not None
    calls = count_assoc_scans(monkeypatch)
    with pytest.raises(TableError) as got:
        tl.FiniteRing(ring.order, ring.add, mul, ring.zero, ring.one)
    assert calls == [0]
    assert (got.value.axiom, got.value.witness, str(got.value)) == want


def test_the_regular_action_finds_the_generators_once(monkeypatch):
    ring = tl.upper_triangular_ring(3)
    n, add, mul, one = ring.order, list(ring.add_flat), list(ring.mul_flat), ring.one
    calls = []
    generators = rings._generators

    def counted(rows, zero):
        calls.append(len(rows))
        return generators(rows, zero)

    monkeypatch.setattr(rings, "_generators", counted)
    # R acting on itself: one generator set serves R and M
    assert rings.action_axiom_witness(n, n, add, mul, add, mul, one) is None
    assert calls == [n]
    # equal tables given twice are two additions
    assert rings.action_axiom_witness(n, n, add, mul, list(add), mul, one) is None
    assert calls == [n, n, n]
    # validating the ring: the abelian group, then the regular action
    tl.FiniteRing(n, ring.add, ring.mul, ring.zero, one)
    assert calls == [n] * 5
    # a corrupted entry gives the same witness either way
    rng = random.Random(3)
    witnesses = []
    for _ in range(20):
        bad = list(mul)
        bad[rng.randrange(n * n)] = rng.randrange(n)
        witnesses.append(rings.action_axiom_witness(n, n, add, bad, add, bad, one))
        assert witnesses[-1] == rings.action_axiom_witness(n, n, add, bad, list(add), bad, one)
    assert any(witnesses)


# -- whole-row table checks -------------------------------------------------

@pytest.mark.parametrize("row", [
    [1, 2],            # a row of the wrong length
    [1, -1, 0],
    [1, 2, 3],         # an entry too large
    [1, 2.0, 0],
    [1, "2", 0],
    [1, True, 0],      # a bool is an int: accepted
    [1, "x", -1],      # the first bad entry is named
    [True, False, 2],
])
def test_as_table_matches_the_entry_loop(row):
    assert_as_table_matches_the_entry_loop([[0, 1, 2], row, [2, 0, 1]], 3, 3, "add")


@pytest.mark.parametrize("row", [[1, 2], [1, 2, 3], [1, 2.0, 0], [True, False, 2]])
@pytest.mark.parametrize("rows, declared", [
    (2, 2),            # fewer rows than entries
    (4, 4),            # more rows, as for the action of a larger ring
    (4, 5),            # a missing row
    (2, 1),            # an extra row
])
def test_as_table_matches_the_entry_loop_off_the_square(row, rows, declared):
    raw = [[0, 1, 2], row, [2, 0, 1], [1, 1, 0]][:rows]
    assert_as_table_matches_the_entry_loop(raw, declared, 3, "act")


# each plants one fault in the rows of Z(n)'s addition: a short row, an
# entry out of range or of another type, or a fault of the group axioms
TABLE_FAULTS = {
    "short row": lambda rows, n: rows[n // 2].pop(),
    "-1": lambda rows, n: rows[n // 2].__setitem__(n // 3, -1),
    "the order": lambda rows, n: rows[n // 2].__setitem__(n // 3, n),
    "True": lambda rows, n: rows[n // 2].__setitem__(n // 3, True),
    "1.0": lambda rows, n: rows[n // 2].__setitem__(n // 3, 1.0),
    "identity": lambda rows, n: rows[0].__setitem__(n // 2, (n // 2 + 1) % n),
    "commutative": lambda rows, n: rows[n // 2].__setitem__(
        n // 3 + 1, (rows[n // 2][n // 3 + 1] + 1) % n),
    # x + (n - x) and (n - x) + x both moved off zero, for x = 1
    "inverse": lambda rows, n: [rows[x].__setitem__(n - x, 1 % (n - 1)) for x in (1, n - 1)],
}


@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
@pytest.mark.parametrize("n", [3, 256, 257])
def test_planted_table_faults_name_the_entry_loop_witness(n, fault):
    rows = [[(x + y) % n for y in range(n)] for x in range(n)]
    TABLE_FAULTS[fault](rows, n)
    outcomes = []
    for as_table, group in ((rings._as_table, rings.check_abelian_group),
                            (reference_as_table, reference_check_abelian_group)):
        try:
            group(n, as_table(rows, n, n, "add"), 0)
            outcomes.append(None)
        except TableError as err:
            outcomes.append((err.axiom, err.witness, str(err)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] is not None


def assert_as_table_matches_the_entry_loop(*args):
    outcomes = []
    for check in (rings._as_table, reference_as_table):
        try:
            outcomes.append(repr(check(*args)))
        except TableError as err:
            outcomes.append((err.axiom, err.witness, str(err)))
    assert outcomes[0] == outcomes[1]
