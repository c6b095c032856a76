"""Kernel unit tests: each kernel against a naive independent oracle,
plus cross-checks between the compiled and pure backends of the one
kernel that has a compiled twin (``enumerate_submodules``); the other
kernels exist only in ``_core_py`` and are tested there, and the table
axiom scans and decisions in ``rings``, the delta evaluation in
``delta`` and the modularity test in ``modules`` are tested against
verbatim references.

When ``torsionlab._core`` is not installed, the compiled backend is built
here from ``src/torsionlab/_core.c`` into a temporary directory and
loaded without registering it as ``torsionlab._core``, so the rest of the
suite keeps the backend ``torsionlab.kernels`` selected."""

import functools
import importlib.util
import itertools
import os
import pathlib
import random
import shutil
import subprocess
import sys
import sysconfig
import tempfile

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab import _core_py, delta, rings
from torsionlab import kernels
from torsionlab.errors import InvariantError, TableError

from conftest import (E11, E12, E22, reference_assoc_witness, reference_greedy_generators,
                      reference_lattice_axioms, reference_module_axiom_witness,
                      reference_ring_error, scan_closure_witness, time_limit)

C_SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "torsionlab" / "_core.c"


def toolchain():
    """The C compiler command and Python's include directory, or None."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    include = sysconfig.get_paths()["include"]
    if shutil.which(cc[0]) is None or not os.path.exists(os.path.join(include, "Python.h")):
        return None
    return cc, include


def compiled_backend(tools):
    """``(module, None)`` for the compiled backend, else ``(None, why)``;
    ``tools`` is what ``toolchain()`` returned."""
    try:
        from torsionlab import _core
        return _core, None
    except ImportError:
        pass
    if tools is None:
        return None, "no C compiler or no Python.h"
    cc, include = tools
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "_core" + sysconfig.get_config_var("EXT_SUFFIX"))
        build = subprocess.run([*cc, "-shared", "-fPIC", "-O2", "-Wall", "-Werror",
                                f"-I{include}", str(C_SOURCE), "-o", target],
                               capture_output=True, text=True)
        if build.returncode != 0:
            return None, f"building {C_SOURCE.name} failed:\n{build.stderr}"
        spec = importlib.util.spec_from_file_location("torsionlab._core", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module, None


TOOLCHAIN = toolchain()
_core, NO_CORE = compiled_backend(TOOLCHAIN)
BACKENDS = [_core_py] if _core is None else [_core_py, _core]
# the kernel with a compiled twin; ``kernels`` takes the rest from ``_core_py``
COMPILED_KERNELS = {"enumerate_submodules"}
needs_core = pytest.mark.skipif(_core is None, reason=NO_CORE or "")


@pytest.mark.skipif(TOOLCHAIN is None, reason="no C compiler or no Python.h")
def test_compiled_backend_builds_and_stays_unregistered():
    assert _core is not None, NO_CORE
    assert _core.BACKEND_NAME == "compiled"
    if kernels.backend() == "pure-python":
        assert "torsionlab._core" not in sys.modules


def naive_closure(m, n, add, act, zero, gens):
    """Fixpoint closure by repeated scanning (independent of the orbit-sum
    shortcut used by the kernels)."""
    out = {zero}
    out.update(gens)
    changed = True
    while changed:
        changed = False
        snapshot = list(out)
        for x in snapshot:
            for y in snapshot:
                if add[x * m + y] not in out:
                    out.add(add[x * m + y])
                    changed = True
            for r in range(n):
                if act[r * m + x] not in out:
                    out.add(act[r * m + x])
                    changed = True
    bits = 0
    for x in out:
        bits |= 1 << x
    return bits


def ring_tables(spec):
    ring = tl.parse_ring_spec(spec)
    return ring.order, ring.order, list(ring.add_flat), list(ring.mul_flat), ring.zero


@pytest.mark.parametrize("impl", [_core_py], ids=lambda i: i.BACKEND_NAME)
@pytest.mark.parametrize("spec", ["Z(6)", "Z(8)", "UT2(2)", "prod(Z(2),Z(2))"])
def test_span_closure_matches_naive_fixpoint(impl, spec):
    m, n, add, act, zero = ring_tables(spec)
    rng = random.Random(spec)
    for _ in range(20):
        gens = [rng.randrange(m) for _ in range(rng.randint(0, 3))]
        assert impl.span_closure(m, n, add, act, zero, gens) == \
            naive_closure(m, n, add, act, zero, gens)


@pytest.mark.parametrize("spec", ["Z(6)", "UT2(2)", "prod(Z(2),Z(2))"])
def test_greedy_generators_adjoin_the_least_missing_element(spec):
    # one kernel serves ring ideals and submodules: each generator is the
    # least element outside the span of the ones before it
    ring = tl.parse_ring_spec(spec)
    square = tl.power_module(ring, 2)
    for tables, subsets in [
            (ring_tables(spec), [a.bits for a in tl.all_left_ideals(ring)]),
            ((square.order, ring.order, list(square.add_flat), list(square.act_flat),
              square.zero), [s.bits for s in tl.all_submodules(square)])]:
        for bits in subsets:
            gens = kernels.greedy_generators(*tables, bits)
            if bits == 1 << tables[4]:
                assert gens == (tables[4],)  # the zero subset lists zero
                continue
            for i, g in enumerate(gens):
                span = naive_closure(*tables, gens[:i])
                missing = bits & ~span
                assert g == (missing & -missing).bit_length() - 1
            assert naive_closure(*tables, gens) == bits
    for a in tl.all_left_ideals(ring):
        assert tl.greedy_generators(ring, a.bits) == a.generators


@functools.cache
def walk_structures():
    """R and R^2 for several rings, each with its submodules."""
    out = []
    for spec in ["GF(3)", "Z(4)", "Z(6)", "Z(8)", "UT2(2)", "prod(Z(2),Z(2))"]:
        ring = tl.parse_ring_spec(spec)
        for module in (tl.regular_module(ring), tl.power_module(ring, 2)):
            out.append((module, [s.bits for s in tl.all_submodules(module)]))
    return out


# no shrinking: a walk that never ends would time out on every shrink step
@settings(max_examples=300, derandomize=True, deadline=None, phases=[Phase.generate])
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.sampled_from(["closed", "without-zero", "one-flipped", "subgroup", "random"]),
       st.integers(0, 2 ** 32 - 1))
def test_the_walk_gives_the_greedy_generators_or_rejects_the_subset(index, sub, kind, seed):
    # a closed subset gets the generators of the least-missing loop; any
    # other, with or without zero, is rejected, and the walk always ends;
    # a subgroup S + <x> is closed under addition, but maybe not the action
    module, subs = walk_structures()[index % len(walk_structures())]
    m, zero, rng = module.order, module.zero, random.Random(seed)
    bits = subs[sub % len(subs)]
    if kind == "without-zero":
        bits &= ~(1 << zero)
    elif kind == "one-flipped":
        bits ^= 1 << rng.randrange(m)
    elif kind == "subgroup":
        members, x = list(kernels.bits_of(bits)), rng.randrange(m)
        t = x
        while not bits >> t & 1:  # the cosets S + kx repeat from here on
            bits |= _core_py._coset(members, t, m, module.add_flat)
            t = module.add[t][x]
    elif kind == "random":
        bits = rng.getrandbits(m)
    tables = (m, module.ring.order, module.add_flat, module.act_flat, zero)
    with time_limit(10):
        if scan_closure_witness(module, bits) is None:
            assert kernels.greedy_generators(*tables, bits) == \
                reference_greedy_generators(*tables, bits)
        else:
            with pytest.raises(ValueError, match="not closed"):
                kernels.greedy_generators(*tables, bits)


def test_the_walk_rejects_bits_outside_the_structure():
    tables = ring_tables("Z(4)")
    for bits in (-1, 1 | 1 << 4):
        with time_limit(10), pytest.raises(ValueError, match=r"outside 0\.\.3"):
            kernels.greedy_generators(*tables, bits)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
@pytest.mark.parametrize("spec", ["Z(4)", "GF(2)", "Z(6)", "UT2(2)"])
def test_enumerate_submodules_matches_subset_scan(impl, spec):
    m, n, add, act, zero = ring_tables(spec)
    expected = []
    for bits in range(1, 1 << m):
        if not bits >> zero & 1:
            continue
        elems = [i for i in range(m) if bits >> i & 1]
        if all(bits >> add[x * m + y] & 1 for x in elems for y in elems) and \
                all(bits >> act[r * m + x] & 1 for r in range(n) for x in elems):
            expected.append(bits)
    got = impl.enumerate_submodules(m, n, add, act, zero)
    assert got == sorted(expected)


def left_ideal_family(impl, ring):
    """The left ideals of ``ring`` as bitsets, enumerated by ``impl`` as
    the submodules of the regular module."""
    reg = tl.regular_module(ring)
    return impl.enumerate_submodules(reg.order, ring.order, list(reg.add_flat),
                                     list(reg.act_flat), reg.zero)


# The closure tables are built by ``FiniteLattice`` from the family that
# each backend enumerates.
@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_closure_tables_match_naive_meet_join(impl, ut2):
    members = left_ideal_family(impl, ut2)
    assert members == sorted(a.bits for a in tl.all_left_ideals(ut2))
    lat = tl.lattice_from_family(members)
    assert lat.members == tuple(members)
    k = len(members)
    for i, j in itertools.product(range(k), repeat=2):
        assert members[lat.meet[i * k + j]] == members[i] & members[j]
        union = members[i] | members[j]
        sups = [w for w in members if w & union == union]
        acc = sups[0]
        for w in sups[1:]:
            acc &= w
        assert members[lat.join[i * k + j]] == acc
    assert tl.modularity_witness(lat) is None


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_closure_tables_reject_non_closed_family(impl, ut2):
    # {1}, {2} as one-element sets: intersection is empty, not a member
    with pytest.raises(InvariantError, match="family is not a closure system: family not "
                                             "closed under intersection: members 0 and 1"):
        tl.lattice_from_family([0b0010, 0b0100, 0b0110])
    # {1} and {2} meet in the empty set, but no member contains both
    with pytest.raises(InvariantError, match="family is not a closure system: family has no "
                                             "least upper bound for members 1 and 2"):
        tl.lattice_from_family([0b0000, 0b0010, 0b0100])
    # the left ideals without the zero ideal, where two atoms meet, or
    # without the whole ring, above two coatoms
    members = left_ideal_family(impl, ut2)
    with pytest.raises(InvariantError, match="not closed under intersection"):
        tl.lattice_from_family(members[1:])
    with pytest.raises(InvariantError, match="no least upper bound"):
        tl.lattice_from_family(members[:-1])


# N5: the five-set family 0 < {1} < {1,2} and {3,4}, realized as bitsets.
N5_FAMILY = [0b00000, 0b00010, 0b00110, 0b11000, 0b11110]


def square_submodule_family(impl, spec):
    """The submodules of ``R^2`` as bitsets, enumerated by ``impl``."""
    ring = tl.parse_ring_spec(spec)
    square = tl.power_module(ring, 2)
    return impl.enumerate_submodules(square.order, ring.order, list(square.add_flat),
                                     list(square.act_flat), square.zero)


# Modularity is decided in ``modules`` on both backends; the backends
# differ in the families the lattices are built from.
@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_modularity_pentagon_has_witness(impl):
    lat = tl.lattice_from_family(N5_FAMILY)
    meet, join = lat.meet, lat.join
    w = tl.modularity_witness(lat)
    assert w == reference_modularity_witness(5, meet, join)
    assert w is not None
    x, y, z = w
    k = 5
    assert meet[x * k + z] == x
    assert join[x * k + meet[y * k + z]] != meet[join[x * k + y] * k + z]
    # the ideal chain {0} < (4) < (2) < Z(8), with {0, 1} beside it,
    # meeting (4) in {0} and joining it to the top: N5 again
    chain = left_ideal_family(impl, tl.parse_ring_spec("Z(8)"))
    assert chain == [0b1, 0b10001, 0b1010101, 0b11111111]
    lat = tl.lattice_from_family(chain + [0b11])
    assert reference_modularity_witness(5, lat.meet, lat.join) == (2, 1, 3)
    assert tl.modularity_witness(lat) == (2, 1, 3)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_modularity_chain_and_diamond_pass(impl):
    chain = tl.lattice_from_family([0b0001, 0b0011, 0b0111, 0b1111])
    assert tl.modularity_witness(chain) is None
    # M3: three atoms meeting pairwise in the bottom, joining to the top
    diamond = tl.lattice_from_family([0b0000001, 0b0000111, 0b0011001, 0b1100001, 0b1111111])
    assert tl.modularity_witness(diamond) is None
    empty = tl.lattice_from_family([])
    assert (empty.meet, empty.join) == ((), ())
    assert tl.modularity_witness(empty) is None
    # the same shapes as enumerated: the ideals of Z(8) form a chain and
    # the subspaces of GF(2)^2 a diamond
    chain = tl.lattice_from_family(left_ideal_family(impl, tl.parse_ring_spec("Z(8)")))
    assert chain.size == 4
    assert tl.modularity_witness(chain) is None
    diamond = tl.lattice_from_family(square_submodule_family(impl, "GF(2)"))
    assert diamond.size == 5
    assert sorted(diamond.join[1 * 5 + j] for j in (2, 3)) == [4, 4]
    assert tl.modularity_witness(diamond) is None


def test_modularity_graded_lattice_fails_only_the_height_identity():
    # {1}, {2}, {3} under {1,2} and {2,3}, under the top: every maximal
    # chain has length 3, but {1} and {3} have heights 1 + 1 while their
    # meet and join have 0 + 3
    lat = tl.lattice_from_family([0b0000, 0b0010, 0b0100, 0b1000, 0b0110, 0b1100, 0b1110])
    assert reference_modularity_witness(lat.size, lat.meet, lat.join) == (1, 4, 3)
    assert tl.modularity_witness(lat) == (1, 4, 3)


def test_finite_lattice_sorts_its_members():
    family = [0b1110, 0b0000, 0b1100, 0b0010, 0b0110, 0b1000, 0b0100]
    lat, built = tl.FiniteLattice(family), tl.lattice_from_family(family)
    assert lat.members == built.members == tuple(sorted(family))
    assert (lat.meet, lat.join) == (built.meet, built.join)


def assoc_scan(m, table):
    """``rings._assoc_witness`` on the flat m x m ``table``."""
    as_row, as_map, _ = rings._composition(m)
    return rings._assoc_witness(rings.rows_of(as_row(table), m), as_map)


def test_assoc_witness():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    flat = [v for row in table for v in row]
    assert assoc_scan(4, flat) is None
    flat[1 * 4 + 2] = 0  # 1+2 = 0 breaks associativity
    w = assoc_scan(4, flat)
    assert w is not None
    i, j, k = w
    assert flat[flat[i * 4 + j] * 4 + k] != flat[i * 4 + flat[j * 4 + k]]


def test_module_axiom_witness_detects_broken_action(z4):
    n = z4.order
    radd, rmul = list(z4.add_flat), list(z4.mul_flat)
    act = list(z4.mul_flat)
    assert rings.action_axiom_witness(n, n, radd, rmul, radd, act, z4.one) is None
    act[1 * n + 2] = 1  # 1*2 = 1 breaks the unit axiom
    w = rings.action_axiom_witness(n, n, radd, rmul, radd, act, z4.one)
    assert w is not None


def test_module_axiom_witness_checks_add_and_mul_act_at_each_x(ut2):
    # UT2(2) acting on GF(2)^2 with rows broken in both add_act and
    # mul_act: mul_act at (1, 2, 1) comes before add_act at (1, 2, 2).
    madd = [a ^ b for a in range(4) for b in range(4)]
    act = [0, 0, 0, 0, 0, 3, 0, 3, 0, 1, 0, 1, 0, 2, 3, 1,
           0, 0, 0, 0, 0, 1, 2, 3, 0, 2, 1, 3, 0, 0, 0, 0]
    radd, rmul = list(ut2.add_flat), list(ut2.mul_flat)
    assert rings.action_axiom_witness(8, 4, radd, rmul, madd, act, ut2.one) == \
        ("mul_act", 1, 2, 1)
    # on GF(2), both axioms first fail at (1, 6, 1): add_act is reported
    act = [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1]
    assert rings.action_axiom_witness(8, 2, radd, rmul, [0, 1, 1, 0], act, ut2.one) == \
        ("add_act", 1, 6, 1)


def planted(table, size, rng, faults):
    """A copy of the flat ``table`` with ``faults`` entries changed (none
    when ``size`` is 1: there is no other value)."""
    out = list(table)
    for _ in range(faults if size > 1 else 0):
        p = rng.randrange(len(out))
        out[p] = (out[p] + rng.randrange(1, size)) % size
    return out


def transported(ring, rng):
    """``ring``'s multiplication moved along a random permutation p of its
    elements, x*'y = p^-1(p(x) * p(y)): associative with identity
    p^-1(one), and distributive over the unchanged addition only when p
    is additive."""
    n = ring.order
    p = list(range(n))
    rng.shuffle(p)
    inv = [0] * n
    for i, v in enumerate(p):
        inv[v] = i
    mul = [inv[ring.mul_flat[p[x] * n + p[y]]] for x in range(n) for y in range(n)]
    return mul, inv[ring.one]


TABLE_RINGS = [spec for spec, _ in tl.builtin_rings(16)] + ["UT2(3)"]
MODULE_RINGS = ["Z(4)", "Z(6)", "Z(8)", "UT2(2)", "prod(Z(2),Z(2))", "M2(2)"]


def endomorphism_action(act, n, m, rng):
    """The flat action ``act`` of a ring of order n on a module of order m
    with each scalar r acting as some scalar sigma(r) did: every row
    stays additive, while the ring axioms break from the first r with
    sigma(r) != r on."""
    first = rng.randrange(n)
    sigma = list(range(first)) + [rng.randrange(n) for _ in range(first, n)]
    return [act[sigma[r] * m + x] for r in range(n) for x in range(m)]


def module_actions(ring, module, rng):
    """The valid action of ``ring`` on ``module``, planted faults in it,
    and random endomorphism actions; the addition stays valid, as the
    action is checked only over a checked addition."""
    n, m = ring.order, module.order
    act = list(module.act_flat)
    yield act
    for k in range(8):
        yield planted(act, m, rng, 1 + k % 3)
        yield endomorphism_action(act, n, m, rng)


def table_check_cases():
    """(check name, args) for the table checks: tables of builtin rings
    and module actions, valid and with planted faults, plus n = 1 module
    calls and Z(m) tables at m = 256 and 257, one on each side of the
    byte rows' order limit.  The action is checked only where both
    additions are abelian groups, as ``FiniteRing`` and ``FiniteModule``
    call it."""
    for spec in TABLE_RINGS:
        ring = tl.parse_ring_spec(spec)
        n, add, mul = ring.order, list(ring.add_flat), list(ring.mul_flat)
        rng = random.Random(spec)
        yield "assoc_witness", (n, add)
        yield "assoc_witness", (n, mul)
        yield "module_axiom_witness", (n, n, add, mul, add, mul, ring.one)
        for k in range(12):
            yield "assoc_witness", (n, planted(add, n, rng, 1 + k % 3))
            yield "assoc_witness", (n, planted(mul, n, rng, 1 + k % 3))
            # R acting on itself, as FiniteRing checks its tables
            bad = planted(mul, n, rng, 1 + k % 3)
            yield "module_axiom_witness", (n, n, add, bad, add, bad, ring.one)
            bad, one = transported(ring, rng)
            yield "module_axiom_witness", (n, n, add, bad, add, bad, one)
    modules = [(tl.parse_ring_spec("UT2(3)"), tl.regular_module(tl.parse_ring_spec("UT2(3)")))]
    for spec in MODULE_RINGS:
        ring = tl.parse_ring_spec(spec)
        modules += [(ring, mod) for mod in tl.module_corpus(ring, 2) if mod.order <= 16]
    for ring, module in modules:
        rng = random.Random(f"{ring.name}/{module.name}/{module.order}")
        for act in module_actions(ring, module, rng):
            yield "module_axiom_witness", (ring.order, module.order, list(ring.add_flat),
                                           list(ring.mul_flat), list(module.add_flat), act,
                                           ring.one)
    for m in (256, 257):
        rng = random.Random(m)
        add = [(x + y) % m for x in range(m) for y in range(m)]
        mul = [x * y % m for x in range(m) for y in range(m)]
        if m == 256:
            yield "assoc_witness", (m, add)  # no witness: a full scan on each route
        for k in range(4):
            yield "assoc_witness", (m, planted(add, m, rng, 1 + k))
            early = list(mul)  # a fault in row or column < 3 keeps the reference loops short
            early[rng.randrange(3) * m + rng.randrange(m)] = rng.randrange(m)
            early[rng.randrange(m) * m + rng.randrange(3)] = rng.randrange(m)
            yield "module_axiom_witness", (m, m, add, early, add, early, 1)
        # every row additive: an add_act fault, then r.x = (a*r)*x, a
        # mul_act fault for a != a*a; the reference loops read every
        # act_add triple first
        yield "module_axiom_witness", (m, m, add, mul, add, endomorphism_action(mul, m, m, rng), 1)
        a = rng.randrange(2, m)
        yield "module_axiom_witness", (m, m, add, mul, add, rescaled(mul, m, a), 1)
        for unit in (1, 3, m - 1):
            row = [unit * x % m for x in range(m)]
            yield "module_axiom_witness", (1, m, [0], [0], add, row, 0)
            for k in range(3):
                yield "module_axiom_witness", (1, m, [0], [0], add, planted(row, m, rng, 1 + k), 0)
        yield "module_axiom_witness", (1, m, [0], [0], add, [0] * m, 0)


# each witness route of ``rings``, and the loops it must agree with at every order
REFERENCE_TABLE_CHECKS = {
    "assoc_witness": (assoc_scan, reference_assoc_witness),
    "module_axiom_witness": (rings.action_axiom_witness, reference_module_axiom_witness),
}


def test_table_checks_return_reference_witnesses():
    outcomes = {name: set() for name in REFERENCE_TABLE_CHECKS}
    wide = set()  # (module order, kind) of the action witnesses at 256 and 257
    for name, args in table_check_cases():
        scan, reference = REFERENCE_TABLE_CHECKS[name]
        got = scan(*args)
        assert got == reference(*args), (name, args)
        outcomes[name].add(got if got is None or name == "assoc_witness" else got[0])
        if name == "module_axiom_witness" and got is not None and args[1] >= 256:
            wide.add((args[1], got[0]))
    assert None in outcomes["assoc_witness"] and len(outcomes["assoc_witness"]) > 1
    assert outcomes["module_axiom_witness"] == {None, "act_add", "add_act", "mul_act", "one_act"}
    assert wide == {(m, kind) for m in (256, 257)
                    for kind in ("act_add", "add_act", "mul_act", "one_act")}


def rescaled(mul, n, a):
    """The flat multiplication ``mul`` of order n with a put in front,
    r*'x = (a*r)*x: distributive on both sides over the unchanged
    addition, and associative with 1*'x = x only when a = 1.  As an
    action of the ring on itself it keeps every axiom but ``mul_act``
    and ``one_act``."""
    return [mul[mul[a * n + r] * n + x] for r in range(n) for x in range(n)]


def left_unital():
    """prod(Z(2),Z(2)) with x*'y = f(x)*y for the idempotent ring
    endomorphism f(x1, x2) = (x1, x1): every ring axiom holds except
    x*'1 = x, which fails at x = (0, 1), index 1."""
    ring = tl.parse_ring_spec("prod(Z(2),Z(2))")
    mul = [ring.mul[(x // 2) * 3][y] for x in range(4) for y in range(4)]
    return ring, mul, ring.one


def fails_ring_axiom(add, mul, zero, one, axiom, witness):
    """Whether the tables (row tuples) really break ``axiom`` at ``witness``."""
    if axiom == "zero-one":
        return zero == one and len(add) > 1
    if axiom == "one-identity":
        (x,) = witness
        return mul[one][x] != x or mul[x][one] != x
    r, s, x = witness
    if axiom == "left-distributive":
        return mul[r][add[s][x]] != add[mul[r][s]][mul[r][x]]
    if axiom == "right-distributive":
        return mul[add[r][s]][x] != add[mul[r][x]][mul[s][x]]
    assert axiom == "mul-associative", axiom
    return mul[mul[r][s]][x] != mul[r][mul[s][x]]


def bad_ring_tables():
    """(ring, flat multiplication, one): planted faults, transported and
    rescaled multiplications of the ``TABLE_RINGS``, and ``left_unital``."""
    for spec in TABLE_RINGS:
        ring = tl.parse_ring_spec(spec)
        rng = random.Random(spec)
        for k in range(8):
            yield (ring, planted(ring.mul_flat, ring.order, rng, 1 + k % 3), ring.one)
            yield (ring, *transported(ring, rng))
            yield ring, rescaled(ring.mul_flat, ring.order, rng.randrange(ring.order)), ring.one
    yield left_unital()


def test_ring_table_errors_match_reference():
    axioms = set()
    for ring, mul, one in bad_ring_tables():
        n = ring.order
        rows = [tuple(mul[i * n:(i + 1) * n]) for i in range(n)]
        expected = reference_ring_error(n, ring.add, rows, ring.zero, one)
        if expected is None:
            tl.FiniteRing(n, ring.add, rows, ring.zero, one)
            continue
        with pytest.raises(TableError) as err:
            tl.FiniteRing(n, ring.add, rows, ring.zero, one)
        assert (err.value.axiom, err.value.witness, str(err.value)) == expected
        assert fails_ring_axiom(ring.add, rows, ring.zero, one, *expected[:2]), expected
        axioms.add(expected[0])
    assert axioms == {"zero-one", "one-identity", "mul-associative",
                      "left-distributive", "right-distributive"}


# -- the axioms decided on additive generators --------------------------------
# ``rings.action_axiom_witness`` and ``rings.check_abelian_group`` decide the
# axioms on additive generators and scan an axiom only when its decision
# failed, to name a witness; the reference loops decide them on every triple.

@functools.lru_cache(maxsize=None)
def decision_structures():
    """(ring, module): each of the ``TABLE_RINGS`` acting on itself, then the
    corpus modules of order <= 16 at bound 2 over the ``MODULE_RINGS``."""
    pairs = []
    for spec in TABLE_RINGS:
        ring = tl.parse_ring_spec(spec)
        pairs.append((ring, tl.regular_module(ring)))
    for spec in MODULE_RINGS:
        ring = tl.parse_ring_spec(spec)
        pairs += [(ring, mod) for mod in tl.module_corpus(ring, 2) if mod.order <= 16]
    return tuple(pairs)


def decision_args(ring, module, kind, rng, faults):
    """``rings.action_axiom_witness`` arguments over a valid addition on
    each side, as ``FiniteModule`` and ``FiniteRing`` call it:
    ``module``'s action, valid, with planted faults or as an endomorphism
    action, or ``ring`` acting on itself by a multiplication with planted
    faults, a transported or a rescaled one."""
    n, m = ring.order, module.order
    radd, rmul = list(ring.add_flat), list(ring.mul_flat)
    act, one = list(module.act_flat), ring.one
    if kind == "act":
        act = planted(act, m, rng, faults)
    elif kind == "endomorphism":
        act = endomorphism_action(act, n, m, rng)
    elif kind != "valid":
        if kind == "mul":
            rmul = planted(rmul, n, rng, faults)
        elif kind == "transported":
            rmul, one = transported(ring, rng)
        else:
            rmul = rescaled(rmul, n, rng.randrange(n))
        return n, n, radd, rmul, radd, rmul, one
    return n, m, radd, rmul, list(module.add_flat), act, one


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(["valid", "act", "endomorphism", "mul", "transported", "rescaled"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_action_decision_matches_the_loops(index, kind, seed, faults):
    pairs = decision_structures()
    ring, module = pairs[index % len(pairs)]
    args = decision_args(ring, module, kind, random.Random(seed), faults)
    assert rings.action_axiom_witness(*args) == reference_module_axiom_witness(*args)


def symmetric_faults(add, m, zero, rng, faults):
    """The rows of the flat addition ``add`` with ``faults`` pairs of
    entries x + y = y + x off zero's row and column changed to another
    nonzero value: identity, commutativity and inverses still hold."""
    rows = [list(add[x * m:(x + 1) * m]) for x in range(m)]
    spots = [(x, y) for x in range(m) for y in range(x, m)
             if zero not in (x, y, rows[x][y])]
    for x, y in rng.sample(spots, min(faults, len(spots))):
        values = [v for v in range(m) if v not in (zero, rows[x][y])]
        if values:
            rows[x][y] = rows[y][x] = rng.choice(values)
    return rows


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
def test_associativity_decision_matches_the_loops(index, seed, faults):
    pairs = decision_structures()
    _, module = pairs[index % len(pairs)]
    m, zero = module.order, module.zero
    rows = symmetric_faults(module.add_flat, m, zero, random.Random(seed), faults)
    want = reference_assoc_witness(m, [v for row in rows for v in row])
    if want is None:
        rings.check_abelian_group(m, rows, zero)
        return
    with pytest.raises(TableError) as err:
        rings.check_abelian_group(m, rows, zero)
    assert (err.value.axiom, err.value.witness) == ("add-associative", want)


def test_decisions_above_256_match_the_loops():
    # Z(257) on itself: rows are tuples, composed by map; a fault in a
    # row below 3 keeps the reference loops short
    m = 257
    add = [(x + y) % m for x in range(m) for y in range(m)]
    mul = [x * y % m for x in range(m) for y in range(m)]
    assert rings.action_axiom_witness(m, m, add, mul, add, mul, 1) is None
    rings.check_abelian_group(m, rings.rows_of(add, m), 0)
    rng = random.Random(m)
    for k in range(3):
        bad = list(mul)
        bad[rng.randrange(3) * m + rng.randrange(m)] = rng.randrange(m)
        for args in [(m, m, add, mul, add, bad, 1), (m, m, add, bad, add, bad, 1)]:
            want = reference_module_axiom_witness(*args)
            if want is None:
                continue
            assert rings.action_axiom_witness(*args) == want
        rows = symmetric_faults(add, m, 0, rng, 1 + k)
        with pytest.raises(TableError) as err:
            rings.check_abelian_group(m, rows, 0)
        assert err.value.witness == \
            reference_assoc_witness(m, [v for row in rows for v in row])


def half_additive_action():
    """prod(Z(2),Z(2)) acting on GF(2)^3 (x + y = x xor y) by
    r.x = r1 (x + h(x)) + r2 h(x) for r = (r1, r2), index 2 r1 + r2, where
    h sends 2 and 3 to 2 and every other x to 0.  h(x + 1) = h(x), so
    every row is additive along the first generator 1, and every axiom
    but ``act_add`` holds; h(2 + 4) != h(2) + h(4)."""
    h = [0, 0, 2, 2, 0, 0, 0, 0]
    act = [0] * 8 + h + [x ^ h[x] for x in range(8)] + list(range(8))
    ring = tl.parse_ring_spec("prod(Z(2),Z(2))")
    madd = [x ^ y for x in range(8) for y in range(8)]
    return (4, 8, list(ring.add_flat), list(ring.mul_flat), madd, act, ring.one)


def test_action_decision_reads_every_generator_and_zero():
    # the action of Z(1) on Z(2) fixes 1: every equation with s = 0 left
    # out, only (0+0).1 = 0.1 + 0.1 fails
    identity = (1, 2, [0], [0], [0, 1, 1, 0], [0, 1], 0)
    for args, kind in [(identity, "add_act"), (half_additive_action(), "act_add")]:
        want = reference_module_axiom_witness(*args)
        assert want[0] == kind
        assert rings.action_axiom_witness(*args) == want


def naive_delta_eval(module, axiom):
    """Literal quantifier evaluation via itertools (independent route)."""
    m = module.order
    add, act = module.add, module.act

    def row_value(row, x, y, us, vs, zs):
        val = add[act[row.a][x]][act[row.b][y]]
        for c, u in zip(row.c, us):
            val = add[val][act[c][u]]
        for d, v in zip(row.d, vs):
            val = add[val][act[d][v]]
        for e, z in zip(row.e, zs):
            val = add[val][act[e][z]]
        return val

    cond1 = all(
        row_value(row, x, x, us, us, zs) == module.zero
        for row in axiom.rows
        for x in range(m)
        for us in itertools.product(range(m), repeat=axiom.u_arity)
        for zs in itertools.product(range(m), repeat=axiom.z_arity))
    cond2 = True
    for x, y in itertools.product(range(m), repeat=2):
        if x == y:
            continue
        for us in itertools.product(range(m), repeat=axiom.u_arity):
            for zs in itertools.product(range(m), repeat=axiom.z_arity):
                if all(row_value(row, x, y, us, us, zs) == module.zero
                       for row in axiom.rows):
                    cond2 = False
    return cond1 and cond2


@pytest.mark.parametrize("spec", ["Z(4)", "Z(6)", "UT2(2)"])
def test_delta_kernels_match_naive_quantification(spec):
    ring = tl.parse_ring_spec(spec)
    module = tl.regular_module(ring)
    rng = random.Random(spec)
    for _ in range(12):
        axiom = tl.random_reducible_delta(ring, rng, max_rows=2, max_u=1, max_z=1)
        assert tl.delta_satisfied(module, axiom) == naive_delta_eval(module, axiom)
    # a non-reducible axiom must also evaluate correctly
    bad = tl.DeltaAxiom(ring, [tl.DeltaRow(ring.one, ring.one if ring.order == 2
                                           else 2, (), (), ())])
    assert tl.delta_satisfied(module, bad) == naive_delta_eval(module, bad)


# The delta kernels as they were before their inner loops were memoized
# on each tuple's u/z sum; kept as the reference for exact witnesses.
def reference_delta_cond1_witness(m, rows, u_arity, z_arity, madd, act, a, b, c, d, e, zero):
    """Exhaustive check that every difference row vanishes under x=y, u=v.

    Quantifies over all (x, u-tuple, z-tuple); returns
    ``(x, *u, *z, row)`` for the first nonzero evaluation.
    """
    uz = u_arity + z_arity
    tup = [0] * uz
    while True:
        for x in range(m):
            for j in range(rows):
                val = madd[act[a[j] * m + x] * m + act[b[j] * m + x]]
                for i in range(u_arity):
                    u = tup[i]
                    val = madd[val * m + act[c[j * u_arity + i] * m + u]]
                    val = madd[val * m + act[d[j * u_arity + i] * m + u]]
                for i in range(z_arity):
                    val = madd[val * m + act[e[j * z_arity + i] * m + tup[u_arity + i]]]
                if val != zero:
                    return (x, *tup, j)
        pos = uz - 1
        while pos >= 0 and tup[pos] == m - 1:
            tup[pos] = 0
            pos -= 1
        if pos < 0:
            return None
        tup[pos] += 1


def reference_delta_cond2_witness(m, rows, u_arity, z_arity, madd, act, a, b, c, d, e, zero):
    """Exhaustive search for x != y where every row vanishes under u=v.

    Quantifies over all (x, y, u-tuple, z-tuple); returns
    ``(x, y, *u, *z)`` for the first counterexample tuple.
    """
    uz = u_arity + z_arity
    tup = [0] * uz
    base = [0] * rows
    while True:
        for j in range(rows):
            val = zero
            for i in range(u_arity):
                u = tup[i]
                val = madd[val * m + act[c[j * u_arity + i] * m + u]]
                val = madd[val * m + act[d[j * u_arity + i] * m + u]]
            for i in range(z_arity):
                val = madd[val * m + act[e[j * z_arity + i] * m + tup[u_arity + i]]]
            base[j] = val
        for x in range(m):
            for y in range(m):
                if x == y:
                    continue
                ok = True
                for j in range(rows):
                    val = madd[madd[act[a[j] * m + x] * m + act[b[j] * m + y]] * m + base[j]]
                    if val != zero:
                        ok = False
                        break
                if ok:
                    return (x, y, *tup)
        pos = uz - 1
        while pos >= 0 and tup[pos] == m - 1:
            tup[pos] = 0
            pos -= 1
        if pos < 0:
            return None
        tup[pos] += 1


DELTA_RINGS = ["Z(4)", "Z(6)", "Z(8)", "UT2(2)", "prod(Z(2),Z(2))"]


def random_delta(ring, rng):
    """A random delta axiom (rows 1-3, u <= 2, z <= 1) whose coefficients
    each keep the reducible value (b = -a, d = -c, e = 0) with
    probability 1/2, so the u/z sums range from all zero to all random."""
    n = ring.order
    u_arity, z_arity = rng.randint(0, 2), rng.randint(0, 1)

    def coef(reducible):
        return reducible if rng.random() < 0.5 else rng.randrange(n)

    rows = []
    for _ in range(rng.randint(1, 3)):
        a = rng.randrange(n)
        c = [rng.randrange(n) for _ in range(u_arity)]
        rows.append(tl.DeltaRow(a, coef(ring.neg[a]), c,
                                [coef(ring.neg[x]) for x in c],
                                [coef(ring.zero) for _ in range(z_arity)]))
    return tl.DeltaAxiom(ring, rows, u_arity, z_arity)


def coef_arrays(axiom):
    """The coefficients of ``axiom`` as the flat lists the references take."""
    rows = len(axiom.rows)
    a = [row.a for row in axiom.rows]
    b = [row.b for row in axiom.rows]
    c = [x for row in axiom.rows for x in row.c]
    d = [x for row in axiom.rows for x in row.d]
    e = [x for row in axiom.rows for x in row.e]
    return rows, a, b, c, d, e


def reference_args(module, axiom):
    """The flat arguments of the reference delta functions."""
    rows, a, b, c, d, e = coef_arrays(axiom)
    return (module.order, rows, axiom.u_arity, axiom.z_arity, module.add_flat,
            module.act_flat, a, b, c, d, e, module.zero)


def reference_witnesses(module, axiom):
    args = reference_args(module, axiom)
    return reference_delta_cond1_witness(*args), reference_delta_cond2_witness(*args)


def delta_kernel_cases():
    """``(module, axiom)`` for reducible (as the census sweep draws them)
    and random axioms over the bound-2 corpus modules of order <= 16,
    within the sweep's budget of m**(2+u+z) <= 200000 evaluations."""
    for spec in DELTA_RINGS:
        ring = tl.parse_ring_spec(spec)
        corpus = [mod for mod in tl.module_corpus(ring, 2) if mod.order <= 16]
        rng = random.Random(spec)
        for k in range(20):
            if k % 2:
                axiom = random_delta(ring, rng)
            else:
                axiom = tl.random_reducible_delta(ring, rng)
            for mod in corpus:
                if mod.order ** (2 + axiom.u_arity + axiom.z_arity) > 200000:
                    continue
                yield mod, axiom


def test_delta_kernels_return_reference_witnesses():
    calls = witnesses = order16 = 0
    for mod, axiom in delta_kernel_cases():
        got = delta.delta_condition_witnesses(mod, axiom)
        assert got == reference_witnesses(mod, axiom), reference_args(mod, axiom)
        calls += 2
        witnesses += sum(w is not None for w in got)
        order16 += mod.order == 16
    assert witnesses and calls - witnesses and order16


# Rings whose bound-2 corpus modules of order <= 36 feed the generated
# delta cases, and a module of order 289 (Z(17)^2), above the 256
# elements that a byte holds.
GENERATED_DELTA_RINGS = ["Z(6)", "UT2(2)", "prod(Z(2),Z(2))", "prod(Z(2),Z(3))",
                         "quot(UT2(2),e12)", "quot(Z(8),4)"]
BEYOND_BYTES = "Z(17)^2"


@functools.lru_cache(maxsize=None)
def delta_case_modules(spec):
    """The ring of ``spec`` and the modules a generated case draws from."""
    if spec == BEYOND_BYTES:
        ring = tl.parse_ring_spec("Z(17)")
        return ring, (tl.power_module(ring, 2),)
    ring = tl.parse_ring_spec(spec)
    return ring, tuple(mod for mod in tl.module_corpus(ring, 2) if mod.order <= 36)


def draw_delta_axiom(draw, ring, m):
    """A reducible or arbitrary axiom over ``ring`` with 1-3 rows, u <= 2
    and z <= 1, within the sweep's budget m**(2+u+z) <= 200000 for a
    module of order m."""
    room = next(k for k in (3, 2, 1, 0) if m ** (2 + k) <= 200000)
    u_arity = draw(st.integers(0, min(2, room)))
    z_arity = draw(st.integers(0, min(1, room - u_arity)))
    rows = draw(st.integers(1, 3))
    reducible = draw(st.booleans())
    scalar = st.integers(0, ring.order - 1)

    def near(value):
        """The reducible value, or for an arbitrary axiom maybe another."""
        return value if reducible else draw(st.one_of(st.just(value), scalar))

    a = [draw(scalar) for _ in range(rows)]
    c = [draw(scalar) for _ in range(rows * u_arity)]
    b = [near(ring.neg[x]) for x in a]
    d = [near(ring.neg[x]) for x in c]
    e = [near(ring.zero) for _ in range(rows * z_arity)]
    return tl.DeltaAxiom(ring, [
        tl.DeltaRow(a[j], b[j], c[j * u_arity:(j + 1) * u_arity],
                    d[j * u_arity:(j + 1) * u_arity], e[j * z_arity:(j + 1) * z_arity])
        for j in range(rows)], u_arity, z_arity)


def draw_delta_module(draw):
    """A ring of the generated delta cases and one of its modules."""
    ring, modules = delta_case_modules(draw(st.sampled_from(
        [*GENERATED_DELTA_RINGS, BEYOND_BYTES])))
    return ring, draw(st.sampled_from(modules))


@st.composite
def delta_cases(draw):
    """``(module, axiom)`` for a module of ``draw_delta_module`` and an
    axiom of ``draw_delta_axiom``."""
    ring, mod = draw_delta_module(draw)
    return mod, draw_delta_axiom(draw, ring, mod.order)


@st.composite
def delta_batches(draw):
    """``(module, axioms)``: 1-10 axioms of ``draw_delta_axiom`` over one
    module, as a sweep evaluates them through one fiber table."""
    ring, mod = draw_delta_module(draw)
    count = draw(st.integers(1, 10))
    return mod, [draw_delta_axiom(draw, ring, mod.order) for _ in range(count)]


def brute_delta_bases(m, rows, u_arity, z_arity, madd, act, c, d, e, zero):
    """Each distinct u/z base with its first tuple, walking every (u, z)
    tuple in ``itertools.product`` order and summing left to right."""
    first = {}
    for tup in itertools.product(range(m), repeat=u_arity + z_arity):
        base = []
        for j in range(rows):
            val = zero
            for i in range(u_arity):
                val = madd[val * m + act[c[j * u_arity + i] * m + tup[i]]]
                val = madd[val * m + act[d[j * u_arity + i] * m + tup[i]]]
            for i in range(z_arity):
                val = madd[val * m + act[e[j * z_arity + i] * m + tup[u_arity + i]]]
            base.append(val)
        first.setdefault(tuple(base), tup)
    return list(first.items())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(delta_cases())
def test_delta_bases_match_brute_force(case):
    mod, axiom = case
    m, rows, u_arity, z_arity, madd, act, a, b, c, d, e, zero = reference_args(mod, axiom)
    bases = delta._delta_bases(mod, axiom)
    assert list(bases.items()) == brute_delta_bases(m, rows, u_arity, z_arity, madd, act,
                                                    c, d, e, zero)


def test_delta_bases_are_built_once_per_instance(monkeypatch):
    ring, (reg, *_) = delta_case_modules("Z(6)")
    axiom = tl.DeltaAxiom(ring, [tl.DeltaRow(1, 2, (3,), (4,), (5,)),
                                 tl.DeltaRow(2, 5, (1,), (5,), (0,))], 1, 1)
    builds = []
    delta_bases = delta._delta_bases

    def spy(*args):
        builds.append(args)
        return delta_bases(*args)

    monkeypatch.setattr(delta, "_delta_bases", spy)
    got = delta.delta_condition_witnesses(reg, axiom)
    assert builds == [(reg, axiom)]
    assert got == reference_witnesses(reg, axiom)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(delta_cases())
def test_delta_kernels_match_reference_on_generated_cases(case):
    mod, axiom = case
    assert delta.delta_condition_witnesses(mod, axiom) == reference_witnesses(mod, axiom)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(delta_batches())
def test_one_fiber_table_serves_a_batch_of_axioms(batch):
    # what earlier axioms leave in the table must not change a later result
    mod, axioms = batch
    table = delta._FiberTable(mod)
    for axiom in axioms:
        assert delta._condition_witnesses(mod, axiom, table) == reference_witnesses(mod, axiom)


@pytest.mark.parametrize("spec, rows", [
    # every step zero: c + d = 0 and e = 0 in every row
    ("Z(6)", [(1, 5, (2, 3), (4, 3), (0,)), (3, 3, (5, 0), (1, 0), (0,))]),
    ("UT2(2)", [(E11, E11, (E12,), (E12,), (0,))]),
    # exactly one zero step: u_0, then u_1, then z_0
    ("Z(6)", [(1, 5, (2, 1), (4, 0), (3,)), (2, 4, (5, 3), (1, 1), (0,))]),
    ("Z(6)", [(1, 5, (2, 1), (1, 5), (3,)), (2, 4, (5, 3), (4, 3), (1,))]),
    ("Z(6)", [(1, 5, (2, 1), (1, 0), (0,)), (2, 4, (5, 3), (4, 2), (0,))]),
    ("UT2(2)", [(E11, E22, (E12, E11), (E12, E22), (E22,))]),
])
def test_delta_bases_with_zero_steps_match_brute_force(spec, rows):
    ring, modules = delta_case_modules(spec)
    axiom = tl.DeltaAxiom(ring, [tl.DeltaRow(*row) for row in rows])
    checked = 0
    for mod in modules:
        if mod.order ** (2 + axiom.u_arity + axiom.z_arity) > 200000:
            continue
        checked += 1
        m, rows_, u_arity, z_arity, madd, act, a, b, c, d, e, zero = reference_args(mod, axiom)
        bases = delta._delta_bases(mod, axiom)
        assert list(bases.items()) == brute_delta_bases(m, rows_, u_arity, z_arity, madd, act,
                                                        c, d, e, zero)
        assert delta.delta_condition_witnesses(mod, axiom) == reference_witnesses(mod, axiom)
    assert checked > 1


# The lattice kernels as they were before enumeration took one generator
# per coset, joins were read off up-sets and modularity was read off the
# height function; kept verbatim as the reference.
# ``reference_closure_tables`` is now the reference for the tables
# ``FiniteLattice`` builds, and ``reference_modularity_witness`` for
# ``modules.modularity_witness``.
def reference_sum_with_orbit(sub, elems, orb, m, add):
    """Closure of ``sub + Rx`` for a closed ``sub``, given its members
    ``elems`` and the orbit ``orb`` of the new generator x.

    The orbit is itself closed under addition and scalars, so the
    elementwise sum of the two sets is already the generated submodule.
    """
    out = sub
    for t in orb:
        for s in elems:
            out |= 1 << add[s * m + t]
    return out


def reference_orbit(x, m, n, act):
    """The set {r.x : r in R} of one element x."""
    return {act[r * m + x] for r in range(n)}


def reference_enumerate_submodules(m, n, add, act, zero):
    """All closed subsets, as a sorted list of bitsets."""
    orbits = [reference_orbit(x, m, n, act) for x in range(m)]
    start = 1 << zero
    found = {start}
    queue = [start]
    while queue:
        sub = queue.pop()
        elems = list(_core_py.bits_of(sub))
        for x in range(m):
            if sub >> x & 1:
                continue
            bigger = reference_sum_with_orbit(sub, elems, orbits[x], m, add)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found)


def reference_closure_tables(members):
    """Meet/join index tables for a family of bitsets ordered by inclusion.

    Meet is set intersection (the family must be closed under it) and the
    join of two members is the intersection of all members containing
    their union.  Raises ``ValueError`` if either operation leaves the
    family.
    """
    k = len(members)
    index = {bits: i for i, bits in enumerate(members)}
    meet = [0] * (k * k)
    join = [0] * (k * k)
    for i in range(k):
        a = members[i]
        for j in range(i, k):
            b = members[j]
            lo = index.get(a & b)
            if lo is None:
                raise ValueError(f"family not closed under intersection: members {i} and {j}")
            meet[i * k + j] = meet[j * k + i] = lo
            union = a | b
            acc = -1
            for w in members:
                if w & union == union:
                    acc &= w
            # acc stays -1, which is no member, when nothing contains the
            # union, and otherwise contains the union
            hi = index.get(acc)
            if hi is None:
                raise ValueError(f"family has no least upper bound for members {i} and {j}")
            join[i * k + j] = join[j * k + i] = hi
    return meet, join


def reference_modularity_witness(k, meet, join):
    """First triple (x, y, z) with x <= z violating the modular law,
    scanned in (x, y, z) order, one triple at a time."""
    for x in range(k):
        mrow_x = x * k
        jrow_x = x * k
        for y in range(k):
            m_y = y * k
            j_xy = join[jrow_x + y]
            jy = j_xy * k
            for z in range(k):
                if meet[mrow_x + z] != x:
                    continue  # need x <= z
                if join[jrow_x + meet[m_y + z]] != meet[jy + z]:
                    return (x, y, z)
    return None


@st.composite
def bitset_families(draw):
    """Families of subsets of at most 8 points, in any order: raw lists
    (which may repeat a member, miss an intersection or lack a join),
    lists closed under intersection, and closure systems (closed under
    intersection, with the full set)."""
    top = (1 << draw(st.integers(1, 8))) - 1
    family = draw(st.lists(st.integers(0, top), min_size=draw(st.integers(0, 4)), max_size=8))
    kind = draw(st.sampled_from(["raw", "meet-closed", "closure system"]))
    if kind != "raw":
        closed = set(family) | ({top} if kind == "closure system" else set())
        grown = True
        while grown:
            new = {a & b for a in closed for b in closed} - closed
            closed |= new
            grown = bool(new)
        family = draw(st.permutations(sorted(closed)))
    return family


@settings(max_examples=400, derandomize=True, deadline=None)
@given(bitset_families())
def test_lattice_kernels_match_reference_on_generated_families(family):
    try:
        expected = reference_closure_tables(sorted(family))
    except ValueError:
        expected = None
    if expected is None or len(set(family)) < len(family):
        with pytest.raises(InvariantError):
            tl.lattice_from_family(family)
        return
    lat = tl.lattice_from_family(family)
    assert (list(lat.meet), list(lat.join)) == expected
    reference_lattice_axioms(lat)
    assert tl.modularity_witness(lat) == reference_modularity_witness(lat.size, *expected)


def pentagon_under_chain(k):
    """N5 at indices 0..4 with a chain of k - 5 members above its top; the
    first modularity witness is (1, 3, 2)."""
    chain = [0b11110 | ((1 << t) - 1) << 5 for t in range(1, k - 4)]
    return N5_FAMILY + chain


# the sizes straddle ``BYTE_ORDER_LIMIT``, where the byte routes end;
# the modularity test has no size split
@pytest.mark.parametrize("k", [256, 257, 300])
def test_modularity_witness_on_each_side_of_the_byte_limit(k):
    lat = tl.lattice_from_family(pentagon_under_chain(k))
    assert lat.size == k
    assert reference_modularity_witness(k, lat.meet, lat.join) == (1, 3, 2)
    assert tl.modularity_witness(lat) == (1, 3, 2)


def submodule_cases():
    """Module tables (m, n, add, act, zero): the bound-2 corpus modules of
    order <= 16 over ``MODULE_RINGS``, and R^2 for three rings."""
    for spec in MODULE_RINGS:
        ring = tl.parse_ring_spec(spec)
        for mod in tl.module_corpus(ring, 2):
            if mod.order <= 16:
                yield (mod.order, ring.order, list(mod.add_flat), list(mod.act_flat), mod.zero)
    for spec in ["UT2(2)", "Z(8)", "prod(Z(2),Z(2))"]:
        ring = tl.parse_ring_spec(spec)
        square = tl.power_module(ring, 2)
        yield (square.order, ring.order, list(square.add_flat), list(square.act_flat),
               square.zero)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_submodule_lattices_match_reference(impl):
    for args in submodule_cases():
        members = reference_enumerate_submodules(*args)
        assert impl.enumerate_submodules(*args) == members, args
        meet, join = reference_closure_tables(members)
        lat = tl.lattice_from_family(members)
        assert (list(lat.meet), list(lat.join)) == (meet, join)
        assert tl.modularity_witness(lat) == \
            reference_modularity_witness(len(members), meet, join)
        if impl is not _core_py:
            continue  # span_closure has no compiled twin
        m, n, add, act, zero = args
        for g in range(m):
            assert impl.span_closure(m, n, add, act, zero, [g]) == \
                reference_sum_with_orbit(1 << zero, [zero], reference_orbit(g, m, n, act), m, add)


# a generated enumeration case has at most this many elements
ENUMERATION_ORDER_LIMIT = 64


@functools.lru_cache(maxsize=None)
def enumeration_modules(index):
    """Builtin ring ``index`` of order <= 16 and the modules a generated
    enumeration case draws from: its bound-2 corpus and R^2, each of at
    most ``ENUMERATION_ORDER_LIMIT`` elements."""
    _, ring = tl.builtin_rings(16)[index]
    mods = [*tl.module_corpus(ring, 2), tl.power_module(ring, 2)]
    return tuple(mod for mod in mods if mod.order <= ENUMERATION_ORDER_LIMIT)


@st.composite
def enumeration_cases(draw):
    """A module of ``enumeration_modules``, or the direct sum of two of
    them over the same ring, of at most ``ENUMERATION_ORDER_LIMIT``
    elements."""
    mods = enumeration_modules(draw(st.integers(0, len(tl.builtin_rings(16)) - 1)))
    mod = draw(st.sampled_from(mods))
    if draw(st.booleans()):
        room = ENUMERATION_ORDER_LIMIT // mod.order
        mod = tl.direct_sum(mod, draw(st.sampled_from([o for o in mods if o.order <= room])))
    return mod


@settings(max_examples=80, derandomize=True, deadline=None)
@given(enumeration_cases())
def test_backends_agree_on_submodule_enumeration(mod):
    args = (mod.order, mod.ring.order, list(mod.add_flat), list(mod.act_flat), mod.zero)
    members = reference_enumerate_submodules(*args)
    for impl in BACKENDS:
        assert impl.enumerate_submodules(*args) == members, impl.BACKEND_NAME


def relabelled(args, rng):
    """The module tables ``args`` with its element indices permuted at
    random, zero moved off index 0, and the permutation (old -> new)."""
    m, n, add, act, zero = args
    perm = list(range(m))
    while perm[zero] == 0:
        rng.shuffle(perm)
    new_add = [0] * (m * m)
    for x in range(m):
        for y in range(m):
            new_add[perm[x] * m + perm[y]] = perm[add[x * m + y]]
    new_act = [0] * (n * m)
    for r in range(n):
        for x in range(m):
            new_act[r * m + perm[x]] = perm[act[r * m + x]]
    return (m, n, new_add, new_act, perm[zero]), perm


@functools.cache
def relabel_cases():
    """Tables of R and R^2 for a few rings, each with at most 64 elements."""
    squares = [tl.power_module(tl.parse_ring_spec(spec), 2)
               for spec in ["Z(4)", "UT2(2)", "prod(Z(2),Z(2))"]]
    return ([ring_tables(spec) for spec in ["Z(8)", "Z(6)", "UT2(2)", "prod(Z(2),Z(2))", "M2(2)"]]
            + [(sq.order, sq.ring.order, list(sq.add_flat), list(sq.act_flat), sq.zero)
               for sq in squares])


@pytest.mark.parametrize("index", range(8))
def test_enumeration_does_not_depend_on_the_labels(index):
    # the pure walk picks each submodule's parent by index order, so the
    # same module under other labels, zero not first, must give the same family
    args = relabel_cases()[index]
    members = reference_enumerate_submodules(*args)
    rng = random.Random(index)
    for _ in range(20):
        moved, perm = relabelled(args, rng)
        expected = reference_enumerate_submodules(*moved)
        assert expected == sorted(sum(1 << perm[x] for x in _core_py.bits_of(bits))
                                  for bits in members)
        for impl in BACKENDS:
            assert impl.enumerate_submodules(*moved) == expected, impl.BACKEND_NAME


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_each_submodule_extends_its_greedy_parent(impl):
    # T is the span of its greedy generators g, and the span of g[:-1]
    # is a submodule too, whose least missing member of T is g[-1]
    rng = random.Random(0)
    cases = [*submodule_cases(), *(relabelled(args, rng)[0] for args in relabel_cases())]
    for args in cases:
        members = impl.enumerate_submodules(*args)
        family = set(members)
        for bits in members:
            if bits == 1 << args[4]:  # the zero submodule has no parent
                continue
            gens = kernels.greedy_generators(*args, bits)
            parent = naive_closure(*args, gens[:-1])
            assert parent in family, (args, bits)
            missing = bits & ~parent
            assert gens[-1] == (missing & -missing).bit_length() - 1


@needs_core
def test_compiled_kernels_reject_entries_outside_their_tables():
    # the C kernels index raw arrays: a bad index must raise, not read out of bounds
    add = [0, 1, 1, 0]
    for call in (lambda: _core.enumerate_submodules(2, 1, add, [0, 2], 0),
                 lambda: _core.enumerate_submodules(2, 1, add, [0, 1], 2)):
        with pytest.raises(ValueError):
            call()


def test_selected_backend_is_exported():
    assert kernels.backend() in ("compiled", "pure-python")
    assert tl.backend() == kernels.backend()


def test_only_submodule_enumeration_is_compiled():
    selected = _core if kernels.backend() == "compiled" else _core_py
    names = {name for name, value in vars(kernels).items()
             if callable(value) and name != "backend"}
    assert COMPILED_KERNELS <= names
    assert not {"module_axiom_witness", "assoc_witness"} & set(vars(kernels))
    for name in names:
        impl = selected if name in COMPILED_KERNELS else _core_py
        assert getattr(kernels, name) is getattr(impl, name), name
    if _core is not None:
        assert {name for name in vars(_core) if not name.startswith("__")} == \
            {"enumerate_submodules", "BACKEND_NAME"}

