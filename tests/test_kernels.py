"""Kernel unit tests: each kernel against a naive independent oracle,
plus cross-checks between the compiled and pure backends."""

import itertools
import random

import pytest

import torsionlab as tl
from torsionlab import _core_py
from torsionlab import kernels
from torsionlab.delta import _coef_arrays

try:
    from torsionlab import _core
except ImportError:
    _core = None

BACKENDS = [_core_py] if _core is None else [_core_py, _core]


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


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
@pytest.mark.parametrize("spec", ["Z(6)", "Z(8)", "UT2(2)", "prod(Z(2),Z(2))"])
def test_span_closure_matches_naive_fixpoint(impl, spec):
    m, n, add, act, zero = ring_tables(spec)
    rng = random.Random(spec)
    for _ in range(20):
        gens = [rng.randrange(m) for _ in range(rng.randint(0, 3))]
        assert impl.span_closure(m, n, add, act, zero, gens) == \
            naive_closure(m, n, add, act, zero, gens)


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


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_closure_tables_match_naive_meet_join(impl, ut2):
    members = [a.bits for a in tl.all_left_ideals(ut2)]
    meet, join = impl.closure_tables(members)
    k = len(members)
    for i, j in itertools.product(range(k), repeat=2):
        assert members[meet[i * k + j]] == members[i] & members[j]
        union = members[i] | members[j]
        sups = [w for w in members if w & union == union]
        acc = sups[0]
        for w in sups[1:]:
            acc &= w
        assert members[join[i * k + j]] == acc


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_closure_tables_reject_non_closed_family(impl):
    # {1}, {2} as one-element sets: intersection is empty, not a member
    with pytest.raises(ValueError):
        impl.closure_tables([0b0010, 0b0100, 0b0110])


# N5: the five-set family 0 < {1} < {1,2} and {3,4}, realized as bitsets.
N5_FAMILY = [0b00000, 0b00010, 0b00110, 0b11000, 0b11110]


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_modularity_pentagon_has_witness(impl):
    meet, join = impl.closure_tables(N5_FAMILY)
    w = impl.modularity_witness(5, meet, join)
    assert w is not None
    x, y, z = w
    k = 5
    assert meet[x * k + z] == x
    assert join[x * k + meet[y * k + z]] != meet[join[x * k + y] * k + z]


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_modularity_chain_and_diamond_pass(impl):
    chain = [0b0001, 0b0011, 0b0111, 0b1111]
    meet, join = impl.closure_tables(chain)
    assert impl.modularity_witness(4, meet, join) is None
    # M3: three atoms meeting pairwise in the bottom, joining to the top
    diamond = [0b0000001, 0b0000111, 0b0011001, 0b1100001, 0b1111111]
    meet, join = impl.closure_tables(diamond)
    assert impl.modularity_witness(5, meet, join) is None


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_assoc_witness(impl):
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    flat = [v for row in table for v in row]
    assert impl.assoc_witness(4, flat) is None
    flat[1 * 4 + 2] = 0  # 1+2 = 0 breaks associativity
    w = impl.assoc_witness(4, flat)
    assert w is not None
    i, j, k = w
    assert flat[flat[i * 4 + j] * 4 + k] != flat[i * 4 + flat[j * 4 + k]]


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda i: i.BACKEND_NAME)
def test_module_axiom_witness_detects_broken_action(impl, z4):
    n = z4.order
    radd, rmul = list(z4.add_flat), list(z4.mul_flat)
    act = list(z4.mul_flat)
    assert impl.module_axiom_witness(n, n, radd, rmul, radd, act, z4.one) is None
    act[1 * n + 2] = 1  # 1*2 = 1 breaks the unit axiom
    w = impl.module_axiom_witness(n, n, radd, rmul, radd, act, z4.one)
    assert w is not None


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


def delta_kernel_cases():
    """Kernel arguments for reducible (as the census sweep draws them) and
    random axioms over the bound-2 corpus modules of order <= 16, within
    the sweep's budget of m**(2+u+z) <= 200000 evaluations."""
    for spec in DELTA_RINGS:
        ring = tl.parse_ring_spec(spec)
        corpus = [mod for mod in tl.module_corpus(ring, 2) if mod.order <= 16]
        rng = random.Random(spec)
        for k in range(20):
            if k % 2:
                axiom = random_delta(ring, rng)
            else:
                axiom = tl.random_reducible_delta(ring, rng)
            rows, a, b, c, d, e = _coef_arrays(axiom)
            for mod in corpus:
                if mod.order ** (2 + axiom.u_arity + axiom.z_arity) > 200000:
                    continue
                yield (mod.order, rows, axiom.u_arity, axiom.z_arity,
                       list(mod.add_flat), list(mod.act_flat), a, b, c, d, e, mod.zero)


def test_delta_kernels_return_reference_witnesses():
    calls = witnesses = order16 = 0
    for args in delta_kernel_cases():
        for new, ref in ((_core_py.delta_cond1_witness, reference_delta_cond1_witness),
                         (_core_py.delta_cond2_witness, reference_delta_cond2_witness)):
            got = new(*args)
            assert got == ref(*args), args
            calls += 1
            witnesses += got is not None
        order16 += args[0] == 16
    assert witnesses and calls - witnesses and order16


@pytest.mark.skipif(_core is None, reason="compiled backend not built")
def test_backends_agree_on_submodule_enumeration():
    for spec in ["Z(8)", "UT2(2)", "prod(Z(2),Z(2))"]:
        ring = tl.parse_ring_spec(spec)
        square = tl.power_module(ring, 2)
        args = (square.order, ring.order, list(square.add_flat),
                list(square.act_flat), square.zero)
        members = _core.enumerate_submodules(*args)
        assert members == _core_py.enumerate_submodules(*args)
        assert _core.closure_tables(members) == _core_py.closure_tables(members)


def test_selected_backend_is_exported():
    assert kernels.backend() in ("compiled", "pure-python")
    assert tl.backend() == kernels.backend()


@pytest.mark.skipif(_core is None, reason="compiled backend not built")
def test_backends_agree_on_delta_kernels():
    for args in delta_kernel_cases():
        assert _core.delta_cond1_witness(*args) == _core_py.delta_cond1_witness(*args)
        assert _core.delta_cond2_witness(*args) == _core_py.delta_cond2_witness(*args)
