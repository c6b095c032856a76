import contextlib
import signal

import pytest

import torsionlab as tl
from torsionlab import kernels, rings
from torsionlab.errors import InvariantError, TableError

# UT2(2) element indices under the canonical encoding 4a + 2b + c.
E11, E12, E22 = 4, 2, 1
ONE = 5
# Bitsets of the seven left ideals of UT2(2), verified against the
# matrix-arithmetic oracle in test_rings.py.
UT2_IDEAL_BITS = (1, 5, 15, 17, 65, 85, 255)
A_BITS = 85       # (e11, e12) = {0, e12, e11, e11+e12}
RE22_BITS = 15    # (e22) = {0, e22, e12, e12+e22}
# spec strings of the builtin rings of order <= 8
BUILTIN8 = [spec for spec, _ in tl.builtin_rings(8)]


@pytest.fixture(scope="session")
def ut2():
    return tl.parse_ring_spec("UT2(2)")


@pytest.fixture(scope="session")
def z4():
    return tl.parse_ring_spec("Z(4)")


@pytest.fixture(scope="session")
def z6():
    return tl.parse_ring_spec("Z(6)")


@pytest.fixture(scope="session")
def z8():
    return tl.parse_ring_spec("Z(8)")


@pytest.fixture(scope="session")
def gf2():
    return tl.parse_ring_spec("GF(2)")


@pytest.fixture(scope="session")
def builtin16():
    return tl.builtin_rings(16)


@pytest.fixture(scope="session")
def builtin8():
    return tl.builtin_rings(8)


@pytest.fixture(scope="session")
def ut2_nontrivial(ut2):
    """The validated notion {(e11,e12), R} over UT2(2)."""
    family = [tl.left_ideal_closure(ut2, [E11, E12]),
              tl.left_ideal_closure(ut2, [ut2.one])]
    notion = tl.check_torsion_axioms(ut2, family)
    assert isinstance(notion, tl.TorsionNotion)
    return notion


def trivial_notion(ring):
    notion = tl.check_torsion_axioms(ring, [tl.left_ideal_closure(ring, [ring.one])])
    assert isinstance(notion, tl.TorsionNotion)
    return notion


def reference_lattice_axioms(lattice):
    """Every lattice axiom, one entry at a time, in scan order: the loops
    that once reported the witness of a faulty table, kept as the
    reference for the tables ``FiniteLattice`` builds."""
    k = lattice.size
    for name, table in (("meet", lattice.meet), ("join", lattice.join)):
        for i in range(k):
            if table[i * k + i] != i:
                _lattice_fault(f"{name}-idempotent", (i,), f"{name}(x,x) != x")
            for j in range(k):
                if table[i * k + j] != table[j * k + i]:
                    _lattice_fault(f"{name}-commutative", (i, j), f"{name} not commutative")
        w = reference_assoc_witness(k, list(table))
        if w is not None:
            _lattice_fault(f"{name}-associative", w, f"{name} not associative")
    for i in range(k):
        for j in range(k):
            if lattice.meet[i * k + lattice.join[i * k + j]] != i:
                _lattice_fault("absorption", (i, j), "x ^ (x v y) != x")
            if lattice.join[i * k + lattice.meet[i * k + j]] != i:
                _lattice_fault("absorption", (i, j), "x v (x ^ y) != x")


def _lattice_fault(axiom, witness, message):
    raise InvariantError(f"lattice axiom {axiom!r} fails at {witness}: {message}")


# -- the reference loops of the table axioms and maps ------------------------
# The exhaustive scans and the map check that ``rings`` once ran above 256
# elements, kept verbatim: the one route of ``rings`` must name the same
# first witness at every order.

def reference_assoc_witness(m, table):
    """First (i, j, k) with (i*j)*k != i*(j*k) in the flat m x m
    ``table``, else None; one row comparison per (i, j)."""
    rows = [table[i * m:(i + 1) * m] for i in range(m)]
    for i in range(m):
        row_i = rows[i]
        for j in range(m):
            row_ij = rows[row_i[j]]
            row_j = rows[j]
            probe = [row_i[t] for t in row_j]
            if row_ij != probe:
                for k in range(m):
                    if row_ij[k] != probe[k]:
                        return (i, j, k)
    return None


def reference_module_axiom_witness(n, m, radd, rmul, madd, act, one):
    """The four scalar-action axioms on the flat tables; witness =
    (code, i, j, k), one row comparison per (r, x) or (r, s).

    The scan order: every ``act_add`` (r, x, y), then (r, s, x) with
    ``add_act`` before ``mul_act`` at each, then ``one_act`` (x, -1, -1).
    """
    arows = [list(act[r * m:(r + 1) * m]) for r in range(n)]
    mrows = [list(madd[x * m:(x + 1) * m]) for x in range(m)]
    for r in range(n):
        arow = arows[r]
        for x in range(m):
            rx_row = mrows[arow[x]]
            sums = mrows[x]
            probe = [rx_row[arow[y]] for y in range(m)]
            expect = [arow[sums[y]] for y in range(m)]
            if probe != expect:
                for y in range(m):
                    if probe[y] != expect[y]:
                        return ("act_add", r, x, y)
    for r in range(n):
        w = reference_scalar_witness(r, n, m, radd, rmul, mrows, arows)
        if w is not None:
            return w
    arow_one = arows[one]
    for x in range(m):
        if arow_one[x] != x:
            return ("one_act", x, -1, -1)
    return None


def reference_scalar_witness(r, n, m, radd, rmul, mrows, arows):
    """First ``add_act``/``mul_act`` witness for the scalar r, in (s, x)
    order with ``add_act`` first; ``mrows``/``arows`` are lists of rows."""
    arow_r = arows[r]
    for s in range(n):
        arow_s = arows[s]
        arow_sum = arows[radd[r * n + s]]
        arow_prod = arows[rmul[r * n + s]]
        add_probe = [mrows[arow_r[x]][arow_s[x]] for x in range(m)]
        mul_probe = [arow_r[t] for t in arow_s]
        if arow_sum != add_probe or arow_prod != mul_probe:
            for x in range(m):
                if arow_sum[x] != add_probe[x]:
                    return ("add_act", r, s, x)
                if arow_prod[x] != mul_probe[x]:
                    return ("mul_act", r, s, x)
    return None


def reference_operation_witness(f, m, g, src, dst):
    """First (i, x) in row-major order with f(src[i][x]) != dst[g[i]][f(x)],
    ``"range"`` when a table has the wrong size or an entry that is no
    element index, or None; ``f`` must map onto 0..m-1.  The per-element
    loop that ``rings.check_map`` once ran above 256 elements, with its
    min/max range check, here at every order."""
    k, n_src = len(g), len(f)
    if len(src) != k * n_src or len(dst) != (max(g) + 1) * m:
        return "range"
    if not (_reference_all_indices(src, n_src) and _reference_all_indices(dst, m)):
        return "range"
    for i, gi in enumerate(g):
        row = dst[gi * m:(gi + 1) * m]
        base = i * n_src
        for x in range(n_src):
            if f[src[base + x]] != row[f[x]]:
                return (i, x)
    return None


def _reference_all_indices(table, order):
    """Whether every entry of the nonempty ``table`` is an index 0..order-1."""
    try:
        return 0 <= min(table) and max(table) < order
    except TypeError:
        return False


# the ring axiom each module-axiom witness of R acting on itself names,
# with its message over the witness (i, j, k)
REFERENCE_RING_AXIOMS = {
    "act_add": ("left-distributive", "{0}*({1}+{2}) != {0}*{1} + {0}*{2}"),
    "add_act": ("right-distributive", "({0}+{1})*{2} != {0}*{2} + {1}*{2}"),
    "mul_act": ("mul-associative", "({0}*{1})*{2} != {0}*({1}*{2})"),
}


def reference_ring_axiom_error(w):
    """(axiom, witness, message) of the ``TableError`` that a ring raises
    for the module-axiom witness ``w`` of R acting on itself."""
    kind, i, j, k = w
    if kind == "one_act":
        return ("one-identity", (i,), f"one is not an identity at {i}")
    axiom, message = REFERENCE_RING_AXIOMS[kind]
    return (axiom, (i, j, k), message.format(i, j, k))


# -- the reference ring validator ---------------------------------------------
# Every table check ``FiniteRing`` makes, as plain loops in its check order:
# the one oracle for the ring ``TableError`` that the tests compare against.

def reference_as_table(raw, rows, cols, what):
    """Normalize a table of ``rows`` rows of ``cols`` indices to a tuple of
    tuples, checking shape/range."""
    if len(raw) != rows:
        raise TableError(f"{what}-shape", (len(raw),), f"{what} table must have {rows} rows")
    out = []
    for i, row in enumerate(raw):
        if len(row) != cols:
            raise TableError(f"{what}-shape", (i,), f"{what} row {i} must have {cols} entries")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < cols:
                raise TableError(f"{what}-range", (i, j), f"{what}[{i}][{j}] = {v!r} out of range")
        out.append(tuple(row))
    return tuple(out)


def reference_check_abelian_group(order, add, zero, what="add"):
    """Bounded-exhaustive abelian-group check; raises TableError on failure."""
    for i in range(order):
        if add[zero][i] != i:
            raise TableError(f"{what}-identity", (i,), f"zero + {i} != {i}")
    for i in range(order):
        row = add[i]
        for j in range(i + 1, order):
            if row[j] != add[j][i]:
                raise TableError(f"{what}-commutative", (i, j), f"{i} + {j} != {j} + {i}")
        if zero not in row:
            raise TableError(f"{what}-inverse", (i,), f"element {i} has no additive inverse")
    flat = [v for row in add for v in row]
    w = reference_assoc_witness(order, flat)
    if w is not None:
        raise TableError(f"{what}-associative", w, f"({w[0]}+{w[1]})+{w[2]} != {w[0]}+({w[1]}+{w[2]})")


def _reference_ring_checks(order, add, mul, zero, one):
    if order < 1:
        raise TableError("order", (order,), "ring order must be positive")
    add = reference_as_table(add, order, order, "add")
    mul = reference_as_table(mul, order, order, "mul")
    if not 0 <= zero < order:
        raise TableError("zero-range", (zero,), "zero index out of range")
    if not 0 <= one < order:
        raise TableError("one-range", (one,), "one index out of range")
    if zero == one and order > 1:
        raise TableError("zero-one", (zero,), "zero equals one in a ring of order > 1")
    reference_check_abelian_group(order, add, zero)
    add_flat = [v for row in add for v in row]
    mul_flat = [v for row in mul for v in row]
    w = reference_module_axiom_witness(order, order, add_flat, mul_flat, add_flat, mul_flat, one)
    if w is not None:
        raise TableError(*reference_ring_axiom_error(w))
    for i, row in enumerate(mul):
        if row[one] != i:
            raise TableError("one-identity", (i,), f"one is not an identity at {i}")


def reference_ring_error(order, add, mul, zero, one):
    """(axiom, witness, message) of the ``TableError`` that ``FiniteRing``
    raises for the tables (sequences of rows), else None: shape and
    range, zero and one, the abelian group, then the module axioms of R
    acting on itself, each named as the ring axiom it is, then x*1 = x."""
    try:
        _reference_ring_checks(order, add, mul, zero, one)
    except TableError as err:
        return err.axiom, err.witness, str(err)
    return None


@contextlib.contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` in the enclosed block after ``seconds``, so a
    loop that never ends fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- the reference ideal walks --------------------------------------------------
# The loops that ``_core_py.greedy_generators``, ``Submodule`` and
# ``rings.two_sided_closure`` once ran, kept as the references for the one
# walk and the one span that replaced them: every ideal keeps the generators
# and bits they gave, and every subset the verdict.

def reference_greedy_generators(m, n, add, act, zero, bits):
    """Canonical generators of the closed subset ``bits``: repeatedly adjoin
    the least missing element.  It never ends on a subset that is not closed."""
    if bits == 1 << zero:
        return (zero,)
    gens = []
    cur = 1 << zero
    while cur != bits:
        missing = bits & ~cur
        gens.append((missing & -missing).bit_length() - 1)
        cur = kernels.span_closure(m, n, add, act, zero, gens)
    return tuple(gens)


def scan_closure_witness(module, bits):
    """``("zero",)``, else the least ``("add", x, y)``, else the least
    ``("act", r, x)`` that leaves the subset ``bits``; None if it is closed.
    Each row's escapes are the members it does not send into ``bits``.
    The member scan that once checked every ``Submodule`` given by its
    bits, kept as the oracle for the walk that replaced it."""
    if not bits >> module.zero & 1:
        return ("zero",)
    order = module.order
    for x in kernels.bits_of(bits):
        missing = bits & ~rings.preimage(module.add[x], bits, order)
        if missing:
            return ("add", x, next(kernels.bits_of(missing)))
    for r, row in enumerate(module.act):
        missing = bits & ~rings.preimage(row, bits, order)
        if missing:
            return ("act", r, next(kernels.bits_of(missing)))
    return None


def reference_two_sided_closure(ring, generators):
    """``(generators, bits)`` of the least two-sided ideal containing the
    listed elements: span-closure and right products, repeated until
    nothing changes."""
    tables = (ring.order, ring.order, ring.add_flat, ring.mul_flat, ring.zero)
    bits = kernels.span_closure(*tables, generators)
    while True:
        extra = [ring.mul[a][r]
                 for a in kernels.bits_of(bits)
                 for r in range(ring.order)
                 if not bits >> ring.mul[a][r] & 1]
        if not extra:
            break
        bits = kernels.span_closure(*tables, list(kernels.bits_of(bits)) + extra)
    return reference_greedy_generators(*tables, bits), bits


# -- the reference membership gather ---------------------------------------------

def reference_preimage(row, bits, order):
    """``rings.preimage`` by the route it took before: membership read
    from the "0"/"1" string one entry at a time, by ``map`` over
    ``__getitem__``."""
    member = format(bits, f"0{order}b")[::-1]
    return int("".join(map(member.__getitem__, row))[::-1], 2)
