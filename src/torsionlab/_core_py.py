"""Pure-Python implementation of the hot kernels.

Two kernels here, ``enumerate_submodules`` and ``module_axiom_witness``,
have a compiled twin in ``_core``, built from the hand-written C source
``_core.c``; ``kernels`` picks one of each pair at import time, and
takes every other kernel from this module on both backends.  ``orbit``,
``_coset`` and ``sum_with_orbit`` are helpers of the kernels here and
are not exported.  A kernel and its twin must stay observationally
identical: on the same inputs they return identical results and
identical witnesses, while their algorithms may differ.  The test suite
cross-checks them.  Lattice modularity is decided in ``modules``, with
no kernel.

``enumerate_submodules`` does less work than its definition suggests,
with the same result on both backends: S + Rx depends only on x + S, so
only the least x of each coset is tried.  ``sum_with_orbit`` adds S + t
only for orbit elements t not yet in the sum, so S + Rx costs |S + Rx|
lookups, not |S| * |Rx|.

The table checks (``assoc_witness``, ``module_axiom_witness``) scan
every triple, so the package does not decide the axioms with them:
``rings.check_abelian_group`` and ``rings.action_axiom_witness`` decide
associativity of + and the module axioms on additive generators, and
call these kernels only when that decision fails, to name the first
witness.  On valid tables they do not run.

They take a byte route when every order is at most 256: rows become
``bytes``, and each axiom is compared for one fixed element at a time
with C-level ``bytes.translate`` and ``join`` calls over whole rows.
The first differing byte gives the first witness of the order the
loops scan in: (i, j, k) for associativity,
and for modules every ``act_add`` (r, x, y), then (r, s, x) with
``add_act`` before ``mul_act`` at the same x, then ``one_act``.  Above
256 the same order is scanned by the ``*_loops`` functions, which the
tests keep as the reference for the byte route.  A ring's faulty tables
are named by ``module_axiom_witness`` on R acting on itself, so its
distributivity, associativity and 1*x = x are found in this same order.

Conventions shared by both backends:

* operation tables are flat row-major sequences of element indices
  (``table[i * m + j]``),
* subsets of a structure of order ``m`` are Python ints used as bitsets
  (bit ``i`` set iff element ``i`` is a member),
* witnesses are tuples of element indices, ``None`` means "no witness".
"""

BACKEND_NAME = "pure-python"


def bits_of(mask):
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def orbit(x, m, n, act):
    """The set {r.x : r in R} of one element x."""
    return set(act[x::m])  # act holds n rows of m entries


def _coset(elems, t, m, add):
    """The bitset of s + t over the members s listed in ``elems``."""
    out = 0
    for s in elems:
        out |= 1 << add[s * m + t]
    return out


def sum_with_orbit(sub, elems, orb, m, add):
    """Closure of ``sub + Rx`` for a closed ``sub``, given its members
    ``elems`` and the orbit ``orb`` of the new generator x.

    The orbit is itself closed under addition and scalars, so the
    elementwise sum of the two sets is already the generated submodule:
    the union of the cosets S + t over t in the orbit.  An orbit element
    t already in the sum so far is s + t0 for an earlier t0, and
    S + t = S + t0 adds nothing, so each coset is added once.
    """
    out = sub
    for t in orb:
        if not out >> t & 1:
            out |= _coset(elems, t, m, add)
    return out


def greedy_generators(m, n, add, act, zero, bits):
    """Canonical generators of the closed subset ``bits``: repeatedly
    adjoin the least missing element."""
    zero_bits = 1 << zero
    if bits == zero_bits:
        return (zero,)
    gens = []
    cur = zero_bits
    while cur != bits:
        missing = bits & ~cur
        x = (missing & -missing).bit_length() - 1
        gens.append(x)
        cur = sum_with_orbit(cur, list(bits_of(cur)), orbit(x, m, n, act), m, add)
    return tuple(gens)


def span_closure(m, n, add, act, zero, gens):
    """Least subset containing ``gens`` closed under add and scalar action."""
    out = 1 << zero
    for g in gens:
        if not out >> g & 1:
            out = sum_with_orbit(out, list(bits_of(out)), orbit(g, m, n, act), m, add)
    return out


def enumerate_submodules(m, n, add, act, zero):
    """All closed subsets, as a sorted list of bitsets.

    S + Rx depends only on the coset x + S: R(x + s) lies in Rx + S and
    Rx in R(x + s) + S.  So each popped S is extended once per coset, by
    its least element, which also keeps the order of the pushes.
    """
    orbits = [orbit(x, m, n, act) for x in range(m)]
    start = 1 << zero
    found = {start}
    queue = [start]
    while queue:
        sub = queue.pop()
        elems = list(bits_of(sub))
        seen = sub
        for x in range(m):
            if seen >> x & 1:
                continue
            seen |= _coset(elems, x, m, add)
            bigger = sum_with_orbit(sub, elems, orbits[x], m, add)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found)


# the byte routes need every element index in a byte
BYTE_ORDER_LIMIT = 256


def _translator(row):
    """A map on 0..len(row)-1, given as bytes, as a translate table."""
    return row.ljust(256, b"\0")


def _first_diff(a, b):
    """Index of the first position where the equal-length ``a``, ``b`` differ."""
    return next(i for i, (p, q) in enumerate(zip(a, b)) if p != q)


def _byte_rows(table, m, k):
    """``table`` (k rows of m entries) as bytes, and its rows."""
    flat = bytes(table)
    return flat, [flat[i * m:(i + 1) * m] for i in range(k)]


def _additive_witness(f, m, add, add_tr):
    """First (x, y) in row-major order with f(x + y) != f(x) + f(y).

    ``f`` maps 0..m-1 (m bytes); ``add`` is the m x m addition table as
    bytes and ``add_tr[a]`` row a of it as a translate table.  Position
    x*m + y of both sides holds the pair (x, y).
    """
    lhs = add.translate(_translator(f))
    rhs = b"".join([f.translate(add_tr[fx]) for fx in f])
    if lhs == rhs:
        return None
    return divmod(_first_diff(lhs, rhs), m)


def assoc_witness(m, table):
    """First (i, j, k) with (i*j)*k != i*(j*k), else None."""
    if m > BYTE_ORDER_LIMIT:
        return _assoc_witness_loops(m, table)
    flat, rows = _byte_rows(table, m, m)
    for i, row_i in enumerate(rows):
        # position j*m + k: rows[i*j][k] = (i*j)*k and row_i[j*k] = i*(j*k)
        lhs = b"".join([rows[v] for v in row_i])
        rhs = flat.translate(_translator(row_i))
        if lhs != rhs:
            return (i, *divmod(_first_diff(lhs, rhs), m))
    return None


def _assoc_witness_loops(m, table):
    """``assoc_witness`` for any order, one row comparison per (i, j)."""
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


def module_axiom_witness(n, m, radd, rmul, madd, act, one):
    """Check the four scalar-action axioms; witness = (code, i, j, k).

    The order is that of the compiled twin: every ``act_add`` (r, x, y),
    then (r, s, x) with ``add_act`` before ``mul_act`` at each, then
    ``one_act`` (x, -1, -1).
    """
    if max(n, m) > BYTE_ORDER_LIMIT:
        return _module_axiom_witness_loops(n, m, radd, rmul, madd, act, one)
    madd_b, mrows = _byte_rows(madd, m, m)
    madd_tr = [_translator(row) for row in mrows]
    act_b, arows = _byte_rows(act, m, n)
    for r, arow in enumerate(arows):
        w = _additive_witness(arow, m, madd_b, madd_tr)
        if w is not None:
            return ("act_add", r, *w)
    # columns of act: cols[x][s] = s.x, so position x*n + s of each side
    # below holds the pair (s, x)
    cols = [act_b[x::m] for x in range(m)]
    cols_tr = [_translator(col) for col in cols]
    cols_b = b"".join(cols)
    radd_b, rmul_b = bytes(radd), bytes(rmul)
    for r, arow in enumerate(arows):
        radd_r = radd_b[r * n:(r + 1) * n]
        rmul_r = rmul_b[r * n:(r + 1) * n]
        add_lhs = b"".join([radd_r.translate(t) for t in cols_tr])  # (r+s).x
        add_rhs = b"".join([col.translate(madd_tr[rx]) for col, rx in zip(cols, arow)])
        mul_lhs = b"".join([rmul_r.translate(t) for t in cols_tr])  # (rs).x
        mul_rhs = cols_b.translate(_translator(arow))  # r.(s.x)
        if add_lhs != add_rhs or mul_lhs != mul_rhs:
            return _scalar_witness(r, n, m, radd, rmul, [list(row) for row in mrows],
                                   [list(row) for row in arows])
    identity = bytes(range(m))
    if arows[one] != identity:
        return ("one_act", _first_diff(arows[one], identity), -1, -1)
    return None


def _scalar_witness(r, n, m, radd, rmul, mrows, arows):
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


def _module_axiom_witness_loops(n, m, radd, rmul, madd, act, one):
    """``module_axiom_witness`` for any orders, one row comparison per
    (r, x) or (r, s)."""
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
        w = _scalar_witness(r, n, m, radd, rmul, mrows, arows)
        if w is not None:
            return w
    arow_one = arows[one]
    for x in range(m):
        if arow_one[x] != x:
            return ("one_act", x, -1, -1)
    return None

