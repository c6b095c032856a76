"""Pure-Python implementation of the hot kernels.

Three kernels here, ``enumerate_submodules``, ``modularity_witness`` and
``module_axiom_witness``, have a compiled twin in ``_core``, built from
the hand-written C source ``_core.c``; ``kernels`` picks one of each pair
at import time, and takes every other kernel from this module on both
backends.  ``orbit``, ``_coset`` and ``sum_with_orbit`` are helpers of
the kernels here and are not exported.  A kernel and its twin must stay
observationally identical: on the same inputs they return identical
results and identical witnesses, while their algorithms may differ.  The
test suite cross-checks them.

The lattice kernels do less work than their definitions suggest, with
the same results, errors and witnesses (both backends, except that the
compiled modularity search keeps its plain loops):

* ``enumerate_submodules`` extends each submodule S once per coset: S +
  Rx depends only on x + S, so only the least x of each coset is tried.
  ``sum_with_orbit`` adds S + t only for orbit elements t not yet in the
  sum, so S + Rx costs |S + Rx| lookups, not |S| * |Rx|.
* ``modularity_witness`` compares, for each x <= z, every y at once with
  two ``bytes.translate`` calls, up to 256 members; above that it scans
  the triples one at a time.

The table checks (``assoc_witness``, ``module_axiom_witness``) take a
byte route when every order is at most 256: rows become ``bytes``, and
each axiom is compared for one fixed element at a time with C-level
``bytes.translate`` and ``join`` calls over whole rows.  They still
evaluate every triple, and the first differing byte gives the first
witness of the order the loops scan in: (i, j, k) for associativity,
and for modules every ``act_add`` (r, x, y), then (r, s, x) with
``add_act`` before ``mul_act`` at the same x, then ``one_act``.  Above
256 the same order is scanned by the ``*_loops`` functions, which the
tests keep as the reference for the byte route.  A ring's tables are
checked by ``module_axiom_witness`` on R acting on itself, so its
distributivity, associativity and 1*x = x are found in this same order.

The delta kernels (``delta_cond1_witness``, ``delta_cond2_witness``)
split each row's value into its x/y terms and its u/z part, the base.
``_delta_bases`` finds the distinct bases variable by variable, by
prefix sums, each with the first (u, z) tuple in odometer order that
reaches it; a reducible axiom (d = -c, e = 0) has one base, all zero,
however many tuples there are.  Each base is then tested for every x
(cond1) or every (x, y) (cond2) at once, as bytes, up to 256 elements;
above that the ``*_loops`` functions test it one element at a time.

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
    return {act[r * m + x] for r in range(n)}


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


def modularity_witness(k, meet, join):
    """First triple (x, y, z) with x <= z violating the modular law,
    scanned in (x, y, z) order.

    Up to ``BYTE_ORDER_LIMIT`` members, each (x, z) with x <= z is
    checked for every y at once: with M_z column z of meet and J_x row x
    of join as bytes, M_z translated by J_x is x v (y ^ z) and J_x
    translated by M_z is (x v y) ^ z.  For each x the least mismatching
    y wins, over all z, and the least z among ties.
    """
    if k > BYTE_ORDER_LIMIT:
        return _modularity_witness_loops(k, meet, join)
    meet_b, join_b = bytes(meet), bytes(join)
    cols = [meet_b[z::k] for z in range(k)]
    cols_tr = [_translator(col) for col in cols]
    for x in range(k):
        row = join_b[x * k:(x + 1) * k]
        row_tr = _translator(row)
        best = None
        for z in range(k):
            if meet_b[x * k + z] != x:
                continue  # need x <= z
            lhs = cols[z].translate(row_tr)
            rhs = row.translate(cols_tr[z])
            if lhs != rhs:
                y = _first_diff(lhs, rhs)
                if best is None or y < best[0]:
                    best = (y, z)
        if best is not None:
            return (x, *best)
    return None


def _modularity_witness_loops(k, meet, join):
    """``modularity_witness`` for any size, one triple at a time."""
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


# the key and result of the last ``_delta_bases`` call: both delta
# kernels run on the same arguments, one after the other
_last_bases = (None, None)


def _delta_bases(m, rows, u_arity, z_arity, madd, act, c, d, e, zero):
    """Each distinct u/z base, mapped to the first (u, z) tuple in
    odometer order that reaches it, as a dict in the order of those
    tuples.

    ``base[j]`` is row j's u/z part summed from ``zero``: the whole of
    row j's value except its x/y terms.  The bases are built one
    variable at a time.  The partial sums after v variables are kept
    with their odometer-first prefix, and only those prefixes are
    extended by t = 0..m-1: a prefix p reaches the same partial sum as
    the kept prefix q <= p, so p + (t,) reaches what q + (t,) does, and
    q + (t,) comes first.  Walking the kept prefixes in insertion order
    therefore meets every sum first at its odometer-first tuple.  The
    cost is the sum over v of |B_v| * m * rows, with B_v the partial
    sums after v variables, instead of m**(u+z) tuples.

    ``madd`` must be associative: u_i adds c_ij u_i + d_ij u_i as one
    step.

    The last call's result is returned again for equal arguments, so the
    two kernels share one build.  The arguments are compared by value, as
    tuples, so the kept result is the one a new build would give, whoever
    calls; a tuple argument is kept as it is, so the same table object
    compares at once.
    """
    global _last_bases
    if not rows:  # zip() over no rows below would yield no sums at all
        return {(): (0,) * (u_arity + z_arity)}
    key = (m, rows, u_arity, z_arity, tuple(madd), tuple(act), tuple(c), tuple(d),
           tuple(e), zero)
    last_key, last = _last_bases
    if last_key == key:
        return last
    # steps[v][j][t]: what variable v = t adds to row j
    steps = []
    for i in range(u_arity):
        steps.append([[madd[act[cj * m + t] * m + act[dj * m + t]] for t in range(m)]
                      for cj, dj in zip(c[i::u_arity], d[i::u_arity])])
    for i in range(z_arity):
        steps.append([act[ej * m:(ej + 1) * m] for ej in e[i::z_arity]])
    bases = {(zero,) * rows: ()}
    for step in steps:
        grown = {}
        for base, tup in bases.items():
            sums = zip(*[map(madd[w * m:(w + 1) * m].__getitem__, add)
                         for w, add in zip(base, step)])
            for t, new in enumerate(sums):
                if new not in grown:
                    grown[new] = (*tup, t)
        bases = grown
    _last_bases = (key, bases)
    return bases


def _vanish_tables(m, madd, zero):
    """``table(w)``: the translate table sending t to 1 if t + w is
    ``zero`` and to 0 otherwise, built once per w."""
    tables = {}

    def table(w):
        got = tables.get(w)
        if got is None:
            got = tables[w] = _translator(bytes([madd[t * m + w] == zero for t in range(m)]))
        return got
    return table


def delta_cond1_witness(m, rows, u_arity, z_arity, madd, act, a, b, c, d, e, zero):
    """Exhaustive check that every difference row vanishes under x=y, u=v.

    Quantifies over all (x, u-tuple, z-tuple); returns
    ``(x, *u, *z, row)`` for the first nonzero evaluation.

    ``madd`` must be associative with identity ``zero`` (a module's
    validated addition): row j is evaluated as ``(a_j x + b_j x) +
    base[j]``, once for each distinct base (see ``_delta_bases``).  Up
    to ``BYTE_ORDER_LIMIT`` the row values a_j x + b_j x for every x are
    bytes, translated through "t + base[j] is zero" for each base: the
    first 0 byte of row j is its least failing x, and the least x over
    the rows wins, the least j among ties.
    """
    bases = _delta_bases(m, rows, u_arity, z_arity, madd, act, c, d, e, zero)
    xterm = [[madd[act[a[j] * m + x] * m + act[b[j] * m + x]] for x in range(m)]
             for j in range(rows)]
    if m > BYTE_ORDER_LIMIT:
        return _delta_cond1_witness_loops(m, madd, xterm, zero, bases)
    xrows = [bytes(row) for row in xterm]
    vanish = _vanish_tables(m, madd, zero)
    for base, tup in bases.items():
        fails = [(x, j) for j, x in enumerate(
                     row.translate(vanish(w)).find(0) for row, w in zip(xrows, base))
                 if x >= 0]
        if fails:
            x, j = min(fails)
            return (x, *tup, j)
    return None


def _delta_cond1_witness_loops(m, madd, xterm, zero, bases):
    """``delta_cond1_witness`` for any order, one (x, j) at a time over
    the distinct ``bases``; ``xterm[j][x]`` is a_j x + b_j x."""
    for base, tup in bases.items():
        for x in range(m):
            for j in range(len(xterm)):
                if madd[xterm[j][x] * m + base[j]] != zero:
                    return (x, *tup, j)
    return None


def delta_cond2_witness(m, rows, u_arity, z_arity, madd, act, a, b, c, d, e, zero):
    """Exhaustive search for x != y where every row vanishes under u=v.

    Quantifies over all (x, y, u-tuple, z-tuple); returns
    ``(x, y, *u, *z)`` for the first counterexample tuple.

    ``madd`` must be associative with identity ``zero`` (a module's
    validated addition): row j is evaluated as ``(a_j x + b_j y) +
    base[j]``, once for each distinct base (see ``_delta_bases``).  Up
    to ``BYTE_ORDER_LIMIT`` the row values a_j x + b_j y for every
    (x, y) are m*m bytes in row-major order.  For each base they are
    translated through "t + base[j] is zero" and read as ints; the AND
    over the rows, off the diagonal, has its lowest set byte at the
    least counterexample (x, y).
    """
    bases = _delta_bases(m, rows, u_arity, z_arity, madd, act, c, d, e, zero)
    arows = [act[a[j] * m:(a[j] + 1) * m] for j in range(rows)]
    brows = [act[b[j] * m:(b[j] + 1) * m] for j in range(rows)]
    if m > BYTE_ORDER_LIMIT:
        return _delta_cond2_witness_loops(m, madd, arows, brows, zero, bases)
    madd_b = bytes(madd)
    pair_rows = []
    for arow, brow in zip(map(bytes, arows), map(bytes, brows)):
        # position x*m + y: row a_j x of madd at b_j y
        pair_rows.append(b"".join([brow.translate(_translator(madd_b[v * m:(v + 1) * m]))
                                   for v in arow]))
    off_diagonal = int.from_bytes(((b"\0" + b"\1" * m) * m)[:m * m], "little")
    vanish = _vanish_tables(m, madd, zero)
    for base, tup in bases.items():
        hit = off_diagonal
        for row, w in zip(pair_rows, base):
            hit &= int.from_bytes(row.translate(vanish(w)), "little")
            if not hit:
                break
        if hit:
            return (*divmod(((hit & -hit).bit_length() - 1) >> 3, m), *tup)
    return None


def _delta_cond2_witness_loops(m, madd, arows, brows, zero, bases):
    """``delta_cond2_witness`` for any order, one (x, y) at a time over
    the distinct ``bases``; ``arows[j]``/``brows[j]`` are the rows of
    ``act`` for a_j and b_j."""
    for base, tup in bases.items():
        for x in range(m):
            for y in range(m):
                if x != y and all(
                        madd[madd[arows[j][x] * m + brows[j][y]] * m + base[j]] == zero
                        for j in range(len(arows))):
                    return (x, y, *tup)
    return None
