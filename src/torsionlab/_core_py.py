"""Pure-Python reference implementation of the hot kernels.

Every function here has a compiled twin in ``_core`` (Cython).  The two
implementations must stay observationally identical: on the same inputs
they return identical results and identical witnesses, while their
algorithms may differ (the delta kernels here skip repeated u/z sums,
the compiled ones do not).  ``kernels`` picks one at import time and the
test suite cross-checks them.

Conventions shared by both backends:

* operation tables are flat row-major sequences of element indices
  (``table[i * m + j]``),
* subsets of a structure of order ``m`` are Python ints used as bitsets
  (bit ``i`` set iff element ``i`` is a member),
* witnesses are tuples of element indices, ``None`` means "no witness".
"""

import itertools

BACKEND_NAME = "pure-python"


def bits_of(mask):
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def sum_with_orbit(sub, x, m, n, add, act):
    """Closure of ``sub + Rx`` for a closed ``sub`` and one new generator.

    ``{r.x : r in R}`` is itself closed under addition and scalars, so the
    elementwise sum of the two sets is already the generated submodule.
    """
    orbit = set()
    for r in range(n):
        orbit.add(act[r * m + x])
    elems = list(bits_of(sub))
    out = sub
    for t in orbit:
        for s in elems:
            out |= 1 << add[s * m + t]
    return out


def span_closure(m, n, add, act, zero, gens):
    """Least subset containing ``gens`` closed under add and scalar action."""
    out = 1 << zero
    for g in gens:
        if not out >> g & 1:
            out = sum_with_orbit(out, g, m, n, add, act)
    return out


def enumerate_submodules(m, n, add, act, zero):
    """All closed subsets, as a sorted list of bitsets."""
    start = 1 << zero
    found = {start}
    queue = [start]
    while queue:
        sub = queue.pop()
        for x in range(m):
            if sub >> x & 1:
                continue
            bigger = sum_with_orbit(sub, x, m, n, add, act)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found)


def closure_tables(members):
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
            hi = index.get(acc)
            if hi is None or acc & union != union:
                raise ValueError(f"family has no least upper bound for members {i} and {j}")
            join[i * k + j] = join[j * k + i] = hi
    return meet, join


def modularity_witness(k, meet, join):
    """First triple (x, y, z) with x <= z violating the modular law."""
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


def assoc_witness(m, table):
    """First (i, j, k) with (i*j)*k != i*(j*k), else None."""
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
    """Check the four scalar-action axioms; witness = (code, i, j, k)."""
    arows = [act[r * m:(r + 1) * m] for r in range(n)]
    mrows = [madd[x * m:(x + 1) * m] for x in range(m)]
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
        arow_r = arows[r]
        for s in range(n):
            arow_s = arows[s]
            arow_rs = arows[radd[r * n + s]]
            probe = [mrows[arow_r[x]][arow_s[x]] for x in range(m)]
            if arow_rs != probe:
                for x in range(m):
                    if arow_rs[x] != probe[x]:
                        return ("add_act", r, s, x)
            arow_prod = arows[rmul[r * n + s]]
            probe = [arow_r[arow_s[x]] for x in range(m)]
            if arow_prod != probe:
                for x in range(m):
                    if arow_prod[x] != probe[x]:
                        return ("mul_act", r, s, x)
    arow_one = arows[one]
    for x in range(m):
        if arow_one[x] != x:
            return ("one_act", x, -1, -1)
    return None


def _delta_bases(m, rows, u_arity, z_arity, madd, act, c, d, e, zero):
    """Yield ``(tup, base)`` for every (u, z) tuple in odometer order.

    ``base[j]`` is row j's u/z part, summed left to right from ``zero``:
    the whole of row j's value except its x/y terms.
    """
    for tup in itertools.product(range(m), repeat=u_arity + z_arity):
        base = []
        for j in range(rows):
            val = zero
            for i in range(u_arity):
                u = tup[i]
                val = madd[val * m + act[c[j * u_arity + i] * m + u]]
                val = madd[val * m + act[d[j * u_arity + i] * m + u]]
            for i in range(z_arity):
                val = madd[val * m + act[e[j * z_arity + i] * m + tup[u_arity + i]]]
            base.append(val)
        yield tup, tuple(base)


def delta_cond1_witness(m, rows, u_arity, z_arity, madd, act, a, b, c, d, e, zero):
    """Exhaustive check that every difference row vanishes under x=y, u=v.

    Quantifies over all (x, u-tuple, z-tuple); returns
    ``(x, *u, *z, row)`` for the first nonzero evaluation.

    ``madd`` must be associative with identity ``zero`` (a module's
    validated addition): row j is evaluated as ``(a_j x + b_j x) +
    base[j]``, and a tuple whose base was already cleared is skipped.
    """
    xterm = [[madd[act[a[j] * m + x] * m + act[b[j] * m + x]] for x in range(m)]
             for j in range(rows)]
    cleared = set()
    for tup, base in _delta_bases(m, rows, u_arity, z_arity, madd, act, c, d, e, zero):
        if base in cleared:
            continue
        for x in range(m):
            for j in range(rows):
                if madd[xterm[j][x] * m + base[j]] != zero:
                    return (x, *tup, j)
        cleared.add(base)
    return None


def delta_cond2_witness(m, rows, u_arity, z_arity, madd, act, a, b, c, d, e, zero):
    """Exhaustive search for x != y where every row vanishes under u=v.

    Quantifies over all (x, y, u-tuple, z-tuple); returns
    ``(x, y, *u, *z)`` for the first counterexample tuple.

    ``madd`` must be associative with identity ``zero`` (a module's
    validated addition): row j is evaluated as ``(a_j x + b_j y) +
    base[j]``, and a tuple whose base was already cleared is skipped.
    """
    arows = [act[a[j] * m:(a[j] + 1) * m] for j in range(rows)]
    brows = [act[b[j] * m:(b[j] + 1) * m] for j in range(rows)]
    cleared = set()
    for tup, base in _delta_bases(m, rows, u_arity, z_arity, madd, act, c, d, e, zero):
        if base in cleared:
            continue
        for x in range(m):
            for y in range(m):
                if x != y and all(
                        madd[madd[arows[j][x] * m + brows[j][y]] * m + base[j]] == zero
                        for j in range(rows)):
                    return (x, y, *tup)
        cleared.add(base)
    return None
