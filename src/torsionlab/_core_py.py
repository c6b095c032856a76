"""Pure-Python implementation of the kernels.

``enumerate_submodules`` has a compiled twin in ``_core``, built from
the hand-written C source ``_core.c``; ``kernels`` picks one of the two
at import time, and takes every other kernel from this module on both
backends.  ``orbit``, ``_coset`` and ``sum_with_orbit`` are helpers of
the kernels here and are not exported.  The twins must stay
observationally identical: on the same inputs they return the same
sorted list, while their algorithms may differ.  The test suite
cross-checks them.  Lattice modularity is decided in ``modules`` and
the table axioms in ``rings``, with no kernel.

``enumerate_submodules`` builds each submodule once, from its parent in
the tree of greedy generators (canonical augmentation, McKay 1998).  The
compiled twin reaches the same list by a breadth-first search over
cosets that builds S + Rx for every S below it and drops the repeats
through a ``found`` set.  ``sum_with_orbit`` adds S + t only for orbit
elements t not yet in the sum, so S + Rx costs |S + Rx| lookups, not
|S| * |Rx|.  ``greedy_generators`` walks a subset's members once, in
increasing order: the generators it adjoins and its check that their
span is the subset come from that one walk, which ends on every input,
closed or not.

Conventions shared by both backends:

* operation tables are flat row-major sequences of element indices
  (``table[i * m + j]``),
* subsets of a structure of order ``m`` are Python ints used as bitsets
  (bit ``i`` set iff element ``i`` is a member).
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
    """Canonical generators of the closed subset ``bits``: each member,
    in increasing order, that the span of the generators so far misses,
    so each is the least member outside the span of the ones before it;
    the zero subset lists zero.  ``ValueError`` unless that span is
    ``bits``."""
    if bits < 0 or bits >> m:
        raise ValueError(f"bits {bits} name elements outside 0..{m - 1}")
    gens = []
    cur = 1 << zero
    for x in bits_of(bits):
        if not cur >> x & 1:
            gens.append(x)
            cur = sum_with_orbit(cur, list(bits_of(cur)), orbit(x, m, n, act), m, add)
    if cur != bits:
        raise ValueError("subset is not closed: it differs from the span of its members")
    return tuple(gens) or (zero,)


def span_closure(m, n, add, act, zero, gens):
    """Least subset containing ``gens`` closed under add and scalar action."""
    out = 1 << zero
    for g in gens:
        if not out >> g & 1:
            out = sum_with_orbit(out, list(bits_of(out)), orbit(g, m, n, act), m, add)
    return out


def enumerate_submodules(m, n, add, act, zero):
    """All closed subsets, as a sorted list of bitsets.

    A submodule T other than zero has the greedy generators g1 < ... < gk,
    each the least member of T outside the span of the ones before it.
    So T has one parent, S = span(g1 ... g(k-1)), whose greedy generators
    are g1 ... g(k-1), and T = S + R.gk.  Conversely, for x > g(k-1)
    outside S, T = S + Rx has S's generators followed by x exactly when
    no member of T outside S lies below x.  The walk pops (S, last), with
    last the greatest generator of S (-1 for zero), and pushes each such
    (T, x), so every submodule is built once, and no set of found ones is
    needed.  The coset x + S and the orbit Rx lie in T, so x is skipped
    before the sum when either has a member below x outside S; a member
    of a coset already met is such a member of its own coset.
    """
    orbits = [orbit(x, m, n, act) for x in range(m)]
    orbit_bits = [sum(1 << t for t in orb) for orb in orbits]
    out = []
    stack = [(1 << zero, -1)]
    while stack:
        sub, last = stack.pop()
        out.append(sub)
        elems = list(bits_of(sub))
        seen = sub
        for x in range(last + 1, m):
            if seen >> x & 1:
                continue
            coset = _coset(elems, x, m, add)
            seen |= coset
            outside_below = ~sub & ((1 << x) - 1)
            if (coset | orbit_bits[x]) & outside_below:
                continue
            bigger = sum_with_orbit(sub, elems, orbits[x], m, add)
            if not bigger & outside_below:
                stack.append((bigger, x))
    return sorted(out)
