"""Finite left modules, submodule lattices, and lattice modularity.

Modules follow the same table-plus-bitset design as rings: a module of
order m over a ring of order n carries an m x m addition table and an
n x m scalar-action table, both validated at construction.
Submodules are bitsets over the module's index space.
"""

from itertools import chain, compress, repeat
from operator import add, attrgetter, eq

from . import kernels, rings
from .errors import InvariantError, TableError
from .rings import (Subset, TwoSidedIdeal, all_left_ideals, check_abelian_group,
                    check_generators, check_map, coset_representatives, pair_table,
                    preimage, product_maps, rows_of)
from .ringspec import document_ring


class FiniteModule:
    """A finite left module with explicit tables, validated on creation.

    Shape and range come first, by ``rings._as_table`` as for a ring:
    ``add`` m rows of m indices, then ``act`` n rows of m.  Then come the
    zero, ``check_abelian_group`` on the addition and
    ``rings.action_axiom_witness`` on the action: both decide each axiom
    on additive generators, and scan only an axiom whose decision
    failed, to name its first witness, which raises ``TableError``.
    Those generators come from ``rings._generators``, a plain search: the
    greedy walk that checks a ``Submodule`` relies on these axioms.

    ``_trusted`` skips every table check.  Only ``direct_sum`` and
    ``_checked_quotient`` (for ``quotient_module`` and ``module_corpus``)
    pass it, for tables that ``rings.check_map`` has proved valid through
    the maps that define them.  The module axioms are identities, so they
    hold in every homomorphic image of a module and, coordinate by
    coordinate, in every direct sum.  Trusted tables are flat and
    row-major, as those two build them: the flat tables are their
    ``tuple``, and each row is a slice of its flat table.  Tables from
    input (``file:``) are always checked.

    Two modules are not built here but share checked tables whole
    (``_sharing``): ``regular_module`` shares the ring's, which
    ``FiniteRing`` checked as R acting on itself, and a quotient by the
    zero submodule shares its parent's.
    """

    __slots__ = ("ring", "order", "add", "act", "zero", "name", "neg",
                 "add_flat", "act_flat", "_cache")

    def __init__(self, ring, order, add, act, zero, name="M", _trusted=False):
        if order < 1:
            raise TableError("order", (order,), "module order must be positive")
        self.ring = ring
        self.order = order
        self.name = name
        if _trusted:
            self.add_flat, self.act_flat = tuple(add), tuple(act)
            self.add, self.act = rows_of(self.add_flat, order), rows_of(self.act_flat, order)
        else:
            self.add = rings._as_table(add, order, order, "module-add")
            self.act = rings._as_table(act, ring.order, order, "act")
            self.add_flat = tuple(chain.from_iterable(self.add))
            self.act_flat = tuple(chain.from_iterable(self.act))
            if not isinstance(zero, int) or not 0 <= zero < order:
                raise TableError("module-zero-range", (zero,), "zero index out of range")
            check_abelian_group(order, self.add, zero, what="module-add")
            w = rings.action_axiom_witness(ring.order, order, ring.add_flat,
                                           ring.mul_flat, self.add_flat,
                                           self.act_flat, ring.one)
            if w is not None:
                raise TableError(w[0], w[1:], f"scalar action axiom {w[0]} fails at {w[1:]}")
        self.zero = zero
        self.neg = tuple(map(tuple.index, self.add, repeat(zero)))
        self._cache = {}

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"FiniteModule({self.name}, order={self.order} over {self.ring.name})"


class Submodule(Subset):
    """A submodule as a bitset.  Unless ``_trusted``, ``greedy_generators``
    walks the bits, as for an ideal: ``ValueError`` for bits outside
    0..order-1, or, naming an escape, for a subset that is not closed."""

    __slots__ = ("module", "bits")

    structure = property(attrgetter("module"))

    def __init__(self, module, bits, _trusted=False):
        self.module = module
        self.bits = bits
        if not _trusted:
            kernels.greedy_generators(module.order, module.ring.order, module.add_flat,
                                      module.act_flat, module.zero, bits)

    def __repr__(self):
        return f"<submodule of {self.module.name}, {len(self)} elements>"


def submodule_closure(module, gens):
    """Least submodule containing the listed elements; ``ValueError`` if
    one is outside 0..order-1."""
    gens = tuple(gens)
    check_generators(gens, module.order, module.name)
    bits = kernels.span_closure(module.order, module.ring.order, module.add_flat,
                                module.act_flat, module.zero, gens)
    return Submodule(module, bits, _trusted=True)


def submodule_sum(a, b):
    """Sum of two submodules of the same module: the closure of their union."""
    if a.module is not b.module:
        raise ValueError("submodule_sum: different modules")
    return submodule_closure(a.module, kernels.bits_of(a.bits | b.bits))


def all_submodules(module):
    """Every submodule exactly once, sorted by bitset value."""
    got = module._cache.get("subs")
    if got is None:
        masks = kernels.enumerate_submodules(module.order, module.ring.order,
                                             module.add_flat, module.act_flat,
                                             module.zero)
        got = tuple(Submodule(module, bits, _trusted=True) for bits in masks)
        module._cache["subs"] = got
    return got


# -- constructions -------------------------------------------------------

def _sharing(ring, name, source, act, act_flat):
    """A module over ``ring`` named ``name``, with its own cache, that
    shares the checked tables it is given: the order, zero, addition
    rows, flat addition and negation of ``source`` (a module or a ring)
    and the action ``act`` with its flat form.  No table is copied or
    checked."""
    got = object.__new__(FiniteModule)
    got.ring, got.name, got.act, got.act_flat, got._cache = ring, name, act, act_flat, {}
    got.order, got.zero, got.add, got.add_flat, got.neg = (
        source.order, source.zero, source.add, source.add_flat, source.neg)
    return got


def regular_module(ring):
    """The ring acting on itself by left multiplication.

    Its tables are the ring's own tuples, which ``FiniteRing`` checked as
    the module axioms of R acting on itself, so they are shared, not
    copied or checked again.
    """
    got = ring._cache.get("regular")
    if got is None:
        got = _sharing(ring, "R", ring, ring.mul, ring.mul_flat)
        # its submodules are R's left ideals, enumerated on the same tables
        got._cache["subs"] = tuple(Submodule(got, a.bits, _trusted=True)
                                   for a in all_left_ideals(ring))
        ring._cache["regular"] = got
    return got


def direct_sum(m1, m2):
    """Componentwise direct sum; index = i1 * |M2| + i2.

    Both coordinate maps are checked to preserve +, the action and zero,
    which proves the sum's tables valid (see ``rings.check_map``).
    """
    if m1.ring is not m2.ring:
        raise ValueError("direct_sum: modules over different rings")
    n2 = m2.order
    order = m1.order * n2
    add = pair_table(m1.add, m2.add)
    act = [m1.act[r][i // n2] * n2 + m2.act[r][i % n2]
           for r in range(m1.ring.order) for i in range(order)]
    zero = m1.zero * n2 + m2.zero
    name = f"dsum({m1.name},{m2.name})"
    scalars = range(m1.ring.order)
    for p, factor in zip(product_maps(m1.order, n2), (m1, m2)):
        check_map(f"direct sum {name}", p, factor.order,
                  [("+", p, add, factor.add_flat), ("action", scalars, act, factor.act_flat)],
                  [("zero", zero, factor.zero)])
    return FiniteModule(m1.ring, order, add, act, zero, name=name, _trusted=True)


def power_module(ring, k):
    """The free module R^k for k >= 0 (the zero module for k = 0)."""
    if k < 0:
        raise ValueError(f"power_module: exponent {k} is negative")
    if k == 0:
        return FiniteModule(ring, 1, [[0]], [[0]] * ring.order, 0, name="0")
    if k == 1:
        return regular_module(ring)
    got = ring._cache.get(("power", k))
    if got is None:
        got = regular_module(ring)
        for _ in range(k - 1):
            got = direct_sum(got, regular_module(ring))
        got.name = f"R^{k}"
        ring._cache[("power", k)] = got
    return got


def quotient_module(module, sub, name=None):
    """Quotient by a submodule; cosets keep their least element index.

    The projection is checked to be onto, with kernel ``sub``, and to
    preserve +, the action and zero, which proves the quotient's tables
    valid (see ``rings.check_map``).  Each call builds and checks anew,
    except by the zero submodule: M/0 is M under the new name, sharing
    M's tables (its projection is the identity, so nothing is derived
    and nothing is checked), with its own cache.
    """
    return _checked_quotient(module, sub, name or f"{module.name}/sub",
                             *_quotient_tables(module, sub))


def _quotient_tables(module, sub):
    """``(proj, m, add, act, zero)``: the projection onto the m cosets of
    ``sub`` and the unchecked flat tables of M/sub; by the zero
    submodule, the identity and M's own flat tables."""
    if sub.module is not module:
        raise ValueError("quotient_module: submodule of a different module")
    if sub.bits == 1 << module.zero:
        return range(module.order), module.order, module.add_flat, module.act_flat, module.zero
    reps, proj = coset_representatives(module.order, module.add, sub.elements())
    add = [proj[module.add[a][b]] for a in reps for b in reps]
    act = [proj[row[a]] for row in module.act for a in reps]
    return proj, len(reps), add, act, proj[module.zero]


def _checked_quotient(module, sub, name, proj, m, add, act, zero):
    """M/sub on ``_quotient_tables``' output, once ``check_map`` proves it
    valid; M/0, whose tables are M's own, shares them (``_sharing``)."""
    if add is module.add_flat:
        return _sharing(module.ring, name, module, module.act, module.act_flat)
    check_map(f"quotient module {name}", proj, m,
              [("+", proj, module.add_flat, add),
               ("action", range(module.ring.order), module.act_flat, act)],
              [("zero", module.zero, zero)], kernel=(module.zero, sub.bits))
    return FiniteModule(module.ring, m, add, act, zero, name=name, _trusted=True)


def module_from_table(doc, ring, name="table"):
    """A module over ``ring`` from a parsed ``{"order": m, "add": [[...]], "act": [[...]],
    "zero": z}``: ``rings.table_document`` checks its JSON form, ``ringspec.document_ring``
    its ``"ring"`` key, and ``FiniteModule`` shape, range and axioms."""
    order = rings.table_document(doc, "module", ("add", "act"), ("zero",))
    ring = document_ring(doc, ring)
    return FiniteModule(ring, order, doc["add"], doc["act"], doc["zero"], name=name)


def module_corpus(ring, bound=2):
    """The bounded test corpus: quotients of R^k for k <= bound, deduplicated.
    Only the first quotient with given tables is kept, map-checked and built."""
    key = ("corpus", bound)
    got = ring._cache.get(key)
    if got is not None:
        return got[0]
    out = []
    sources = []
    seen = set()
    for k in range(1, bound + 1):
        parent = power_module(ring, k)
        for i, sub in enumerate(all_submodules(parent)):
            _, m, add, act, zero = tables = _quotient_tables(parent, sub)
            if (m, tuple(add), tuple(act), zero) not in seen:
                quot = _checked_quotient(parent, sub, f"{parent.name}/s{i}", *tables)
                seen.add((quot.order, quot.add_flat, quot.act_flat, quot.zero))
                out.append(quot)
                sources.append((parent, i))
    got = ring._cache[key] = (tuple(out), tuple(sources))
    return got[0]


def _corpus_sources(ring, bound):
    """For each module of ``module_corpus(ring, bound)``, in order, the
    ``(parent, i)`` it is the quotient of: R^k by its i-th submodule in
    ``all_submodules`` order."""
    module_corpus(ring, bound)
    return ring._cache[("corpus", bound)][1]


# -- quasiidentity semantics ----------------------------------------------

def satisfies_quasiidentity(module, ideal):
    """Whether "ideal * x = 0 implies x = 0" holds in the module.

    That is, cl_A(0) = 0 for ``quasi_closure`` with A the ideal.
    """
    if ideal.ring is not module.ring:
        raise ValueError("quasiidentity over a different ring")
    zero_bit = 1 << module.zero
    return quasi_closure(module, ideal, zero_bit) == zero_bit


def quasi_closure(module, ideal, sub_bits):
    """cl_A(S) = {x : A x inside S} for a left ideal A and a submodule S,
    both S and the result as bitsets: the intersection of the preimages
    of S under the actions of A's generators.

    Testing the generators of A suffices: {r : r x in S} is a left
    ideal, so it contains A as soon as it contains the generators.
    S lies inside cl_A(S), and M/S satisfies "A x = 0 implies x = 0"
    exactly when cl_A(S) = S.
    """
    order = module.order
    bits = (1 << order) - 1  # an ideal may have no generators
    for g in ideal.generators:
        bits &= preimage(module.act[g], sub_bits, order)
    return bits


def annihilator(module):
    """Scalars acting as zero on the whole module; always two-sided."""
    ring = module.ring
    zero = module.zero
    bits = 0
    for r in range(ring.order):
        if all(v == zero for v in module.act[r]):
            bits |= 1 << r
    try:
        return TwoSidedIdeal(ring, bits=bits)
    except ValueError as exc:
        raise InvariantError(f"annihilator of {module.name} is not two-sided: {exc}") from exc


# -- lattices -------------------------------------------------------------

class FiniteLattice:
    """A family of bitsets closed under intersection, with a top, and its
    meet and join tables, built from the family row by row.

    The members are kept sorted by bitset value, so a member's subsets
    come before it and index order is a linear extension of the order.
    They are distinct, ``meet[i][j]`` is the member ``members[i]
    & members[j]``, and ``up[join[i][j]] == up[i] & up[j]``, with
    ``up[i]`` the members containing member i.  So each meet is the
    greatest member below both arguments and each join h the least above
    both (h is in ``up[h]``), which makes the lattice axioms hold.  A
    family that repeats a member, misses an intersection or lacks a join
    is an internal fault and raises ``InvariantError``.
    """

    __slots__ = ("members", "size", "meet", "join")

    def __init__(self, members):
        members = self.members = tuple(sorted(members))
        k = self.size = len(members)
        index = {a: i for i, a in enumerate(members)}
        if len(index) < k:
            raise InvariantError("lattice members repeat")
        meet = _pairwise_table(members, index, "family not closed under intersection:")
        ones = [1 << h for h in range(k)]
        # up[i]: the members containing member i, as a bitset of indices;
        # none is empty, so a pair that no member contains has no join
        up = [sum(compress(ones, map(i.__eq__, meet[i * k:(i + 1) * k]))) for i in range(k)]
        join = _pairwise_table(up, {u: h for h, u in enumerate(up)},
                               "family has no least upper bound for")
        self.meet = tuple(meet)
        self.join = tuple(join)

    def leq(self, i, j):
        return self.meet[i * self.size + j] == i

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"FiniteLattice({self.size} members)"


def _pairwise_table(keys, index, fault):
    """The flat table of ``index[keys[i] & keys[j]]``, built row by row
    from a symmetric operation: left of the diagonal each row is the
    column of the rows above.  A pair with no entry raises
    ``InvariantError`` naming ``fault`` and the first such pair."""
    k = len(keys)
    table = []  # a list: tuples grown from map() raise peak RSS
    for i, a in enumerate(keys):
        try:
            table += [*table[i::k], *map(index.__getitem__, map(a.__and__, keys[i:]))]
        except KeyError:
            j = next(j for j in range(i, k) if a & keys[j] not in index)
            raise InvariantError(f"family is not a closure system: {fault} members {i} "
                                 f"and {j}") from None
    return table


def lattice_from_family(members):
    """Build the lattice of an intersection-closed family of bitsets."""
    return FiniteLattice(members)


def modularity_witness(lattice):
    """First (x, y, z) with x <= z and x v (y ^ z) != (x v y) ^ z, or None.

    The lattice is modular exactly when its height function h, the
    length of the longest chain up from the bottom, has
    h(x) + h(y) = h(x ^ y) + h(x v y) for every pair (Birkhoff, *Lattice
    Theory*, ch. II).  Index order is a linear extension, so h(i) is one
    more than the largest h below member i, in one pass; the identity is
    then compared row by row over the upper triangle.

    The test is exact, so no chain-condition pass is needed:

    * h is strictly monotone.  For x <= z, a = x v (y ^ z) lies below
      b = (x v y) ^ z, and the identity, applied to (x, y ^ z), (y, z),
      (x, y) and (x v y, z), gives h(a) = h(b); so a < b is impossible
      and a = b.
    * In a modular lattice h is the rank, which satisfies the identity.

    Only when the identity fails are the triples searched, one at a
    time, for the first witness in (x, y, z) order.
    """
    k = lattice.size
    meet, join = lattice.meet, lattice.join
    h = []
    for i in range(k):
        # member j < i lies below member i exactly when meet[i][j] == j
        h.append(max(compress(h, map(eq, meet[i * k:i * k + i], range(i))), default=-1) + 1)
    height = h.__getitem__
    for x in range(k):
        upper = slice(x * k + x + 1, (x + 1) * k)
        if [*map(add, map(height, meet[upper]), map(height, join[upper]))] != \
                [*map(h[x].__add__, h[x + 1:])]:
            return _modularity_witness_loops(k, meet, join)
    return None


def _modularity_witness_loops(k, meet, join):
    """``modularity_witness`` by the triple search."""
    for x in range(k):
        row_x = x * k
        for y in range(k):
            m_y = y * k
            jy = join[row_x + y] * k
            for z in range(k):
                if meet[row_x + z] != x:
                    continue  # need x <= z
                if join[row_x + meet[m_y + z]] != meet[jy + z]:
                    return (x, y, z)
    return None


def is_modular(lattice):
    """Whether the lattice satisfies the modular law."""
    return modularity_witness(lattice) is None
