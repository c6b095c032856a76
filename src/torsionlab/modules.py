"""Finite left modules, submodule lattices, and lattice modularity.

Modules follow the same table-plus-bitset design as rings: a module of
order m over a ring of order n carries an m x m addition table and an
n x m scalar-action table, both validated at construction.
Submodules are bitsets over the module's index space.
"""

from functools import reduce
from itertools import combinations, repeat
from operator import and_, attrgetter, eq, indexOf, itemgetter

from . import kernels, rings
from .errors import InvariantError, TableError
from .rings import (Subset, TwoSidedIdeal, all_left_ideals, check_abelian_group,
                    check_generators, check_map, coset_representatives, flat_table,
                    pair_table, preimage, product_maps, rows_of, table_entries)
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
    row-major, as those two build them.  Tables from input (``file:``)
    are always checked.  Either way the flat tables are stored as a
    ring's are (``rings.flat_table``): ``bytes`` up to 256 elements, one
    byte per entry, which ``check_map`` and ``rings.preimage`` read by
    ``translate`` without a copy, and tuples above; each row is a slice
    of its flat table.

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
        if not _trusted:
            add = table_entries(rings._as_table(add, order, order, "module-add"))
            act = table_entries(rings._as_table(act, ring.order, order, "act"))
            if not isinstance(zero, int) or not 0 <= zero < order:
                raise TableError("module-zero-range", (zero,), "zero index out of range")
        self.add_flat, self.act_flat = flat_table(add, order), flat_table(act, order)
        self.add, self.act = rows_of(self.add_flat, order), rows_of(self.act_flat, order)
        if not _trusted:
            check_abelian_group(order, self.add, zero, what="module-add")
            w = rings.action_axiom_witness(ring.order, order, ring.add_flat,
                                           ring.mul_flat, self.add_flat,
                                           self.act_flat, ring.one)
            if w is not None:
                raise TableError(w[0], w[1:], f"scalar action axiom {w[0]} fails at {w[1:]}")
        self.zero = zero
        self.neg = tuple(map(indexOf, self.add, repeat(zero)))
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

    Its tables are the ring's own flat tables, which ``FiniteRing``
    checked as the module axioms of R acting on itself, so they are
    shared, not copied or checked again.
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
    ``sub`` and the unchecked flat tables of M/sub, stored as
    ``rings.flat_table`` stores them; by the zero submodule, the identity
    and M's own flat tables.

    Each row of a quotient table is one column gather over the coset
    representatives (``itemgetter(*reps)``) mapped through the projection
    by ``_composition``'s ``as_map``: ``translate`` up to 256 elements, a
    list comprehension above, in one code path.  The m rows of ``add`` and
    the n rows of ``act`` are gathered by ``map`` and each table is one
    ``join``.  A subset without zero leaves some element in no coset, None
    in ``proj``; its tables are left empty, as ``check_map`` rejects such
    a projection before it reads a table."""
    if sub.module is not module:
        raise ValueError("quotient_module: submodule of a different module")
    if sub.bits == 1 << module.zero:
        return range(module.order), module.order, module.add_flat, module.act_flat, module.zero
    reps, proj = coset_representatives(module.order, module.add, sub.elements())
    m = len(reps)
    as_row, as_map, index_row, join = rings._composition(module.order)
    f = index_row(proj, m)
    if f is None:
        return proj, m, (), (), None
    to_coset = as_map(f)
    # itemgetter of one index returns an entry, not a sequence: for m = 1,
    # reps is [0], read as the slice [:1]
    gather = itemgetter(*reps) if m > 1 else itemgetter(slice(1))
    add, act = (join(map(to_coset, map(as_row, map(gather, rows))))
                for rows in (map(module.add.__getitem__, reps), module.act))
    return proj, m, flat_table(add, m), flat_table(act, m), proj[module.zero]


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
    Only the first quotient with given tables is kept, map-checked and built.
    The tables are compared as ``_quotient_tables`` stores them, ``bytes``
    up to 256 elements and tuples above, with no copy for the key."""
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
            tables = _quotient_tables(parent, sub)
            if tables[1:] not in seen:
                seen.add(tables[1:])
                out.append(_checked_quotient(parent, sub, f"{parent.name}/s{i}", *tables))
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
    """A family of bitsets closed under intersection, with a top, kept as
    its up-sets and upper covers, each a bitset of member indices.

    The members are sorted by bitset value, so index order is a linear
    extension of the order.  ``up[i]``, the members containing member i,
    is the AND over the elements p of member i of the members holding p.
    The lowest index left in i's strict up-set is an upper cover of i,
    and dropping that cover's up-set leaves the members above no cover
    found yet: so ``covers[i]`` is peeled off ``up[i]``.  The meet of i
    and j is the index of ``members[i] & members[j]``, their join the
    lowest index in ``up[i] & up[j]``.  A family that repeats a member,
    misses an intersection (checked row by row with ``issuperset``) or
    lacks a top is an internal fault and raises ``InvariantError``,
    naming the first failing pair."""

    __slots__ = ("members", "size", "index", "up", "covers")

    def __init__(self, members):
        members = self.members = tuple(sorted(members))
        k = self.size = len(members)
        index = self.index = {a: i for i, a in enumerate(members)}
        if len(index) < k:
            raise InvariantError("lattice members repeat")
        keys = frozenset(members)
        for i, a in enumerate(members):
            if not keys.issuperset(map(a.__and__, members[i:])):
                raise _not_a_closure_system("family not closed under intersection:", members,
                                            keys.__contains__)
        elems = [list(kernels.bits_of(a)) for a in members]
        holders = [0] * (members[-1].bit_length() if k else 0)
        for i, ps in enumerate(elems):
            for p in ps:
                holders[p] |= 1 << i
        up = self.up = [reduce(and_, map(holders.__getitem__, ps), (1 << k) - 1) for ps in elems]
        if not all(u >> (k - 1) & 1 for u in up):  # the last member is no top
            raise _not_a_closure_system("family has no least upper bound for", up, bool)
        self.covers = covers = []
        for i, u in enumerate(up):
            rest, above = u & ~(1 << i), 0
            while rest:
                low = rest & -rest
                above |= low
                rest &= ~up[low.bit_length() - 1]
            covers.append(above)

    def meet(self, i, j):
        return self.index[self.members[i] & self.members[j]]

    def join(self, i, j):
        u = self.up[i] & self.up[j]
        return (u & -u).bit_length() - 1

    def leq(self, i, j):
        return self.up[i] >> j & 1 == 1

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"FiniteLattice({self.size} members)"


def _not_a_closure_system(fault, keys, has):
    """The ``InvariantError`` naming ``fault`` and the first pair of
    ``keys``, i <= j in row order, whose intersection ``has`` rejects."""
    i, j = next((i, j) for i, a in enumerate(keys) for j in range(i, len(keys))
                if not has(a & keys[j]))
    return InvariantError(f"family is not a closure system: {fault} members {i} and {j}")


def _modular_by_covers(members):
    """``(modular, up)`` for the lattice of ``members``, a closure system
    of bitsets: ``is_modular`` on its ``FiniteLattice``, and that
    lattice's up-sets, for each member in sorted order."""
    lattice = FiniteLattice(members)
    return is_modular(lattice), lattice.up


def lattice_from_family(members):
    """Build the lattice of an intersection-closed family of bitsets."""
    return FiniteLattice(members)


def is_modular(lattice):
    """Whether the lattice satisfies the modular law, read off its covers.

    A finite lattice is modular exactly when it is both upper and lower
    semimodular (Birkhoff, *Lattice Theory*, ch. II): when a and b cover
    c, a v b covers a and b, and when c covers a and b, a and b cover
    a ^ b.  Both are conditions on pairs of covers of one member, so
    the decision reads the cover relation alone.  A join whose up-set is
    not ``up[a] & up[b]`` is an internal fault and raises
    ``InvariantError``.
    """
    members, index, up, ucov = lattice.members, lattice.index, lattice.up, lattice.covers
    above = [list(kernels.bits_of(covers)) for covers in ucov]
    below = [[] for _ in above]  # lower covers, in index order
    for i, covers in enumerate(above):
        for x in covers:
            below[x].append(i)
    for higher, lower in zip(above, below):
        for a, b in combinations(higher, 2):
            u = up[a] & up[b]
            h = (u & -u).bit_length() - 1
            if up[h] != u:
                raise InvariantError(f"family is not a closure system: family has no "
                                     f"least upper bound for members {a} and {b}")
            if not ucov[a] >> h & ucov[b] >> h & 1:
                return False
        for a, b in combinations(lower, 2):
            m = index[members[a] & members[b]]
            if not ucov[m] >> a & ucov[m] >> b & 1:
                return False
    return True


def modularity_witness(lattice):
    """First (x, y, z) with x <= z and x v (y ^ z) != (x v y) ^ z, or None.

    ``is_modular`` decides; only a lattice it rejects is searched, with
    z over the members above x in index order, one (x, y) row at a time.
    A rejected lattice with no such triple is an internal fault and
    raises ``InvariantError``.
    """
    if is_modular(lattice):
        return None
    members, meet, up = lattice.members, lattice.index.__getitem__, lattice.up
    for x, above in enumerate(up):
        zs = list(kernels.bits_of(above))
        tops = [members[z] for z in zs]
        join_x = [(u & -u).bit_length() - 1 for u in map(above.__and__, up)]
        for y, b in enumerate(members):
            if above >> y & 1 or up[y] >> x & 1:
                continue  # the law holds when y is comparable with x
            lhs = [*map(join_x.__getitem__, map(meet, map(b.__and__, tops)))]
            rhs = [*map(meet, map(members[join_x[y]].__and__, tops))]
            if lhs != rhs:
                return (x, y, zs[indexOf(map(eq, lhs, rhs), False)])
    raise InvariantError(f"{lattice!r} is not modular by its covers, yet no triple "
                         f"breaks the modular law")
